"""README's examples, run as written, so the text cannot drift from the code."""

import ast
import re
from pathlib import Path

from simplegames.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_library_example_prints_an_equivalent_report(capsys):
    block = re.search(r"## Library example\n\n```python\n(.*?)```", README, re.S)
    exec(block.group(1), {})
    parts, report = capsys.readouterr().out.splitlines()
    assert len(ast.literal_eval(parts)) == 2  # "two threshold games"
    assert report == (
        "VerificationReport(equivalent=True, first_mismatch=None, coalitions_checked=16)"
    )


def test_session_bounds_line_matches_the_command(capsys):
    shown = re.search(r"^\$ simplegames bounds 12\n(.*)$", README, re.M).group(1)
    assert main(["bounds", "12"]) == EXIT_OK
    assert capsys.readouterr().out == shown + "\n"
