"""Smoke tests of the benchmark itself, on tiny corpora (n <= 8).

Run from the root of a checkout:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_every_metric_prints(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--smoke", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] for line in lines[:-1])
    assert any(line.startswith("machine: ") for line in lines)


def _recorded_digests(bench: run.Bench) -> dict:
    return {
        name: {"stdout": run.sha(out.encode())}
        | ({"output": bench.first_output[name]} if name in bench.first_output else {})
        for name, out in bench.first_stdout.items()
    }


def _failed_share(bench: run.Bench) -> float:
    _, tally, notes = run.e2e_run(bench, 0.0, smoke=True)
    assert any(n.startswith("failed_share: ") for n in notes)
    return tally.failed / tally.attempted


def _smoke_bench(workload: str, digests: dict | None) -> run.Bench:
    bench = run.prepare(workload, corpus.DEFAULT_SEED, smoke=True)
    bench.digests = digests
    return bench


def test_digests_gate_every_output():
    first = _smoke_bench("wide-verify", None)
    assert _failed_share(first) == 0
    digests = _recorded_digests(first)
    assert _failed_share(_smoke_bench("wide-verify", digests)) == 0

    job = next(j for j in first.jobs if j.kind == "decompose")
    tampered = {k: dict(v) for k, v in digests.items()}
    tampered[job.name]["output"] = "0" * 64
    assert _failed_share(_smoke_bench("wide-verify", tampered)) > 0
    del tampered[job.name]
    assert _failed_share(_smoke_bench("wide-verify", tampered)) > 0


def test_wrong_exit_code_counts_as_failed():
    bench = _smoke_bench("greedy-middle", None)
    next(j for j in bench.jobs if j.kind == "verify" and not j.drop).exit_code = 3
    assert _failed_share(bench) > 0


def test_smallest_mismatch_matches_brute_force():
    family = [0b0111, 0b1011, 0b1101, 0b1110]
    for dropped in ([0b0111], [0b1011, 0b1110]):
        rest = [u for u in family if u not in dropped]
        brute = min(
            s for t in dropped for s in range(16)
            if s & ~t == 0 and all(s & ~u for u in rest)
        )
        assert corpus.smallest_mismatch(family, dropped) == brute


def test_refuses_to_run_without_the_program():
    bare = run.WORK / "bare"
    bench_dir = bare / "perfbench"
    bench_dir.mkdir(parents=True, exist_ok=True)
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for f in run.HERE.glob("*.py"):
        (bench_dir / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "big-family",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=bare,
    )
    assert proc.returncode != 0 and proc.stdout == ""
