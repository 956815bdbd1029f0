"""Spans around the calls into each module's public functions, from outside.

The tracer swaps the chosen functions for timing wrappers in every
``simplegames`` module that refers to them, so a call made inside the
program (``load_game`` -> ``validate_game``) is caught as a child span just
like a call made by the benchmark.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import json
from time import thread_time
from typing import TextIO

MODULES = ("cli", "core", "codes", "decompose", "verify")

# Public functions that get a span.  Helpers called once per coalition or
# per part (``hamming_distance``, ``weighted_game_table``, ...) are left out:
# they run thousands to millions of times inside the hot loops, a wrapper
# there would swamp what it measures, and their time stays in the caller.
TRACED = {
    "cli": (
        "main", "cmd_decompose", "cmd_cover", "cmd_bounds", "cmd_verify",
        "load_game", "load_code", "load_decomposition",
        "save_code", "save_decomposition",
    ),
    "core": ("validate_game",),
    "codes": ("greedy_cover", "full_cover"),
    "decompose": (
        "taylor_zwicker", "decompose_covering", "decompose_pairing",
        "cluster_partition", "cluster_to_weighted", "pair_partition",
    ),
    "verify": ("verify_decomposition", "simple_game_table"),
}

# Self time reported per layer, as "<module>.<function>_s".
TIMED = (
    "codes.greedy_cover", "codes.full_cover",
    "core.validate_game",
    "decompose.cluster_partition", "decompose.cluster_to_weighted",
    "decompose.pair_partition", "decompose.taylor_zwicker",
    "verify.simple_game_table", "verify.verify_decomposition",
    "cli.load_game", "cli.load_code", "cli.load_decomposition",
    "cli.save_code", "cli.save_decomposition",
)

COUNTS = (
    "codes.candidates", "codes.centers", "core.family_size",
    "decompose.parts", "decompose.clusters.below", "decompose.clusters.exact",
    "decompose.clusters.above", "decompose.pairs.d2", "decompose.pairs.d3",
    "decompose.singletons", "verify.coalitions_checked", "verify.part_cells",
    "verify.mismatches",
)

DECOMPOSITIONS = ("taylor_zwicker", "decompose_covering", "decompose_pairing")
CLUSTER_SHAPES = {"BELOW_CENTER": "below", "EXACTLY_CENTER": "exact", "ABOVE_CENTER": "above"}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, job].

    Start and end are read from the thread's CPU clock: on a shared virtual
    machine the wall clock also counts the time the hypervisor gives the
    CPU to someone else, which would land in whichever span was open.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.greedy_targets = 0
        self.greedy_centers = 0
        self.mismatch_spans: list[int] = []
        self.job = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        mods = [importlib.import_module("simplegames")] + [
            importlib.import_module(f"simplegames.{m}") for m in MODULES
        ]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"simplegames.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in mods:
                    if getattr(mod, fname, None) is original:
                        self._saved.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = thread_time()
                self._stack.pop()
            self._count(name, index, args, result)
            return result

        return traced

    def _count(self, name: str, index: int, args: tuple, result) -> None:
        c = self.counts
        if name == "codes.greedy_cover":
            n, targets = args[0], {t.mask for t in args[1]}
            c["codes.candidates"] += len(
                {t ^ (1 << i) for t in targets for i in range(n)} | targets
            )
            c["codes.centers"] += len(result)
            self.greedy_targets += len(targets)
            self.greedy_centers += len(result)
        elif name == "codes.full_cover":
            c["codes.centers"] += len(result)
        elif name == "core.validate_game":
            c["core.family_size"] += len(result.maximal_losing)
        elif name.split(".")[1] in DECOMPOSITIONS:
            c["decompose.parts"] += len(result.parts)
        elif name == "decompose.cluster_partition":
            for cl in result:
                c["decompose.clusters." + CLUSTER_SHAPES[cl.case_tag.name]] += 1
        elif name == "decompose.pair_partition":
            # Counted per call: the CLI's pairing path computes the plan twice.
            for x, y in result.pairs:
                c[f"decompose.pairs.d{(x.mask ^ y.mask).bit_count()}"] += 1
            c["decompose.singletons"] += len(result.singletons)
        elif name == "verify.verify_decomposition":
            dec = args[1]
            c["verify.coalitions_checked"] += result.coalitions_checked
            c["verify.part_cells"] += len(dec.parts) << dec.n
            if not result.equivalent:
                c["verify.mismatches"] += 1
                self.mismatch_spans.append(index)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def mismatch_time(self) -> float:
        """Whole duration of the verify calls that ended in a mismatch."""
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.mismatch_spans)

    def write(self, f: TextIO) -> None:
        for span in self.spans:
            f.write(json.dumps(span) + "\n")
