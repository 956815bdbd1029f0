"""End-to-end and per-layer benchmark of the simplegames command line tool.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload greedy-middle --seed 1 --seconds 30 --trace 0

Each workload is a seeded corpus of game files (``corpus.py``) run through
``python -m simplegames.cli`` with ``PYTHONPATH=src``, as a closed loop with
one client: one child process at a time, the next started when the last
has exited.  Ten ``bounds N`` children probe start-up time, whole passes
over the corpus repeat while the next one still fits into ``--seconds``,
and more ``bounds N`` children (at least ten) fill the time left.  Every
child's exit code, stdout and output file is checked; each miss counts as
failed.

End-to-end metrics (``--trace 0``):

* ``decompose_s``, ``verify_s``, ``cover_s``: CPU time (user + sys, read
  per child with ``os.wait4``) of the children running that command, as
  the median over passes for each job, summed over the jobs of one pass.
  CPU time rather than wall time, because on a shared virtual machine the
  wall clock also counts time the hypervisor gives the CPU to others (the
  same 0.28 s loop read 0.28-0.57 s of wall time); wall-clock sums are
  printed beside them.
* ``cli_startup_s``: median CPU time of the ``bounds N`` children.
* ``parts``: total part count the decompose jobs of one pass write.
* ``peak_rss_mb``: the largest max-RSS of any child.
* ``setup_s``: median CPU time of the set-ups repeated in each run: writing
  the corpus with its expected outputs, plus one ``bounds 6`` child.

``failed_share`` (failed / attempted) is printed, and carried by the
``attempted`` and ``failed`` fields of the result.

``--trace 1`` instead runs the corpus in this process through
``simplegames.cli.main``, alternating untraced passes with passes traced
at the public functions of each module (see ``tracing.py``), and reports
per-layer self times and counters.  Its outputs are checked against those
of one pass of CLI children.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--smoke`` swaps in tiny corpora (n <= 8) for
the benchmark's own tests (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import corpus
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"

CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 5
STARTUP_PROBES = 20
IMPORT_PROBES = 5
BOUNDS_ROWS = range(6, 16)

# Layers whose self time a workload exists to exercise; a traced run in
# which they hold less than half of the traced time is flagged.
EXPECTED_PROFILE = {
    "greedy-middle": ("codes.greedy_cover",),
    "big-family": ("core.validate_game", "decompose.cluster_partition"),
    "wide-verify": ("verify.",),
}

DECOMPOSE_LINES = re.compile(r"parts: (\d+)\nbound: (\d+) \(.+\)\n")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha(path: Path) -> str | None:
    try:
        return sha(path.read_bytes())
    except OSError:
        return None


def fingerprint() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


# ------------------------------------------------------------------ checking


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, job: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{job}: {p}" for p in problems)


@dataclass
class Bench:
    """A workload's corpus, its jobs and what has been learned about them."""

    workload: corpus.Workload
    seed: int
    workdir: Path
    games: dict
    jobs: list
    digests: dict | None
    setup_times: list[float]
    first_stdout: dict = field(default_factory=dict)
    first_output: dict = field(default_factory=dict)
    parts: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)


def check(bench: Bench, job: corpus.Job, code: int, stdout: str) -> list[str]:
    """Everything wrong with one run of a job (empty when it is right)."""
    problems = []
    if code != job.exit_code:
        problems.append(f"exit {code}, expected {job.exit_code}")
    if job.drop and job.stdout is None:
        problems.append("no dropped copy: its decomposition failed")
    elif job.stdout is not None and stdout != job.stdout:
        problems.append(f"stdout {stdout!r}, expected {job.stdout!r}")
    if bench.first_stdout.setdefault(job.name, stdout) != stdout:
        problems.append("stdout differs from the first pass")
    # Recorded digests apply at the default seed, and at every seed to jobs
    # whose outputs do not depend on it; smoke corpora have none.
    recorded = {}
    if bench.digests is not None and (bench.seed == corpus.DEFAULT_SEED or job.seed_free):
        recorded = bench.digests.get(job.name)
        if recorded is None:
            return problems + ["no recorded digest for this job"]
    if "stdout" in recorded and sha(stdout.encode()) != recorded["stdout"]:
        problems.append("stdout differs from the recorded digest")
    if job.kind == "bounds" and not stdout.startswith(f"n={job.argv[1]}  "):
        problems.append(f"unexpected bounds row {stdout!r}")
    if job.output is None:
        return problems
    digest = file_sha(job.output)
    if digest is None:
        return problems + ["no output file"]
    if "output" in recorded and digest != recorded["output"]:
        problems.append("output file differs from the recorded digest")
    if bench.first_output.setdefault(job.name, digest) != digest:
        problems.append("output file differs from the first pass")
    elif job.kind == "decompose" and job.name not in bench.parts and code == 0:
        problems += _first_decomposition(bench, job, stdout, job.output.read_text())
    return problems


def _first_decomposition(bench: Bench, job: corpus.Job, stdout: str, text: str) -> list[str]:
    match = DECOMPOSE_LINES.fullmatch(stdout)
    if match is None:
        return [f"stdout {stdout!r} is not a parts/bound report"]
    parts, bound = int(match[1]), int(match[2])
    dec = json.loads(text)
    game = bench.games[job.game]
    method = job.argv[job.argv.index("--method") + 1]
    if (dec["n"], dec["method"], dec["part_count"], len(dec["parts"])) != (
        game.n, method, parts, parts,
    ):
        return ["decomposition file disagrees with the reported part count"]
    if parts > bound:
        return [f"{parts} parts exceed the bound {bound}"]
    bench.parts[job.name] = parts
    bench.bounds[job.name] = bound
    for other in bench.jobs:
        if other.drop and other.game == job.game and other.method == job.method:
            corpus.write_dropped_copy(other, bench.games, text, bench.seed)
    return []


# ------------------------------------------------------------------ children


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


class Child(NamedTuple):
    code: int
    stdout: str
    wall: float
    cpu: float
    rss_mib: float


def run_child(cmd: list[str], workdir: Path) -> Child:
    """Run one child to completion and read its resource use with wait4."""
    out_path, err_path = workdir / "child.stdout", workdir / "child.stderr"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        out_path.read_text(),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
    )


def cli(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "simplegames.cli", *argv]


# --------------------------------------------------------------------- setup


def prepare(workload: str, seed: int, smoke: bool) -> Bench:
    """Set up SETUP_REPEATS times, timing each, and keep the last corpus.

    One set-up writes the corpus with its expected outputs and starts the
    program once (``bounds 6``), which also fills the caches a first run
    pays for.
    """
    w = corpus.WORKLOADS[workload]
    base = WORK / (f"smoke-{workload}" if smoke else workload)
    shutil.rmtree(base, ignore_errors=True)
    times = []
    for i in range(SETUP_REPEATS):
        start = time.process_time()
        games, jobs = corpus.build_corpus(w, seed, base / str(i), smoke)
        build = time.process_time() - start
        warm = run_child(cli(["bounds", "6"]), base / str(i))
        if warm.code != 0:
            raise RuntimeError(f"the program does not start: exit {warm.code}")
        times.append(build + warm.cpu)
    digests = None if smoke else json.loads(DIGESTS.read_text()).get(workload, {})
    return Bench(w, seed, base / str(SETUP_REPEATS - 1), games, jobs, digests, times)


def bounds_job(i: int) -> corpus.Job:
    n = BOUNDS_ROWS[i % len(BOUNDS_ROWS)]
    return corpus.Job(f"bounds-{n}", "bounds", ["bounds", str(n)], seed_free=True)


# ------------------------------------------------------------ untraced run


def e2e_run(bench: Bench, seconds: float, smoke: bool) -> tuple[dict, Tally, list[str]]:
    tally = Tally()
    runs: dict[str, list[Child]] = {}
    start = time.perf_counter()

    def run_job(job: corpus.Job) -> None:
        child = run_child(cli(job.argv), bench.workdir)
        tally.record(job.name, check(bench, job, child.code, child.stdout))
        runs.setdefault(job.name, []).append(child)

    # Half the start-up probes come first; the rest, and as many more as fit,
    # fill the time after the last whole pass.
    probes = 3 if smoke else STARTUP_PROBES
    startup: list[Child] = []

    def probe() -> None:
        job = bounds_job(len(startup))
        run_job(job)
        startup.append(runs[job.name][-1])

    while len(startup) < probes // 2:
        probe()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for job in bench.jobs:
            run_job(job)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    while len(startup) < probes or (
        time.perf_counter() - start + statistics.median(c.wall for c in startup) < seconds
    ):
        probe()

    def total(kind: str, clock: str) -> float:
        return sum(
            statistics.median(getattr(c, clock) for c in runs[j.name])
            for j in bench.jobs
            if j.kind == kind
        )

    def count(kind: str) -> int:
        return sum(1 for j in bench.jobs if j.kind == kind)

    runs_done = [c for cs in runs.values() for c in cs]
    metrics = {
        "setup_s": (statistics.median(bench.setup_times), "s"),
        "decompose_s": (total("decompose", "cpu"), "s"),
        "verify_s": (total("verify", "cpu"), "s"),
        "cover_s": (total("cover", "cpu"), "s"),
        "cli_startup_s": (statistics.median(c.cpu for c in startup), "s"),
        "parts": (sum(bench.parts.values()), "count"),
        "peak_rss_mb": (max(c.rss_mib for c in runs_done), "MiB"),
    }
    notes = [
        f"setup_s: median CPU time of {len(bench.setup_times)} set-ups (corpus + one child)",
        f"decompose_s, verify_s, cover_s: children's CPU time (user+sys), per-job median "
        f"over {passes} passes, summed over {count('decompose')}, {count('verify')} and "
        f"{count('cover')} jobs; wall-clock equivalents {total('decompose', 'wall'):.4f}, "
        f"{total('verify', 'wall'):.4f} and {total('cover', 'wall'):.4f} s",
        f"cli_startup_s: median CPU time of {len(startup)} 'bounds N' children "
        f"(wall median {statistics.median(c.wall for c in startup):.4f} s)",
        f"parts: total parts written by {count('decompose')} decompose jobs",
        f"peak_rss_mb: largest max-RSS of {len(runs_done)} children",
        f"failed_share: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}",
    ] + [
        f"{j.name}: CPU s " + " ".join(f"{c.cpu:.3f}" for c in runs[j.name])
        for j in bench.jobs
    ]
    return metrics, tally, notes


# -------------------------------------------------------------- traced run


def run_in_process(argv: list[str]) -> tuple[int, str]:
    """Run the CLI's main in this process; exit codes as a child would give."""
    from simplegames import cli as program

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = program.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error ends a child with exit 1
            code = 1
    return code, buf.getvalue()


def import_time(workdir: Path) -> float:
    probe = "import time; t = time.process_time(); import simplegames.cli; print(time.process_time() - t)"
    child = run_child([sys.executable, "-c", probe], workdir)
    if child.code != 0:
        raise RuntimeError("the simplegames package does not import")
    return float(child.stdout)


def trace_run(bench: Bench, seconds: float, smoke: bool) -> tuple[dict, Tally, list[str]]:
    tally = Tally()
    start = time.perf_counter()
    imports = [import_time(bench.workdir) for _ in range(2 if smoke else IMPORT_PROBES)]
    reference: dict[str, tuple[int, str, str | None]] = {}
    for job in bench.jobs:
        child = run_child(cli(job.argv), bench.workdir)
        tally.record(job.name, check(bench, job, child.code, child.stdout))
        reference[job.name] = (child.code, child.stdout, bench.first_output.get(job.name))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("simplegames.cli")  # keep the import out of the first pass

    def in_process_pass(tracer: tracing.Tracer | None, label: str) -> float:
        pass_start = time.process_time()
        for job in bench.jobs:
            if tracer is not None:
                tracer.job = f"{label}:{job.name}"
            code, out = run_in_process(job.argv)
            problems = []
            if (code, out) != reference[job.name][:2]:
                problems.append(f"in-process exit {code} / stdout {out!r} differ from the CLI's")
            if job.output is not None and file_sha(job.output) != reference[job.name][2]:
                problems.append("in-process output file differs from the CLI's")
            tally.record(f"{label}:{job.name}", problems)
        return time.process_time() - pass_start

    plain, traced, tracers = [], [], []
    while True:
        pass_start = time.perf_counter()
        plain.append(in_process_pass(None, f"plain{len(plain)}"))
        tracer = tracing.Tracer()
        with tracer:
            traced.append(in_process_pass(tracer, f"traced{len(traced)}"))
        tracers.append(tracer)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break

    with (bench.workdir / "spans.jsonl").open("w") as f:
        for tracer in tracers:
            tracer.write(f)

    selfs = [t.self_times() for t in tracers]
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.TIMED:
        metrics[f"{name}_s"] = (statistics.median(s.get(name, 0.0) for s in selfs), "s")
    metrics["verify.mismatch_s"] = (statistics.median(t.mismatch_time() for t in tracers), "s")
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    first = tracers[0]
    for name in tracing.COUNTS:
        metrics[name] = (first.counts[name], "count")
    metrics["codes.targets_per_center"] = (
        first.greedy_targets / first.greedy_centers if first.greedy_centers else 0.0,
        "ratio",
    )
    bound_total = sum(bench.bounds.values())
    metrics["decompose.parts_per_bound"] = (
        sum(bench.parts.values()) / bound_total if bound_total else 0.0,
        "ratio",
    )
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")

    total = sum(sum(s.values()) for s in selfs) / len(selfs)
    prefixes = EXPECTED_PROFILE[bench.workload.name]
    expected = sum(
        v for s in selfs for k, v in s.items() if k.startswith(prefixes)
    ) / len(selfs)
    share = expected / total if total else 0.0
    top = sorted(selfs[0].items(), key=lambda kv: -kv[1])[:5]
    notes = [
        f"per-layer self times: thread CPU time, median over {len(tracers)} traced passes "
        f"({sum(len(t.spans) for t in tracers)} spans in spans.jsonl)",
        f"trace.overhead_s: median CPU time of a traced pass {statistics.median(traced):.4f} s "
        f"- of an untraced pass {statistics.median(plain):.4f} s ({len(plain)} each)",
        f"cli.import_s: median CPU time of {len(imports)} child imports",
        "counters come from the first traced pass; verify.part_cells is computed "
        "(parts x 2^n per verify call), not measured",
        "largest self times: " + ", ".join(f"{k} {v:.3f} s" for k, v in top),
        f"profile {'ok' if share >= 0.5 else 'FLAGGED'}: "
        f"{' + '.join(p + '*' if p.endswith('.') else p for p in prefixes)} "
        f"hold {share:.1%} of the traced self time (expected at least 50%)",
    ]
    return metrics, tally, notes


# ---------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora (n <= 8)")
    args = parser.parse_args(argv)

    if not (SRC / "simplegames" / "cli.py").is_file():
        print(f"error: no simplegames sources under {SRC}", file=sys.stderr)
        return 2
    # The program does no BLAS work, but numpy's OpenBLAS starts a thread
    # pool on import that adds 0.05-0.1 s of CPU time, varying from process
    # to process; one client on a 2-CPU machine needs no pool.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    bench = prepare(args.workload, args.seed, args.smoke)
    run = trace_run if args.trace else e2e_run
    metrics, tally, notes = run(bench, args.seconds, args.smoke)

    machine = fingerprint()
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {bench.workload.why}")
    for line in notes:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (bench.workdir.parent / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"machine": machine, "notes": notes, "problems": tally.problems, **result}, indent=2)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
