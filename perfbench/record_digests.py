"""Record the digests of every output at the default seed into digests.json.

Run from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record_digests.py

Each job runs once as a CLI child and must pass every check that does not
need a digest; the SHA-256 of its stdout and of the file it writes are then
stored under the workload and job name.
"""

from __future__ import annotations

import json
import sys

import corpus
import run


def record(workload: str) -> dict:
    bench = run.prepare(workload, corpus.DEFAULT_SEED, smoke=False)
    bench.digests = None
    table = {}
    for job in [run.bounds_job(i) for i in range(len(run.BOUNDS_ROWS))] + bench.jobs:
        child = run.run_child(run.cli(job.argv), bench.workdir)
        problems = run.check(bench, job, child.code, child.stdout)
        if problems:
            raise SystemExit(f"{workload} {job.name}: {problems}")
        entry = {"stdout": run.sha(child.stdout.encode())}
        if job.output is not None:
            entry["output"] = run.sha(job.output.read_bytes())
        table[job.name] = entry
    return table


def main() -> int:
    digests = {name: record(name) for name in corpus.WORKLOADS}
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
