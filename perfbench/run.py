"""Benchmark of the cobble engine: one run of one workload.

    python3 perfbench/run.py --workload deep_reads --seed 1 --seconds 10 --trace 0

Run from the root of a source tree; the engine is imported from its `src/`.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`. The
lines before it give sample counts, p99 and max latencies and the engine's
layout. A traced run also writes its spans to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
HASH_SEED = "0"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("deep_reads", "hot_snapshots"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="sizes the fixed work: seconds x the workload's txn rate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(SRC, "cobble", "engine.py")):
        print(f"no engine source under {SRC}: run from a cobble source tree",
              file=sys.stderr)
        return 2
    # a fresh interpreter with a fixed hash seed: set and dict iteration
    # order over keys is the same in every run
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + argv, env)

    # one CPU for the whole run: the client and the engine share one thread,
    # and the scheduler then does not move it between CPUs mid-phase. (With
    # two client threads on two cores, the interpreter lock's hand-off across
    # cores made per-operation latency flip between 17 and 75 us.)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    sys.path.insert(0, SRC)
    import cobble
    if not os.path.abspath(cobble.__file__).startswith(SRC + os.sep):
        print(f"imported cobble from {cobble.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    workdir = os.path.join(OUT, f"data-{os.getpid()}")
    try:
        result = workloads.run(workloads.SPECS[args.workload], args.seed, args.seconds,
                               workdir, tracer=tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for note in result.notes:
        print(f"# {note}")
    if tracer:
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        print(f"# {tracer.dump(path)} spans written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
