"""Run one workload several times and print, for each end-to-end metric,
the median, the quartiles and their spread against the metric's bound.

    python3 perfbench/steadiness.py --workload deep_reads --runs 5

Seeds run from 1 upwards, one fresh process each, with the
command and run length of BENCHMARK.json; each run's full output is kept in
perfbench/out/steadiness-<workload>-seed<n>.txt. The spread is the distance
between the first and third quartile (`statistics.quantiles(n=4)`) as a
share of the median; a metric is steady here when that spread is below a
third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]

    os.makedirs(OUT, exist_ok=True)
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(1, args.runs + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, sep="\n", file=sys.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        with open(os.path.join(OUT, f"steadiness-{args.workload}-seed{seed}.txt"), "w") as f:
            f.write(proc.stdout)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"], result["attempted"]))
        print(f"seed {seed}: {wall:.1f} s wall, correct={result['correct']}, "
              f"failed {result['failed']} of {result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{args.workload}: {args.runs} runs, seeds 1..{args.runs}, {seconds} s")
    print(f"{'metric':<18}{'median':>11}{'q1':>11}{'q3':>11}{'spread':>8}{'bound':>7}  verdict")
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        verdict = ("steady" if spread < m["bound"] / 3
                   else "within bound" if spread <= m["bound"] else "OVER BOUND")
        print(f"{m['name']:<18}{med:>11.4g}{q1:>11.4g}{q3:>11.4g}{spread:>8.3f}"
              f"{m['bound']:>7.2f}  {verdict}")
    print("failed/attempted per run:", ", ".join(f"{f}/{a}" for f, a in sorted(shares)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
