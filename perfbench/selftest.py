"""Small-scale self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload to its end on a 3k-key keyspace, and checks that:
- no operation fails and every end-to-end metric of BENCHMARK.json is
  reported with a positive value;
- a traced run reports every per-layer metric of BENCHMARK.json;
- a wrong expected value, planted in the check after reopening, is
  reported as exactly one failed operation.
Exits 0 when all pass.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7
SECONDS = 1


def small(spec: workloads.Spec) -> workloads.Spec:
    return dataclasses.replace(spec, keys=min(spec.keys, 3000))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workdir = os.path.join(HERE, "out", f"selftest-{os.getpid()}")
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    try:
        for name, spec in workloads.SPECS.items():
            for traced in (False, True):
                tracer = spans.Tracer() if traced else None
                res = workloads.run(small(spec), SEED, SECONDS,
                                    os.path.join(workdir, f"{name}-{int(traced)}"), tracer=tracer)
                label = f"{name} ({'traced' if traced else 'untraced'})"
                expect(res.correct and res.failed == 0 and res.attempted > 0,
                       f"{label}: {res.attempted} operations, {res.failed} failed "
                       + "; ".join(res.notes[:res.failed]))
                want = per_layer if traced else end_to_end
                got = {k: u for k, (_, u) in res.metrics.items()}
                expect(got == want, f"{label}: reports exactly the metrics of BENCHMARK.json "
                       f"with their units (missing {sorted(set(want) - set(got))}, "
                       f"extra {sorted(set(got) - set(want))})")
                if not traced:
                    zero = [k for k, (v, _) in res.metrics.items() if not v > 0]
                    expect(not zero, f"{label}: every end-to-end metric positive {zero}")

        spec = small(workloads.SPECS["hot_snapshots"])
        planted = workloads.recovery_keys(spec, SEED)[0]
        latest = workloads.History.latest
        workloads.History.latest = lambda hist, key: latest(hist, key) + (key == planted)
        try:
            res = workloads.run(spec, SEED, SECONDS, os.path.join(workdir, "planted"))
        finally:
            workloads.History.latest = latest
        expect(res.failed == 1 and not res.correct,
               f"planted wrong value: {res.failed} failed operation(s), correct={res.correct}: "
               + "; ".join(res.notes[:res.failed]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
