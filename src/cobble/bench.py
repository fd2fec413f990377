"""Embedded benchmark driver: concurrent clients over one store, latency
quantiles and throughput out, CSV report format pinned for downstream
tooling.
"""

from __future__ import annotations

import csv
import math
import os
import threading
import time
from dataclasses import dataclass, field

from .engine import EngineConfig, LevelledStore
from .memory import JournalStore, MapStore
from .persistent import PersistentJournal
from .store import Store, WindowError
from .transactions import TransactionManager
from .workload import (
    WorkloadSpec,
    ZipfianGenerator,
    next_txn_ops,
    thread_rng,
    workload_spec,
)

STORE_NAMES = ("map", "journal", "pjournal", "cobble")
CSV_COLUMNS = ("workload", "store", "threads", "isolation", "ops", "aborts",
               "p50_us", "p95_us", "p99_us", "throughput_ops_s")
MAX_COMMIT_RETRIES = 16
_OLD_READ_RETRIES = 3


def make_store(name: str, data_dir: str | None = None,
               config: EngineConfig | None = None) -> Store:
    if name == "map":
        return MapStore()
    if name == "journal":
        return JournalStore()
    if name == "pjournal":
        if data_dir is None:
            raise ValueError("pjournal needs --dir")
        os.makedirs(data_dir, exist_ok=True)
        return PersistentJournal(os.path.join(data_dir, "journal.log"))
    if name == "cobble":
        if data_dir is None:
            raise ValueError("cobble needs --dir")
        return LevelledStore.create(data_dir, config)
    raise ValueError(f"unknown store {name!r}")


def percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[rank - 1]


@dataclass
class BenchReport:
    workload: str
    store: str
    threads: int
    isolation: str
    duration_s: float
    ops: int
    aborts: int
    latencies_us: dict[str, list[float]] = field(default_factory=dict)
    probes: dict | None = None
    # commit() of each committed attempt, apart from the per-op latencies
    # that the pooled quantiles and the CSV row cover
    commit_us: list[float] = field(default_factory=list)

    def __post_init__(self):
        for vals in self.latencies_us.values():
            vals.sort()
        self.commit_us.sort()
        self._all = sorted(
            v for vals in self.latencies_us.values() for v in vals)

    def p(self, q: float) -> float:
        return percentile(self._all, q)

    def kind_p(self, kind: str, q: float) -> float:
        return percentile(self.latencies_us.get(kind, []), q)

    @property
    def throughput_ops_s(self) -> float:
        return self.ops / self.duration_s if self.duration_s > 0 else 0.0

    def csv_row(self) -> list:
        return [self.workload, self.store, self.threads, self.isolation,
                self.ops, self.aborts,
                f"{self.p(0.50):.1f}", f"{self.p(0.95):.1f}",
                f"{self.p(0.99):.1f}", f"{self.throughput_ops_s:.1f}"]

    def table(self) -> str:
        lines = [
            f"workload={self.workload} store={self.store} "
            f"threads={self.threads} isolation={self.isolation}",
            f"  ops={self.ops} aborts={self.aborts} "
            f"throughput={self.throughput_ops_s:.1f} ops/s",
            f"  latency us: p50={self.p(0.50):.1f} "
            f"p95={self.p(0.95):.1f} p99={self.p(0.99):.1f}",
        ]
        rows = sorted(self.latencies_us.items())
        if self.commit_us:
            rows.append(("commit", self.commit_us))
        for kind, vals in rows:
            lines.append(
                f"  {kind:9s} n={len(vals)} p50={percentile(vals, 0.50):.1f} "
                f"p95={percentile(vals, 0.95):.1f} p99={percentile(vals, 0.99):.1f}")
        if self.probes is not None:
            probe_txt = " ".join(
                f"L{lvl}={n}" if lvl >= 0 else f"live={n}"
                for lvl, n in sorted(self.probes.items()))
            lines.append(f"  probes: {probe_txt}")
        return "\n".join(lines)


def write_csv(reports: list[BenchReport], path: str) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_COLUMNS)
        for r in reports:
            w.writerow(r.csv_row())


def _old_read(manager: TransactionManager, rng, key: str) -> int | None:
    """Read at a snapshot strictly before the latest commit, at or above the
    compaction horizon; the horizon can move mid-draw, so retry a few times."""
    store = manager.store
    for _ in range(_OLD_READ_RETRIES):
        lo = max(getattr(store, "horizon", 0), 0)
        hi = manager.last_commit_ts - 1
        if hi < lo:
            return None
        read_st = rng.randint(lo, hi)
        try:
            return manager.read_at(key, read_st)
        except WindowError:
            continue
    return None


def _worker(manager: TransactionManager, spec: WorkloadSpec,
            zipf: ZipfianGenerator, seed: int, thread: int,
            deadline: float, results: list) -> None:
    rng = thread_rng(seed, thread)
    latencies: dict[str, list[float]] = {}
    commit_us: list[float] = []
    ops_done = 0
    aborts = 0
    while time.perf_counter() < deadline:
        ops = next_txn_ops(spec, rng, zipf)
        for _ in range(MAX_COMMIT_RETRIES):
            coord = manager.begin_txn()
            attempt: list[tuple[str, float]] = []
            for op in ops:
                kind = op[0]
                t0 = time.perf_counter_ns()
                if kind == "lookup":
                    coord.read(op[1])
                elif kind == "assign":
                    coord.assign(op[1], op[2])
                elif kind == "incr":
                    coord.incr(op[1], op[2])
                else:
                    got = _old_read(manager, rng, op[1])
                    if got is None:
                        coord.read(op[1])  # nothing old enough yet
                attempt.append((kind, (time.perf_counter_ns() - t0) / 1000.0))
            t0 = time.perf_counter_ns()
            committed = coord.commit().committed
            if committed:
                commit_us.append((time.perf_counter_ns() - t0) / 1000.0)
                for kind, us in attempt:
                    latencies.setdefault(kind, []).append(us)
                ops_done += len(attempt)
                break
            aborts += 1
    results.append((latencies, commit_us, ops_done, aborts))


def run_bench(manager: TransactionManager, spec: WorkloadSpec,
              store_name: str, threads: int = 4, seconds: float = 10.0,
              seed: int = 0) -> BenchReport:
    zipf = ZipfianGenerator(spec.key_space, spec.zipf_theta)
    results: list = []
    start = time.perf_counter()
    deadline = start + seconds
    workers = [
        threading.Thread(target=_worker, name=f"bench-{i}",
                         args=(manager, spec, zipf, seed, i, deadline, results))
        for i in range(threads)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    elapsed = time.perf_counter() - start
    merged: dict[str, list[float]] = {}
    commit_us: list[float] = []
    ops = 0
    aborts = 0
    for latencies, commits, o, a in results:
        ops += o
        aborts += a
        commit_us += commits
        for kind, vals in latencies.items():
            merged.setdefault(kind, []).extend(vals)
    probes = None
    if isinstance(manager.store, LevelledStore):
        probes = dict(manager.store.probes)
    return BenchReport(spec.name, store_name, threads, manager.isolation,
                       elapsed, ops, aborts, merged, probes, commit_us)


def run_store_bench(store_name: str, workload_name: str, threads: int,
                    seconds: float, seed: int, isolation: str,
                    data_dir: str | None = None, key_space: int = 1000,
                    config: EngineConfig | None = None) -> BenchReport:
    store = make_store(store_name, data_dir, config)
    manager = TransactionManager(store, isolation=isolation)
    spec = workload_spec(workload_name, key_space)
    try:
        return run_bench(manager, spec, store_name, threads, seconds, seed)
    finally:
        close = getattr(store, "close", None)
        if close is not None:
            close()
