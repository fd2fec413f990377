"""The engine benchmark's workloads, inputs and checks.

Every run drives `LevelledStore` under `TransactionManager` (isolation
`tcc`, default `EngineConfig`) through the public API only, from one
client. A run repeats the same work `spec.repeats` times, each time on a
fresh engine in a fresh directory:

1. set-up: create the engine, preload the keyspace in key order, then a
   warm-up of bulk writes in which the engine rotates and checkpoints
   several times;
2. the measured phase: a fixed number of transactions, made from the seed
   before the run starts, issued closed-loop;
3. close, and time `open_engine` on fresh copies of the closed directory.

Every repeat does the same work from the same inputs, and each timing
metric is the median over the repeats. The machine this was built on
switches for seconds to tens of seconds at a time between speeds up to
1.8x apart; a median of five or six spread over the run moves only when
most of the run is at the other speed, while the best of three moved with
a single fast repeat (update p50 spread by 0.64 over five runs). The last
repeat's directory is then reopened in a child process, which checks the
recovery floor and a seeded sample of keys and reports its peak memory.

Inputs come from `random.Random` seeded with the run's seed; nothing is
taken from `cobble.workload` or `cobble.bench`, so a change to the program
cannot change its inputs. Every answer is checked against `History`, the
benchmark's own record of what was committed; a wrong answer or an error
raised by the engine counts as a failed operation.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from cobble import EngineConfig, StoreError, TransactionManager, open_engine
from spans import layer_metrics

KEY_FORMAT = "user{:06d}"
PRELOAD_BATCH = 500      # assignments per preload transaction
WARMUP_BATCH = 256       # writes per warm-up transaction
WARMUP_ROTATIONS = 6     # warm-up writes = this many rotations' worth of effects
OLD_READS_PER_TXN = 2    # read_at calls after each committed hot_snapshots transaction
DEEP_OLD_READS_PER_TXN = 4  # and after each deep_reads one
RECOVERY_SAMPLE = 256    # keys checked after reopening
_I64 = 1 << 64


@dataclass(frozen=True)
class Spec:
    name: str
    keys: int             # preloaded keyspace
    txn_rate: int         # phase transactions per second of --seconds: sizes the fixed work
    repeats: int          # set-up, phase and reopens, each run
    reopens: int          # timed `open_engine` calls after each repeat
    zipf_theta: float | None = None   # None: uniform key choice


SPECS = {
    # 8 current reads + 1 assignment, then 4 old-snapshot reads; most reads
    # descend below L0. A set-up takes 3-4 s, so the run's time goes to
    # longer phases rather than more repeats.
    "deep_reads": Spec("deep_reads", keys=100_000, txn_rate=4, repeats=5, reopens=2),
    # zipfian reads, old-snapshot reads, assignments and increments in the live
    # pairs; a phase of 17,400 txns at --seconds 10 ends between the 8th and 9th
    # rotation on every seed tried, so write_amp and space_amp do not move with
    # the seed. A set-up takes 0.4 s, so the run's time goes to more repeats.
    "hot_snapshots": Spec("hot_snapshots", keys=1000, txn_rate=1740, repeats=6, reopens=3,
                          zipf_theta=0.99),
}


def fsync_as_on_tmpfs(fd: int) -> None:
    """Stands in for `os.fsync` during a run: checks the descriptor and
    returns, as fsync does on a RAM-backed filesystem. The engine still calls
    fsync (the traced run counts the calls); the shared disk's flush latency,
    which spread identical runs by more than 20%, is not measured."""
    os.fstat(fd)


def wrap_i64(x: int) -> int:
    return ((x + (1 << 63)) % _I64) - (1 << 63)


def key_name(i: int) -> str:
    return KEY_FORMAT.format(i)


class Zipfian:
    """YCSB's zipfian ranks over [0, n), rank 0 hottest (Gray et al., 1994).

    Ranks are scattered over the keyspace by a seeded permutation, so hot
    keys do not sit next to each other in key order.
    """

    def __init__(self, n: int, theta: float, rng: random.Random):
        self.n = n
        self.zetan = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        self.zeta2 = 1.0 + 0.5 ** theta
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - self.zeta2 / self.zetan)
        self.perm = list(range(n))
        rng.shuffle(self.perm)

    def __call__(self, rng: random.Random) -> int:
        uz = rng.random() * self.zetan
        if uz < 1.0:
            rank = 0
        elif uz < self.zeta2:
            rank = 1
        else:
            rank = min(self.n - 1,
                       int(self.n * (self.eta * uz / self.zetan - self.eta + 1.0) ** self.alpha))
        return self.perm[rank]


def key_chooser(spec: Spec, seed: int):
    if spec.zipf_theta is None:
        n = spec.keys
        return lambda rng: rng.randrange(n)
    return Zipfian(spec.keys, spec.zipf_theta, random.Random(f"{seed}/zipf"))


class History:
    """Committed values per key as ascending (ct, value), kept apart from
    the engine: the value at snapshot rs is that of the highest ct < rs."""

    def __init__(self):
        self.cts: dict[str, list[int]] = {}
        self.vals: dict[str, list[int]] = {}
        self.max_ct = -1

    def add(self, key: str, ct: int, value: int) -> None:
        cts = self.cts.setdefault(key, [])
        vals = self.vals.setdefault(key, [])
        if cts and ct <= cts[-1]:
            raise ValueError(f"history of {key!r} out of order at ct {ct}")
        cts.append(ct)
        vals.append(value)
        if ct > self.max_ct:
            self.max_ct = ct

    def at(self, key: str, rs: int) -> int:
        cts = self.cts.get(key)
        if not cts:
            return 0
        i = bisect.bisect_left(cts, rs)
        return self.vals[key][i - 1] if i else 0

    def latest(self, key: str) -> int:
        vals = self.vals.get(key)
        return vals[-1] if vals else 0


@dataclass
class Tally:
    """Operations attempted and failed, and latencies in ns, of one client."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    lat: dict[str, list[int]] = field(default_factory=lambda: {
        "read": [], "old_read": [], "update": [], "commit": []})

    def check(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.fail(f"{what}: got {got!r}, want {want!r}")

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.wrong) < 10:
            self.wrong.append(why)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong.extend(other.wrong[:10 - len(self.wrong)])
        for k, v in other.lat.items():
            self.lat[k].extend(v)


# -- set-up ----------------------------------------------------------------------

def setup_inputs(spec: Spec, seed: int) -> list[list[tuple[str, bool, int]]]:
    """Set-up transactions as lists of (key, is_assignment, value): the
    preload assigns every key in key order, the warm-up then writes
    `WARMUP_ROTATIONS` rotations' worth of distinct keys per transaction
    with the workload's key choice, half assignments, half increments."""
    rng = random.Random(f"{seed}/preload")
    txns = [[(key_name(i), True, rng.getrandbits(40))
             for i in range(lo, min(spec.keys, lo + PRELOAD_BATCH))]
            for lo in range(0, spec.keys, PRELOAD_BATCH)]
    rng = random.Random(f"{seed}/warmup")
    choose = key_chooser(spec, seed)
    for _ in range(WARMUP_ROTATIONS * EngineConfig().wmp_rotate_effects // WARMUP_BATCH):
        writes = {}
        while len(writes) < WARMUP_BATCH:
            key = key_name(choose(rng))
            writes[key] = ((True, rng.getrandbits(40)) if rng.random() < 0.5
                           else (False, rng.randrange(-1000, 1000)))
        txns.append([(k, a, v) for k, (a, v) in writes.items()])
    return txns


def setup(directory: str, txns, tally: Tally) -> tuple:
    """Create the engine and commit the set-up transactions. Returns
    (engine, manager, the ct of each transaction)."""
    engine, floor = open_engine(directory, EngineConfig())
    if floor is not None:
        raise RuntimeError(f"{directory} is not fresh")
    mgr = TransactionManager(engine, isolation="tcc")
    cts = []
    for writes in txns:
        txn = mgr.begin_txn()
        for key, is_assign, v in writes:
            if is_assign:
                txn.assign(key, v)
            else:
                txn.incr(key, v)
        res = txn.commit()
        tally.attempted += 1
        if not res.committed:
            tally.fail(f"set-up commit refused: {res.reason}")
        cts.append(res.ct)
    return engine, mgr, cts


def setup_history(txns, cts) -> History:
    hist = History()
    value: dict[str, int] = {}
    for writes, ct in zip(txns, cts):
        if ct is None:
            continue
        for key, is_assign, v in writes:
            value[key] = v if is_assign else wrap_i64(value.get(key, 0) + v)
            hist.add(key, ct, value[key])
    return hist


# -- measured phase --------------------------------------------------------------

def spread_keys(rng: random.Random, keys: int, count: int) -> list[str]:
    """`count` distinct keys evenly spaced over [0, keys) from a seeded
    offset, in seeded order: each is uniform over the keyspace, and together
    they cover it alike in every run. A lookup's cost depends on where its
    key falls among the checkpoints, so read p50 over a few hundred
    independent draws moves with the draw."""
    offset = rng.randrange(keys)
    out = [key_name((offset + i * keys // count) % keys) for i in range(count)]
    rng.shuffle(out)
    return out


def spread_fractions(rng: random.Random, count: int) -> list[float]:
    """`count` fractions of [0, 1) evenly spaced from a seeded offset, in
    seeded order: where an old-snapshot read falls in [horizon, last ct]
    sets how many pairs and checkpoints it walks past, and 72 independent
    draws per phase spread `deep_reads` old-read p50 by 0.19-0.24 across
    seeds."""
    offset = rng.random()
    out = [(offset + i) / count for i in range(count)]
    rng.shuffle(out)
    return out


def deep_reads_inputs(spec: Spec, seed: int, n: int) -> tuple[list, int]:
    rng = random.Random(f"{seed}/deep_reads")
    reads = spread_keys(rng, spec.keys, 8 * n)
    k = DEEP_OLD_READS_PER_TXN
    old = list(zip(spread_keys(rng, spec.keys, k * n), spread_fractions(rng, k * n)))
    inputs = [(reads[8 * i:8 * i + 8], key_name(rng.randrange(spec.keys)), rng.getrandbits(40),
               old[k * i:k * (i + 1)])
              for i in range(n)]
    return inputs, sum(len(wkey) + 8 for _, wkey, _, _ in inputs)


def run_deep_reads(mgr, hist, tally: Tally, inputs) -> int:
    clock = time.perf_counter_ns
    lat_r, lat_u, lat_c = tally.lat["read"], tally.lat["update"], tally.lat["commit"]
    committed = 0
    for reads, wkey, wval, old in inputs:
        txn = None
        try:
            txn = mgr.begin_txn()
            tally.attempted += 1
            for key in reads:
                t0 = clock()
                got = txn.read(key)
                lat_r.append(clock() - t0)
                tally.check(f"read {key}@{txn.st}", got, hist.at(key, txn.st))
            t0 = clock()
            txn.assign(wkey, wval)
            lat_u.append(clock() - t0)
            t0 = clock()
            res = txn.commit()
            lat_c.append(clock() - t0)
            tally.attempted += 2
        except StoreError as exc:
            _failed_txn(txn, tally, f"deep_reads txn raised {exc!r}")
            continue
        if not res.committed:
            tally.fail(f"deep_reads commit refused: {res.reason}")
            continue
        hist.add(wkey, res.ct, wval)
        committed += 1
        for key, u in old:
            _old_read(mgr, hist, key, u, tally, tally.lat["old_read"])
    return committed


_HOT_MIX = (("read", 0.5), ("assign", 0.25), ("incr", 0.25))
HOT_OPS_PER_TXN = 4


def hot_snapshots_inputs(spec: Spec, seed: int, n: int) -> tuple[list, int]:
    rng = random.Random(f"{seed}/hot_snapshots")
    choose = key_chooser(spec, seed)
    kinds = [k for k, _ in _HOT_MIX]
    weights = [w for _, w in _HOT_MIX]
    inputs = []
    for _ in range(n):
        ops = []
        for kind in rng.choices(kinds, weights, k=HOT_OPS_PER_TXN):
            key = key_name(choose(rng))
            arg = (rng.randrange(1_000_000) if kind == "assign"
                   else rng.randrange(-50, 51) if kind == "incr" else None)
            ops.append((kind, key, arg))
        old = [(key_name(choose(rng)), rng.random()) for _ in range(OLD_READS_PER_TXN)]
        inputs.append((ops, old))
    user_bytes = sum(len(key) + 8 for ops, _ in inputs for kind, key, _ in ops if kind != "read")
    return inputs, user_bytes


def run_hot_snapshots(mgr, hist, tally: Tally, inputs) -> int:
    clock = time.perf_counter_ns
    lat = tally.lat
    committed = 0
    for ops, old in inputs:
        local: dict[str, tuple[bool, int]] = {}  # key -> (assigned, value or delta)
        txn = None
        try:
            txn = mgr.begin_txn()
            tally.attempted += 1
            for kind, key, arg in ops:
                if kind == "read":
                    t0 = clock()
                    got = txn.read(key)
                    lat["read"].append(clock() - t0)
                    assigned, x = local.get(key, (False, 0))
                    want = x if assigned else wrap_i64(hist.at(key, txn.st) + x)
                    tally.check(f"read {key}@{txn.st}", got, want)
                    continue
                t0 = clock()
                if kind == "assign":
                    txn.assign(key, arg)
                else:
                    txn.incr(key, arg)
                lat["update"].append(clock() - t0)
                tally.attempted += 1
                if kind == "assign":
                    local[key] = (True, arg)
                else:
                    assigned, x = local.get(key, (False, 0))
                    local[key] = (assigned, wrap_i64(x + arg))
            t0 = clock()
            res = txn.commit()
            lat["commit"].append(clock() - t0)
            tally.attempted += 1
        except StoreError as exc:
            _failed_txn(txn, tally, f"hot_snapshots txn raised {exc!r}")
            continue
        if not res.committed:
            tally.fail(f"hot_snapshots commit refused: {res.reason}")
            continue
        committed += 1
        for key, (assigned, x) in local.items():
            hist.add(key, res.ct, x if assigned else wrap_i64(hist.at(key, res.ct) + x))
        for key, u in old:
            _old_read(mgr, hist, key, u, tally, lat["old_read"])
    return committed


def _failed_txn(txn, tally: Tally, why: str) -> None:
    """Count an operation that raised, and abort its transaction: one left
    open would hold back every later BEGIN once a rotation is pending."""
    tally.attempted += 1
    tally.fail(why)
    if txn is not None:
        try:
            txn.abort()
        except StoreError:
            pass  # already terminated


def _old_read(mgr, hist, key, u, tally, lat) -> None:
    """read_at a snapshot between the engine's compaction horizon and its
    last commit; the expected value comes from the history alone."""
    lo = mgr.store.horizon
    hi = max(lo, mgr.last_commit_ts)
    rs = lo + int(u * (hi - lo + 1))
    t0 = time.perf_counter_ns()
    try:
        got = mgr.read_at(key, rs)
    except StoreError as exc:
        tally.attempted += 1
        tally.fail(f"read_at {key}@{rs} raised {exc!r}")
        return
    lat.append(time.perf_counter_ns() - t0)
    tally.check(f"read_at {key}@{rs}", got, hist.at(key, rs))


WORKLOADS = {  # name -> (inputs of the phase, its runner)
    "deep_reads": (deep_reads_inputs, run_deep_reads),
    "hot_snapshots": (hot_snapshots_inputs, run_hot_snapshots),
}


# -- recovery ---------------------------------------------------------------------

def recovery_keys(spec, seed) -> list[str]:
    rng = random.Random(f"{seed}/recovery")
    return [key_name(i) for i in rng.sample(range(spec.keys), min(spec.keys, RECOVERY_SAMPLE))]


def reopen_in_child(directory: str, keys: list[str]) -> dict:
    """open_engine on `directory` in a fresh interpreter (reopen.py), which
    reads `keys` at the latest snapshot and reports the recovery floor, the
    values and its own peak RSS: the memory of the recovered engine, without
    this process's inputs and history."""
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reopen.py")
    proc = subprocess.run([sys.executable, child, directory], input=json.dumps(keys),
                          capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout)


def check_recovery(reply: dict, keys: list[str], want: list[int], max_ct: int,
                   tally: Tally) -> None:
    floor = reply["floor"]
    tally.check("recovery floor >= highest acknowledged ct",
                floor is not None and floor >= max_ct, True)
    for key, got, w in zip(keys, reply["values"], want):
        tally.check(f"recovered read {key}@{reply['snapshot']}", got, w)


def timed_reopen(directory: str) -> float:
    t0 = time.perf_counter()
    engine, _ = open_engine(directory, EngineConfig())
    elapsed = time.perf_counter() - t0
    engine.close()
    return elapsed


@contextmanager
def gc_quiet():
    """Collect, then keep every object that exists now out of the collector's
    passes during a timed section: the benchmark's inputs and its history of
    every key are not the engine's to traverse. Before this, GC passes over
    them took 0.15 s of a 0.9 s reopen."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


# -- one run ---------------------------------------------------------------------

def dir_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, f)) for f in os.listdir(directory))


def proc_io() -> dict[str, int]:
    with open("/proc/self/io") as f:
        return {k: int(v) for k, v in (line.split(":") for line in f)}


def percentile(sorted_vals: list, q: float):
    """Nearest-rank percentile of an ascending, non-empty list."""
    return sorted_vals[max(1, math.ceil(q * len(sorted_vals))) - 1]


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]


def run(spec: Spec, seed: int, seconds: int, workdir: str, tracer=None) -> Result:
    """One run of a workload in `workdir`: `spec.repeats` repeats of set-up,
    measured phase and timed reopens, then recovery and its checks.

    Each phase does `seconds * spec.txn_rate` transactions whatever the
    speed, so the data the engine ends with depends only on the
    seed. With `tracer` (a `spans.Tracer`) this is the traced run: the
    layers are wrapped during the phases and the reopens, and the per-layer
    metrics are returned instead of the end-to-end ones.
    """
    os.makedirs(workdir)
    real_fsync, os.fsync = os.fsync, fsync_as_on_tmpfs
    try:
        return _run(spec, seed, seconds, workdir, tracer)
    finally:
        os.fsync = real_fsync


def _run(spec, seed, seconds, workdir, tracer) -> Result:
    tally = Tally()       # set-up commits and recovery checks
    make_inputs, run_phase = WORKLOADS[spec.name]
    txns = setup_inputs(spec, seed)
    phase, user_bytes = make_inputs(spec, seed, seconds * spec.txn_rate)
    repeats = []          # per repeat, a Tally of its phase
    setup_times, rates, committed, phase_marks = [], [], [], []
    reopen_times, reopen_marks = [], []
    stats, probes = Counter(), Counter()
    written = {"wchar": 0, "syscw": 0}
    for r in range(spec.repeats):
        directory = os.path.join(workdir, f"repeat-{r}")
        with gc_quiet():
            t0 = time.perf_counter()
            engine, mgr, cts = setup(directory, txns, tally)
            setup_times.append(time.perf_counter() - t0)
        stats0, probes0 = dict(engine.stats), dict(engine.probes)
        if r == 0:
            first_cts = cts
            tally.check(f"warm-up rotates and checkpoints {stats0}",
                        stats0["rotations"] >= 3 and stats0["live_checkpoints"] >= 1, True)
        else:
            tally.check("set-up commits at the same cts", cts == first_cts, True)
        hist = setup_history(txns, cts)
        this = Tally()
        with gc_quiet():
            if tracer:
                tracer.install()
                m0 = tracer.mark()
            io0 = proc_io()
            t0 = time.perf_counter()
            try:
                committed.append(run_phase(mgr, hist, this, phase))
            finally:
                phase_s = time.perf_counter() - t0
                io1 = proc_io()
                if tracer:
                    phase_marks.append((m0, tracer.mark()))
                    tracer.remove()
        rates.append(committed[-1] / phase_s)
        for k in written:
            written[k] += io1[k] - io0[k]
        stats.update({k: v - stats0[k] for k, v in engine.stats.items()})
        probes.update({k: v - probes0.get(k, 0) for k, v in engine.probes.items()})
        repeats.append(this)
        levels = engine.layout()["levels"]
        engine.close()
        del engine, mgr
        # recovery is timed after every repeat, on fresh copies of the closed
        # directory, so that its samples spread over the run like the others
        for i in range(spec.reopens):
            copy = os.path.join(workdir, f"reopen-{i}")
            shutil.copytree(directory, copy)
            with gc_quiet():
                if tracer:
                    tracer.install()
                    m0 = tracer.mark()
                try:
                    reopen_times.append(timed_reopen(copy))
                finally:
                    if tracer:
                        reopen_marks.append((m0, tracer.mark()))
                        tracer.remove()
            shutil.rmtree(copy)
        if r < spec.repeats - 1:
            shutil.rmtree(directory)
            del hist

    # the checked reopen is of the last repeat's directory itself, in a
    # child process that has none of this process's inputs and history
    closed_bytes = dir_bytes(directory)
    manifest_bytes = os.path.getsize(os.path.join(directory, "MANIFEST"))
    live_user_bytes = sum(len(k) + 8 for k in hist.cts)
    keys = recovery_keys(spec, seed)
    reply = reopen_in_child(directory, keys)
    check_recovery(reply, keys, [hist.latest(k) for k in keys], hist.max_ct, tally)

    total = Tally()
    for t in [tally] + repeats:
        total.merge(t)
    notes = list(total.wrong)
    for kind in total.lat:
        per = [sorted(t.lat[kind]) for t in repeats]
        notes.append(f"{kind}: n={len(per[0])} per repeat; "
                     + "; ".join(f"p{round(q * 100)} " + " ".join(
                         f"{percentile(v, q) / 1e3:.1f}" for v in per) + " us"
                         for q in (.5, .9, .99))
                     + f"; max {max(v[-1] for v in per) / 1e3:.1f} us")
    notes.append(f"phases: {committed} txns at {[round(x, 1) for x in rates]} txn/s; "
                 f"set-ups {[round(s, 3) for s in setup_times]} s; reopens "
                 f"{[round(s, 3) for s in reopen_times]} s")
    notes.append("engine during the phases: " + ", ".join(f"{k}={v}" for k, v in stats.items())
                 + f"; checkpoints per level at the last one's end {[len(r) for r in levels]}")

    if tracer:
        metrics = layer_metrics(
            tracer, phase_marks, reopen_marks, committed=sum(committed),
            rate=statistics.median(rates),
            probes=probes, stats=stats, levels=levels, written=written,
            manifest_bytes=manifest_bytes)
    else:
        def latency(kind, q):
            return statistics.median(percentile(sorted(t.lat[kind]), q) for t in repeats) / 1e3

        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "txn_per_s": (statistics.median(rates), "1/s"),
            "read_p50_us": (latency("read", .5), "us"),
            "read_p90_us": (latency("read", .9), "us"),
            "old_read_p50_us": (latency("old_read", .5), "us"),
            "update_p50_us": (latency("update", .5), "us"),
            "commit_p50_us": (latency("commit", .5), "us"),
            "commit_p90_us": (latency("commit", .9), "us"),
            "recover_s": (statistics.median(reopen_times), "s"),
            "write_amp": (written["wchar"] / (spec.repeats * user_bytes), "B/B"),
            "space_amp": (closed_bytes / live_user_bytes, "B/B"),
            "peak_rss_mb": (reply["maxrss_kb"] / 1024, "MB"),
        }
    return Result(correct=total.failed == 0, attempted=total.attempted,
                  failed=total.failed, metrics=metrics, notes=notes)
