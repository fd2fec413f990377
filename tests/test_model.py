"""Model-based engine test: seeded random API sequences against the oracle,
with reopens and crashes mid-stream.

Each seed draws a tiny EngineConfig and an isolation level, then runs a
random sequence over TransactionManager on the engine: begin (up to three
transactions open at once, some at the snapshot from before the last commit
finished, as a begin racing that commit would hold), read, assign, incr,
commit, abort, read_at at an old snapshot, compact (forced or not), a clean
reopen, a crash at a faults.FAULT_POINTS entry followed by a reopen (which
may itself crash once at a recovery step), and an I/O failure inside a
compaction pass, after which the run goes on with no reopen and every read
is checked at once. The model is the set of acknowledged commits: every
read must equal cobble.oracle's valuation of it, and under si every commit
must succeed or fail as first-committer-wins says. A reopen drops the open
transactions and keeps every acknowledged commit; a commit in flight when
the crash hit may land or not.

Outside pytest, run seeds with

    PYTHONPATH=src python tests/test_model.py FIRST COUNT
"""

import os
import random
import shutil
import sys
import tempfile
from collections import Counter

from cobble import faults
from cobble.engine import EngineConfig, open_engine
from cobble.faults import CrashProcess, FailFlush, FaultPlan, InjectedCrash, Noop
from cobble.oracle import Trace, valuation
from cobble.store import StaleSnapshotError, TransactionDescriptor
from cobble.transactions import TransactionCoordinator, TransactionManager

KEYS = ["a", "b", "c", "d", "é", "z\U00010000"]
I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1
MAX_OPEN = 3
STEPS = 1500
TIER1_SEEDS = range(20)
# the points inside a rotation where an I/O error fails the pass
PASS_POINTS = ("during-checkpoint-serialize", "after-wal-write-before-manifest")


def _wrap(x: int) -> int:
    return (x - I64_MIN) % (1 << 64) + I64_MIN


class Acked(Trace):
    """The acknowledged commits, in the form Trace.committed gives them,
    but keyed by ct (a reopened manager reuses txn ids): ct -> (st, ct,
    [(key, kind, amount)])."""

    def __init__(self):
        super().__init__()
        self.txns: dict[int, tuple[int, int, list]] = {}

    def committed(self):
        return self.txns

    def max_ct(self) -> int:
        return max((ct for _, ct, _ in self.txns.values()), default=-1)


def draw_config(rng: random.Random) -> EngineConfig:
    levels = rng.randint(2, 4)
    return EngineConfig(max_levels=levels, live_capacity=rng.randint(1, 3),
                        wmp_rotate_effects=rng.randint(1, 8),
                        level_capacities=tuple(rng.randint(1, 4) for _ in range(levels)))


class ModelRun:
    def __init__(self, seed: int, directory: str):
        self.rng = random.Random(seed)
        self.seed = seed
        self.dir = directory
        self.cfg = draw_config(self.rng)
        self.isolation = self.rng.choice(("tcc", "si"))
        self.acked = Acked()
        self.last_write: dict[str, int] = {}  # key -> ct of its last acked write
        self.last_ct: int | None = None  # of the last commit since the last reopen
        self.open: dict[str, tuple] = {}  # txn id -> (coordinator, its updates)
        self.counts: Counter = Counter()
        self.armed: str | None = None  # the fault point a crash or failure is armed at
        # failed passes the engine counted when a failure was armed, or None
        self.failing: int | None = None
        self.engine, floor = open_engine(directory, self.cfg)
        assert floor is None
        self.manager = TransactionManager(self.engine, isolation=self.isolation)

    def where(self, *detail) -> str:
        return f"seed {self.seed} ({self.cfg}, {self.isolation}): {detail}"

    # -- the model ---------------------------------------------------------------

    def _ack(self, st: int, ct: int, updates: list) -> None:
        self.acked.txns[ct] = (st, ct, updates)
        for key, _, _ in updates:
            self.last_write[key] = ct
        self.counts["commits"] += 1

    def _check_read_at(self, key: str, read_st: int) -> None:
        got = self.manager.read_at(key, read_st)
        assert got == valuation(self.acked, key, read_st), self.where("read_at", key, read_st)
        self.counts["reads"] += 1

    def _check_all(self) -> None:
        snap = self.manager.gen.peek_snapshot()
        for read_st in range(self.engine.horizon, snap + 1):
            for key in KEYS:
                self._check_read_at(key, read_st)

    # -- operations ----------------------------------------------------------------

    def begin(self) -> None:
        manager = self.manager
        snap = manager.gen.peek_snapshot()
        if self.last_ct == snap - 1 and self.rng.random() < 0.3:
            # the snapshot drawn just before the last commit finished, as a
            # begin racing that commit in another thread would hold (below
            # the horizon the engine refuses it, and the manager redraws)
            txn = TransactionDescriptor(f"lag{self.counts['lagging']}", st=snap - 1)
            try:
                self.engine.do_begin(txn)
            except StaleSnapshotError:
                return
            coord = TransactionCoordinator(manager, txn)
            self.counts["lagging"] += 1
        else:
            coord = manager.begin_txn()
        self.open[coord.txn_id] = (coord, [])

    def update(self, txn_id: str) -> None:
        coord, updates = self.open[txn_id]
        key = self.rng.choice(KEYS)
        rng = self.rng
        amount = rng.choice((I64_MIN, I64_MAX)) if rng.random() < 0.05 else rng.randint(-9, 9)
        if rng.random() < 0.4:
            coord.assign(key, amount)
            updates.append((key, "assign", amount))
        else:
            coord.incr(key, amount)
            updates.append((key, "incr", amount))

    def read(self, txn_id: str) -> None:
        coord, updates = self.open[txn_id]
        key = self.rng.choice(KEYS)
        want = valuation(self.acked, key, coord.st)
        for k, kind, amount in updates:
            if k == key:
                want = amount if kind == "assign" else _wrap(want + amount)
        assert coord.read(key) == want, self.where("read", txn_id, key, coord.st)
        self.counts["reads"] += 1

    def commit(self, txn_id: str) -> None:
        coord, updates = self.open.pop(txn_id)
        conflict = self.isolation == "si" and any(
            self.last_write.get(key, -1) >= coord.st for key, _, _ in updates)
        try:
            result = coord.commit()
        except InjectedCrash:
            ct = coord.txn.ct
            self.crashed(None if ct is None else (coord.st, ct, updates))
            return
        assert result.committed == (not conflict), self.where("commit", txn_id, result)
        if result.committed:
            self._ack(coord.st, result.ct, updates)
            self.last_ct = result.ct
        else:
            self.counts["conflicts"] += 1

    def abort(self, txn_id: str) -> None:
        coord, _ = self.open.pop(txn_id)
        try:
            coord.abort()  # the last unpin may run a pending rotation
        except InjectedCrash:
            self.crashed(None)

    def read_at(self) -> None:
        snap = self.manager.gen.peek_snapshot()
        if self.engine.horizon <= snap:
            self._check_read_at(self.rng.choice(KEYS), self.rng.randint(self.engine.horizon, snap))

    def compact(self) -> None:
        try:
            self.engine.compact(force=self.rng.random() < 0.5)
        except InjectedCrash:
            self.crashed(None)
        except OSError:
            assert self.failing is not None, self.where("compact raised")

    def arm_crash(self) -> None:
        point = self.rng.choice(faults.FAULT_POINTS)
        plan = FaultPlan()
        for _ in range(self.rng.randint(0, 3)):
            plan.arm(point, Noop())
        faults.install_plan(plan.arm(point, CrashProcess()))
        self.armed = point

    def arm_failed_pass(self) -> None:
        """Fail the next rotation or the one after with an I/O error; the
        pass changes nothing, and the commit that ran it still commits."""
        point = self.rng.choice(PASS_POINTS)
        plan = FaultPlan()
        if self.rng.random() < 0.5:
            plan.arm(point, Noop())
        faults.install_plan(plan.arm(point, FailFlush()))
        self.armed = point
        self.failing = self.engine.stats["failed_passes"]

    def _after_failed_pass(self) -> None:
        faults.clear_plan()
        self.armed = self.failing = None
        self.counts["failed_passes"] += 1
        self._check_all()

    # -- reopen --------------------------------------------------------------------

    def crashed(self, in_flight) -> None:
        self.counts["crashes"] += 1
        self.reopen(in_flight)

    def reopen(self, in_flight=None) -> None:
        """Close (a process death leaves nothing unwritten: every log is
        unbuffered), maybe crash once inside recovery, then recover."""
        faults.clear_plan()
        self.armed = self.failing = None
        self.counts.update({k: self.engine.stats[k] for k in (
            "rotations", "live_checkpoints", "level_merges")})
        self.engine.close()
        self.open.clear()
        self.last_ct = None
        if self.rng.random() < 0.3:
            step = self.rng.randrange(6)
            faults.install_plan(FaultPlan().arm(f"during-recovery-step-{step}", CrashProcess()))
            try:
                open_engine(self.dir, self.cfg)
            except InjectedCrash:
                self.counts["recovery_crashes"] += 1
            else:
                raise AssertionError(self.where("recovery step did not fire", step))
            faults.clear_plan()
        self.engine, floor = open_engine(self.dir, self.cfg)
        self.manager = TransactionManager(self.engine, isolation=self.isolation)
        self.manager.recover_floor(floor)
        self.counts["reopens"] += 1
        assert floor >= self.acked.max_ct(), self.where("floor", floor)
        if in_flight is not None and in_flight[1] <= floor:
            st, ct, updates = in_flight
            # it may have landed (a ct above the floor did not); the state
            # at the floor says which, and either is allowed
            self.acked.txns[ct] = in_flight
            landed = all(self.manager.read_at(key, floor + 1) == valuation(self.acked, key, floor + 1)
                         for key in KEYS)
            del self.acked.txns[ct]
            if landed:
                self._ack(st, ct, updates)
        layout = self.engine.layout()
        named = {name for name, _ in layout["live"]}
        named.update(path for row in layout["levels"] for path, _, _ in row)
        assert set(os.listdir(self.dir)) == named | {"MANIFEST"}, self.where("files")
        self._check_all()

    # -- the run ---------------------------------------------------------------------

    def run(self, steps: int = STEPS) -> Counter:
        rng = self.rng
        for _ in range(steps):
            ops = [(self.read_at, 0.15), (self.compact, 0.05), (self.reopen, 0.006)]
            if self.armed is None:
                ops += [(self.arm_crash, 0.01), (self.arm_failed_pass, 0.005)]
            # a begin waits out a pending rotation, which waits for the
            # transactions pinned to the accepting pair: here they belong to
            # the same thread, so a begin would wait forever
            if len(self.open) < MAX_OPEN and not self.engine._rotation_pending:
                ops.append((self.begin, 0.15))
            if self.open:
                txn_id = rng.choice(sorted(self.open))
                ops += [(lambda: self.update(txn_id), 0.3), (lambda: self.read(txn_id), 0.15),
                        (lambda: self.commit(txn_id), 0.12), (lambda: self.abort(txn_id), 0.03)]
            op, = rng.choices([op for op, _ in ops], [w for _, w in ops])
            op()
            if self.failing is not None and self.engine.stats["failed_passes"] > self.failing:
                self._after_failed_pass()
        self.reopen()
        self.engine.close()
        return self.counts


def run_seed(seed: int, directory: str) -> Counter:
    """One seed's run in a fresh engine directory under directory."""
    d = os.path.join(directory, f"model-{seed}")
    try:
        return ModelRun(seed, d).run()
    finally:
        faults.clear_plan()
        shutil.rmtree(d, ignore_errors=True)


def test_random_api_sequences_match_the_oracle(tmp_path):
    total = Counter()
    for seed in TIER1_SEEDS:
        counts = run_seed(seed, str(tmp_path))
        assert counts["commits"] > 20 and counts["reads"] > 100, (seed, counts)
        total += counts
    assert total["crashes"] >= len(TIER1_SEEDS) and total["recovery_crashes"] > 0, total
    assert total["conflicts"] and total["lagging"] and total["level_merges"], total
    assert total["failed_passes"] > 0, total


if __name__ == "__main__":
    first, count = (int(a) for a in sys.argv[1:3])
    with tempfile.TemporaryDirectory(prefix="cobble-model-") as work:
        for seed in range(first, first + count):
            print(f"seed {seed}: {dict(run_seed(seed, work))}", flush=True)
