"""Levelled engine: lookup path, rotation, compaction, MANIFEST, recovery."""

import os
import random
import re
import shutil
import sys
import threading

import pytest

import cobble.composition
import cobble.engine
import cobble.memory
import cobble.transactions
from cobble import codec, faults
from cobble.composition import Checkpoint
from cobble.effects import Effect, apply
from cobble.engine import (
    EngineConfig,
    LevelledStore,
    ManifestAction,
    ManifestEntry,
    open_engine,
    recover_engine,
    replay_manifest,
)
from cobble.faults import CrashProcess, FailFlush, FaultPlan, InjectedCrash
from cobble.oracle import Step, Trace, generate_trace, replay, valuation_effect
from cobble.persistent import CommitLog, ManifestLog, _FrameFile
from cobble.store import (
    IntegrityError,
    StaleSnapshotError,
    StoreError,
    TransactionDescriptor,
    TransactionError,
    Window,
    WindowError,
)
from cobble.transactions import TransactionManager


def small_config(**kw) -> EngineConfig:
    base = dict(max_levels=3, live_capacity=2, wmp_rotate_effects=1 << 30,
                level_capacities=(2, 3, 1 << 30))
    base.update(kw)
    return EngineConfig(**base)


def run_txn(engine, txn_id, st, ct, updates):
    txn = TransactionDescriptor(txn_id, st=st)
    engine.do_begin(txn)
    for key, eff in updates:
        txn.effect_buffer[key] = eff
        engine.do_update(txn, key, eff)
    txn.ct = ct
    engine.do_commit(txn)


def effect_at(store, key, read_st):
    eff = store.lookup(key, read_st)
    return None if eff is None else (eff.base, eff.delta)


def check_against_oracle(engine, trace, floor=None):
    floor = engine.horizon if floor is None else floor
    for rs in range(floor, trace.max_ct() + 2):
        for key in trace.keys():
            assert effect_at(engine, key, rs) == valuation_effect(trace, key, rs), (
                key, rs)


class TestConfig:
    def test_default_level_capacities(self):
        cfg = EngineConfig()
        assert [cfg.capacity(k) for k in range(4)] == [4, 40, 400, 4000]

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(max_levels=1)
        with pytest.raises(ValueError):
            EngineConfig(live_capacity=0)
        with pytest.raises(ValueError):
            EngineConfig(wmp_rotate_effects=0)


class TestCreateOpen:
    def test_create_then_refuse_second_create(self, tmp_path):
        d = str(tmp_path / "db")
        engine = LevelledStore.create(d, small_config())
        assert os.path.exists(os.path.join(d, "MANIFEST"))
        assert engine.layout()["live"] == [("wal-0.log", (0, None))]
        engine.close()
        with pytest.raises(StoreError):
            LevelledStore.create(d, small_config())

    def test_open_engine_fresh_and_existing(self, tmp_path):
        d = str(tmp_path / "db")
        engine, floor = open_engine(d, small_config())
        assert floor is None
        run_txn(engine, "a", 0, 0, [("k", Effect.assign(1))])
        engine.close()
        engine2, floor2 = open_engine(d, small_config())
        assert floor2 is not None and floor2 >= 0
        assert effect_at(engine2, "k", floor2 + 1) == (1, 0)
        engine2.close()

    def test_recover_without_manifest_errors(self, tmp_path):
        with pytest.raises(StoreError):
            recover_engine(str(tmp_path), small_config())


class TestLookupPath:
    def test_missing_key_is_absent(self, tmp_path):
        engine = LevelledStore.create(str(tmp_path / "db"), small_config())
        assert engine.lookup("nope", 5) is None
        engine.close()

    def test_assignment_in_live_is_a_single_probe(self, tmp_path):
        engine = LevelledStore.create(str(tmp_path / "db"), small_config())
        run_txn(engine, "a", 0, 0, [("k", Effect.assign(7))])
        engine.reset_probes()
        assert effect_at(engine, "k", 1) == (7, 0)
        assert engine.probes[-1] == 1
        assert all(engine.probes[lvl] == 0 for lvl in range(engine.config.max_levels))
        engine.close()

    def test_lower_level_assign_folds_with_live_increment(self, tmp_path):
        engine = LevelledStore.create(str(tmp_path / "db"),
                                      small_config(max_levels=2,
                                                   level_capacities=(2, 1 << 30)))
        run_txn(engine, "a", 0, 0, [("k", Effect.assign(2))])
        engine.compact(force=True)
        # the assignment now lives at the bottom level
        layout = engine.layout()
        assert layout["levels"][0] == []
        assert len(layout["levels"][1]) == 1
        run_txn(engine, "b", 1, 1, [("k", Effect.incr(1))])
        engine.reset_probes()
        assert effect_at(engine, "k", 2) == (2, 1)
        assert engine.probes[-1] >= 1 and engine.probes[1] == 1
        engine.close()

    def test_lookup_straddling_a_checkpoint_counts_the_pair_once(self, tmp_path):
        # the rotated pair stays live (live_capacity 4) until compact runs
        engine = LevelledStore.create(
            str(tmp_path / "db"), small_config(live_capacity=4, wmp_rotate_effects=3))
        manager = TransactionManager(engine, isolation="tcc")
        for _ in range(3):
            coord = manager.begin_txn()
            coord.incr("k", 1)
            assert coord.commit().committed
        assert len(engine.layout()["live"]) == 2  # sealed pair + accepting pair
        read_st = manager.last_commit_ts + 1
        lookup_code = LevelledStore.lookup.__code__
        fired = []

        def in_lookup(frame, event, arg):
            # checkpoint the sealed pair as soon as the lookup holds the live
            # pairs, before it walks them
            if event == "line" and not fired and "live" in frame.f_locals:
                fired.append(frame.f_lineno)
                engine.compact(force=True)
            return in_lookup

        def on_call(frame, event, arg):
            return in_lookup if frame.f_code is lookup_code else None

        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            value = manager.read_at("k", read_st)
        finally:
            sys.settrace(previous)
        assert fired
        assert len(engine.layout()["live"]) == 1  # the pair was checkpointed
        assert value == 3
        assert manager.read_at("k", read_st) == 3
        engine.close()

    def test_read_below_horizon_rejected(self, tmp_path):
        engine = LevelledStore.create(str(tmp_path / "db"), small_config())
        run_txn(engine, "a", 0, 0, [("k", Effect.assign(2))])
        engine.compact(force=True)
        assert engine.horizon > 0
        before = engine.stats["old_read_rejections"]
        with pytest.raises(WindowError):
            engine.lookup("k", engine.horizon - 1)
        assert engine.stats["old_read_rejections"] == before + 1
        # at the horizon itself the checkpoint answers
        assert effect_at(engine, "k", engine.horizon) == (2, 0)
        engine.close()

    def test_stale_snapshot_begin_rejected(self, tmp_path):
        engine = LevelledStore.create(str(tmp_path / "db"), small_config())
        run_txn(engine, "a", 0, 5, [("k", Effect.assign(2))])
        engine.compact(force=True)  # live window now starts at 6
        assert engine.layout()["live"][0][1][0] == 6
        with pytest.raises(StaleSnapshotError):
            engine.do_begin(TransactionDescriptor("late", st=3))
        # st = lo - 1 is the earliest begin the new window accepts
        ok = TransactionDescriptor("edge", st=5)
        engine.do_begin(ok)
        engine.do_abort(ok)
        engine.close()


    def test_key_checked_once_per_lookup(self, tmp_path, monkeypatch):
        d = str(tmp_path / "db")
        trace = build_engine_dir(d, compact_every=12)
        engine, _ = recover_engine(d, small_config())
        run_txn(engine, "late", engine.last_committed_ct, engine.last_committed_ct + 1,
                [(k, Effect.incr(1)) for k in trace.keys()])
        calls = []
        real = cobble.engine.check_key

        def counting(key):
            calls.append(key)
            real(key)

        for module in (cobble.engine, cobble.memory, cobble.composition):
            monkeypatch.setattr(module, "check_key", counting)
        engine.reset_probes()
        keys = sorted(trace.keys())
        for key in keys:
            engine.lookup(key, engine.last_committed_ct + 1)
        assert calls == keys
        assert engine.probe_total() > len(keys)  # inner stores were probed
        with pytest.raises(StoreError):
            engine.lookup("", engine.last_committed_ct + 1)
        engine.close()

    def test_key_checked_once_per_manager_op(self, tmp_path, monkeypatch):
        """One check_key call per update, read_at and first read of a key
        in a transaction made through TransactionManager over the engine,
        with reads that reach the live pairs, L0 and L1; a read the
        transaction has already pinned reaches no store and checks
        nothing."""
        engine = LevelledStore.create(
            str(tmp_path / "db"), small_config(wmp_rotate_effects=3))
        manager = TransactionManager(engine)
        calls = []
        real = cobble.engine.check_key

        def counting(key):
            calls.append(key)
            real(key)

        for module in (cobble.transactions, cobble.engine, cobble.memory,
                       cobble.composition):
            monkeypatch.setattr(module, "check_key", counting)
        want = []
        rng = random.Random(26)
        for i in range(40):
            coord = manager.begin_txn()
            read = set()
            for _ in range(4):
                key = f"k{rng.randrange(12)}"
                if rng.random() < 0.5:
                    coord.read(key)
                    if key in read:
                        continue
                    read.add(key)
                elif rng.random() < 0.5:
                    coord.incr(key, 1)
                else:
                    coord.assign(key, i)
                want.append(key)
            assert coord.commit().committed
            key = f"k{rng.randrange(12)}"
            manager.read_at(key, max(engine.horizon, manager.last_commit_ts - 2))
            want.append(key)
        assert calls == want
        assert engine.stats["level_merges"] and engine.layout()["levels"][1]
        for op in (lambda c: c.read(""), lambda c: c.incr("", 1),
                   lambda c: c.assign("a\x00b", 1)):
            coord = manager.begin_txn()
            with pytest.raises(StoreError):
                op(coord)
            coord.abort()
        with pytest.raises(StoreError):
            manager.read_at("", manager.last_commit_ts + 1)
        engine.close()


class TestPins:
    """The engine's pin is a transaction's only lifecycle below the
    coordinator."""

    def test_duplicate_begin_is_refused_and_keeps_the_first_pin(self, tmp_path):
        engine = LevelledStore.create(
            str(tmp_path / "db"), small_config(live_capacity=8, wmp_rotate_effects=2))
        run_txn(engine, "t0", 0, 0, [("k", Effect.incr(1))])
        run_txn(engine, "t1", 0, 1, [("k", Effect.incr(1))])  # seals [0, 2)
        first = TransactionDescriptor("a", st=1)
        engine.do_begin(first)
        with pytest.raises(TransactionError, match="duplicate begin"):
            engine.do_begin(TransactionDescriptor("a", st=1))
        # the first txn's snapshot still holds the pair it may read back
        engine.compact(force=True)
        assert engine.stats["live_checkpoints"] == 0
        assert engine.layout()["live"][0][1] == (0, 2)
        first.effect_buffer["k"] = Effect.incr(1)
        first.ct = 2
        engine.do_commit(first)
        engine.compact(force=True)  # [0, 2) and the pair first committed in
        assert engine.stats["live_checkpoints"] == 2
        assert effect_at(engine, "k", 3) == (None, 3)
        engine.close()

    def test_commit_of_an_unpinned_txn_writes_no_frame(self, tmp_path):
        engine = LevelledStore.create(str(tmp_path / "db"), small_config())
        done = TransactionDescriptor("a", st=0)
        engine.do_begin(done)
        done.effect_buffer["k"] = Effect.assign(1)
        done.ct = 0
        engine.do_commit(done)
        aborted = TransactionDescriptor("b", st=1)
        engine.do_begin(aborted)
        engine.do_abort(aborted)
        aborted.effect_buffer["k"] = Effect.assign(2)
        aborted.ct = 1
        never = TransactionDescriptor("c", st=1, ct=2, effect_buffer={"k": Effect.assign(3)})
        wal = engine._layout[0][-1].wal
        size = os.path.getsize(wal.path)
        for txn in (done, aborted, never):
            with pytest.raises(TransactionError, match="not active"):
                engine.do_commit(txn)
            assert os.path.getsize(wal.path) == size
        done.ct = 3  # a double commit at a fresh ct is refused all the same
        with pytest.raises(TransactionError):
            engine.do_commit(done)
        assert os.path.getsize(wal.path) == size
        for txn in (done, never):
            with pytest.raises(TransactionError):
                engine.do_abort(txn)
        assert engine._layout[0][-1].committed_effects == 1
        assert effect_at(engine, "k", 5) == (1, 0)
        engine.close()

    def test_begin_after_a_failed_rotation_is_refused(self, tmp_path):
        engine = LevelledStore.create(str(tmp_path / "db"), small_config(wmp_rotate_effects=1))
        faults.install_plan(FaultPlan().arm("after-wal-write-before-manifest", FailFlush()))
        with pytest.raises(OSError):  # the commit is durable; its rotation fails
            run_txn(engine, "a", 0, 0, [("k", Effect.assign(1))])
        assert engine.layout()["live"] == [("wal-0.log", (0, 1))]
        with pytest.raises(StoreError, match="sealed"):
            engine.do_begin(TransactionDescriptor("b", st=1))
        assert engine._pins == {}
        assert effect_at(engine, "k", 1) == (1, 0)
        engine.close()

    def test_a_failed_rotation_releases_the_commits_lease(self, tmp_path):
        d = str(tmp_path / "db")
        cfg = small_config(wmp_rotate_effects=1)
        manager = TransactionManager(LevelledStore.create(d, cfg))
        coord = manager.begin_txn()
        coord.assign("k", 1)
        assert coord.commit().ct == 0
        faults.install_plan(FaultPlan().arm("after-wal-write-before-manifest", FailFlush()))
        coord = manager.begin_txn()
        coord.incr("k", 2)
        with pytest.raises(OSError):  # ct 1 is durable; the rotation after it fails
            coord.commit()
        assert manager.gen.peek_snapshot() == 2
        assert manager.read_at("k", 2) == 3
        with pytest.raises(StoreError, match="sealed"):
            manager.begin_txn()
        manager.store.close()
        back, floor = open_engine(d, cfg)
        manager = TransactionManager(back)
        manager.recover_floor(floor)
        assert floor == 1 and manager.read_at("k", manager.gen.peek_snapshot()) == 3
        back.close()

    def test_pair_and_memtable_see_no_lifecycle(self, tmp_path, monkeypatch):
        calls = {"do_begin": 0, "do_abort": 0}
        for name in calls:
            real = getattr(cobble.composition.WALMemtablePair, name)

            def counting(wmp, txn, name=name, real=real):
                calls[name] += 1
                real(wmp, txn)
            monkeypatch.setattr(cobble.composition.WALMemtablePair, name, counting)
        engine = LevelledStore.create(
            str(tmp_path / "db"), small_config(live_capacity=2, wmp_rotate_effects=4))
        manager = TransactionManager(engine)
        for i in range(60):
            coord = manager.begin_txn()
            coord.incr(f"k{i % 5}")
            if i % 7 == 3:
                coord.abort()
            else:
                assert coord.commit().committed
        assert engine.stats["rotations"] > 2 and engine.stats["live_checkpoints"] > 2
        assert calls == {"do_begin": 0, "do_abort": 0}
        for wmp in engine._layout[0]:
            assert wmp.memtable._txn_states == {}
        assert engine._pins == {}
        engine.close()


class TestRotation:
    def test_rotation_threshold_and_tiling(self, tmp_path):
        engine = LevelledStore.create(
            str(tmp_path / "db"), small_config(live_capacity=8, wmp_rotate_effects=2))
        for i in range(6):
            run_txn(engine, f"t{i}", max(0, i - 1), i, [("k", Effect.incr(1))])
        assert engine.stats["rotations"] >= 2
        layout = engine.layout()
        bounds = [w for _, w in layout["live"]]
        for prev, cur in zip(bounds, bounds[1:]):
            assert prev[1] == cur[0]  # contiguous tiling
        assert bounds[-1][1] is None
        assert effect_at(engine, "k", 6) == (None, 6)
        engine.close()

    def test_rotation_defers_while_pinned(self, tmp_path):
        engine = LevelledStore.create(
            str(tmp_path / "db"), small_config(live_capacity=8, wmp_rotate_effects=1))
        pin = TransactionDescriptor("pin", st=0)
        engine.do_begin(pin)
        run_txn(engine, "w", 0, 0, [("k", Effect.assign(1))])
        # threshold reached but the pinned txn holds the pair open
        assert engine.stats["rotations"] == 0
        assert engine.layout()["live"][-1][1][1] is None
        engine.do_abort(pin)
        assert engine.stats["rotations"] == 1
        engine.close()

    def test_begin_waits_out_a_pending_rotation(self, tmp_path):
        engine = LevelledStore.create(
            str(tmp_path / "db"), small_config(live_capacity=8, wmp_rotate_effects=1))
        pin = TransactionDescriptor("pin", st=0)
        engine.do_begin(pin)
        run_txn(engine, "w", 0, 0, [("k", Effect.assign(1))])
        landed = {}

        def late_begin():
            txn = TransactionDescriptor("late", st=1)
            engine.do_begin(txn)
            landed["lo"] = engine.layout()["live"][-1][1][0]
            engine.do_abort(txn)

        t = threading.Thread(target=late_begin)
        t.start()
        t.join(0.2)
        assert t.is_alive()  # blocked behind the deferred rotation
        engine.do_abort(pin)
        t.join(5)
        assert not t.is_alive()
        assert landed["lo"] == 1  # landed in the post-rotation pair
        engine.close()


class TestCompaction:
    def test_live_overflow_checkpoints_oldest(self, tmp_path):
        engine = LevelledStore.create(
            str(tmp_path / "db"),
            small_config(live_capacity=2, wmp_rotate_effects=2,
                         level_capacities=(8, 8, 1 << 30)))
        trace = generate_trace(seed=9, txn_count=40, max_concurrency=1,
                               eager_notify=True)
        replay(engine, trace)
        assert engine.stats["live_checkpoints"] > 0
        assert len(engine.layout()["live"]) <= 2
        check_against_oracle(engine, trace)
        engine.close()

    def test_compaction_is_invisible_to_gated_readers(self, tmp_path):
        engine = LevelledStore.create(str(tmp_path / "db"), small_config())
        trace = generate_trace(seed=10, txn_count=30, max_concurrency=4)
        replay(engine, trace)
        top = trace.max_ct() + 1
        before = {(k, rs): effect_at(engine, k, rs)
                  for k in trace.keys() for rs in range(top + 1)}
        engine.compact(force=True)
        for (k, rs), want in before.items():
            if rs < engine.horizon:
                continue
            assert effect_at(engine, k, rs) == want
        check_against_oracle(engine, trace)
        engine.close()

    def test_full_compaction_never_increases_probes(self, tmp_path):
        engine = LevelledStore.create(
            str(tmp_path / "db"),
            small_config(live_capacity=2, wmp_rotate_effects=4,
                         level_capacities=(2, 4, 1 << 30)))
        trace = generate_trace(seed=11, txn_count=60, max_concurrency=1,
                               eager_notify=True)
        replay(engine, trace)
        top = trace.max_ct() + 1
        engine.reset_probes()
        for key in trace.keys():
            engine.lookup(key, top)
        probes_before = engine.probe_total()
        engine.compact(force=True)
        engine.reset_probes()
        for key in trace.keys():
            engine.lookup(key, top)
        assert engine.probe_total() <= probes_before
        engine.close()

    def test_disjoint_keys_build_fresh_shards(self, tmp_path):
        engine = LevelledStore.create(
            str(tmp_path / "db"), small_config(max_levels=2,
                                               level_capacities=(4, 1 << 30)))
        run_txn(engine, "a", 0, 0, [("a1", Effect.assign(1))])
        engine.compact(force=True)
        run_txn(engine, "b", 1, 1, [("b1", Effect.assign(2))])
        engine.compact(force=True)
        layout = engine.layout()
        assert len(layout["levels"][1]) == 2
        ranges = sorted(kr for _, _, kr in layout["levels"][1])
        assert ranges == [("a1", "a1"), ("b1", "b1")]
        engine.close()

    def test_shared_key_folds_into_owning_shard(self, tmp_path):
        engine = LevelledStore.create(
            str(tmp_path / "db"), small_config(max_levels=2,
                                               level_capacities=(4, 1 << 30)))
        run_txn(engine, "a", 0, 0, [("k", Effect.assign(2))])
        engine.compact(force=True)
        run_txn(engine, "b", 1, 1, [("k", Effect.incr(3))])
        engine.compact(force=True)
        layout = engine.layout()
        # still one shard: the increment folded into the owner, older first
        assert len(layout["levels"][1]) == 1
        assert effect_at(engine, "k", 2) == (2, 3)
        engine.close()

    def test_gate_blocks_while_a_snapshot_needs_history(self, tmp_path):
        engine = LevelledStore.create(
            str(tmp_path / "db"), small_config(live_capacity=8,
                                               wmp_rotate_effects=2))
        run_txn(engine, "t0", 0, 0, [("k", Effect.incr(1))])
        run_txn(engine, "t1", 0, 1, [("k", Effect.incr(1))])
        assert engine.stats["rotations"] == 1  # sealed pair [0, 2) behind us
        reader = TransactionDescriptor("old", st=1)
        engine.do_begin(reader)
        engine.compact(force=True)
        # the pair the reader may still need (hi 2 > st 1) is untouched
        assert engine.stats["live_checkpoints"] == 0
        assert engine.layout()["live"][0][1] == (0, 2)
        assert engine.lookup("k", 1).delta == 1
        engine.do_abort(reader)
        engine.compact(force=True)
        assert engine.stats["live_checkpoints"] == 1
        assert engine.horizon == 2
        engine.close()

    def test_idle_commits_scan_nothing(self, tmp_path, monkeypatch):
        scans = []

        def counting(name):
            real = getattr(LevelledStore, name)

            def scan(engine, force):
                scans.append(name)
                real(engine, force)
            return scan

        for name in ("_compact_live_locked", "_compact_levels_locked"):
            monkeypatch.setattr(LevelledStore, name, counting(name))
        engine = LevelledStore.create(
            str(tmp_path / "db"), small_config(live_capacity=1, wmp_rotate_effects=50))
        for i in range(40):
            run_txn(engine, f"t{i}", max(0, i - 1), i, [(f"k{i % 7}", Effect.incr(1))])
        assert scans == []  # no rotation yet: nothing can be due
        for i in range(40, 60):
            run_txn(engine, f"t{i}", i - 1, i, [(f"k{i % 7}", Effect.incr(1))])
        assert engine.stats["rotations"] == 1 and engine.stats["live_checkpoints"] == 1
        assert scans == ["_compact_live_locked", "_compact_levels_locked"]  # once, at the rotation
        engine.close()

    def test_work_the_gate_held_back_runs_once_the_snapshot_ends(self, tmp_path):
        for end in ("commit", "abort"):
            engine = LevelledStore.create(
                str(tmp_path / f"db-{end}"), small_config(live_capacity=1, wmp_rotate_effects=2))
            run_txn(engine, "t0", 0, 0, [("k", Effect.incr(1))])
            pin = TransactionDescriptor("pin", st=0)
            engine.do_begin(pin)
            run_txn(engine, "t1", 0, 1, [("k", Effect.incr(1))])  # rotation waits on the pin
            engine.do_abort(pin)  # rotates: [0, 2) sealed, its checkpoint now due
            reader = TransactionDescriptor("reader", st=1)  # needs history below 2
            engine.do_begin(reader)
            run_txn(engine, "t2", 1, 2, [("j", Effect.incr(1))])
            assert engine.stats["live_checkpoints"] == 0  # held back by the gate
            assert engine.layout()["live"][0][1] == (0, 2)
            if end == "commit":
                reader.ct = 3
                engine.do_commit(reader)
            else:
                engine.do_abort(reader)
                run_txn(engine, "t3", 2, 3, [])  # the next commit, rotating nothing
            assert engine.stats["live_checkpoints"] == 1, end
            assert engine.layout()["live"][0][1][0] == 2, end
            assert effect_at(engine, "k", 4) == (None, 2)
            engine.close()

    def test_bottom_level_may_exceed_capacity(self, tmp_path):
        engine = LevelledStore.create(
            str(tmp_path / "db"),
            small_config(max_levels=2, level_capacities=(1, 2)))
        for i in range(5):
            run_txn(engine, f"t{i}", max(0, i - 1), i,
                    [(f"key{i}", Effect.assign(i))])
            engine.compact(force=True)
        layout = engine.layout()
        assert len(layout["levels"][1]) == 5  # over nominal capacity, by design
        for i in range(5):
            assert effect_at(engine, f"key{i}", 5) == (i, 0)
        engine.close()


def _dict_merge(targets, sources):
    """The level merge on plain dicts. A level >= 1 is a list of (entries,
    window) sorted by key range, ranges disjoint. A source (oldest first)
    that overlaps no target's range joins the row whole. Otherwise each of
    its keys goes to the last overlapping target starting at or below it, or
    to the first overlapping one when none does, and folds in on top (a key
    the target lacks is added); every target that takes a key gets the
    union of the two windows."""
    row = [(dict(e), w) for e, w in targets]
    for entries, window in sources:
        lo, hi = min(entries), max(entries)
        hit = [i for i, (t, _) in enumerate(row) if min(t) <= hi and lo <= max(t)]
        if not hit:
            row.append((dict(entries), window))
            row.sort(key=lambda tw: min(tw[0]))
            continue
        taken = {}
        for key in sorted(entries):
            owner = max([i for i in hit if min(row[i][0]) <= key], default=hit[0])
            taken.setdefault(owner, []).append(key)
        for i, keys in taken.items():
            t, w = row[i]
            t = dict(t)
            for key in keys:
                t[key] = apply(t[key], entries[key]) if key in t else entries[key]
            row[i] = (t, Window(min(w.lo, window.lo), max(w.hi, window.hi)))
    return row


def assert_sorted_disjoint(engine):
    """Every level >= 1 is sorted by key range with disjoint ranges, each
    checkpoint's range is its first and last key, and the starts the lookup
    bisects match the level."""
    _, levels, starts = engine._layout
    for lvl in range(1, len(levels)):
        row = levels[lvl]
        for ck in row:
            keys = list(ck)
            assert keys and ck.key_range == (keys[0], keys[-1]), (lvl, ck.path)
        assert starts[lvl] == tuple(ck.key_range[0] for ck in row), lvl
        for left, right in zip(row, row[1:]):
            assert left.key_range[1] < right.key_range[0], (lvl, left.path, right.path)


def checking_merges(monkeypatch) -> dict:
    """Check every level after each level merge; returns merges per level."""
    counts: dict[int, int] = {}
    real = LevelledStore._merge_down_locked

    def merge(engine, level, sources):
        real(engine, level, sources)
        counts[level] = counts.get(level, 0) + 1
        assert_sorted_disjoint(engine)

    monkeypatch.setattr(LevelledStore, "_merge_down_locked", merge)
    return counts


class TestPackedMerge:
    POOL = [f"k{i:02d}" for i in range(40)] + ["\u00e9", "\uffff", "\U00010000", "z\U0010ffff"]

    @staticmethod
    def _effect(rng) -> Effect:
        edge = [-(1 << 63), (1 << 63) - 1, -1, 0]
        v = rng.choice(edge) if rng.random() < 0.2 else rng.randint(-50, 50)
        return Effect.assign(v) if rng.random() < 0.4 else Effect.incr(v)

    def test_level_merge_matches_dict_fold(self, tmp_path):
        pool = sorted(self.POOL)
        for seed in range(25):
            rng = random.Random(seed)
            d = str(tmp_path / f"db{seed}")
            cfg = small_config(level_capacities=(1 << 30, 1 << 30, 1 << 30))
            engine = LevelledStore.create(d, cfg)
            targets = []
            n = rng.randint(0, 3)
            cuts = sorted(rng.sample(range(len(pool) + 1), 2 * n))
            for i in range(n):  # disjoint ranges with holes, as at any level >= 1
                span = pool[cuts[2 * i]:cuts[2 * i + 1]]
                keys = rng.sample(span, rng.randint(1, min(12, len(span))))
                targets.append(({k: self._effect(rng) for k in keys}, Window(10 * i, 10 * i + 10)))
            sources = [({k: self._effect(rng) for k in rng.sample(self.POOL, rng.randint(1, 20))},
                        Window(100 + 10 * i, 110 + 10 * i)) for i in range(rng.randint(1, 3))]

            cks = {0: [], 1: []}
            for level, group in ((1, targets), (0, sources)):
                for j, (entries, window) in enumerate(group):
                    ck = Checkpoint(entries, window)
                    ck.path = f"ckpt-{900 + 10 * level + j}.cb"
                    ck.persist(os.path.join(d, ck.path))
                    cks[level].append(ck)
            with engine._mutex:
                live, levels, _ = engine._layout
                engine._apply_locked(live, (tuple(cks[0]), tuple(cks[1])) + levels[2:])
                engine._merge_down_locked(0, cks[0])

            want_row = _dict_merge(targets, sources)
            got_row = [(ck.entries, ck.window) for ck in engine._layout[1][1]]
            assert got_row == want_row, seed
            assert engine._layout[1][0] == ()
            assert_sorted_disjoint(engine)

            top = max(w.hi for _, w in sources)
            want = {}
            for entries, _ in targets + sources:  # oldest first
                for key, eff in entries.items():
                    want[key] = eff if key not in want else apply(want[key], eff)
            for key in self.POOL:
                assert engine.lookup(key, top) == want.get(key), (seed, key)
            engine.close()
            back, _ = recover_engine(d, cfg)
            for key in self.POOL:
                assert back.lookup(key, top) == want.get(key), (seed, key)
            assert_sorted_disjoint(back)
            back.close()

    def test_random_traces_through_many_merges_match_oracle(self, tmp_path, monkeypatch):
        merges = checking_merges(monkeypatch)
        for seed in range(4):
            d = str(tmp_path / f"db{seed}")
            cfg = small_config(live_capacity=1, wmp_rotate_effects=3,
                               level_capacities=(1, 2, 1 << 30))
            engine = LevelledStore.create(d, cfg)
            trace = generate_trace(seed=seed, txn_count=80, max_concurrency=1,
                                   eager_notify=True)
            replay(engine, trace)
            assert engine.stats["level_merges"] > 5
            check_against_oracle(engine, trace)
            engine.close()
            back, _ = recover_engine(d, cfg)
            assert_sorted_disjoint(back)
            check_against_oracle(back, trace)
            back.close()
        assert merges[0] and merges[1]

    def test_multi_level_random_traces_match_oracle(self, tmp_path, monkeypatch):
        """Four levels, outputs split at twice the rotation size, a forced
        compaction now and then, and a reopen halfway with more commits
        after it."""
        merges = checking_merges(monkeypatch)
        keys = [f"k{i:03d}" for i in range(0, 120, 3)] + ["\u00e9", "\U00010000"]
        for seed in range(4):
            d = str(tmp_path / f"db{seed}")
            cfg = small_config(max_levels=4, live_capacity=1, wmp_rotate_effects=4,
                               level_capacities=(1, 2, 2, 1 << 30))
            trace = generate_trace(seed=100 + seed, keys=keys, txn_count=240,
                                   max_concurrency=1, eager_notify=True)
            half = next(i for i, step in enumerate(trace.steps)
                        if step.op == "begin" and i >= len(trace.steps) // 2)

            def quiesce(store, committed, strong):
                if committed % 50 == 49:
                    store.compact(force=True)

            engine = LevelledStore.create(d, cfg)
            replay(engine, Trace(trace.steps[:half]), quiesce=quiesce)
            engine.close()
            engine, _ = recover_engine(d, cfg)
            assert_sorted_disjoint(engine)
            replay(engine, Trace(trace.steps[half:]), quiesce=quiesce)
            check_against_oracle(engine, trace)
            engine.close()
            back, _ = recover_engine(d, cfg)
            assert_sorted_disjoint(back)
            check_against_oracle(back, trace)
            top = trace.max_ct() + 1
            for key in keys:
                back.reset_probes()
                back.lookup(key, top)
                assert all(back.probes[lvl] <= 1 for lvl in range(1, 4)), (seed, key)
            back.close()
        assert all(merges.get(level) for level in range(3)), merges

    def test_merge_without_overlap_moves_the_source_whole(self, tmp_path, monkeypatch):
        cfg = small_config(max_levels=2, level_capacities=(1 << 30, 1 << 30))
        engine = LevelledStore.create(str(tmp_path / "db"), cfg)
        run_txn(engine, "a", 0, 0, [(f"a{i:02d}", Effect.assign(i)) for i in range(40)])
        run_txn(engine, "z", 0, 1, [(f"z{i:02d}", Effect.incr(i)) for i in range(40)])
        engine.compact(force=True)
        assert [len(ck) for ck in engine._layout[1][1]] == [80]
        run_txn(engine, "m", 1, 2, [(f"m{i:02d}", Effect.assign(i)) for i in range(40)])
        engine.compact(force=True)  # a00..z39 now overlaps: folds in
        run_txn(engine, "n", 2, 3, [("zz", Effect.assign(1)), ("zzz", Effect.assign(2))])
        with engine._mutex:  # checkpoint the pair, but merge nothing yet
            engine._rotate_locked()
            engine._compact_live_locked(force=True)
        (source,) = engine._layout[1][0]
        with open(os.path.join(engine.directory, source.path), "rb") as f:
            source_bytes = f.read()
        calls = {"contains": 0, "fold": 0}
        real_contains, real_fold = Checkpoint.__contains__, Checkpoint.fold

        def contains(ck, key):
            calls["contains"] += 1
            return real_contains(ck, key)

        def fold(ck, newer, window):
            calls["fold"] += 1
            return real_fold(ck, newer, window)

        monkeypatch.setattr(Checkpoint, "__contains__", contains)
        monkeypatch.setattr(Checkpoint, "fold", fold)
        engine.compact(force=True)
        assert calls == {"contains": 0, "fold": 0}
        row = engine._layout[1][1]
        assert [ck.key_range for ck in row] == [("a00", "z39"), ("zz", "zzz")]
        assert row[1] is source  # the same checkpoint and file, now at level 1
        with open(os.path.join(engine.directory, source.path), "rb") as f:
            assert f.read() == source_bytes
        engine.close()
        back, floor = recover_engine(engine.directory, cfg)
        assert [ck.key_range for ck in back._layout[1][1]] == [("a00", "z39"), ("zz", "zzz")]
        assert effect_at(back, "zzz", floor + 1) == (2, 0)
        assert effect_at(back, "m07", floor + 1) == (7, 0)
        back.close()


# a fresh engine's MANIFEST in the layout the batch frames replaced: a
# journal transaction "m0" of BEGIN, one MANIFEST record adding wal-0.log as
# the live pair, and COMMIT, one CRC frame each
_JOURNAL_LAYOUT_MANIFEST = bytes.fromhex(
    "43424c450d0000000002006d3000000000000000000f9767e9"
    "43424c452b0000000402006d3000000000000000000000090077616c2d302e6c6f67"
    "0000000000000000ffffffffffffffff0037cee756"
    "43424c450d0000000202006d30000000000000000044223b89")


class TestManifest:
    ENTRIES = [
        ManifestEntry(ManifestAction.ADD, -1, "wal-0.log", Window(0, None)),
        ManifestEntry(ManifestAction.REMOVE, 0, "ckpt-0-0-5-1.cb", Window(0, 5)),
        ManifestEntry(ManifestAction.ADD, 2, "ckpt-2-3-9-4.cb", Window(3, 9),
                      key_range=("alpha", "omega")),
    ]

    def test_entry_codec_round_trip(self):
        for ts, entries in ((7, []), (0, self.ENTRIES[:1]), ((1 << 64) - 1, self.ENTRIES)):
            assert codec.decode_batch(codec.encode_batch(ts, entries)) == (ts, entries)

    def test_every_strict_prefix_of_a_batch_raises(self):
        payload = codec.encode_batch(3, self.ENTRIES)
        ends = {len(codec.encode_batch(3, self.ENTRIES[:n])) for n in range(4)}
        for cut in range(len(payload)):
            if cut in ends:  # a whole batch of fewer entries
                continue
            with pytest.raises(IntegrityError, match="bad manifest batch"):
                codec.decode_batch(payload[:cut])

    def test_add_then_remove_leaves_path_dead(self, tmp_path):
        path = str(tmp_path / "MANIFEST")
        log = ManifestLog(path)
        log.append(0, [ManifestEntry(ManifestAction.ADD, -1, "wal-0.log", Window(0, None))])
        log.append(4, [ManifestEntry(ManifestAction.REMOVE, -1, "wal-0.log", Window(0, 5)),
                       ManifestEntry(ManifestAction.ADD, 0, "ckpt-6.cb", Window(0, 5))])
        log.close()
        log, batches = ManifestLog.recover(path)
        log.close()
        live, levels, fid, ts = replay_manifest(batches)
        assert live == {}
        assert list(levels[0]) == ["ckpt-6.cb"]
        assert (fid, ts) == (7, 4)

    def test_torn_last_batch_is_dropped_whole(self, tmp_path):
        """A torn last batch is dropped whole and every batch before it replays."""
        path = str(tmp_path / "MANIFEST")
        log = ManifestLog(path)
        log.append(0, [ManifestEntry(ManifestAction.ADD, -1, "wal-0.log", Window(0, None))])
        log.append(2, [ManifestEntry(ManifestAction.ADD, 0, "ckpt-0-0-2-0.cb", Window(0, 2))])
        whole = log.durable_offset
        log.append(5, [ManifestEntry(ManifestAction.REMOVE, -1, "wal-0.log", Window(0, 6)),
                       ManifestEntry(ManifestAction.ADD, 0, "ckpt-0-2-6-1.cb", Window(2, 6))])
        log.close()
        faults.truncate_file(path, -3)
        for _ in range(2):
            log, batches = ManifestLog.recover(path)
            log.close()
            assert os.path.getsize(path) == whole
            live, levels, fid, ts = replay_manifest(batches)
            assert set(live) == {"wal-0.log"}
            assert list(levels[0]) == ["ckpt-0-0-2-0.cb"]
            assert (fid, ts) == (1, 2)

    def test_one_frame_per_batch(self, tmp_path, monkeypatch):
        """Each batch is one frame, and a commit appends one batch for its
        rotation and one per level merge it runs: none for a swap."""
        appended = []
        real_append = ManifestLog.append

        def append(log, ts, entries):
            appended.append((ts, entries))
            real_append(log, ts, entries)

        monkeypatch.setattr(ManifestLog, "append", append)
        d = str(tmp_path / "db")
        engine = LevelledStore.create(d, small_config(live_capacity=2, wmp_rotate_effects=2))
        assert len(appended) == 1  # the first pair's log
        for i in range(12):
            before = len(appended), dict(engine.stats)
            run_txn(engine, f"t{i}", i, i + 1, [(f"k{i % 3}", Effect.incr(1)),
                                                (f"j{i % 5}", Effect.assign(i))])
            stats = engine.stats
            assert len(appended) - before[0] == (
                stats["rotations"] - before[1]["rotations"]
                + stats["level_merges"] - before[1]["level_merges"]), i
        engine.close()
        assert engine.stats["rotations"] == 12 and engine.stats["level_merges"] > 0
        assert engine.stats["live_checkpoints"] == 11  # swaps, which logged nothing
        assert len(appended) == 1 + 12 + engine.stats["level_merges"]
        with open(os.path.join(d, "MANIFEST"), "rb") as f:
            frames, _ = codec.scan_frames(f.read())
        assert [codec.decode_batch(p) for p in frames] == appended

    def test_journal_layout_and_undecodable_frames_raise_and_keep_file(self, tmp_path):
        d = str(tmp_path / "db")
        LevelledStore.create(d).close()
        mpath = os.path.join(d, "MANIFEST")
        with open(mpath, "rb") as f:
            good = f.read()
        payload = codec.encode_batch(0, self.ENTRIES)
        for data in (_JOURNAL_LAYOUT_MANIFEST,
                     good + codec.encode_frame(b"M" + payload[1:]),  # a bad tag
                     good + codec.encode_frame(payload[:-3])):  # a truncated entry
            with open(mpath, "wb") as f:
                f.write(data)
            before = _files(d)
            for _ in range(2):
                with pytest.raises(IntegrityError, match="bad manifest batch"):
                    open_engine(d)
                assert _files(d) == before

    def test_write_less_trailing_log_dropped_keeps_its_cts(self, tmp_path):
        """A trailing log whose commits wrote nothing, and whose window does
        not start where the checkpoints end, is dropped on reopen; the
        recovery batch's timestamp keeps its commit timestamps, so a
        second reopen still restarts above them."""
        d = str(tmp_path / "db")
        _manifest_of(d, [ManifestEntry(ManifestAction.ADD, -1, "wal-9.log", Window(9, None))])
        log = CommitLog(os.path.join(d, "wal-9.log"))
        for ct in range(9, 31):
            log.do_commit(TransactionDescriptor(f"t{ct}", st=ct - 1, ct=ct))
        log.close()
        engine, floor = open_engine(d, small_config())
        assert floor == 30
        (_, window), = engine.layout()["live"]
        assert window == (0, None)
        engine.close()
        assert not os.path.exists(os.path.join(d, "wal-9.log"))
        engine, floor = open_engine(d, small_config())
        assert floor >= 30
        engine.close()

    def test_reopen_reads_each_log_once(self, tmp_path, monkeypatch):
        # the adopted trailing log is opened with the commits its scan read
        d = str(tmp_path / "db")
        engine = LevelledStore.create(d, small_config())
        for i in range(5):
            run_txn(engine, f"t{i}", max(0, i - 1), i, [])
        engine.close()
        real = _FrameFile.__dict__["scan"].__func__
        scanned = []

        def counting(cls, path):
            scanned.append(os.path.basename(path))
            return real(cls, path)
        monkeypatch.setattr(_FrameFile, "scan", classmethod(counting))
        engine, floor = open_engine(d, small_config())
        assert sorted(scanned) == ["MANIFEST", "wal-0.log"]
        assert floor == 4
        assert [w for w, _ in engine.layout()["live"]] == ["wal-0.log"]
        run_txn(engine, "t5", 4, 5, [("k", Effect.incr(1))])
        assert effect_at(engine, "k", 6) == (None, 1)
        engine.close()

    def test_replay_reconstructs_live_layout(self, tmp_path):
        """The MANIFEST names the accepting pair's log, and each sealed live
        pair by its flushed checkpoint at level 0, after the level's own."""
        d = str(tmp_path / "db")
        engine = LevelledStore.create(d, small_config(live_capacity=2,
                                                      wmp_rotate_effects=2))
        trace = generate_trace(seed=12, txn_count=30, max_concurrency=1,
                               eager_notify=True)
        replay(engine, trace)
        want = engine.layout()
        flushed = flushed_paths(engine)
        engine.close()
        assert len(want["live"]) == 2 and len(flushed) == 1
        manifest, batches = ManifestLog.recover(os.path.join(d, "MANIFEST"))
        manifest.close()
        live, levels, _, _ = replay_manifest(batches)
        assert [e.path for e in live.values()] == [want["live"][-1][0]]
        assert [e.path for e in levels[0].values()] == [
            p for p, _, _ in want["levels"][0]] + flushed
        for lvl, row in enumerate(levels[1:], 1):
            assert [e.path for e in row.values()] == [
                p for p, _, _ in want["levels"][lvl]]

    def test_every_batch_is_a_layout_diff(self, tmp_path):
        """Each batch names a (level, name) at most once, replaying them gives
        the layout level by level (a sealed live pair as its flushed level-0
        checkpoint), the MANIFEST never names two logs, and every file takes
        its name from the one counter."""
        d = str(tmp_path / "db")
        engine = LevelledStore.create(d, small_config(
            live_capacity=3, wmp_rotate_effects=3, level_capacities=(1, 2, 1 << 30)))
        replay(engine, generate_trace(seed=4, txn_count=80, max_concurrency=1,
                                      eager_notify=True))
        stats = engine.stats
        assert min(stats["rotations"], stats["live_checkpoints"], stats["level_merges"]) > 3
        want = engine.layout()
        flushed = flushed_paths(engine)
        engine.close()
        assert len(flushed) == 2
        batches, _ = ManifestLog.scan(os.path.join(d, "MANIFEST"))
        live = set()
        for _, entries in batches:
            named = [(e.level, e.path) for e in entries]
            assert len(set(named)) == len(named), named
            for e in entries:
                if e.level == -1:
                    (live.add if e.action == ManifestAction.ADD else live.discard)(e.path)
            assert len(live) == 1, live
        live, levels, fid, _ = replay_manifest(batches)
        assert list(live) == [want["live"][-1][0]]
        want_levels = [[p for p, _, _ in row] for row in want["levels"]]
        want_levels[0] += flushed
        assert [list(row) for row in levels] == want_levels
        names = set(os.listdir(d)) - {"MANIFEST"}
        assert names == set(live).union(*levels)
        assert all(re.fullmatch(r"wal-\d+\.log|ckpt-\d+\.cb", n) for n in names), names
        fids = [int(n[5:-3]) if n.startswith("ckpt-") else int(n[4:-4]) for n in names]
        assert max(fids) == fid - 1


def flushed_paths(engine) -> list[str]:
    """The checkpoint files of the sealed live pairs, oldest first."""
    return [engine._flushed[w].path for w in engine._layout[0] if w in engine._flushed]


def build_engine_dir(d: str, seed=13, txn_count=40, compact_every=None) -> object:
    """Engine directory with a known history; returns the trace."""
    cfg = small_config(live_capacity=2, wmp_rotate_effects=1 << 30)
    engine = LevelledStore.create(d, cfg)
    trace = generate_trace(seed=seed, txn_count=txn_count, max_concurrency=4)
    state = {"last": 0}

    def quiesce(store, committed, strong):
        if compact_every and strong and committed - state["last"] >= compact_every:
            state["last"] = committed
            store.compact(force=True)

    replay(engine, trace, quiesce=quiesce)
    engine.close()
    return trace


class TestRecovery:
    def test_clean_recovery_matches_oracle(self, tmp_path):
        d = str(tmp_path / "db")
        trace = build_engine_dir(d, compact_every=12)
        engine, highest = recover_engine(d, small_config())
        assert highest >= trace.max_ct()
        check_against_oracle(engine, trace)
        engine.close()

    def test_recovery_is_idempotent(self, tmp_path):
        d = str(tmp_path / "db")
        build_engine_dir(d, compact_every=10)
        engine1, h1 = recover_engine(d, small_config())
        layout1 = engine1.layout()
        engine1.close()
        engine2, h2 = recover_engine(d, small_config())
        layout2 = engine2.layout()
        engine2.close()
        assert h2 == h1
        assert layout2["levels"] == layout1["levels"]
        assert layout2["horizon"] == layout1["horizon"]

    def test_corrupt_manifest_middle_frame_raises_and_keeps_file(self, tmp_path):
        d = str(tmp_path / "db")
        cfg = EngineConfig(live_capacity=2, wmp_rotate_effects=8)
        engine, _ = open_engine(d, cfg)
        for i in range(200):
            run_txn(engine, f"t{i}", i, i + 1, [(f"k{i % 13}", Effect.incr(1))])
        engine.close()
        mpath = os.path.join(d, "MANIFEST")
        with open(mpath, "rb") as f:
            good = f.read()
        faults.corrupt_file(mpath, len(good) // 3, 1)
        with open(mpath, "rb") as f:
            bad = f.read()
        for _ in range(2):
            with pytest.raises(IntegrityError):
                open_engine(d, cfg)
            with open(mpath, "rb") as f:
                assert f.read() == bad
        with open(mpath, "wb") as f:
            f.write(good)
        engine, floor = open_engine(d, cfg)
        assert floor >= 200
        for k in range(13):
            assert effect_at(engine, f"k{k}", floor + 1) == (None, len(range(k, 200, 13)))
        engine.close()

    def test_torn_manifest_tail_is_cut(self, tmp_path):
        d = str(tmp_path / "db")
        build_engine_dir(d, compact_every=12)
        mpath = os.path.join(d, "MANIFEST")
        with open(mpath, "rb") as f:
            whole = f.read()
        with open(mpath, "ab") as f:
            f.write(b"CBLE\x40\x00\x00\x00torn")
        engine, _ = recover_engine(d, small_config())
        engine.close()
        with open(mpath, "rb") as f:
            data = f.read()
        assert data.startswith(whole) and b"torn" not in data[len(whole):]

    def test_missing_checkpoint_raises_integrity_error(self, tmp_path):
        d = str(tmp_path / "db")
        build_engine_dir(d, compact_every=12)
        engine, _ = recover_engine(d, small_config())
        victim = next(path for row in engine.layout()["levels"] for path, _, _ in row)
        engine.close()
        os.remove(os.path.join(d, victim))
        with pytest.raises(IntegrityError, match=victim):
            recover_engine(d, small_config())

    def test_a_refused_open_closes_every_handle(self, tmp_path, monkeypatch):
        """recover_engine closes the MANIFEST (and any log) it opened when a
        later step raises."""
        refused = str(tmp_path / "overlap")
        _manifest_of(refused, [TestLevelChecksOnOpen._l1("ckpt-1.cb", ("a", "f")),
                               TestLevelChecksOnOpen._l1("ckpt-2.cb", ("c", "m"), 5)])
        missing = str(tmp_path / "missing")
        build_engine_dir(missing, compact_every=12)
        engine, _ = recover_engine(missing, small_config())
        victim = next(path for row in engine.layout()["levels"] for path, _, _ in row)
        engine.close()
        os.remove(os.path.join(missing, victim))
        opened = recording_logs(monkeypatch)
        for d in (refused, missing):
            with pytest.raises(IntegrityError):
                recover_engine(d, small_config())
            assert [log.path for log in opened] == [os.path.join(d, "MANIFEST")]
            assert opened.pop()._f.closed

    def test_crash_before_rotation_manifest_keeps_data(self, tmp_path):
        d = str(tmp_path / "db")
        cfg = small_config(live_capacity=8, wmp_rotate_effects=2)
        engine = LevelledStore.create(d, cfg)
        run_txn(engine, "t0", 0, 0, [("k", Effect.assign(5))])
        faults.install_plan(FaultPlan().arm("after-wal-write-before-manifest",
                                            CrashProcess()))
        with pytest.raises(InjectedCrash):
            run_txn(engine, "t1", 0, 1, [("k", Effect.incr(1))])
        faults.clear_plan()
        engine.close()
        back, highest = recover_engine(d, cfg)
        assert highest >= 1
        assert effect_at(back, "k", highest + 1) == (5, 1)
        back.close()

    def test_crash_during_checkpoint_serialize_keeps_data(self, tmp_path):
        d = str(tmp_path / "db")
        cfg = small_config()
        engine = LevelledStore.create(d, cfg)
        run_txn(engine, "t0", 0, 0, [("k", Effect.assign(5))])
        run_txn(engine, "t1", 0, 1, [("j", Effect.incr(2))])
        faults.install_plan(FaultPlan().arm("during-checkpoint-serialize",
                                            CrashProcess()))
        with pytest.raises(InjectedCrash):
            engine.compact(force=True)
        faults.clear_plan()
        engine.close()
        back, highest = recover_engine(d, cfg)
        assert effect_at(back, "k", highest + 1) == (5, 0)
        assert effect_at(back, "j", highest + 1) == (None, 2)
        back.close()

    def test_double_crash_at_every_recovery_step(self, tmp_path):
        src = str(tmp_path / "src")
        trace = build_engine_dir(src, compact_every=15)

        ref_dir = str(tmp_path / "ref")
        shutil.copytree(src, ref_dir)
        ref, ref_h = recover_engine(ref_dir, small_config())
        ref_layout = ref.layout()
        ref_table = {(k, rs): effect_at(ref, k, rs)
                     for k in trace.keys()
                     for rs in range(ref.horizon, trace.max_ct() + 2)}
        ref.close()

        for step in range(6):
            d = str(tmp_path / f"crash{step}")
            shutil.copytree(src, d)
            faults.install_plan(FaultPlan().arm(f"during-recovery-step-{step}",
                                                CrashProcess()))
            with pytest.raises(InjectedCrash):
                recover_engine(d, small_config())
            faults.clear_plan()
            engine, h = recover_engine(d, small_config())
            assert h == ref_h, f"step {step}"
            layout = engine.layout()
            assert layout["levels"] == ref_layout["levels"], f"step {step}"
            assert layout["horizon"] == ref_layout["horizon"], f"step {step}"
            for (k, rs), want in ref_table.items():
                assert effect_at(engine, k, rs) == want, (step, k, rs)
            engine.close()


def _manifest_of(d: str, entries: list[ManifestEntry]) -> None:
    """Write a MANIFEST holding entries as one batch."""
    os.makedirs(d, exist_ok=True)
    log = ManifestLog(os.path.join(d, "MANIFEST"))
    log.append(0, entries)
    log.close()


class TestLevelChecksOnOpen:
    """A level >= 1 must be sorted by disjoint key ranges, recorded in the
    MANIFEST; an open that finds otherwise changes no file."""

    @staticmethod
    def _l1(path, key_range, lo=0):
        return ManifestEntry(ManifestAction.ADD, 1, path, Window(lo, lo + 5), key_range)

    def _refused(self, d, *names):
        before = _files(d)
        for _ in range(2):
            with pytest.raises(IntegrityError) as exc:
                recover_engine(d, small_config())
            assert all(name in str(exc.value) for name in names), exc.value
            assert _files(d) == before

    def test_overlapping_ranges_name_both_checkpoints(self, tmp_path):
        d = str(tmp_path / "db")
        _manifest_of(d, [self._l1("ckpt-1-0-5-1.cb", ("a", "f")),
                         self._l1("ckpt-1-5-10-2.cb", ("p", "z"), 5),
                         self._l1("ckpt-1-10-15-3.cb", ("c", "m"), 10)])
        self._refused(d, "ckpt-1-0-5-1.cb", "ckpt-1-10-15-3.cb")

    def test_shared_bound_counts_as_overlap(self, tmp_path):
        d = str(tmp_path / "db")
        _manifest_of(d, [self._l1("ckpt-1-0-5-1.cb", ("a", "f")),
                         self._l1("ckpt-1-5-10-2.cb", ("f", "z"), 5)])
        self._refused(d, "ckpt-1-0-5-1.cb", "ckpt-1-5-10-2.cb")

    def test_entry_without_key_range_is_named(self, tmp_path):
        d = str(tmp_path / "db")
        _manifest_of(d, [self._l1("ckpt-1-0-5-1.cb", ("a", "f")),
                         self._l1("ckpt-1-5-10-2.cb", None, 5)])
        self._refused(d, "ckpt-1-5-10-2.cb")

    def test_recorded_range_must_match_the_file(self, tmp_path):
        d = str(tmp_path / "db")
        os.makedirs(d)
        for name, keys, lo in (("ckpt-1-0-5-1.cb", "ab", 0), ("ckpt-1-5-10-2.cb", "pq", 5)):
            Checkpoint({k: Effect.assign(1) for k in keys}, Window(lo, lo + 5)).persist(
                os.path.join(d, name))
        _manifest_of(d, [self._l1("ckpt-1-5-10-2.cb", ("p", "q"), 5),
                         self._l1("ckpt-1-0-5-1.cb", ("a", "b"))])
        engine, _ = recover_engine(d, small_config())
        assert [p for p, _, _ in engine.layout()["levels"][1]] == [
            "ckpt-1-0-5-1.cb", "ckpt-1-5-10-2.cb"]  # key order, not MANIFEST order
        engine.close()
        d2 = str(tmp_path / "db2")
        shutil.copytree(d, d2)
        os.remove(os.path.join(d2, "MANIFEST"))
        _manifest_of(d2, [self._l1("ckpt-1-0-5-1.cb", ("a", "c")),
                          self._l1("ckpt-1-5-10-2.cb", ("p", "q"), 5)])
        self._refused(d2, "ckpt-1-0-5-1.cb")


def recording_logs(monkeypatch) -> list:
    """Every CommitLog and ManifestLog the engine module opens from now on,
    in the order opened."""
    opened = []
    for name in ("CommitLog", "ManifestLog"):
        class Recording(getattr(cobble.engine, name)):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                opened.append(self)
        monkeypatch.setattr(cobble.engine, name, Recording)
    return opened


def _engine_with_live_pairs(d: str, cfg: EngineConfig, txns: int = 32) -> tuple[dict, dict]:
    """Commit txns of two writes each and close; returns {key: effect} at
    the latest snapshot and the layout, both read before the close."""
    engine = LevelledStore.create(d, cfg)
    rng = random.Random(5)
    keys = [f"k{i}" for i in range(9)]
    for i in range(txns):
        a, b = rng.sample(keys, 2)
        run_txn(engine, f"t{i}", i, i + 1, [(a, Effect.incr(rng.randrange(1, 9))),
                                            (b, Effect.assign(rng.randrange(99)))
                                            if i % 3 else (b, Effect.incr(1))])
    reads = {k: effect_at(engine, k, txns + 1) for k in keys}
    layout = engine.layout()
    engine.close()
    return reads, layout


def _files(d: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as f:
            out[name] = f.read()
    return out


class TestRecoveryFold:
    """Recovery loads each sealed pair's flushed checkpoint as level 0 and
    folds the one live log, when it holds writes, into one more."""

    cfg = small_config(live_capacity=8, wmp_rotate_effects=8,
                       level_capacities=(64, 64, 1 << 30))
    TXNS = 31  # four txns of two writes fill a pair: the last log holds three

    def test_live_logs_fold_into_one_l0_checkpoint(self, tmp_path):
        d = str(tmp_path / "db")
        reads, before = _engine_with_live_pairs(d, self.cfg, self.TXNS)
        log, (lo, _) = before["live"][-1]
        sealed = [window for _, window in before["live"][:-1]]
        assert len(sealed) >= 3
        assert [n for n in os.listdir(d) if n.startswith("wal-")] == [log]
        assert os.path.getsize(os.path.join(d, log))
        l0_before = [name for name, _, _ in before["levels"][0]]

        layouts = []
        for _ in range(2):
            engine, floor = open_engine(d, self.cfg)
            layout = engine.layout()
            l0 = layout["levels"][0]
            assert [name for name, _, _ in l0[:len(l0_before)]] == l0_before
            # the sealed pairs' checkpoints, oldest first, then the log's fold
            assert [w for _, w, _ in l0[len(l0_before):]] == sealed + [(lo, floor + 1)]
            (name, window), = layout["live"]
            assert window == (floor + 1, None) and name != log
            assert {k: effect_at(engine, k, floor + 1) for k in reads} == reads
            layouts.append(layout)
            engine.close()
        assert layouts[1] == layouts[0]

    def test_bad_middle_frame_changes_no_file(self, tmp_path):
        d = str(tmp_path / "db")
        _engine_with_live_pairs(d, self.cfg, self.TXNS)
        (name,) = [n for n in os.listdir(d) if n.startswith("wal-")]
        log = os.path.join(d, name)
        faults.truncate_file(log, -3)  # a torn tail on the log
        torn = _files(d)
        frames, _ = codec.scan_frames(torn[name])
        assert len(frames) >= 2
        faults.corrupt_file(log, 10, 1)  # inside the first frame's payload
        before = _files(d)
        for _ in range(2):
            with pytest.raises(IntegrityError):
                open_engine(d, self.cfg)
            assert _files(d) == before
        with open(log, "wb") as f:
            f.write(torn[name])

        ref_dir = str(tmp_path / "ref")
        shutil.copytree(d, ref_dir)
        ref, ref_floor = open_engine(ref_dir, self.cfg)
        ref_layout = ref.layout()
        keys = [f"k{i}" for i in range(9)]
        ref_reads = {k: effect_at(ref, k, ref_floor + 1) for k in keys}
        ref.close()

        # a crash once the log is read leaves only the torn tail cut
        faults.install_plan(FaultPlan().arm("during-recovery-step-2", CrashProcess()))
        with pytest.raises(InjectedCrash):
            recover_engine(d, self.cfg)
        faults.clear_plan()
        after = _files(d)
        _, valid_end = codec.scan_frames(torn[name])
        assert valid_end < len(torn[name]) and after[name] == torn[name][:valid_end]
        assert {n: b for n, b in after.items() if n != name} == {
            n: b for n, b in torn.items() if n != name}
        for _ in range(2):
            engine, floor = open_engine(d, self.cfg)
            assert floor == ref_floor
            assert engine.layout() == ref_layout
            assert {k: effect_at(engine, k, floor + 1) for k in keys} == ref_reads
            engine.close()

    def test_manifest_naming_two_live_logs_raises(self, tmp_path):
        """A rotation removes the sealed log in the batch that adds the next,
        so a MANIFEST naming two live logs is refused, as is a damaged
        flushed checkpoint; neither open changes a file. Damage at the end
        of the one log is a torn tail: cut, losing the commit in it."""
        d = str(tmp_path / "db")
        cfg = EngineConfig(wmp_rotate_effects=2)
        engine = LevelledStore.create(d, cfg)
        for i in range(7):
            run_txn(engine, f"t{i}", max(0, i - 1), i, [("k", Effect.incr(1))])
        flushed = flushed_paths(engine)
        engine.close()
        assert engine.stats["rotations"] == 3 and len(flushed) == 3
        (log,) = [n for n in os.listdir(d) if n.startswith("wal-")]
        good = _files(d)

        shutil.copy(os.path.join(d, log), os.path.join(d, "wal-99.log"))
        mlog, _ = ManifestLog.recover(os.path.join(d, "MANIFEST"))
        mlog.append(6, [ManifestEntry(ManifestAction.ADD, -1, "wal-99.log", Window(7, None))])
        mlog.close()
        before = _files(d)
        for _ in range(2):
            with pytest.raises(IntegrityError, match="2 live logs") as exc:
                open_engine(d, cfg)
            assert log in str(exc.value) and "wal-99.log" in str(exc.value)
            assert _files(d) == before
        os.remove(os.path.join(d, "wal-99.log"))
        with open(os.path.join(d, "MANIFEST"), "wb") as f:
            f.write(good["MANIFEST"])

        faults.corrupt_file(os.path.join(d, flushed[0]), -6, 1)
        before = _files(d)
        for _ in range(2):
            with pytest.raises(IntegrityError):
                open_engine(d, cfg)
            assert _files(d) == before
        with open(os.path.join(d, flushed[0]), "wb") as f:
            f.write(good[flushed[0]])

        faults.corrupt_file(os.path.join(d, log), -6, 1)
        layouts = []
        for _ in range(2):
            engine, floor = open_engine(d, cfg)
            assert effect_at(engine, "k", floor + 1) == (None, 6)
            layouts.append(engine.layout())
            engine.close()
        assert layouts[1] == layouts[0]


def _only_named_files_then_idempotent(d: str, cfg: EngineConfig, reads: dict) -> None:
    """Reopen: the directory then holds the MANIFEST and the files it names,
    reads are unchanged, and a second reopen changes no byte."""
    engine, floor = open_engine(d, cfg)
    assert {k: effect_at(engine, k, floor + 1) for k in reads} == reads
    engine.close()
    batches, _ = ManifestLog.scan(os.path.join(d, "MANIFEST"))
    live, levels, _, _ = replay_manifest(batches)
    assert set(os.listdir(d)) == {"MANIFEST"}.union(live, *levels)
    once = _files(d)
    engine, _ = open_engine(d, cfg)
    engine.close()
    assert _files(d) == once


class TestOrphans:
    """A file that a crash or a failed unlink leaves outside the layout is
    deleted by the next recovery."""

    cfg = small_config(live_capacity=1, wmp_rotate_effects=2, level_capacities=(1, 2, 1 << 30))

    def test_failed_unlinks_are_swept_on_reopen(self, tmp_path, monkeypatch):
        d = str(tmp_path / "db")
        real_remove = os.remove
        calls = []

        def remove(path, *args, **kw):
            calls.append(path)
            if len(calls) in (1, 4, 9):
                raise OSError("injected unlink failure")
            real_remove(path, *args, **kw)
        with monkeypatch.context() as m:
            m.setattr(os, "remove", remove)
            reads, _ = _engine_with_live_pairs(d, self.cfg)
        assert len(calls) >= 9
        left = {os.path.basename(calls[i - 1]) for i in (1, 4, 9)}
        assert left <= set(os.listdir(d))
        _only_named_files_then_idempotent(d, self.cfg, reads)
        assert not left & set(os.listdir(d))

    def test_log_of_a_failed_rotation_is_swept_on_reopen(self, tmp_path, monkeypatch):
        """A rotation whose MANIFEST batch fails closes the log it opened;
        that log and the checkpoint it built are swept on reopen."""
        opened = recording_logs(monkeypatch)
        d = str(tmp_path / "db")
        engine = LevelledStore.create(d, self.cfg)
        run_txn(engine, "t0", 0, 0, [("k", Effect.assign(5))])
        before = set(os.listdir(d))
        faults.install_plan(FaultPlan().arm("after-wal-write-before-manifest", FailFlush()))
        with pytest.raises(OSError):
            run_txn(engine, "t1", 0, 1, [("k", Effect.incr(1)), ("j", Effect.incr(2))])
        faults.clear_plan()
        new_log = opened[-1]
        assert new_log._f.closed
        orphans = set(os.listdir(d)) - before
        assert sorted(n.split("-")[0] for n in orphans) == ["ckpt", "wal"]
        assert os.path.basename(new_log.path) in orphans
        engine.close()
        # the reopen names its fold and its new log from the MANIFEST's
        # counter, so it may take over an orphan's name, rewriting the file
        _only_named_files_then_idempotent(d, self.cfg, {"k": (5, 1), "j": (None, 2)})


class TestFlushAtSeal:
    """A rotation persists the sealed pair's checkpoint and logs one batch:
    ADD it at level 0, REMOVE the sealed log, ADD the next log. The pair
    stays live until the swap, which writes nothing."""

    cfg = small_config(live_capacity=3, wmp_rotate_effects=2)

    @staticmethod
    def _commit(engine, steps, i, updates):
        """Commit txn i (st i - 1, ct i) through the engine and the trace."""
        txn_id, st = f"t{i}", max(0, i - 1)
        steps.append(Step("begin", txn_id, st=st))
        steps += [Step("update", txn_id, key=k, kind=kind, amount=n) for k, kind, n in updates]
        steps.append(Step("commit", txn_id, ct=i))
        run_txn(engine, txn_id, st, i, [
            (k, Effect.assign(n) if kind == "assign" else Effect.incr(n))
            for k, kind, n in updates])

    @staticmethod
    def _updates(i):
        return [("k", "incr", i + 1)] if i % 2 == 0 else [(f"j{i % 3}", "assign", i)]

    def _reads(self, steps):
        trace = Trace(list(steps))
        return {k: valuation_effect(trace, k, trace.max_ct() + 1) for k in trace.keys()}

    def test_rotation_logs_one_batch_and_the_swap_none(self, tmp_path):
        d = str(tmp_path / "db")
        engine = LevelledStore.create(d, self.cfg)
        steps = []
        mpath = os.path.join(d, "MANIFEST")
        self._commit(engine, steps, 0, self._updates(0))
        size = os.path.getsize(mpath)
        self._commit(engine, steps, 1, self._updates(1))  # seals [0, 2)
        assert engine.stats["rotations"] == 1
        (_, entries), = ManifestLog.scan(mpath)[0][-1:]
        assert [(e.action, e.level, e.path) for e in entries] == [
            (ManifestAction.REMOVE, -1, "wal-0.log"),
            (ManifestAction.ADD, 0, "ckpt-1.cb"),
            (ManifestAction.ADD, -1, "wal-2.log")]
        assert os.path.getsize(mpath) > size
        assert sorted(os.listdir(d)) == ["MANIFEST", "ckpt-1.cb", "wal-2.log"]
        # the sealed pair still answers reads inside its window
        assert [w for _, w in engine.layout()["live"]] == [(0, 2), (2, None)]
        assert engine.horizon == 0
        assert effect_at(engine, "j1", 1) is None
        assert effect_at(engine, "j1", 2) == (1, 0)
        files = _files(d)
        engine.compact()  # within capacity: nothing to swap
        assert engine.stats["live_checkpoints"] == 0
        with engine._mutex:  # swap the sealed pair, but merge nothing
            engine._compact_live_locked(force=True)
        assert engine.stats["live_checkpoints"] == 1
        assert [w for _, w in engine.layout()["live"]] == [(2, None)]
        assert [p for p, _, _ in engine.layout()["levels"][0]] == ["ckpt-1.cb"]
        assert engine.horizon == 2
        assert _files(d) == files  # the swap wrote no batch and no file
        for i in range(2, 9):
            self._commit(engine, steps, i, self._updates(i))
            wals = [n for n in os.listdir(d) if n.startswith("wal-")]
            assert wals == [engine.layout()["live"][-1][0]], i
        engine.close()
        _only_named_files_then_idempotent(d, self.cfg, self._reads(steps))

    def _crash_in_rotation(self, d, point, action):
        engine = LevelledStore.create(d, self.cfg)
        steps = []
        for i in range(4):
            self._commit(engine, steps, i, self._updates(i))
        assert engine.stats["rotations"] == 2
        faults.install_plan(FaultPlan().arm(point, action))
        with pytest.raises((InjectedCrash, OSError)):  # the commit is durable
            self._commit(engine, steps, 4, self._updates(4) + [("x", "assign", 7)])
        faults.clear_plan()
        assert engine.stats["rotations"] == 3
        return engine, steps

    def test_crash_during_checkpoint_serialize(self, tmp_path):
        d = str(tmp_path / "db")
        engine, steps = self._crash_in_rotation(d, "during-checkpoint-serialize", CrashProcess())
        assert len([n for n in os.listdir(d) if n.startswith("ckpt-")]) == 3  # one torn
        engine.close()
        _only_named_files_then_idempotent(d, self.cfg, self._reads(steps))

    def test_crash_before_the_rotation_batch(self, tmp_path):
        d = str(tmp_path / "db")
        engine, steps = self._crash_in_rotation(
            d, "after-wal-write-before-manifest", CrashProcess())
        assert len([n for n in os.listdir(d) if n.startswith("wal-")]) == 2
        engine.close()
        _only_named_files_then_idempotent(d, self.cfg, self._reads(steps))

    def test_failed_unlink_after_the_batch(self, tmp_path, monkeypatch):
        d = str(tmp_path / "db")
        engine = LevelledStore.create(d, self.cfg)
        steps = []
        for i in range(3):
            self._commit(engine, steps, i, self._updates(i))
        sealed = engine.layout()["live"][-1][0]
        real_remove = os.remove
        refused = []

        def remove(path, *args, **kw):
            if os.path.basename(path) == sealed:
                refused.append(path)
                raise OSError("injected unlink failure")
            real_remove(path, *args, **kw)
        with monkeypatch.context() as m:
            m.setattr(os, "remove", remove)
            self._commit(engine, steps, 3, self._updates(3))  # seals the pair
        assert refused and engine.stats["rotations"] == 2
        wals = sorted(n for n in os.listdir(d) if n.startswith("wal-"))
        assert sealed in wals and len(wals) == 2
        self._commit(engine, steps, 4, self._updates(4))
        engine.close()
        _only_named_files_then_idempotent(d, self.cfg, self._reads(steps))
        assert sealed not in os.listdir(d)


class TestLiveThreaded:
    def test_concurrent_increments_survive_rotation_and_compaction(self, tmp_path):
        cfg = small_config(live_capacity=2, wmp_rotate_effects=8,
                           level_capacities=(2, 2, 1 << 30))
        engine = LevelledStore.create(str(tmp_path / "db"), cfg)
        manager = TransactionManager(engine, isolation="tcc")
        per_thread, threads_n = 40, 4

        def worker():
            for _ in range(per_thread):
                coord = manager.begin_txn()
                coord.incr("acc", 1)
                assert coord.commit().committed

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = per_thread * threads_n
        assert manager.read_at("acc", manager.last_commit_ts + 1) == total
        engine.close()
