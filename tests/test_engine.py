"""Levelled engine: lookup path, rotation, compaction, MANIFEST, recovery."""

import os
import random
import shutil
import sys
import threading

import pytest

import cobble.composition
import cobble.engine
import cobble.memory
from cobble import faults
from cobble.composition import Checkpoint
from cobble.effects import Effect, apply
from cobble.engine import (
    EngineConfig,
    LevelledStore,
    ManifestAction,
    ManifestEntry,
    decode_manifest_entry,
    encode_manifest_entry,
    open_engine,
    recover_engine,
    replay_manifest,
)
from cobble.faults import CrashProcess, FaultPlan, InjectedCrash
from cobble.oracle import generate_trace, replay, valuation_effect
from cobble.persistent import PersistentJournal
from cobble.store import (
    IntegrityError,
    StaleSnapshotError,
    StoreError,
    TransactionDescriptor,
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
        with pytest.raises(ValueError):
            EngineConfig(isolation="serializable")


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
        assert engine.stats["level_merge_collapses"] == 0
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
        assert engine.stats["level_merge_collapses"] == 0
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
    """The level merge on plain dicts: each key of each source (oldest source
    first) folds into the first target holding it, else into one new
    residual per source. Untouched targets keep their place; rebuilt and new
    ones follow, in row order."""
    row = [(dict(e), w, False) for e, w in targets]
    for entries, window in sources:
        residual, touched = {}, {}
        for key in sorted(entries):
            for i, (t, _, _) in enumerate(row):
                if key in t:
                    touched.setdefault(i, []).append(key)
                    break
            else:
                residual[key] = entries[key]
        for i, keys in touched.items():
            t, w, _ = row[i]
            t = dict(t)
            for key in keys:
                t[key] = apply(t[key], entries[key])
            row[i] = (t, Window(min(w.lo, window.lo), max(w.hi, window.hi)), True)
        if residual:
            row.append((residual, window, True))
    return [(e, w) for e, w, f in row if not f] + [(e, w) for e, w, f in row if f]


class TestPackedMerge:
    POOL = [f"k{i:02d}" for i in range(40)] + ["\u00e9", "\uffff", "\U00010000", "z\U0010ffff"]

    @staticmethod
    def _effect(rng) -> Effect:
        edge = [-(1 << 63), (1 << 63) - 1, -1, 0]
        v = rng.choice(edge) if rng.random() < 0.2 else rng.randint(-50, 50)
        return Effect.assign(v) if rng.random() < 0.4 else Effect.incr(v)

    def test_level_merge_matches_dict_fold(self, tmp_path):
        for seed in range(25):
            rng = random.Random(seed)
            d = str(tmp_path / f"db{seed}")
            cfg = small_config(level_capacities=(1 << 30, 1 << 30, 1 << 30))
            engine = LevelledStore.create(d, cfg)
            free = list(self.POOL)
            rng.shuffle(free)
            targets = []
            for i in range(rng.randint(0, 3)):  # disjoint, as at any level >= 1
                keys, free = free[:rng.randint(1, 12)], free[12:]
                targets.append(({k: self._effect(rng) for k in keys}, Window(10 * i, 10 * i + 10)))
            sources = [({k: self._effect(rng) for k in rng.sample(self.POOL, rng.randint(1, 20))},
                        Window(100 + 10 * i, 110 + 10 * i)) for i in range(rng.randint(1, 3))]

            adds = []
            cks = {0: [], 1: []}
            for level, group in ((1, targets), (0, sources)):
                for j, (entries, window) in enumerate(group):
                    ck = Checkpoint(entries, window)
                    ck.path = f"ckpt-{level}-{window.lo}-{window.hi}-{900 + 10 * level + j}.cb"
                    ck.persist(os.path.join(d, ck.path))
                    cks[level].append(ck)
                    adds.append(ManifestEntry(ManifestAction.ADD, level, ck.path, window,
                                              ck.key_range if level else None))
            with engine._mutex:
                engine._manifest_commit_locked(adds)
                live, levels = engine._layout
                engine._layout = (live, (tuple(cks[0]), tuple(cks[1])) + levels[2:])
                engine._merge_down_locked(0, cks[0])

            want_row = _dict_merge(targets, sources)
            got_row = [(ck.entries, ck.window) for ck in engine._layout[1][1]]
            assert got_row == want_row, seed
            assert engine._layout[1][0] == ()

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
            back.close()

    def test_random_traces_through_many_merges_match_oracle(self, tmp_path):
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
            check_against_oracle(back, trace)
            back.close()


class TestManifest:
    def test_entry_codec_round_trip(self):
        cases = [
            ManifestEntry(ManifestAction.ADD, -1, "wal-0.log", Window(0, None)),
            ManifestEntry(ManifestAction.REMOVE, 0, "ckpt-0-0-5-1.cb", Window(0, 5)),
            ManifestEntry(ManifestAction.ADD, 2, "ckpt-2-3-9-4.cb", Window(3, 9),
                          key_range=("alpha", "omega")),
        ]
        for e in cases:
            assert decode_manifest_entry(encode_manifest_entry(e)) == e

    def test_add_then_remove_leaves_path_dead(self, tmp_path):
        path = str(tmp_path / "MANIFEST")
        j = PersistentJournal(path)
        e_add = ManifestEntry(ManifestAction.ADD, -1, "wal-0.log", Window(0, None))
        e_rm = ManifestEntry(ManifestAction.REMOVE, -1, "wal-0.log", Window(0, 5))
        for i, entry in enumerate([e_add, e_rm]):
            txn = TransactionDescriptor(f"m{i}", st=0, ct=0)
            j.do_begin(txn)
            j.append_manifest(txn, encode_manifest_entry(entry))
            j.do_commit(txn)
        live, levels, fid, mseq, _ = replay_manifest(j)
        assert live == {}
        assert mseq == 2
        j.close()

    def test_uncommitted_trailing_entries_ignored(self, tmp_path):
        path = str(tmp_path / "MANIFEST")
        j = PersistentJournal(path)
        txn = TransactionDescriptor("m0", st=0, ct=0)
        j.do_begin(txn)
        j.append_manifest(txn, encode_manifest_entry(
            ManifestEntry(ManifestAction.ADD, -1, "wal-0.log", Window(0, None))))
        j.do_commit(txn)
        dangling = TransactionDescriptor("m1", st=0, ct=0)
        j.do_begin(dangling)
        j.append_manifest(dangling, encode_manifest_entry(
            ManifestEntry(ManifestAction.ADD, 0, "ckpt-0-0-5-0.cb", Window(0, 5))))
        j.flush()
        j.close()  # crash: commit never written
        back = PersistentJournal.recover(path)
        live, levels, fid, mseq, _ = replay_manifest(back)
        assert set(live) == {"wal-0.log"}
        assert all(not row for row in levels)
        back.close()

    def test_replay_reconstructs_live_layout(self, tmp_path):
        d = str(tmp_path / "db")
        engine = LevelledStore.create(d, small_config(live_capacity=2,
                                                      wmp_rotate_effects=2))
        trace = generate_trace(seed=12, txn_count=30, max_concurrency=1,
                               eager_notify=True)
        replay(engine, trace)
        want = engine.layout()
        engine.close()
        manifest = PersistentJournal.recover(os.path.join(d, "MANIFEST"))
        live, levels, _, _, _ = replay_manifest(manifest)
        assert [e.path for e in live.values()] == [p for p, _ in want["live"]]
        for lvl, row in enumerate(levels):
            assert [e.path for e in row.values()] == [
                p for p, _, _ in want["levels"][lvl]]
        manifest.close()


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
        assert engine.stats["level_merge_collapses"] == 0
        engine.close()
