"""Windowed composition: write-all/read-one, the WAL+memtable pair, and
checkpoint consolidation."""

import os
import random

import pytest

from cobble.composition import (
    READ_PRIORITY_MAP,
    READ_PRIORITY_WAL,
    Checkpoint,
    ComposedStore,
    Ministore,
    WALMemtablePair,
    fold_commits,
    make_checkpoint,
    rebuild_wmp,
)
from cobble.effects import Effect, apply
from cobble.memory import JournalStore, MapStore
from cobble.oracle import generate_trace, replay, valuation_effect
from cobble.persistent import CommitLog, PersistentJournal
from cobble.store import (
    RecordKind,
    StoreError,
    TransactionDescriptor,
    TransactionError,
    Window,
    WindowError,
)
from test_stores import commit, eff_tuple


def fresh_wmp(tmp_path, lo=0, name="wal.log") -> WALMemtablePair:
    wal = PersistentJournal(str(tmp_path / name))
    return WALMemtablePair(wal, MapStore(), Window(lo, None))


class TestComposedStore:
    def test_needs_a_ministore(self):
        with pytest.raises(StoreError):
            ComposedStore([])

    def test_singleton_composition_is_transparent(self):
        plain = JournalStore()
        composed = ComposedStore([Ministore(JournalStore(), Window(0, None), 0)])
        trace = generate_trace(seed=1, txn_count=30)
        replay(plain, trace)
        replay(composed, trace)
        for rs in range(trace.max_ct() + 2):
            for key in trace.keys():
                assert eff_tuple(composed, key, rs) == eff_tuple(plain, key, rs)

    def test_lookup_below_window_raises(self):
        composed = ComposedStore([Ministore(JournalStore(), Window(5, None), 0)])
        with pytest.raises(WindowError):
            composed.lookup("k", 2)
        with pytest.raises(WindowError):
            composed.lookup("k", 4)
        # at the window floor the missing prefix is empty, so it answers
        assert composed.lookup("k", 5) is None

    def test_read_routes_to_lowest_priority(self):
        hits = []

        class Spy(JournalStore):
            def __init__(self, tag):
                super().__init__()
                self.tag = tag

            def lookup(self, key, read_st, txn=None):
                hits.append(self.tag)
                return super().lookup(key, read_st, txn)

        fast, slow = Spy("fast"), Spy("slow")
        composed = ComposedStore([
            Ministore(slow, Window(0, None), 1),
            Ministore(fast, Window(0, None), 0),
        ])
        composed.lookup("k", 1)
        assert hits == ["fast"]

    def test_overlap_region_agreement(self):
        # full store plus a capped twin; both answer reads inside the overlap
        full = Ministore(JournalStore(), Window(0, None), 1)
        capped = Ministore(MapStore(), Window(0, 40), 0)
        composed = ComposedStore([full, capped])
        trace = generate_trace(seed=2, txn_count=25)
        assert trace.max_ct() < 40
        replay(composed, trace)
        for rs in range(1, 40):
            for key in trace.keys():
                a = full.store.lookup(key, rs)
                b = capped.store.lookup(key, rs)
                assert a == b
                assert composed.lookup(key, rs) == b

    def test_commit_without_ct_rejected(self):
        composed = ComposedStore([Ministore(JournalStore(), Window(0, None), 0)])
        txn = TransactionDescriptor("a", st=0)
        composed.do_begin(txn)
        with pytest.raises(StoreError):
            composed.do_commit(txn)


class TestWALMemtablePair:
    def test_update_hits_wal_only(self, tmp_path):
        wmp = fresh_wmp(tmp_path)
        txn = TransactionDescriptor("a", st=0)
        wmp.do_begin(txn)
        wmp.do_update(txn, "k", Effect.assign(1))
        kinds = [r.kind for r in wmp.wal.records()]
        assert kinds == [RecordKind.BEGIN, RecordKind.UPDATE]
        # shared map state untouched until commit
        assert wmp.memtable.written_keys() == set()
        wmp.do_abort(txn)

    def test_commit_hits_both(self, tmp_path):
        wmp = fresh_wmp(tmp_path)
        commit(wmp, "a", st=0, ct=1, updates=[("k", Effect.assign(2))])
        assert wmp.wal.records()[-1].kind == RecordKind.COMMIT
        assert wmp.memtable.written_keys() == {"k"}
        assert eff_tuple(wmp, "k", 2) == (2, 0)
        assert wmp.committed_effects == 1

    def test_reads_come_from_the_memtable(self, tmp_path):
        wmp = fresh_wmp(tmp_path)
        commit(wmp, "a", st=0, ct=1, updates=[("k", Effect.assign(2))])
        calls = []
        orig = wmp.memtable.lookup

        def spy(key, read_st, txn=None):
            calls.append(key)
            return orig(key, read_st, txn)

        wmp.memtable.lookup = spy
        wmp.lookup("k", 2)
        assert calls == ["k"]

    def test_wal_and_memtable_stay_equivalent(self, tmp_path):
        wmp = fresh_wmp(tmp_path)
        trace = generate_trace(seed=4, txn_count=30)
        replay(wmp, trace)
        for rs in range(1, trace.max_ct() + 2):
            for key in trace.keys():
                assert eff_tuple(wmp.memtable, key, rs) == eff_tuple(wmp.wal, key, rs)

    def test_priority_flip_gives_identical_reads(self, tmp_path):
        wmp = fresh_wmp(tmp_path)
        trace = generate_trace(seed=5, txn_count=20)
        replay(wmp, trace)
        w = Window(0, None)
        normal = ComposedStore([
            Ministore(wmp.memtable, w, READ_PRIORITY_MAP),
            Ministore(wmp.wal, w, READ_PRIORITY_WAL),
        ])
        flipped = ComposedStore([
            Ministore(wmp.memtable, w, READ_PRIORITY_WAL),
            Ministore(wmp.wal, w, READ_PRIORITY_MAP),
        ])
        for rs in range(1, trace.max_ct() + 2):
            for key in trace.keys():
                assert (eff_tuple(normal, key, rs) == eff_tuple(flipped, key, rs))

    def test_seal_boundary_arithmetic(self, tmp_path):
        wmp = fresh_wmp(tmp_path, lo=4)
        commit(wmp, "a", st=4, ct=9, updates=[("k", Effect.incr(1))])
        sealed = wmp.seal()
        assert (sealed.lo, sealed.hi) == (4, 10)
        # consecutive pair tiles with no gap
        nxt = fresh_wmp(tmp_path, lo=sealed.hi, name="wal2.log")
        assert nxt.window.lo == 10

    def test_seal_of_empty_pair_collapses_to_lo(self, tmp_path):
        wmp = fresh_wmp(tmp_path, lo=7)
        assert wmp.seal() == Window(7, 7)

    def test_begin_on_sealed_pair_rejected(self, tmp_path):
        wmp = fresh_wmp(tmp_path)
        wmp.seal()
        with pytest.raises(StoreError):
            wmp.do_begin(TransactionDescriptor("a", st=0))

    def test_rebuild_from_wal(self, tmp_path):
        wmp = WALMemtablePair(CommitLog(str(tmp_path / "wal.log")), MapStore(),
                              Window(0, None))
        trace = generate_trace(seed=6, txn_count=25)
        replay(wmp, trace)
        # simulate a crash: no close, no seal; reopen from the log alone
        path = wmp.wal.path
        wmp.wal.close()
        back = rebuild_wmp(path, lo=0)
        assert back.committed_effects == wmp.committed_effects
        for rs in range(1, trace.max_ct() + 2):
            for key in trace.keys():
                assert eff_tuple(back, key, rs) == eff_tuple(wmp, key, rs)
                assert eff_tuple(back, key, rs) == valuation_effect(trace, key, rs)
        assert back.seal() == wmp.seal()

    def test_double_commit_writes_no_frame(self, tmp_path):
        wmp = WALMemtablePair(CommitLog(str(tmp_path / "wal.log")), MapStore(),
                              Window(0, None))
        txn = TransactionDescriptor("a", st=0)
        wmp.do_begin(txn)
        txn.effect_buffer["k"] = Effect.assign(1)
        wmp.do_update(txn, "k", Effect.assign(1))
        txn.ct = 1
        wmp.do_commit(txn)
        size = wmp.wal.durable_offset
        for ct in (1, 2):
            txn.ct = ct
            with pytest.raises(TransactionError):
                wmp.do_commit(txn)
        assert os.path.getsize(wmp.wal.path) == size
        with pytest.raises(TransactionError):  # never begun
            wmp.do_commit(TransactionDescriptor("b", st=0, ct=3))
        assert os.path.getsize(wmp.wal.path) == size
        assert wmp.committed_effects == 1
        wmp.wal.close()


class TestCheckpoint:
    def test_consolidates_assign_then_increment(self):
        src = MapStore()
        commit(src, "A", st=0, ct=1, updates=[("k", Effect.assign(2))])
        commit(src, "B", st=1, ct=2, updates=[("k", Effect.incr(1))])
        src.seal(Window(0, 3))
        ck = make_checkpoint(src, Window(0, 3))
        assert ck.entries == {"k": Effect(2, 1)}

    def test_empty_source(self):
        src = MapStore()
        src.seal(Window(0, 1))
        ck = make_checkpoint(src, Window(0, 1))
        assert ck.entries == {}
        assert ck.key_range is None
        assert ck.lookup("k", 5) is None

    def test_unsealed_source_rejected(self, tmp_path):
        wmp = fresh_wmp(tmp_path)
        with pytest.raises(StoreError):
            make_checkpoint(wmp, Window(0, 1))

    def test_open_window_rejected(self):
        with pytest.raises(StoreError):
            Checkpoint({}, Window(0, None))

    def test_reads_below_hi_raise(self):
        ck = Checkpoint({"k": Effect(1, 0)}, Window(0, 5))
        with pytest.raises(WindowError):
            ck.lookup("k", 4)
        assert ck.lookup("k", 5) == Effect(1, 0)

    def test_probe_skips_the_key_check_and_lookup_keeps_it(self):
        ck = Checkpoint({"k": Effect(1, 0)}, Window(0, 5))
        with pytest.raises(StoreError):
            ck.lookup("", 5)
        assert ck.probe("", 5) is None
        assert ck.probe("k", 5) == Effect(1, 0)
        with pytest.raises(WindowError):
            ck.probe("k", 4)
        src = MapStore()
        commit(src, "A", st=0, ct=1, updates=[("k", Effect.incr(2))])
        with pytest.raises(StoreError):
            src.lookup("", 2)
        assert src.probe("", 2) is None
        assert src.probe("k", 2) == Effect(None, 2)

    def test_read_only(self):
        ck = Checkpoint({}, Window(0, 1))
        with pytest.raises(StoreError):
            ck.do_begin(TransactionDescriptor("a", st=0))
        with pytest.raises(StoreError):
            ck.do_commit(TransactionDescriptor("a", st=0, ct=1))

    def test_matches_source_at_and_above_hi(self):
        for seed in range(4):
            trace = generate_trace(seed=seed, txn_count=30)
            src = replay(MapStore(), trace)
            hi = trace.max_ct() + 1
            src.seal(Window(0, hi))
            ck = make_checkpoint(src, Window(0, hi))
            for key in trace.keys():
                want = eff_tuple(src, key, hi)
                for t in (hi, hi + 1, hi + 50):
                    assert eff_tuple(ck, key, t) == want

    def test_key_range_and_covers(self):
        ck = Checkpoint({"b": Effect(1, 0), "f": Effect(2, 0)}, Window(0, 2))
        assert ck.key_range == ("b", "f")
        assert ck.covers_key("b") and ck.covers_key("d") and ck.covers_key("f")
        assert not ck.covers_key("a") and not ck.covers_key("g")

    def test_covers_key_matches_utf8_byte_order(self):
        rng = random.Random(7)
        # boundaries of the 1- to 4-byte UTF-8 forms, then random BMP and
        # astral code points (surrogates cannot be encoded, NUL is rejected)
        edges = [0x01, 0x7F, 0x80, 0x7FF, 0x800, 0xD7FF, 0xE000, 0xFFFF,
                 0x10000, 0x10FFFF]

        def code_point():
            if rng.random() < 0.3:
                return rng.choice(edges)
            if rng.random() < 0.5:
                cp = rng.randint(0x80, 0xFFFF)
            else:
                cp = rng.randint(0x10000, 0x10FFFF)
            return 0xE000 if 0xD800 <= cp <= 0xDFFF else cp

        def key():
            return "".join(chr(code_point()) for _ in range(rng.randint(1, 3)))

        for _ in range(200):
            keys = {key() for _ in range(rng.randint(1, 8))}
            ck = Checkpoint({k: Effect.incr(1) for k in keys}, Window(0, 1))
            encoded = sorted(k.encode("utf-8") for k in keys)
            lo, hi = encoded[0], encoded[-1]
            assert ck.key_range == (lo.decode("utf-8"), hi.decode("utf-8"))
            for probe in [key() for _ in range(50)] + list(keys):
                assert ck.covers_key(probe) == (lo <= probe.encode("utf-8") <= hi), probe

    def test_key_bounds_computed_once(self):
        class CountingDict(dict):
            iterations = 0

            def __iter__(self):
                self.iterations += 1
                return super().__iter__()

        entries = CountingDict({f"k{i:04d}": Effect.incr(1) for i in range(1000)})
        ck = Checkpoint(entries, Window(0, 2))
        covered = sum(ck.covers_key(f"k{i:04d}x") for i in range(1000))
        assert covered == 999  # "k0999x" sorts above the top key "k0999"
        assert entries.iterations <= 2

    def test_persist_load_round_trip(self, tmp_path):
        src = MapStore()
        commit(src, "A", st=0, ct=3, updates=[("k", Effect.assign(2)),
                                              ("j", Effect.incr(-4))])
        src.seal(Window(0, 4))
        ck = make_checkpoint(src, Window(0, 4))
        path = str(tmp_path / "ck.cb")
        ck.persist(path)
        back = Checkpoint.load(path)
        assert back.entries == ck.entries
        assert back.window == ck.window
        assert back.path == path


_TOP = (1 << 63) - 1


def _random_effect(rng: random.Random) -> Effect:
    """An increment or an assignment, near the i64 limits a third of the time."""
    value = rng.choice([rng.randrange(-9, 10), _TOP - rng.randrange(4),
                        -_TOP - 1 + rng.randrange(4)])
    if rng.random() < 0.6:
        return Effect.incr(value)
    return Effect(rng.choice([value, rng.randrange(-9, 10)]), rng.randrange(-3, 4))


def _random_logs(rng: random.Random, n_logs: int) -> list[tuple[int, list]]:
    """Contiguous logs as (lo, commits in written order), commits as
    (st, ct, {key: effect}). Every st is at or above the log's lo - 1, as
    the engine's begin enforces, and below its ct; many fall below the
    previous ct, which makes concurrent groups. Some commits write nothing,
    and a few neighbouring frames are written out of ct order."""
    logs = []
    ct = lo = rng.randrange(3)
    for _ in range(n_logs):
        commits = []
        for _ in range(rng.randrange(1, 20)):
            ct += rng.randrange(1, 3)
            st = rng.randrange(max(lo - 1, 0), ct)
            writes = {f"k{rng.randrange(5)}": _random_effect(rng)
                      for _ in range(rng.choice([0, 1, 1, 2, 3]))}
            commits.append((st, ct, writes))
        for _ in range(rng.randrange(3)):
            i = rng.randrange(len(commits))
            commits[i:i + 2] = commits[i:i + 2][::-1]
        logs.append((lo, commits))
        lo = ct + 1
    return logs


def _write_log(path: str, commits) -> None:
    log = CommitLog(path)
    for i, (st, ct, writes) in enumerate(commits):
        txn = TransactionDescriptor(f"t{i}", st=st, ct=ct)
        txn.effect_buffer = dict(writes)
        log.do_commit(txn)
    log.close()


def _same_checkpoint(got: Checkpoint, want: Checkpoint) -> None:
    assert got.window == want.window
    assert list(got) == list(want)  # same keys in the same row order
    assert got.entries == want.entries


class TestFoldCommits:
    def test_each_log_folds_to_the_memtable_checkpoint(self, tmp_path):
        rng = random.Random(20)
        for trial in range(150):
            for lo, commits in _random_logs(rng, 1):
                path = str(tmp_path / f"wal-{trial}.log")
                _write_log(path, commits)
                wmp = rebuild_wmp(path, lo)
                window = wmp.seal()
                want = make_checkpoint(wmp, window)
                wmp.wal.close()
                logged, cut = CommitLog.scan(path)
                assert cut is None
                _same_checkpoint(fold_commits(logged, window), want)

    def test_contiguous_logs_fold_like_their_checkpoints_applied_in_turn(self, tmp_path):
        rng = random.Random(21)
        for trial in range(80):
            logs = _random_logs(rng, rng.randrange(2, 5))
            applied: dict[str, Effect] = {}
            everything = []
            for i, (lo, commits) in enumerate(logs):
                path = str(tmp_path / f"wal-{trial}-{i}.log")
                _write_log(path, commits)
                wmp = rebuild_wmp(path, lo)
                own = make_checkpoint(wmp, wmp.seal())
                wmp.wal.close()
                for key, eff in own.entries.items():
                    applied[key] = apply(applied[key], eff) if key in applied else eff
                everything += CommitLog.scan(path)[0]
            hi = max(ct for _, ct, _ in everything) + 1
            got = fold_commits(everything, Window(logs[0][0], hi))
            _same_checkpoint(got, Checkpoint(applied, Window(logs[0][0], hi)))

    def test_wrap_and_groups_pinned(self):
        top = _TOP
        commits = [  # (st, ct, writes), deliberately out of ct order
            (1, 3, [("a", None, top), ("b", 7, 0)]),
            (0, 1, [("a", None, 1), ("b", None, 5)]),
            (1, 2, [("b", None, 2)]),  # concurrent with ct 3: survives on b's 7
            (3, 4, [("a", None, 1)]),
            (4, 5, []),
        ]
        ck = fold_commits(commits, Window(0, 6))
        assert list(ck) == ["a", "b"]
        assert ck.entries == {"a": Effect(None, -top), "b": Effect(7, 2)}
        assert len(fold_commits([(0, 1, [])], Window(0, 2))) == 0
        with pytest.raises(StoreError):
            fold_commits(commits, Window(0, None))
