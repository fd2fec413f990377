"""Composition: the WAL+memtable pair (write-all/read-one) and checkpoint
consolidation."""

import random

import pytest

from cobble.composition import (
    Checkpoint,
    WALMemtablePair,
    fold_commits,
    make_checkpoint,
    rebuild_wmp,
)
import cobble.memory
from cobble.effects import Effect, apply
from cobble.memory import JournalStore, MapStore
from cobble.oracle import generate_trace, replay, valuation_effect
from cobble.persistent import CommitLog, PersistentJournal
from cobble.store import (
    RecordKind,
    StoreError,
    TransactionDescriptor,
    Window,
    WindowError,
)
from test_stores import commit, eff_tuple


def fresh_wmp(tmp_path, lo=0, name="wal.log") -> WALMemtablePair:
    wal = PersistentJournal(str(tmp_path / name))
    return WALMemtablePair(wal, MapStore(), Window(lo, None))


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
        # the pair reads from its memtable; serving the same reads from the
        # WAL instead changes no answer
        wmp = fresh_wmp(tmp_path)
        trace = generate_trace(seed=5, txn_count=20)
        replay(wmp, trace)
        for rs in range(1, trace.max_ct() + 2):
            for key in trace.keys():
                assert eff_tuple(wmp, key, rs) == eff_tuple(wmp.wal, key, rs)

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


def _lookup_checkpoint(src: MapStore, window: Window) -> Checkpoint:
    """One lookup per written key: the consolidation make_checkpoint made
    before it read the version lists directly, kept as its reference."""
    effects = {key: src.lookup(key, window.hi) for key in src.written_keys()}
    return Checkpoint({k: e for k, e in effects.items() if e is not None}, window)


class TestDirectFlush:
    def test_matches_one_lookup_per_key(self):
        """Random sealed memtables: concurrent groups, several versions per
        key, sums that wrap at +-2^63, and some tops below the newest
        versions."""
        rng = random.Random(22)
        for trial in range(400):
            (lo, commits), = _random_logs(rng, 1)
            src = MapStore()
            for st, ct, writes in commits:
                src.insert_committed(ct, st, writes)
            top = max(ct for _, ct, _ in commits) + 1
            window = Window(lo, top if trial % 4 else rng.randrange(lo, top + 1))
            src.seal(window)
            got = make_checkpoint(src, window)
            want = _lookup_checkpoint(src, window)
            _same_checkpoint(got, want)
            assert (got._flags, got._bases, got._deltas) == (
                want._flags, want._bases, want._deltas)

    def test_pair_flushes_its_memtable(self, tmp_path):
        wmp = fresh_wmp(tmp_path)
        for i, (key, eff) in enumerate([("b", Effect.incr(_TOP)), ("a", Effect.assign(3)),
                                        ("b", Effect.incr(2)), ("a", Effect.incr(-1))]):
            txn = TransactionDescriptor(f"t{i}", st=i)
            wmp.do_begin(txn)
            txn.effect_buffer[key] = eff
            wmp.do_update(txn, key, eff)
            txn.ct = i + 1
            wmp.do_commit(txn)
        ck = make_checkpoint(wmp, wmp.seal())
        assert list(ck) == ["a", "b"]
        assert ck.entries == {"a": Effect(3, -1), "b": Effect(None, _TOP + 2)}
        wmp.wal.close()


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


def _random_memtable(rng: random.Random):
    """(lo, commits in ct order, the same commits in arrival order), commits
    as (st, ct, {key: effect}). Half the commits start at the previous ct
    (a new group); the rest start anywhere from lo - 1 up, which makes
    concurrent groups. One to eight keys give lone versions as well as long
    lists, and a few commits arrive out of ct order."""
    lo = prev = rng.randrange(3)
    commits = []
    n_keys = rng.randrange(1, 9)
    for _ in range(rng.randrange(1, 40)):
        ct = prev + rng.randrange(1, 3)
        st = prev if rng.random() < 0.5 else rng.randrange(max(lo - 1, 0), ct)
        writes = {f"k{rng.randrange(n_keys)}": _random_effect(rng)
                  for _ in range(rng.choice([0, 1, 1, 2, 3]))}
        commits.append((st, ct, writes))
        prev = ct
    arrival = list(commits)
    for _ in range(rng.randrange(4)):
        i, j = rng.randrange(len(arrival)), rng.randrange(len(arrival))
        arrival[i], arrival[j] = arrival[j], arrival[i]
    return lo, commits, arrival


def _fed(arrival) -> tuple[MapStore, JournalStore]:
    """A map and a journal fed the same commits in the same order."""
    store, journal = MapStore(), JournalStore()
    for i, (st, ct, writes) in enumerate(arrival):
        store.insert_committed(ct, st, writes)
        txn = TransactionDescriptor(f"t{i}", st=st)
        journal.do_begin(txn)
        for key, eff in writes.items():
            journal.do_update(txn, key, eff)
        txn.ct = ct
        journal.do_commit(txn)
    return store, journal


@pytest.fixture
def fold_steps(monkeypatch):
    """Every fold step MapStore runs from here on, as (ct, st)."""
    steps = []
    real = cobble.memory._step

    def counting(prev, ct, st, eff):
        steps.append((ct, st))
        return real(prev, ct, st, eff)

    monkeypatch.setattr(cobble.memory, "_step", counting)
    return steps


class TestMemtableFold:
    def test_probe_matches_the_journal_at_every_snapshot(self):
        rng = random.Random(23)
        for _ in range(200):
            lo, commits, arrival = _random_memtable(rng)
            store, journal = _fed(arrival)
            top = commits[-1][1] + 1
            for read_st in range(lo, top + 2):
                want = {}
                for key in store.written_keys():
                    want[key] = journal.lookup(key, read_st)
                    assert store.probe(key, read_st) == want[key], (key, read_st)
                keys, effs = store.consolidated(read_st)
                assert keys == sorted(k for k, e in want.items() if e is not None)
                assert effs == [want[k] for k in keys]

    def test_each_fold_is_fold_commits_at_the_top(self):
        rng = random.Random(24)
        lone = multi = 0
        for _ in range(300):
            lo, commits, arrival = _random_memtable(rng)
            store, _ = _fed(arrival)
            top = commits[-1][1] + 1
            flat = [(st, ct, [(k, e.base, e.delta) for k, e in writes.items()])
                    for st, ct, writes in commits]
            want = fold_commits(flat, Window(lo, top)).entries
            assert set(store._rows) == set(want)
            for key, rows in store._rows.items():
                if len(rows) == 1:  # a lone version is its own fold
                    lone += 1
                    assert rows[0][4] is rows[0][2]
                else:
                    multi += 1
                assert [row[0] for row in rows] == sorted(
                    ct for _, ct, writes in commits if key in writes)
                assert rows[-1][4] == want[key]
        assert lone and multi

    def test_rows_kept_out_of_order_equal_rows_fed_in_ct_order(self):
        rng = random.Random(26)
        shuffled = 0
        for _ in range(300):
            _, commits, arrival = _random_memtable(rng)
            store, _ = _fed(arrival)
            in_order, _ = _fed(commits)
            shuffled += arrival != commits
            assert store._rows == in_order._rows
        assert shuffled > 100

    def test_no_read_runs_a_fold_step(self, fold_steps):
        rng = random.Random(25)
        for _ in range(100):
            lo, commits, arrival = _random_memtable(rng)
            store, journal = _fed(arrival)
            fold_steps.clear()
            top = commits[-1][1] + 1
            for read_st in range(lo, top + 2):
                for key in store.written_keys():
                    assert store.probe(key, read_st) == journal.lookup(key, read_st)
                store.consolidated(read_st)
            window = Window(lo, top)
            store.seal(window)
            make_checkpoint(store, window)
            assert fold_steps == []

    def test_a_long_increment_history_reads_without_folding(self, fold_steps):
        """10,000 increments of one key: a read at any snapshot is the sum
        below it, found by a bisect, whatever the history's length."""
        store = MapStore()
        n = 10_000
        for ct in range(1, n + 1):
            store.insert_committed(ct, ct - 1, {"k": Effect.incr(1)})
        assert len(fold_steps) == n - 1  # one per append; the first row is inline
        fold_steps.clear()
        for read_st in range(0, n + 2, 100):
            got = store.probe("k", read_st)
            assert (got.delta if got else 0) == max(read_st - 1, 0)
            assert got is None or got.base is None
        assert store.probe("k", n + 1) == Effect.incr(n)
        assert fold_steps == []

    def test_an_out_of_order_insert_refolds_only_its_suffix(self, fold_steps):
        """Into a key with n rows after it, an insert at position i runs one
        fold step for each of rows i..n-1, and leaves the list a reader
        took before it as it was. (At i = n - 1 it would be an append.)"""
        n = 12
        older = [(st, st + 1, {"k": Effect.assign(st) if st % 6 == 0 else Effect.incr(st + 1)})
                 for st in range(0, 2 * (n - 1), 2)]  # odd cts; the insert's is even
        for i in range(n - 1):
            store, _ = _fed(older)
            held = store._rows["k"]
            before = list(held)
            late = (2 * i - 1, 2 * i, {"k": Effect.incr(100)})
            fold_steps.clear()
            store.insert_committed(late[1], late[0], late[2])
            assert len(fold_steps) == n - i
            rows = store._rows["k"]
            assert len(rows) == n and rows[i][0] == 2 * i
            assert held is not rows and held == before
            in_order, _ = _fed(sorted(older + [late], key=lambda c: c[1]))
            assert rows == in_order._rows["k"]
