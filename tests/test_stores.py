"""In-memory journal and map stores: contract, pinned histories, and
cross-implementation agreement with the reference valuation."""

import sys
import threading
import time

import pytest

from cobble.effects import Effect, apply
from cobble.memory import JournalStore, MapStore
from cobble.oracle import generate_trace, replay, valuation_effect
from cobble.store import (
    MAX_KEY_BYTES,
    RecordKind,
    StoreError,
    TransactionDescriptor,
    TransactionError,
    Window,
    check_key,
)


def commit(store, txn_id: str, st: int, ct: int, updates) -> None:
    """Run one whole transaction against a raw store."""
    txn = TransactionDescriptor(txn_id, st=st)
    store.do_begin(txn)
    for key, eff in updates:
        prior = txn.effect_buffer.get(key)
        txn.effect_buffer[key] = eff if prior is None else apply(prior, eff)
        store.do_update(txn, key, eff)
    txn.ct = ct
    store.do_commit(txn)


def eff_tuple(store, key: str, read_st: int):
    eff = store.lookup(key, read_st)
    return None if eff is None else (eff.base, eff.delta)


class TestKeyRules:
    def test_empty_key_rejected(self):
        with pytest.raises(StoreError):
            check_key("")

    def test_nul_rejected(self):
        with pytest.raises(StoreError):
            check_key("a\x00b")

    def test_length_cap(self):
        check_key("k" * MAX_KEY_BYTES)
        with pytest.raises(StoreError):
            check_key("k" * (MAX_KEY_BYTES + 1))
        # multibyte characters count in utf-8 bytes, not code points
        with pytest.raises(StoreError):
            check_key("é" * ((MAX_KEY_BYTES // 2) + 1))

    def test_lone_surrogate_rejected(self):
        # it has no utf-8 form; the error must be the store's, not the codec's
        for key in ("\ud800", "a\udfffb"):
            with pytest.raises(StoreError):
                check_key(key)


class TestWindow:
    def test_open_window(self):
        w = Window(3, None)
        assert w.is_open

    def test_intersects_prefix(self):
        # a snapshot at read_st sees cts strictly below it, so a window
        # starting at read_st has nothing to offer
        w = Window(4, 9)
        assert not w.intersects_prefix(4)
        assert w.intersects_prefix(5)


class TestLifecycle:
    @pytest.mark.parametrize("make", [JournalStore, MapStore])
    def test_duplicate_begin_rejected(self, make):
        store = make()
        store.do_begin(TransactionDescriptor("a", st=0))
        with pytest.raises(TransactionError):
            store.do_begin(TransactionDescriptor("a", st=0))

    @pytest.mark.parametrize("make", [JournalStore, MapStore])
    def test_update_without_begin_rejected(self, make):
        store = make()
        with pytest.raises(TransactionError):
            store.do_update(TransactionDescriptor("nope", st=0), "k", Effect.incr(1))

    @pytest.mark.parametrize("make", [JournalStore, MapStore])
    def test_update_after_commit_rejected(self, make):
        store = make()
        txn = TransactionDescriptor("a", st=0)
        store.do_begin(txn)
        txn.ct = 0
        store.do_commit(txn)
        with pytest.raises(TransactionError):
            store.do_update(txn, "k", Effect.incr(1))

    @pytest.mark.parametrize("make", [JournalStore, MapStore])
    def test_double_terminate_rejected(self, make):
        store = make()
        txn = TransactionDescriptor("a", st=0)
        store.do_begin(txn)
        store.do_abort(txn)
        with pytest.raises(TransactionError):
            store.do_abort(txn)
        txn2 = TransactionDescriptor("b", st=0)
        store.do_begin(txn2)
        txn2.ct = 5
        store.do_commit(txn2)
        with pytest.raises(TransactionError):
            store.do_commit(txn2)


class TestJournalRecords:
    def test_begin_appends_one_record(self):
        store = JournalStore()
        store.do_begin(TransactionDescriptor("a", st=0))
        recs = store.records()
        assert len(recs) == 1
        assert recs[0].kind is RecordKind.BEGIN
        assert recs[0].txn_id == "a"
        assert recs[0].ts == 0

    def test_update_goes_to_the_tail(self):
        store = JournalStore()
        txn = TransactionDescriptor("a", st=0)
        store.do_begin(txn)
        store.do_update(txn, "k", Effect.incr(2))
        tail = store.records()[-1]
        assert (tail.kind, tail.txn_id, tail.key, tail.effect) == (
            RecordKind.UPDATE, "a", "k", Effect(None, 2))

    def test_full_lifecycle_record_order(self):
        store = JournalStore()
        commit(store, "a", 0, 1, [("k1", Effect.assign(1)), ("k2", Effect.assign(2))])
        kinds = [r.kind for r in store.records()]
        assert kinds == [RecordKind.BEGIN, RecordKind.UPDATE,
                         RecordKind.UPDATE, RecordKind.COMMIT]


class TestMapSharedState:
    def test_begin_and_update_leave_shared_state_alone(self):
        store = MapStore()
        txn = TransactionDescriptor("a", st=0)
        store.do_begin(txn)
        txn.effect_buffer["k"] = Effect.assign(1)
        store.do_update(txn, "k", Effect.assign(1))
        assert store.lookup("k", 10) is None
        assert store.written_keys() == set()

    def test_commit_appends_one_version(self):
        store = MapStore()
        commit(store, "a", st=1, ct=4, updates=[("k", Effect.assign(1))])
        assert store.written_keys() == {"k"}
        assert eff_tuple(store, "k", 5) == (1, 0)
        assert eff_tuple(store, "k", 4) is None

    def test_commit_of_empty_buffer_changes_nothing(self):
        store = MapStore()
        commit(store, "a", st=0, ct=1, updates=[])
        assert store.written_keys() == set()

    def test_concurrent_commits_keep_sequences_sorted(self):
        store = MapStore()
        bump = Effect.incr(1)

        def writer(base: int):
            for i in range(50):
                commit(store, f"w{base}-{i}", st=0, ct=base + 2 * i,
                       updates=[("k", bump)])

        a = threading.Thread(target=writer, args=(0,))
        b = threading.Thread(target=writer, args=(1,))
        a.start(), b.start(), a.join(), b.join()
        # all 100 increments visible past the end
        assert eff_tuple(store, "k", 1000) == (None, 100)

    def test_reads_during_commits_see_each_commit_whole(self):
        """One writer commits in ct order, as the engine's commit mutex has
        it, while more readers than cores probe without the map's lock: at
        the newest finished commit's snapshot a read sees exactly the
        commits below it, above every commit it sees a prefix of them, and
        inside the history it bisects a list that is still growing. Each
        round stops after 2,000 commits or 2 s, whichever comes first."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                store = MapStore()
                done = [0]  # the ct of the newest commit whose insert returned
                stop = threading.Event()
                errors: list = []

                def writer():
                    deadline = time.monotonic() + 2
                    for ct in range(1, 2001):
                        # k counts the commits; a holds the newest ct, so a
                        # read inside its history walks back one group
                        store.insert_committed(ct, ct - 1 - ct % 2,
                                               {"k": Effect.incr(1), "a": Effect.assign(ct)})
                        done[0] = ct
                        if time.monotonic() > deadline:
                            break
                    stop.set()

                def reader():
                    while not stop.is_set():
                        seen = done[0]
                        at = store.probe("k", seen + 1)
                        if (at.delta if at else 0) != seen:
                            errors.append(("at", seen, at))
                        above = store.probe("k", 1 << 62)  # one insert may be unpublished
                        if not seen <= (above.delta if above else 0) <= done[0] + 1:
                            errors.append(("above", seen, above))
                        inside = store.probe("a", seen // 2 + 1)
                        if (inside.base if inside else 0) != seen // 2:
                            errors.append(("inside", seen, inside))

                threads = [threading.Thread(target=reader) for _ in range(4)]
                threads.append(threading.Thread(target=writer))
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert errors == []
                assert done[0] > 0
                assert eff_tuple(store, "k", done[0] + 1) == (None, done[0])
        finally:
            sys.setswitchinterval(interval)


class TestPinnedHistories:
    @pytest.mark.parametrize("make", [JournalStore, MapStore])
    def test_assign_then_increment(self, make):
        # A (ct=1) assigns k:=2; B (ct=2) increments by 1
        store = make()
        commit(store, "A", st=0, ct=1, updates=[("k", Effect.assign(2))])
        commit(store, "B", st=1, ct=2, updates=[("k", Effect.incr(1))])
        assert eff_tuple(store, "k", 3) == (2, 1)
        assert eff_tuple(store, "k", 2) == (2, 0)
        assert eff_tuple(store, "k", 1) is None

    @pytest.mark.parametrize("make", [JournalStore, MapStore])
    def test_single_assignment(self, make):
        store = make()
        commit(store, "A", st=0, ct=1, updates=[("k", Effect.assign(5))])
        assert eff_tuple(store, "k", 2) == (5, 0)

    @pytest.mark.parametrize("make", [JournalStore, MapStore])
    def test_concurrent_increments_merge(self, make):
        # both began at st=0, so they are mutually concurrent
        store = make()
        commit(store, "B", st=0, ct=1, updates=[("k", Effect.incr(3))])
        commit(store, "A", st=0, ct=2, updates=[("k", Effect.incr(1))])
        assert eff_tuple(store, "k", 3) == (None, 4)

    @pytest.mark.parametrize("make", [JournalStore, MapStore])
    def test_increment_survives_concurrent_assignment(self, make):
        store = make()
        commit(store, "A", st=0, ct=1, updates=[("k", Effect.incr(5))])
        commit(store, "B", st=0, ct=2, updates=[("k", Effect.assign(9))])
        assert eff_tuple(store, "k", 3) == (9, 5)

    @pytest.mark.parametrize("make", [JournalStore, MapStore])
    def test_empty_store_reads_absent(self, make):
        assert make().lookup("anything", 99) is None

    @pytest.mark.parametrize("make", [JournalStore, MapStore])
    def test_aborted_writes_invisible(self, make):
        store = make()
        txn = TransactionDescriptor("a", st=0)
        store.do_begin(txn)
        txn.effect_buffer["k"] = Effect.assign(42)
        store.do_update(txn, "k", Effect.assign(42))
        store.do_abort(txn)
        for rs in (0, 1, 100):
            assert store.lookup("k", rs) is None

    @pytest.mark.parametrize("make", [JournalStore, MapStore])
    def test_uncommitted_writes_invisible(self, make):
        store = make()
        txn = TransactionDescriptor("a", st=0)
        store.do_begin(txn)
        txn.effect_buffer["k"] = Effect.assign(42)
        store.do_update(txn, "k", Effect.assign(42))
        assert store.lookup("k", 100) is None
        store.do_abort(txn)

    @pytest.mark.parametrize("make", [JournalStore, MapStore])
    def test_commit_is_atomic_per_snapshot(self, make):
        store = make()
        commit(store, "a", st=0, ct=1,
               updates=[("k1", Effect.assign(1)), ("k2", Effect.assign(2))])
        for rs in (1, 2):
            got = (eff_tuple(store, "k1", rs), eff_tuple(store, "k2", rs))
            assert got == (None, None) or got == ((1, 0), (2, 0))


class TestMapLongHistory:
    def test_reads_around_an_assignment_after_ten_thousand_increments(self):
        n = 10_000
        store, journal = MapStore(), JournalStore()
        for s in (store, journal):
            for i in range(n):
                commit(s, f"i{i}", st=i, ct=i + 1, updates=[("k", Effect.incr(1))])
            commit(s, "A", st=n, ct=n + 1, updates=[("k", Effect.assign(7))])
            for i in range(3):
                commit(s, f"j{i}", st=n + 1 + i, ct=n + 2 + i,
                       updates=[("k", Effect.incr(2))])
        want = {1: None, 2: (None, 1), n: (None, n - 1),
                n + 1: (None, n),       # before the assignment
                n + 2: (7, 0),          # at it
                n + 3: (7, 2), n + 5: (7, 6), n + 50: (7, 6)}  # after it
        for rs, expected in want.items():
            assert eff_tuple(store, "k", rs) == expected, rs
            assert eff_tuple(journal, "k", rs) == expected, rs


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_fifty_txn_traces_match_the_valuation(self, seed):
        trace = generate_trace(seed=seed, txn_count=50, max_concurrency=5)
        journal = replay(JournalStore(), trace)
        mapstore = replay(MapStore(), trace)
        for rs in range(trace.max_ct() + 2):
            for key in trace.keys():
                want = valuation_effect(trace, key, rs)
                assert eff_tuple(journal, key, rs) == want
                assert eff_tuple(mapstore, key, rs) == want

    def test_journal_replay_insensitive_to_ingest_interleaving(self):
        # the same committed history arriving as interleaved records gives
        # the same answers as arriving serially
        serial = JournalStore()
        commit(serial, "A", st=0, ct=1, updates=[("k", Effect.incr(5))])
        commit(serial, "B", st=0, ct=2, updates=[("k", Effect.assign(9))])

        inter = JournalStore()
        ta = TransactionDescriptor("A", st=0)
        tb = TransactionDescriptor("B", st=0)
        inter.do_begin(ta)
        inter.do_begin(tb)
        inter.do_update(tb, "k", Effect.assign(9))
        inter.do_update(ta, "k", Effect.incr(5))
        ta.effect_buffer["k"] = Effect.incr(5)
        tb.effect_buffer["k"] = Effect.assign(9)
        ta.ct, tb.ct = 1, 2
        inter.do_commit(ta)
        inter.do_commit(tb)
        for rs in range(4):
            assert eff_tuple(serial, "k", rs) == eff_tuple(inter, "k", rs)
