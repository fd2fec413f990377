"""Transaction coordination: buffered writes, snapshot reads, isolation."""

import threading

import pytest

from cobble.effects import Effect
from cobble.engine import EngineConfig, open_engine
from cobble.memory import MapStore
from cobble.store import StoreError, TransactionError
from cobble.transactions import TransactionManager


def manager(isolation="tcc"):
    return TransactionManager(MapStore(), isolation=isolation)


def commit_value(mgr, key, value):
    t = mgr.begin_txn()
    t.assign(key, value)
    res = t.commit()
    assert res.committed
    return res.ct


class TestReadYourWrites:
    def test_missing_key_reads_zero(self):
        t = manager().begin_txn()
        assert t.read("nothing") == 0

    def test_own_assignment_visible_before_commit(self):
        mgr = manager()
        t = mgr.begin_txn()
        t.assign("k", 42)
        assert t.read("k") == 42
        # nothing committed yet: an outside read still sees nothing
        assert mgr.read_at("k", t.st) == 0

    def test_increment_on_missing_key_counts_from_zero(self):
        t = manager().begin_txn()
        t.incr("k", 7)
        assert t.read("k") == 7

    def test_increment_overlays_committed_base(self):
        mgr = manager()
        commit_value(mgr, "k", 10)
        t = mgr.begin_txn()
        t.incr("k", 5)
        assert t.read("k") == 15
        res = t.commit()
        assert res.committed
        assert mgr.read_at("k", res.ct + 1) == 15

    def test_updates_fold_in_place(self):
        mgr = manager()
        t = mgr.begin_txn()
        t.incr("k", 2)
        t.incr("k", 3)
        assert t.txn.effect_buffer["k"] == Effect.incr(5)
        assert t.read("k") == 5
        res = t.commit()
        assert mgr.read_at("k", res.ct + 1) == 5

    def test_assignment_absorbs_own_prior_increment(self):
        mgr = manager()
        commit_value(mgr, "k", 100)
        t = mgr.begin_txn()
        t.incr("k", 2)
        t.assign("k", 7)
        assert t.read("k") == 7
        res = t.commit()
        assert mgr.read_at("k", res.ct + 1) == 7

    def test_first_read_stays_stable(self):
        mgr = manager()
        commit_value(mgr, "k", 1)
        t = mgr.begin_txn()
        assert t.read("k") == 1
        commit_value(mgr, "k", 99)
        assert t.read("k") == 1  # snapshot, not latest

    def test_read_validates_key(self):
        t = manager().begin_txn()
        with pytest.raises(StoreError):
            t.read("")
        with pytest.raises(StoreError):
            t.update("a\x00b", Effect.incr(1))


class TestLifecycle:
    def test_terminated_txn_rejects_everything(self):
        mgr = manager()
        t = mgr.begin_txn()
        t.commit()
        for call in (lambda: t.read("k"), lambda: t.incr("k"),
                     lambda: t.commit(), lambda: t.abort()):
            with pytest.raises(TransactionError):
                call()

    def test_abort_discards_writes(self):
        mgr = manager()
        t = mgr.begin_txn()
        t.assign("k", 5)
        t.abort()
        assert mgr.read_at("k", mgr.last_commit_ts + 1) == 0
        with pytest.raises(TransactionError):
            t.read("k")

    def test_coordinator_registry(self):
        mgr = manager()
        t = mgr.begin_txn()
        assert mgr.coordinator(t.txn_id) is t
        t.abort()
        with pytest.raises(TransactionError):
            mgr.coordinator(t.txn_id)
        with pytest.raises(TransactionError):
            mgr.coordinator("never-was")

    def test_txn_ids_are_unique(self):
        mgr = manager()
        ids = {mgr.begin_txn().txn_id for _ in range(50)}
        assert len(ids) == 50

    def test_lone_surrogate_key_rejected_by_update(self):
        mgr = manager()
        t = mgr.begin_txn()
        with pytest.raises(StoreError):
            t.assign("\ud800", 1)
        assert t.txn.effect_buffer == {}
        t.abort()

    def test_empty_commit_succeeds(self):
        mgr = manager()
        res = mgr.begin_txn().commit()
        assert res.committed and res.ct is not None


class TestSnapshotIsolation:
    def test_lost_update_aborts_second_committer(self):
        mgr = manager("si")
        commit_value(mgr, "k", 0)
        t1 = mgr.begin_txn()
        t2 = mgr.begin_txn()
        t1.assign("k", t1.read("k") + 1)
        t2.assign("k", t2.read("k") + 1)
        r1 = t1.commit()
        r2 = t2.commit()
        assert r1.committed and not r2.committed
        assert "conflict" in r2.reason
        assert mgr.read_at("k", r1.ct + 1) == 1  # no lost update: exactly one +1

    def test_disjoint_writers_both_commit(self):
        mgr = manager("si")
        t1 = mgr.begin_txn()
        t2 = mgr.begin_txn()
        t1.assign("a", 1)
        t2.assign("b", 2)
        assert t1.commit().committed
        assert t2.commit().committed

    def test_conflict_consumes_no_commit_timestamp(self):
        mgr = manager("si")
        ct0 = commit_value(mgr, "k", 0)
        t1 = mgr.begin_txn()
        t2 = mgr.begin_txn()
        t1.incr("k")
        t2.incr("k")
        r1 = t1.commit()
        assert not t2.commit().committed
        # the failed commit never leased a timestamp: the next one is adjacent
        ct2 = commit_value(mgr, "j", 1)
        assert (ct0, r1.ct, ct2) == (ct0, ct0 + 1, ct0 + 2)

    def test_conflict_against_already_committed_writer(self):
        mgr = manager("si")
        t1 = mgr.begin_txn()
        commit_value(mgr, "k", 9)  # commits after t1's snapshot
        t1.assign("k", 5)
        res = t1.commit()
        assert not res.committed

    def test_read_only_txn_never_conflicts(self):
        mgr = manager("si")
        t1 = mgr.begin_txn()
        commit_value(mgr, "k", 9)
        t1.read("k")
        assert t1.commit().committed

    def test_aborted_conflicter_leaves_store_usable(self):
        mgr = manager("si")
        commit_value(mgr, "k", 0)
        t1 = mgr.begin_txn()
        t2 = mgr.begin_txn()
        t1.incr("k")
        t2.incr("k")
        t1.commit()
        t2.commit()
        assert commit_value(mgr, "k", 3) is not None
        assert mgr.read_at("k", mgr.last_commit_ts + 1) == 3


class TestCycleFreeConcurrentCommits:
    def test_concurrent_blind_increments_both_commit(self):
        mgr = manager("tcc")
        t1 = mgr.begin_txn()
        t2 = mgr.begin_txn()
        t1.incr("k", 3)
        t2.incr("k", 4)
        r1 = t1.commit()
        r2 = t2.commit()
        assert r1.committed and r2.committed
        assert mgr.read_at("k", r2.ct + 1) == 7

    def test_threaded_increments_lose_nothing(self):
        mgr = manager("tcc")
        per_thread, threads_n = 50, 8

        def worker():
            for _ in range(per_thread):
                t = mgr.begin_txn()
                t.incr("acc")
                assert t.commit().committed

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert mgr.read_at("acc", mgr.last_commit_ts + 1) == per_thread * threads_n

    def test_si_mode_same_workload_would_abort(self):
        # control experiment: the increments of the tcc test conflict under si
        mgr = manager("si")
        t1 = mgr.begin_txn()
        t2 = mgr.begin_txn()
        t1.incr("k")
        t2.incr("k")
        assert t1.commit().committed
        assert not t2.commit().committed

    def test_write_index_stays_empty(self):
        # only si's conflict check reads it, so tcc keeps no entry per key
        mgr = manager("tcc")
        for i in range(20):
            commit_value(mgr, f"k{i}", i)
        assert mgr._write_index == {}
        si = manager("si")
        commit_value(si, "k", 1)
        assert list(si._write_index) == ["k"]


class TestReadAt:
    def test_read_at_walks_history(self):
        mgr = manager()
        ct1 = commit_value(mgr, "k", 10)
        t = mgr.begin_txn()
        t.incr("k", 5)
        ct2 = t.commit().ct
        assert mgr.read_at("k", ct1) == 0
        assert mgr.read_at("k", ct1 + 1) == 10
        assert mgr.read_at("k", ct2 + 1) == 15

    def test_last_commit_ts_tracks(self):
        mgr = manager()
        assert mgr.last_commit_ts == -1
        ct = commit_value(mgr, "k", 1)
        assert mgr.last_commit_ts == ct


class TestRestart:
    def test_recover_floor_resumes_after_restart(self, tmp_path):
        d = str(tmp_path / "db")
        cfg = EngineConfig(max_levels=2, live_capacity=2,
                           wmp_rotate_effects=1 << 30,
                           level_capacities=(4, 1 << 30))
        engine, floor = open_engine(d, cfg)
        assert floor is None
        mgr = TransactionManager(engine)
        commit_value(mgr, "k", 10)
        t = mgr.begin_txn()
        t.incr("k", 2)
        last = t.commit().ct
        engine.close()

        engine2, floor2 = open_engine(d, cfg)
        assert floor2 >= last
        mgr2 = TransactionManager(engine2)
        mgr2.recover_floor(floor2)
        # timestamps continue above everything recovered
        assert mgr2.gen.peek_snapshot() == floor2 + 1
        assert mgr2.read_at("k", floor2 + 1) == 12
        t2 = mgr2.begin_txn()
        assert t2.st == floor2 + 1
        assert t2.read("k") == 12
        t2.incr("k", 1)
        res = t2.commit()
        assert res.committed and res.ct > floor2
        assert mgr2.read_at("k", res.ct + 1) == 13
        engine2.close()
