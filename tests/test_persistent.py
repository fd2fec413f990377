"""Persistent journal and commit log: framing codecs, durability, and crash
recovery."""

import os
import random
import struct
import zlib

import pytest

from cobble import codec, faults
from cobble.composition import Checkpoint, make_checkpoint, rebuild_wmp
from cobble.effects import Effect
from cobble.engine import LevelledStore, open_engine
from cobble.faults import CorruptBytes, FailFlush, FaultPlan, TruncateAt
from cobble.memory import JournalStore, MapStore
from cobble.oracle import generate_trace, replay, valuation_effect
from cobble.persistent import CommitLog, PersistentJournal
from cobble.store import (
    IntegrityError,
    JournalRecord,
    RecordKind,
    StoreError,
    TransactionDescriptor,
    Window,
)
from test_stores import commit, eff_tuple


def fresh(tmp_path, name="wal.log") -> PersistentJournal:
    return PersistentJournal(str(tmp_path / name))


class TestRecordCodec:
    RECORDS = [
        JournalRecord(RecordKind.BEGIN, "t1", 7),
        JournalRecord(RecordKind.UPDATE, "t1", 0, key="k", effect=Effect(None, -3)),
        JournalRecord(RecordKind.UPDATE, "x", 0, key="key9", effect=Effect(5, 2)),
        JournalRecord(RecordKind.COMMIT, "t1", 9),
        JournalRecord(RecordKind.ABORT, "zzz", 0),
    ]

    def test_round_trip(self):
        for rec in self.RECORDS:
            assert codec.decode_record(codec.encode_record(rec)) == rec
        # kind 4 was the engine's MANIFEST record, now a frame log of its own
        for payload in (b"\x04\x02\x00m1" + bytes(8) + b"\x01\x02\x00",
                        codec.encode_batch(4, [])):
            with pytest.raises(IntegrityError, match="bad record payload"):
                codec.decode_record(payload)

    def test_random_round_trip(self):
        rng = random.Random(7)
        kinds = [RecordKind.BEGIN, RecordKind.COMMIT, RecordKind.ABORT]
        for _ in range(500):
            if rng.random() < 0.5:
                rec = JournalRecord(
                    RecordKind.UPDATE, f"t{rng.randrange(99)}", 0,
                    key=f"k{rng.randrange(99)}",
                    effect=Effect(None if rng.random() < 0.5 else rng.randrange(-9, 9),
                                  rng.randrange(-9, 9)))
            else:
                rec = JournalRecord(rng.choice(kinds), f"t{rng.randrange(99)}",
                                    rng.randrange(1 << 32))
            assert codec.decode_record(codec.encode_record(rec)) == rec

    def test_payload_layout(self):
        # 1 byte kind, 2-byte LE id length, id, 8-byte LE ts
        payload = codec.encode_record(JournalRecord(RecordKind.BEGIN, "ab", 3))
        assert payload == b"\x00" + b"\x02\x00" + b"ab" + (3).to_bytes(8, "little")

    def test_frame_layout(self):
        payload = b"hello"
        frame = codec.encode_frame(payload)
        assert frame[:4] == b"CBLE"
        assert int.from_bytes(frame[4:8], "little") == 5
        assert frame[8:13] == payload
        assert len(frame) == 12 + len(payload)


class TestAppendAndFlush:
    def test_begin_grows_file_by_frame_size(self, tmp_path):
        j = fresh(tmp_path)
        payload = codec.encode_record(JournalRecord(RecordKind.BEGIN, "a", 0))
        j.do_begin(TransactionDescriptor("a", st=0))
        j.flush()
        assert os.path.getsize(j.path) == 12 + len(payload)
        j.close()

    def test_commit_is_durable_before_returning(self, tmp_path):
        j = fresh(tmp_path)
        commit(j, "a", st=0, ct=1, updates=[("k", Effect.assign(3))])
        assert j.durable_offset == os.path.getsize(j.path)
        j.close()

    def test_flush_failure_poisons_the_journal(self, tmp_path):
        j = fresh(tmp_path)
        faults.install_plan(FaultPlan().arm("before-flush", FailFlush()))
        txn = TransactionDescriptor("a", st=0)
        j.do_begin(txn)
        txn.ct = 1
        with pytest.raises(StoreError):
            j.do_commit(txn)
        faults.clear_plan()
        with pytest.raises(StoreError):
            j.do_begin(TransactionDescriptor("b", st=0))
        j.close()

    def test_matches_in_memory_journal(self, tmp_path):
        trace = generate_trace(seed=3, txn_count=40)
        mem = replay(JournalStore(), trace)
        disk = replay(fresh(tmp_path), trace)
        for rs in range(trace.max_ct() + 2):
            for key in trace.keys():
                assert eff_tuple(disk, key, rs) == eff_tuple(mem, key, rs)
        disk.close()


class TestRecovery:
    def _populate(self, tmp_path, n_txns=12) -> tuple[str, object]:
        trace = generate_trace(seed=11, txn_count=n_txns, max_concurrency=3)
        j = replay(fresh(tmp_path), trace)
        j.close()
        return str(tmp_path / "wal.log"), trace

    def test_recover_missing_file_errors(self, tmp_path):
        with pytest.raises(StoreError):
            PersistentJournal.recover(str(tmp_path / "nope.log"))

    def test_fresh_open_refuses_existing_content(self, tmp_path):
        path, _ = self._populate(tmp_path)
        with pytest.raises(StoreError):
            PersistentJournal(path)

    def test_clean_recovery_preserves_all_commits(self, tmp_path):
        path, trace = self._populate(tmp_path)
        j = PersistentJournal.recover(path)
        for rs in range(trace.max_ct() + 2):
            for key in trace.keys():
                assert eff_tuple(j, key, rs) == valuation_effect(trace, key, rs)
        j.close()

    def test_random_truncation_keeps_committed_prefix(self, tmp_path):
        path, _ = self._populate(tmp_path)
        whole = open(path, "rb").read()
        rng = random.Random(5)
        for cut in sorted(rng.sample(range(1, len(whole)), 12)):
            p = str(tmp_path / f"cut{cut}.log")
            with open(p, "wb") as f:
                f.write(whole[:cut])
            records, valid_end = codec.scan_records(whole[:cut])
            committed = {r.txn_id for r in records if r.kind == RecordKind.COMMIT}
            begun = {r.txn_id for r in records if r.kind == RecordKind.BEGIN}
            j = PersistentJournal.recover(p)
            got = {txn_id for _, _, txn_id, _ in j.committed_txns()}
            assert got == committed
            # everything begun but not terminated in the prefix ends aborted
            recs = j.records()
            terminated = {r.txn_id for r in recs
                          if r.kind in (RecordKind.COMMIT, RecordKind.ABORT)}
            assert begun <= terminated
            j.close()

    def test_flipped_byte_discards_frame_and_suffix(self, tmp_path):
        path, _ = self._populate(tmp_path)
        size = os.path.getsize(path)
        faults.corrupt_file(path, size // 2, 1)
        with open(path, "rb") as f:
            records, valid_end = codec.scan_records(f.read())
        assert valid_end <= size // 2
        j = PersistentJournal.recover(path)
        assert len(j.records()) >= len(records)  # plus appended aborts
        j.close()

    def test_recover_twice_is_byte_identical(self, tmp_path):
        path, _ = self._populate(tmp_path)
        faults.truncate_file(path, -3)
        PersistentJournal.recover(path).close()
        first = open(path, "rb").read()
        PersistentJournal.recover(path).close()
        second = open(path, "rb").read()
        assert first == second

    def test_crash_before_flush_aborts_the_txn(self, tmp_path):
        j = fresh(tmp_path)
        commit(j, "keep", st=0, ct=1, updates=[("k", Effect.assign(1))])
        faults.install_plan(FaultPlan().arm("before-flush", FailFlush()))
        txn = TransactionDescriptor("lost", st=1)
        j.do_begin(txn)
        j.do_update(txn, "k", Effect.assign(99))
        txn.effect_buffer["k"] = Effect.assign(99)
        txn.ct = 2
        with pytest.raises(StoreError):
            j.do_commit(txn)
        faults.clear_plan()
        j.close()
        back = PersistentJournal.recover(str(tmp_path / "wal.log"))
        got = {txn_id for _, _, txn_id, _ in back.committed_txns()}
        assert "keep" in got and "lost" not in got
        assert eff_tuple(back, "k", 10) == (1, 0)
        back.close()

    def test_truncate_fault_in_tail_recovers_valid_prefix(self, tmp_path):
        path, _ = self._populate(tmp_path)
        faults.truncate_file(path, -5)
        j = PersistentJournal.recover(path)
        # the file now ends on a frame boundary again
        data = open(path, "rb").read()
        _, valid_end = codec.scan_records(data)
        assert valid_end == len(data)
        j.close()

    def test_corrupt_tail_fault_recovers_valid_prefix(self, tmp_path):
        path, _ = self._populate(tmp_path)
        faults.corrupt_file(path, -9, 2)
        j = PersistentJournal.recover(path)
        data = open(path, "rb").read()
        _, valid_end = codec.scan_records(data)
        assert valid_end == len(data)
        j.close()


class TestCommitLog:
    def _log(self, tmp_path, n=5):
        """A commit log holding n committed txns, closed; returns its path."""
        path = str(tmp_path / "wal.log")
        log = CommitLog(path)
        for i in range(n):
            txn = TransactionDescriptor(f"t{i}", st=i, ct=i)
            txn.effect_buffer = {"k": Effect.incr(i + 1), f"j{i}": Effect.assign(i)}
            log.do_commit(txn)
        log.close()
        return path

    def test_commit_payload_round_trip(self):
        top = (1 << 63) - 1
        writes = {"k": Effect(None, -3), "é": Effect(5, 2), "x": Effect(-top - 1, top)}
        payload = codec.encode_commit(7, 9, writes)
        assert codec.decode_commit(payload) == (
            7, 9, [("k", None, -3), ("é", 5, 2), ("x", -top - 1, top)])
        assert codec.decode_commit(codec.encode_commit(0, 1, {})) == (0, 1, [])
        one = codec.encode_commit(0, 1, {"abc": Effect.incr(1)})
        # tag, head byte, then ct, ct - st and count in one byte each; the
        # write: width byte, u8 key length and a one-byte delta, then the key
        width_at = 1 + 1 + 3
        key_end = width_at + 3 + 3
        assert len(one) == key_end
        for bad, why in ((payload[:-1], "bad commit payload"),
                         (payload + b"\x00", "trailing bytes"), (b"", "not a commit"),
                         (one[:key_end - 1], "short key"),
                         (b"C" + one[1:], "not a commit"),
                         (one[:1] + b"\x40" + one[2:], "bad width byte"),
                         (one[:width_at] + b"\x05" + one[width_at + 1:], "bad width byte"),
                         (one[:width_at] + b"\x28" + one[width_at + 1:], "bad width byte"),
                         (one[:width_at] + b"\x88" + one[width_at + 1:], "bad width byte"),
                         (codec.encode_record(JournalRecord(RecordKind.BEGIN, "t", 3)),
                          "not a commit")):
            with pytest.raises(IntegrityError, match=why):
                codec.decode_commit(bad)

    def test_commit_payload_is_pinned(self):
        payload = codec.encode_commit(2, 4, {"k": Effect.incr(1)})
        assert payload == bytes.fromhex(
            "63"        # tag "c"
            "00"        # head byte: ct, ct - st and count one byte each
            "04" "02" "01"
            "08"        # width byte: no base, one-byte delta, u8 key length
            "01" "01" "6b")

    def test_commit_payload_round_trips_at_every_width_boundary(self):
        for st, ct, writes in _boundary_commits():
            payload = codec.encode_commit(st, ct, writes)
            assert codec.decode_commit(payload) == (
                st, ct, [(k, e.base, e.delta) for k, e in writes.items()])
            assert len(payload) == _commit_size(st, ct, writes)

    def test_every_strict_prefix_of_a_payload_raises(self):
        for st, ct, writes in _boundary_commits():
            payload = codec.encode_commit(st, ct, writes)
            for cut in range(len(payload)):
                with pytest.raises(IntegrityError):
                    codec.decode_commit(payload[:cut])

    def test_snapshot_after_commit_is_refused_before_writing(self, tmp_path):
        with pytest.raises(struct.error):
            codec.encode_commit(5, 4, {})
        log = CommitLog(str(tmp_path / "wal.log"))
        txn = TransactionDescriptor("late", st=5, ct=4)
        txn.effect_buffer["k"] = Effect.incr(1)
        with pytest.raises(StoreError, match="after its ct"):
            log.do_commit(txn)
        assert os.path.getsize(log.path) == log.durable_offset == 0
        log.do_commit(TransactionDescriptor("next", st=4, ct=4))  # the log is not failed
        log.close()
        log, commits = CommitLog.recover(log.path)
        log.close()
        assert commits == [(4, 4, [])]

    def test_parent_layout_frame_raises_and_stays_unchanged(self, tmp_path):
        path = self._log(tmp_path, n=2)
        with open(path, "ab") as f:
            f.write(codec.encode_frame(_PARENT_LAYOUT_PAYLOAD))
        before = open(path, "rb").read()
        for read in (CommitLog.scan, CommitLog.recover):
            with pytest.raises(IntegrityError, match="not a commit"):
                read(path)
            assert open(path, "rb").read() == before

    def test_engine_refuses_a_live_log_in_the_parent_layout(self, tmp_path):
        d = str(tmp_path / "db")
        engine = LevelledStore.create(d)
        (live, _), = engine.layout()["live"]
        engine.close()
        path = os.path.join(d, live)
        with open(path, "ab") as f:
            f.write(codec.encode_frame(_PARENT_LAYOUT_PAYLOAD))
        before = open(path, "rb").read()
        with pytest.raises(IntegrityError):
            open_engine(d)
        assert open(path, "rb").read() == before

    def test_one_frame_per_commit_and_nothing_before(self, tmp_path):
        log = CommitLog(str(tmp_path / "wal.log"))
        txn = TransactionDescriptor("a", st=2)
        log.do_begin(txn)
        log.do_update(txn, "k", Effect.incr(1))
        txn.effect_buffer["k"] = Effect.incr(1)
        assert os.path.getsize(log.path) == 0
        txn.ct = 4
        log.do_commit(txn)
        frame = codec.encode_frame(codec.encode_commit(2, 4, {"k": Effect.incr(1)}))
        # an exact size: a change that grows the log fails here
        assert os.path.getsize(log.path) == log.durable_offset == len(frame) == 21
        log.close()

    def test_aborted_txn_adds_no_bytes(self, tmp_path):
        path = self._log(tmp_path, n=2)
        log, _ = CommitLog.recover(path)
        size = os.path.getsize(path)
        txn = TransactionDescriptor("gone", st=2)
        log.do_begin(txn)
        log.do_update(txn, "k", Effect.assign(9))
        log.do_abort(txn)
        log.close()
        assert os.path.getsize(path) == size

    def test_recover_returns_commits_in_log_order(self, tmp_path):
        path = self._log(tmp_path, n=3)
        log, commits = CommitLog.recover(path)
        log.close()
        assert [(st, ct) for st, ct, _ in commits] == [(0, 0), (1, 1), (2, 2)]
        assert commits[2][2] == [("k", None, 3), ("j2", 2, 0)]

    def test_torn_tail_truncated_and_recovery_idempotent(self, tmp_path):
        path = self._log(tmp_path)
        full = os.path.getsize(path)
        faults.truncate_file(path, -3)
        log, commits = CommitLog.recover(path)
        log.close()
        assert len(commits) == 4
        first = open(path, "rb").read()
        assert len(first) < full - 3
        log, again = CommitLog.recover(path)
        log.close()
        assert again == commits
        assert open(path, "rb").read() == first

    def test_crc_failure_in_tail_truncates_it(self, tmp_path):
        path = self._log(tmp_path)
        faults.corrupt_file(path, -9, 2)
        log, commits = CommitLog.recover(path)
        log.close()
        assert [ct for _, ct, _ in commits] == [0, 1, 2, 3]
        _, valid_end = codec.scan_frames(open(path, "rb").read())
        assert valid_end == os.path.getsize(path)

    def test_corrupt_middle_frame_raises_and_stays_unchanged(self, tmp_path):
        path = self._log(tmp_path, n=10)
        size = os.path.getsize(path)
        for off in (size // 3, 2, 5):  # a payload byte, the magic, the length
            faults.corrupt_file(path, off, 1)
            before = open(path, "rb").read()
            with pytest.raises(IntegrityError):
                CommitLog.recover(path)
            assert open(path, "rb").read() == before
            faults.corrupt_file(path, off, 1)  # flip it back
        log, commits = CommitLog.recover(path)
        log.close()
        assert len(commits) == 10

    def test_random_truncation_rebuilds_the_committed_prefix(self, tmp_path):
        rng = random.Random(11)
        path = str(tmp_path / "wal.log")
        log = CommitLog(path)
        txns, ends = [], []
        for i in range(30):
            txn = TransactionDescriptor(f"t{i}", st=rng.randrange(i + 1), ct=i + 1)
            for _ in range(rng.randrange(4)):
                key = f"k{rng.randrange(6)}"
                txn.effect_buffer[key] = (Effect.incr(rng.randrange(-5, 9))
                                          if rng.random() < 0.6
                                          else Effect.assign(rng.randrange(99)))
            log.do_commit(txn)
            txns.append(txn)
            ends.append(log.durable_offset)
        log.close()
        data = open(path, "rb").read()
        cut_path = str(tmp_path / "cut.log")
        for cut in [0, ends[-1]] + [rng.randrange(ends[-1]) for _ in range(12)]:
            with open(cut_path, "wb") as f:
                f.write(data[:cut])
            kept = sum(1 for end in ends if end <= cut)
            oracle = MapStore()
            for txn in txns[:kept]:
                oracle.do_begin(txn)
                oracle.do_commit(txn)
            back = rebuild_wmp(cut_path, lo=0)
            assert os.path.getsize(cut_path) == (ends[kept - 1] if kept else 0)
            for key in (f"k{i}" for i in range(6)):
                for rs in range(1, 32):
                    assert eff_tuple(back, key, rs) == eff_tuple(oracle, key, rs)
            # the window closes one past the last recovered ct
            assert back.seal() == Window(0, kept + 1 if kept else 0)
            back.wal.close()

    def test_failed_flush_rolls_the_frame_back(self, tmp_path):
        path = self._log(tmp_path, n=2)
        log, _ = CommitLog.recover(path)
        size = os.path.getsize(path)
        faults.install_plan(FaultPlan().arm("before-flush", FailFlush()))
        txn = TransactionDescriptor("lost", st=2, ct=2)
        txn.effect_buffer = {"k": Effect.assign(99)}
        with pytest.raises(StoreError):
            log.do_commit(txn)
        faults.clear_plan()
        assert os.path.getsize(path) == size == log.durable_offset
        with pytest.raises(StoreError):  # the log stays failed
            log.do_commit(TransactionDescriptor("next", st=2, ct=3))
        log.close()
        log, commits = CommitLog.recover(path)
        log.close()
        assert [ct for _, ct, _ in commits] == [0, 1]

    def test_journal_format_file_raises_and_stays_unchanged(self, tmp_path):
        path = str(tmp_path / "journal.log")
        j = PersistentJournal(path)
        commit(j, "a", st=0, ct=1, updates=[("k", Effect.assign(3))])
        j.close()
        before = open(path, "rb").read()
        with pytest.raises(IntegrityError):
            CommitLog.recover(path)
        assert open(path, "rb").read() == before

    def test_existing_content_needs_recover(self, tmp_path):
        path = self._log(tmp_path, n=1)
        with pytest.raises(StoreError):
            CommitLog(path)
        with pytest.raises(StoreError):
            CommitLog.recover(str(tmp_path / "nope.log"))


# the commit payload of (st 2, ct 4, {"k": incr 1}) in the fixed-width
# layout this one replaced: tag "C", u64 st, u64 ct, u32 write count, then
# per write u16 key length, key, effect tag 0 (no base) and i64 delta
_PARENT_LAYOUT_PAYLOAD = bytes.fromhex(
    "43" "0200000000000000" "0400000000000000" "01000000"
    "0100" "6b" "00" "0100000000000000")

# both sides of every width boundary: 0 bytes (0), then 1, 2, 4 and 8
_SIGNED_EDGES = [0, 1, -1, 127, -128, 128, -129, (1 << 15) - 1, -(1 << 15), 1 << 15,
                 -(1 << 15) - 1, (1 << 31) - 1, -(1 << 31), 1 << 31, -(1 << 31) - 1,
                 (1 << 63) - 1, -(1 << 63)]
_UNSIGNED_EDGES = [0, 1, 255, 256, (1 << 16) - 1, 1 << 16, (1 << 32) - 1, 1 << 32,
                   (1 << 64) - 1]


def _boundary_commits() -> list[tuple[int, int, dict[str, Effect]]]:
    """Commits at every width boundary of the commit payload."""
    commits = [(st, ct, {}) for ct in _UNSIGNED_EDGES for st in (0, ct, ct // 2, ct - 1)
               if st >= 0]
    for base in [None] + _SIGNED_EDGES:
        commits.append((3, 9, {f"d{i}": Effect(base, d) for i, d in enumerate(_SIGNED_EDGES)}))
        commits += [(0, 1, {"k": Effect(base, d)}) for d in (0, 1, -(1 << 63))]
    keys = ["a", "é" * 127 + "a", "é" * 128, "a\u07ff\uffff" * 170 + "\U0010ffff"]
    assert [len(k.encode("utf-8")) for k in keys] == [1, 255, 256, 1024]
    commits += [(1, 2, {k: Effect.assign(7)}) for k in keys]
    commits.append((1, 2, dict.fromkeys(keys, Effect.incr(-1))))
    for count in (255, 256):
        commits.append((0, 1 << 20, {f"user{i:06d}": Effect(i - 128 if i % 2 else None, i * 7)
                                     for i in range(count)}))
    return commits


def _unsigned_width(v: int) -> int:
    return next(n for n in (1, 2, 4, 8) if v < 1 << 8 * n)


def _signed_width(v: int) -> int:
    return 0 if v == 0 else next(n for n in (1, 2, 4, 8) if -(1 << 8 * n - 1) <= v < 1 << 8 * n - 1)


def _commit_size(st: int, ct: int, writes: dict[str, Effect]) -> int:
    """Payload bytes of a commit by the layout in codec's docstring."""
    size = 2 + _unsigned_width(ct) + _unsigned_width(ct - st) + _unsigned_width(len(writes))
    for key, eff in writes.items():
        klen = len(key.encode("utf-8"))
        base = 0 if eff.base is None else _signed_width(eff.base) or 1
        size += 1 + (1 if klen < 256 else 2) + base + _signed_width(eff.delta) + klen
    return size


def _ck_path(tmp_path, entries, window=Window(0, 2), name="m.cb") -> str:
    path = str(tmp_path / name)
    Checkpoint(entries, window).persist(path)
    return path


def _sealed_map(body: bytes) -> bytes:
    """A map file around body, with a valid CRC."""
    return codec.MAP_MAGIC + body + struct.pack("<I", zlib.crc32(body))


_I64_EDGES = [-(1 << 63), (1 << 63) - 1, -1, 0, 1]
_UTF8_EDGES = [0x01, 0x7F, 0x80, 0x7FF, 0x800, 0xD7FF, 0xE000, 0xFFFF,
               0x10000, 0x10FFFF]


def _random_key(rng) -> str:
    def code_point():
        if rng.random() < 0.3:
            return rng.choice(_UTF8_EDGES)
        cp = rng.randint(0x80, 0xFFFF) if rng.random() < 0.5 else rng.randint(0x10000, 0x10FFFF)
        return 0xE000 if 0xD800 <= cp <= 0xDFFF else cp

    return "".join(chr(code_point()) for _ in range(rng.randint(1, 4)))


def _random_effect(rng) -> Effect:
    def i64():
        return rng.choice(_I64_EDGES) if rng.random() < 0.3 else rng.randint(-(1 << 63), (1 << 63) - 1)

    return Effect(i64() if rng.random() < 0.5 else None, i64())


class TestMapFile:
    """The packed checkpoint file, through Checkpoint.persist / load."""

    def test_truncated_map_file_raises_integrity_error(self, tmp_path):
        path = _ck_path(tmp_path, {"k": Effect.assign(1)})
        faults.truncate_file(path, -2)
        with pytest.raises(IntegrityError):
            Checkpoint.load(path)

    def test_corrupt_map_file_raises_integrity_error(self, tmp_path):
        path = _ck_path(tmp_path, {"k": Effect.assign(1), "j": Effect.incr(2)})
        for off in range(os.path.getsize(path)):
            with open(path, "rb") as f:
                good = f.read()
            faults.corrupt_file(path, off, 1)
            with pytest.raises(IntegrityError):
                Checkpoint.load(path)
            with open(path, "wb") as f:
                f.write(good)

    def test_empty_map_round_trips(self, tmp_path):
        path = _ck_path(tmp_path, {}, Window(3, 7))
        back = Checkpoint.load(path)
        assert len(back) == 0 and back.entries == {} and back.key_range is None
        assert back.window == Window(3, 7)
        assert back.lookup("anything", 100) is None
        assert os.path.getsize(path) == len(codec.MAP_MAGIC) + 24 + 4

    def test_random_sealed_maps_round_trip(self, tmp_path):
        for seed in range(4):
            trace = generate_trace(seed=seed, txn_count=25)
            store = replay(MapStore(), trace)
            hi = trace.max_ct() + 1
            store.seal(Window(0, hi))
            path = str(tmp_path / f"m{seed}.cb")
            make_checkpoint(store, Window(0, hi)).persist(path)
            back = Checkpoint.load(path)
            for rs in (hi, hi + 1, hi + 9):
                for key in trace.keys():
                    assert eff_tuple(back, key, rs) == eff_tuple(store, key, rs)

    def test_random_keys_and_effects_round_trip(self, tmp_path):
        rng = random.Random(11)
        for i in range(60):
            entries = {_random_key(rng): _random_effect(rng)
                       for _ in range(rng.randint(1, 40))}
            path = _ck_path(tmp_path, entries, Window(i, i + 5), name=f"r{i}.cb")
            back = Checkpoint.load(path)
            assert back.entries == entries
            assert back.window == Window(i, i + 5)
            by_bytes = sorted(k.encode("utf-8") for k in entries)
            assert list(back) == [k.decode("utf-8") for k in by_bytes]
            for key, eff in entries.items():
                assert back.lookup(key, i + 5) == eff

    def test_i64_extremes_with_and_without_base(self, tmp_path):
        entries = {}
        for b in _I64_EDGES:
            for d in _I64_EDGES:
                entries[f"b{b}d{d}"] = Effect(b, d)
                entries[f"n{d}"] = Effect(None, d)
        back = Checkpoint.load(_ck_path(tmp_path, entries))
        assert back.entries == entries
        assert back.lookup("n0", 2) == Effect(None, 0)
        assert back.lookup("b0d0", 2) == Effect(0, 0)

    def test_pinned_little_endian_bytes(self, tmp_path):
        path = _ck_path(tmp_path, {"b": Effect(None, -2), "a": Effect(1, (1 << 63) - 1)},
                        Window(5, 9))
        with open(path, "rb") as f:
            data = f.read()
        assert data == bytes.fromhex(
            "43424c4d41503032"                   # magic CBLMAP02
            "0500000000000000" "0900000000000000"  # window lo, hi
            "02000000" "03000000"                # entry count, key blob bytes
            "61" "00" "62"                       # "a" NUL "b"
            "01" "00"                            # has-base flags
            "0100000000000000" "0000000000000000"  # bases
            "ffffffffffffff7f" "feffffffffffffff"  # deltas
            "fc603948")                          # CRC-32 of all after the magic

    def test_malformed_but_checksummed_files_raise(self, tmp_path):
        path = str(tmp_path / "bad.cb")

        def body(keys: bytes, n: int, flags: bytes, extra: bytes = b"") -> bytes:
            cols = flags + b"\x00" * 16 * n
            return struct.pack("<QQII", 0, 2, n, len(keys)) + keys + cols + extra

        cases = {
            "descending": body(b"b\x00a", 2, b"\x00\x00"),
            "duplicate": body(b"a\x00a", 2, b"\x00\x00"),
            "empty key": body(b"\x00a", 2, b"\x00\x00"),
            "count vs keys": body(b"a\x00b", 3, b"\x00\x00\x00"),
            "trailing bytes": body(b"a\x00b", 2, b"\x00\x00", b"\x00"),
            "short column": body(b"a\x00b", 2, b"\x00\x00")[:-1],
            "bad flag": body(b"a\x00b", 2, b"\x00\x02"),
            "bad utf-8": body(b"a\x00\xff", 2, b"\x00\x00"),
        }
        for what, b in cases.items():
            with open(path, "wb") as f:
                f.write(_sealed_map(b))
            try:
                Checkpoint.load(path)
            except IntegrityError:
                continue
            pytest.fail(f"{what}: loaded without an IntegrityError")
        with open(path, "wb") as f:  # the multi-version layout this replaced
            f.write(b"CBLMAP01" + _sealed_map(body(b"a", 1, b"\x00"))[8:])
        with pytest.raises(IntegrityError):
            Checkpoint.load(path)
        with open(path, "wb") as f:
            f.write(_sealed_map(body(b"a\x00b", 2, b"\x01\x00")))
        assert Checkpoint.load(path).entries == {"a": Effect(0, 0), "b": Effect(None, 0)}
