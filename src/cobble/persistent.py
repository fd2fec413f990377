"""Crash-tolerant logs: the persistent journal and two thin frame logs.

PersistentJournal has the in-memory journal's read semantics; every append
is also framed into a log file. Commit acknowledgment happens only after
fsync. Recovery scans the longest valid frame prefix, truncates torn bytes,
and appends abort records for transactions the crash left unterminated, so
a second recovery pass is a byte-identical no-op.

CommitLog and ManifestLog answer no reads and keep nothing in memory: each
writes one CRC frame per committed transaction or per batch of engine
layout edits, with one write and one fsync, and recovery returns the
decoded frames for the engine to fold. Both share one scan: a torn tail is
cut, and a bad frame with a valid one after it raises IntegrityError.
"""

from __future__ import annotations

import os
import threading
from typing import NoReturn

from . import codec, faults
from .codec import Write
from .effects import Effect
from .memory import JournalStore
from .store import (
    IntegrityError,
    JournalRecord,
    ManifestEntry,
    RecordKind,
    StoreError,
    TransactionDescriptor,
)


class _FrameFile:
    """The append-only frame file under every log.

    Opened unbuffered, so a process crash never holds frames hostage in
    userspace and close() can never leak an unacknowledged commit. After an
    I/O error the file is rolled back to its durable prefix, so a commit
    whose write or fsync failed can never surface after recovery, and the
    log stays failed.

    A log whose frames are read back through scan and recover sets _decode,
    which turns one payload into one item or raises IntegrityError.
    """

    def __init__(self, path: str, _recovered: bool = False):
        if not _recovered and os.path.exists(path) and os.path.getsize(path) > 0:
            raise StoreError(f"{path} already has content; use {type(self).__name__}.recover")
        self._path = path
        self._failed = False
        self._f = open(path, "ab", buffering=0)
        self._size = os.path.getsize(path)
        self._durable_offset = self._size
        self._lock = threading.Lock()

    @property
    def path(self) -> str:
        return self._path

    @property
    def durable_offset(self) -> int:
        """File size at the last successful fsync; bytes past it may be lost."""
        return self._durable_offset

    def _check_ok(self) -> None:
        if self._failed:
            raise StoreError(f"log {self._path} is failed after an I/O error")

    def _fail(self, what: str, exc: OSError) -> NoReturn:
        self._failed = True
        try:
            os.truncate(self._path, self._durable_offset)
        except OSError:
            pass
        raise StoreError(f"{what} failed: {exc}") from exc

    def _write_frame(self, payload: bytes) -> None:
        self._check_ok()
        frame = codec.encode_frame(payload)
        try:
            if self._f.write(frame) != len(frame):
                raise OSError("short write")
        except OSError as exc:
            self._fail("append", exc)
        self._size += len(frame)

    def _sync(self) -> None:
        """fsync everything written; fires `before-flush` first."""
        self._check_ok()
        try:
            faults.fire("before-flush", path=self._path)
            os.fsync(self._f.fileno())
        except OSError as exc:
            self._fail("flush", exc)
        self._durable_offset = self._size

    def _append_durably(self, payload: bytes) -> None:
        """One frame, one write and one fsync; returns once it is durable."""
        with self._lock:
            self._write_frame(payload)
            self._sync()

    def close(self) -> None:
        try:
            self._f.close()
        except OSError:
            pass

    @classmethod
    def scan(cls, path: str) -> tuple[list, int | None]:
        """Read and decode an existing log without changing it.

        Returns the decoded frames in log order, and the offset to cut a
        torn tail at, or None when the log ends cleanly. A torn tail, or one
        that fails its CRC, is left out. Frames are written and fsynced one
        at a time, so a crash can tear only the last one: a bad frame with a
        valid frame after it, or a frame that passes its CRC but does not
        decode, raises IntegrityError.
        """
        if not os.path.exists(path):
            raise StoreError(f"no log at {path}")
        with open(path, "rb") as f:
            data = f.read()
        payloads, valid_end = codec.scan_frames(data)
        items = [cls._decode(p) for p in payloads]
        if valid_end == len(data):
            return items, None
        if codec.frame_after(data, valid_end):
            raise IntegrityError(
                f"{path}: bad frame at byte {valid_end} with valid frames after it")
        return items, valid_end

    @classmethod
    def recover(cls, path: str) -> tuple["_FrameFile", list]:
        """Open an existing log; returns it and its frames as scan does.

        A torn tail is truncated, so a second recovery leaves the file
        byte-identical; on IntegrityError the file stays as it is.
        """
        items, cut = cls.scan(path)
        if cut is not None:
            os.truncate(path, cut)
        return cls(path, _recovered=True), items


class PersistentJournal(JournalStore, _FrameFile):
    def __init__(self, path: str, _records: list[JournalRecord] | None = None):
        _FrameFile.__init__(self, path, _recovered=_records is not None)
        super().__init__()
        if _records:
            for rec in _records:
                super()._append(rec)
            self._rebuild_lifecycle()

    def _append(self, rec: JournalRecord) -> None:
        self._write_frame(codec.encode_record(rec))
        super()._append(rec)

    def flush(self) -> None:
        """fsync everything appended so far."""
        with self._lock:
            self._sync()

    def do_commit(self, txn: TransactionDescriptor) -> None:
        self._txn_check_active(txn.txn_id)
        if txn.ct is None:
            raise StoreError(f"commit of txn {txn.txn_id!r} without a ct")
        with self._lock:
            self._append(JournalRecord(RecordKind.COMMIT, txn.txn_id, txn.ct))
            self._sync()  # commit is acknowledged only once durable
        self._txn_terminate(txn.txn_id)

    @classmethod
    def recover(cls, path: str) -> "PersistentJournal":
        """Open an existing journal, repairing crash damage.

        Torn/corrupt tail bytes are truncated; transactions with no commit
        or abort in the valid prefix get an abort appended and flushed.
        Running this twice leaves the file byte-identical the second time.
        """
        if not os.path.exists(path):
            raise StoreError(f"no journal at {path}")
        with open(path, "rb") as f:
            data = f.read()
        records, valid_end = codec.scan_records(data)
        if valid_end < len(data):
            os.truncate(path, valid_end)
        unterminated: dict[str, None] = {}
        for rec in records:
            if rec.kind == RecordKind.BEGIN:
                unterminated[rec.txn_id] = None
            elif rec.kind in (RecordKind.COMMIT, RecordKind.ABORT):
                unterminated.pop(rec.txn_id, None)
        journal = cls(path, _records=records)
        if unterminated:
            with journal._lock:
                for txn_id in unterminated:
                    journal._append(JournalRecord(RecordKind.ABORT, txn_id))
                journal._sync()
        return journal


# one logged commit: (st, ct, writes)
Commit = tuple[int, int, list[Write]]
# one logged batch of layout edits: (ts, entries)
Batch = tuple[int, list[ManifestEntry]]


class CommitLog(_FrameFile):
    """Write-ahead log of committed transactions, one CRC frame each.

    Each frame holds (st, ct, folded writes). Begin, update and abort write
    nothing: a transaction that never commits leaves no trace, so recovery
    has nothing to abort. Commit is one write plus one fsync and is
    acknowledged only once durable. The log keeps only its file and the
    durable offset. scan and recover give each commit as
    codec.decode_commit does.
    """

    _decode = staticmethod(codec.decode_commit)

    def do_begin(self, txn: TransactionDescriptor) -> None:
        pass

    def do_update(self, txn: TransactionDescriptor, key: str, effect: Effect) -> None:
        pass

    def do_abort(self, txn: TransactionDescriptor) -> None:
        pass

    def do_commit(self, txn: TransactionDescriptor) -> None:
        if txn.ct is None:
            raise StoreError(f"commit of txn {txn.txn_id!r} without a ct")
        if txn.st > txn.ct:
            raise StoreError(f"txn {txn.txn_id!r} has its st {txn.st} after its ct {txn.ct}")
        self._append_durably(codec.encode_commit(txn.st, txn.ct, txn.effect_buffer))


class ManifestLog(_FrameFile):
    """The engine's MANIFEST: one CRC frame per batch of layout edits.

    A batch is (ts, entries) with ts the engine's last commit timestamp, and
    is applied whole or not at all: append is one write plus one fsync, and
    recovery drops a torn last batch whole. scan and recover give each batch
    as (ts, entries).
    """

    _decode = staticmethod(codec.decode_batch)

    def append(self, ts: int, entries: list[ManifestEntry]) -> None:
        self._append_durably(codec.encode_batch(ts, entries))
