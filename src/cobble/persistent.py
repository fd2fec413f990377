"""Crash-tolerant logs: the persistent journal and the thin commit log.

PersistentJournal has the in-memory journal's read semantics; every append
is also framed into a log file. Commit acknowledgment happens only after
fsync. Recovery scans the longest valid frame prefix, truncates torn bytes,
and appends abort records for transactions the crash left unterminated, so
a second recovery pass is a byte-identical no-op.

CommitLog answers no reads: after a crash, recovery folds its commits
straight into a checkpoint, so it writes one frame per committed
transaction and keeps nothing in memory.
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
    RecordKind,
    StoreError,
    TransactionDescriptor,
)


class _FrameFile:
    """The append-only frame file under both logs.

    Opened unbuffered, so a process crash never holds frames hostage in
    userspace and close() can never leak an unacknowledged commit. After an
    I/O error the file is rolled back to its durable prefix, so a commit
    whose write or fsync failed can never surface after recovery, and the
    log stays failed.
    """

    def _open_frames(self, path: str, recovered: bool) -> None:
        if not recovered and os.path.exists(path) and os.path.getsize(path) > 0:
            raise StoreError(f"{path} already has content; use {type(self).__name__}.recover")
        self._path = path
        self._failed = False
        self._f = open(path, "ab", buffering=0)
        self._size = os.path.getsize(path)
        self._durable_offset = self._size

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

    def close(self) -> None:
        try:
            self._f.close()
        except OSError:
            pass


class PersistentJournal(JournalStore, _FrameFile):
    def __init__(self, path: str, _records: list[JournalRecord] | None = None):
        self._open_frames(path, recovered=_records is not None)
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

    def append_manifest(self, txn: TransactionDescriptor, payload: bytes) -> None:
        """Attach an opaque manifest entry to an open transaction."""
        self._txn_check_active(txn.txn_id)
        with self._lock:
            self._append(JournalRecord(RecordKind.MANIFEST, txn.txn_id, payload=payload))

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


class CommitLog(_FrameFile):
    """Write-ahead log of committed transactions, one CRC frame each.

    Each frame holds (st, ct, folded writes). Begin, update and abort write
    nothing: a transaction that never commits leaves no trace, so recovery
    has nothing to abort. Commit is one write plus one fsync and is
    acknowledged only once durable. The log keeps only its file and the
    durable offset.
    """

    def __init__(self, path: str, _recovered: bool = False):
        self._open_frames(path, _recovered)
        self._lock = threading.Lock()

    def do_begin(self, txn: TransactionDescriptor) -> None:
        pass

    def do_update(self, txn: TransactionDescriptor, key: str, effect: Effect) -> None:
        pass

    def do_abort(self, txn: TransactionDescriptor) -> None:
        pass

    def do_commit(self, txn: TransactionDescriptor) -> None:
        if txn.ct is None:
            raise StoreError(f"commit of txn {txn.txn_id!r} without a ct")
        payload = codec.encode_commit(txn.st, txn.ct, txn.effect_buffer)
        with self._lock:
            self._write_frame(payload)
            self._sync()

    @staticmethod
    def scan(path: str) -> tuple[list[Commit], int | None]:
        """Read and decode an existing log without changing it.

        Returns its commits as (st, ct, writes), with each write a flat
        (key, base or None, delta) as codec.decode_commit gives it, and the
        offset to cut a torn tail at, or None when the log ends cleanly. A
        torn tail, or one that fails its CRC, is left out. Frames are written
        and fsynced one at a time, so a crash can tear only the last one: a
        bad frame with a valid frame after it, or a frame that passes its CRC
        but does not decode, raises IntegrityError.
        """
        if not os.path.exists(path):
            raise StoreError(f"no commit log at {path}")
        with open(path, "rb") as f:
            data = f.read()
        payloads, valid_end = codec.scan_frames(data)
        commits = [codec.decode_commit(p) for p in payloads]
        if valid_end == len(data):
            return commits, None
        if codec.frame_after(data, valid_end):
            raise IntegrityError(
                f"{path}: bad frame at byte {valid_end} with valid frames after it")
        return commits, valid_end

    @classmethod
    def recover(cls, path: str) -> tuple["CommitLog", list[Commit]]:
        """Open an existing log; returns it and its commits as scan does.

        A torn tail is truncated, so a second recovery leaves the file
        byte-identical; on IntegrityError the file stays as it is.
        """
        commits, cut = cls.scan(path)
        if cut is not None:
            os.truncate(path, cut)
        return cls(path, _recovered=True), commits
