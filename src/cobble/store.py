"""Store interface and the shared transaction-facing types.

Every backing store speaks the same protocol: do_begin / lookup / do_update /
do_abort / do_commit, plus persist/recover where the variant supports it.
Lookup returns a consolidated Effect (never a raw value); evaluation against
a pre-state is the coordinator's job.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import IntEnum

from .effects import Effect


class StoreError(Exception):
    pass


class TransactionError(StoreError):
    """Transaction lifecycle misuse: duplicate begin, op after terminate, unknown id."""


class WindowError(StoreError):
    """Read timestamp outside the history this store can answer for."""


class StaleSnapshotError(TransactionError):
    """Snapshot predates the accepting window; redraw and begin again.

    Consolidated slices are folded sequentially, so a window may only hold
    versions whose snapshots cover everything before the window. A begin
    that raced a rotation can violate that; the coordinator retries it with
    a fresh snapshot.
    """


class IntegrityError(StoreError):
    """Persistent state failed a checksum or structural validation."""


MAX_KEY_BYTES = 1024


def check_key(key: str) -> None:
    if not isinstance(key, str) or not key:
        raise StoreError("key must be a non-empty string")
    if "\x00" in key:
        raise StoreError("key must not contain NUL")
    try:
        size = len(key.encode("utf-8"))
    except UnicodeEncodeError:  # a lone surrogate has no utf-8 form
        raise StoreError("key must be valid unicode") from None
    if size > MAX_KEY_BYTES:
        raise StoreError(f"key longer than {MAX_KEY_BYTES} utf-8 bytes")


class RecordKind(IntEnum):
    BEGIN = 0
    UPDATE = 1
    COMMIT = 2
    ABORT = 3


@dataclass(frozen=True, slots=True)
class Window:
    """Closed-open commit-timestamp interval [lo, hi); hi=None while live."""

    lo: int
    hi: int | None

    @property
    def is_open(self) -> bool:
        return self.hi is None

    def intersects_prefix(self, read_st: int) -> bool:
        """Does [lo, hi) intersect [0, read_st)? Prunes lookup probes."""
        return self.lo < read_st


@dataclass(frozen=True)
class ManifestEntry:
    """One file the levelled engine's layout names, as its MANIFEST records it."""

    level: int  # -1 = live
    path: str  # relative to the engine directory
    window: Window
    key_range: tuple[str, str] | None = None


@dataclass(frozen=True, slots=True)
class JournalRecord:
    kind: RecordKind
    txn_id: str
    ts: int = 0  # st for BEGIN, ct for COMMIT, zero elsewhere
    key: str | None = None
    effect: Effect | None = None


@dataclass
class TransactionDescriptor:
    txn_id: str
    st: int
    ct: int | None = None
    read_buffer: dict[str, Effect] = field(default_factory=dict)
    init_set: set[str] = field(default_factory=set)
    effect_buffer: dict[str, Effect] = field(default_factory=dict)


class Store(ABC):
    """Transactional effect store."""

    @abstractmethod
    def do_begin(self, txn: TransactionDescriptor) -> None: ...

    @abstractmethod
    def lookup(self, key: str, read_st: int,
               txn: TransactionDescriptor | None = None) -> Effect | None:
        """Consolidated effect of all commits on key with ct < read_st,
        or None when no committed write is visible. Checks the key with
        check_key; the transaction coordinator relies on that for reads."""

    @abstractmethod
    def do_update(self, txn: TransactionDescriptor, key: str, effect: Effect) -> None: ...

    @abstractmethod
    def do_abort(self, txn: TransactionDescriptor) -> None: ...

    @abstractmethod
    def do_commit(self, txn: TransactionDescriptor) -> None: ...

    def persist(self, path: str) -> None:
        raise NotImplementedError(f"{type(self).__name__} does not persist")

    @classmethod
    def recover(cls, path: str) -> "Store":
        raise NotImplementedError(f"{cls.__name__} does not recover")


class TxnLifecycleMixin:
    """Begin/active/terminated bookkeeping shared by store implementations."""

    def _lifecycle_init(self):
        self._txn_states: dict[str, str] = {}
        self._txn_lock = threading.Lock()

    def _txn_begin(self, txn_id: str) -> None:
        with self._txn_lock:
            if txn_id in self._txn_states:
                raise TransactionError(f"duplicate begin for txn {txn_id!r}")
            self._txn_states[txn_id] = "active"

    def _txn_check_active(self, txn_id: str) -> None:
        state = self._txn_states.get(txn_id)
        if state is None:
            raise TransactionError(f"unknown txn {txn_id!r}")
        if state != "active":
            raise TransactionError(f"txn {txn_id!r} already terminated")

    def _txn_terminate(self, txn_id: str) -> None:
        with self._txn_lock:
            state = self._txn_states.get(txn_id)
            if state is None:
                raise TransactionError(f"unknown txn {txn_id!r}")
            if state != "active":
                raise TransactionError(f"txn {txn_id!r} already terminated")
            self._txn_states[txn_id] = "done"
