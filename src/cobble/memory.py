"""In-memory stores: the append-only journal and the per-key version map.

Both speak the same Store protocol and must agree with each other (and with
the reference valuation) at every (key, read_st); their read paths are kept
deliberately independent so tests can cross-check them.
"""

from __future__ import annotations

import bisect
import threading

from .effects import Effect, StampedEffect, apply, collapse
from .store import (
    JournalRecord,
    RecordKind,
    Store,
    StoreError,
    TransactionDescriptor,
    TransactionError,
    TxnLifecycleMixin,
    Window,
    check_key,
)

# A committed version is (ct, st, txn_id, effect); lists stay sorted by ct.
Version = tuple[int, int, str, Effect]


def consolidate_forward(versions: list[Version]) -> Effect | None:
    """Fold ct-ordered visible versions: group concurrent ones, collapse each
    group, and compose the groups sequentially oldest to newest.

    A version starts a new group exactly when its snapshot is at or above
    every commit timestamp consumed so far (with a single generator that is
    the previous version's ct).
    """
    acc: Effect | None = None
    group: list[StampedEffect] = []
    last_ct = -1
    for ct, st, txn_id, eff in versions:
        if group and st >= last_ct:
            g = collapse(group)
            acc = g if acc is None else apply(acc, g)
            group = []
        group.append(StampedEffect(ct, txn_id, eff))
        last_ct = ct
    if group:
        g = collapse(group)
        acc = g if acc is None else apply(acc, g)
    return acc


class JournalStore(TxnLifecycleMixin, Store):
    """Append-only record journal.

    The record sequence is the state; reads derive visible effects from the
    committed records. A per-txn summary (st, ct, folded writes) is kept up
    to date at commit time so reads cost O(committed txns), not O(records).
    """

    def __init__(self):
        self._lifecycle_init()
        self._lock = threading.Lock()
        self._records: list[JournalRecord] = []
        self._begin_st: dict[str, int] = {}
        self._live_writes: dict[str, dict[str, Effect]] = {}
        # committed txn summaries, sorted by ct: (ct, st, txn_id, {key: effect})
        self._committed: list[tuple[int, int, str, dict[str, Effect]]] = []
        self._committed_keys: set[str] = set()

    # -- record plumbing ------------------------------------------------------

    def _append(self, rec: JournalRecord) -> None:
        """Single linearization point for appends; subclasses extend."""
        self._records.append(rec)
        self._ingest(rec)

    def _ingest(self, rec: JournalRecord) -> None:
        if rec.kind == RecordKind.BEGIN:
            self._begin_st[rec.txn_id] = rec.ts
            self._live_writes[rec.txn_id] = {}
        elif rec.kind == RecordKind.UPDATE:
            writes = self._live_writes.get(rec.txn_id)
            if writes is not None:
                prev = writes.get(rec.key)
                writes[rec.key] = rec.effect if prev is None else apply(prev, rec.effect)
        elif rec.kind == RecordKind.COMMIT:
            st = self._begin_st.get(rec.txn_id, 0)
            writes = self._live_writes.pop(rec.txn_id, {})
            bisect.insort(self._committed, (rec.ts, st, rec.txn_id, writes),
                          key=lambda s: s[0])
            self._committed_keys.update(writes)
        elif rec.kind == RecordKind.ABORT:
            self._live_writes.pop(rec.txn_id, None)
        # MANIFEST records carry no KV state

    def records(self) -> list[JournalRecord]:
        with self._lock:
            return list(self._records)

    # -- Store protocol -------------------------------------------------------

    def do_begin(self, txn: TransactionDescriptor) -> None:
        self._txn_begin(txn.txn_id)
        with self._lock:
            self._append(JournalRecord(RecordKind.BEGIN, txn.txn_id, txn.st))

    def do_update(self, txn: TransactionDescriptor, key: str, effect: Effect) -> None:
        self._txn_check_active(txn.txn_id)
        check_key(key)
        with self._lock:
            self._append(JournalRecord(RecordKind.UPDATE, txn.txn_id, 0, key, effect))

    def do_commit(self, txn: TransactionDescriptor) -> None:
        self._txn_check_active(txn.txn_id)
        if txn.ct is None:
            raise TransactionError(f"commit of txn {txn.txn_id!r} without a ct")
        with self._lock:
            self._append(JournalRecord(RecordKind.COMMIT, txn.txn_id, txn.ct))
        self._txn_terminate(txn.txn_id)

    def do_abort(self, txn: TransactionDescriptor) -> None:
        self._txn_check_active(txn.txn_id)
        with self._lock:
            self._append(JournalRecord(RecordKind.ABORT, txn.txn_id))
        self._txn_terminate(txn.txn_id)

    def lookup(self, key: str, read_st: int,
               txn: TransactionDescriptor | None = None) -> Effect | None:
        check_key(key)
        with self._lock:
            committed = list(self._committed)
        versions: list[Version] = []
        for ct, st, txn_id, writes in committed:
            if ct >= read_st:
                break  # sorted by ct: nothing later is visible
            eff = writes.get(key)
            if eff is not None:
                versions.append((ct, st, txn_id, eff))
        return consolidate_forward(versions)

    def written_keys(self) -> set[str]:
        with self._lock:
            return set(self._committed_keys)

    def committed_txns(self) -> list[tuple[int, int, str, dict[str, Effect]]]:
        """(ct, st, txn_id, folded writes) for every committed txn, by ct."""
        with self._lock:
            return [(ct, st, tid, dict(writes)) for ct, st, tid, writes in self._committed]

    def last_committed_ct(self) -> int | None:
        with self._lock:
            return self._committed[-1][0] if self._committed else None

    def _rebuild_lifecycle(self) -> None:
        states: dict[str, str] = {}
        for rec in self._records:
            if rec.kind == RecordKind.BEGIN:
                states[rec.txn_id] = "active"
            elif rec.kind in (RecordKind.COMMIT, RecordKind.ABORT):
                states[rec.txn_id] = "done"
        with self._txn_lock:
            self._txn_states = states


class MapStore(TxnLifecycleMixin, Store):
    """Per-key sorted version lists; the fastest of the basic stores to read.

    Writes stay buffered in the transaction until commit, when the whole
    batch is inserted atomically with respect to readers.
    """

    def __init__(self):
        self._lifecycle_init()
        self._lock = threading.Lock()
        self._per_key: dict[str, list[Version]] = {}
        self._sealed = False
        self.window: Window | None = None

    def do_begin(self, txn: TransactionDescriptor) -> None:
        if self._sealed:
            raise StoreError("begin on a sealed map")
        self._txn_begin(txn.txn_id)

    def do_update(self, txn: TransactionDescriptor, key: str, effect: Effect) -> None:
        self._txn_check_active(txn.txn_id)
        check_key(key)
        # effects ride in the descriptor's buffer until commit

    def do_commit(self, txn: TransactionDescriptor) -> None:
        self._txn_check_active(txn.txn_id)
        if txn.ct is None:
            raise TransactionError(f"commit of txn {txn.txn_id!r} without a ct")
        self.insert_committed(txn.ct, txn.st, txn.effect_buffer, txn.txn_id)
        self._txn_terminate(txn.txn_id)

    def insert_committed(self, ct: int, st: int, writes: dict[str, Effect],
                         txn_id: str = "") -> None:
        """Insert one committed transaction's folded writes, atomically with
        respect to readers. rebuild_wmp calls it directly: a version's txn id
        never changes a read, because commit timestamps are unique."""
        with self._lock:
            if self._sealed:
                raise StoreError("commit on a sealed map")
            for key, eff in writes.items():
                versions = self._per_key.setdefault(key, [])
                bisect.insort(versions, (ct, st, txn_id, eff), key=lambda v: v[0])

    def do_abort(self, txn: TransactionDescriptor) -> None:
        self._txn_check_active(txn.txn_id)
        self._txn_terminate(txn.txn_id)

    def lookup(self, key: str, read_st: int,
               txn: TransactionDescriptor | None = None) -> Effect | None:
        check_key(key)
        return self.probe(key, read_st)

    def probe(self, key: str, read_st: int) -> Effect | None:
        """lookup without the key check, for a caller that made it already."""
        # Scan newest to oldest from the bisect point, cutting once a completed
        # group carries an assignment: anything older is absorbed by it. The
        # scan holds the lock because a concurrent insort below the bisect
        # point would shift the indices it walks.
        groups_newest_first: list[list[Version]] = []
        with self._lock:
            versions = self._per_key.get(key)
            if not versions:
                return None
            hi = bisect.bisect_left(versions, read_st, key=lambda v: v[0])
            if hi == 0:
                return None
            group = [versions[hi - 1]]
            for j in range(hi - 2, -1, -1):
                newer_st = versions[j + 1][1]
                older_ct = versions[j][0]
                if newer_st >= older_ct:  # group boundary
                    groups_newest_first.append(group)
                    if any(v[3].base is not None for v in group):
                        break
                    group = [versions[j]]
                else:
                    group.append(versions[j])
            else:
                groups_newest_first.append(group)
        acc: Effect | None = None
        for g in reversed(groups_newest_first):
            if len(g) == 1:
                eff = g[0][3]  # a lone version is its own collapse
            else:
                eff = collapse([StampedEffect(ct, tid, e) for ct, st, tid, e in g])
            acc = eff if acc is None else apply(acc, eff)
        return acc

    def written_keys(self) -> set[str]:
        with self._lock:
            return set(self._per_key)

    def seal(self, window: Window) -> None:
        with self._lock:
            self._sealed = True
            self.window = window

    @property
    def sealed(self) -> bool:
        return self._sealed
