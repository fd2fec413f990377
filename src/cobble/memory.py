"""In-memory stores: the append-only journal and the per-key version map.

Both speak the same Store protocol and must agree with each other (and with
the reference valuation) at every (key, read_st); their read paths are kept
deliberately independent so tests can cross-check them. The journal groups
and collapses concurrent versions on every read (consolidate_forward); the
map keeps, with each version, its key's fold up to that version (a prefix
scan), so a read at any snapshot is one bisect, and a read above a key's
newest version is one dict lookup.
"""

from __future__ import annotations

import bisect
import threading

from .effects import Effect, StampedEffect, apply, collapse, effect_from_i64, wrap_i64
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

# A journal version is (ct, st, txn_id, effect); lists stay sorted by ct.
Version = tuple[int, int, str, Effect]
# A map row is (ct, st, effect, the open group's increments, fold up to and
# including this version); a key's rows stay sorted by ct.
Row = tuple[int, int, Effect, int, Effect]


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
    """Per-key sorted version rows, each carrying the fold of its key up to
    and including it; the fastest of the basic stores to read.

    Writes stay buffered in the transaction until commit, when each key
    gets one row, published whole: (ct, st, effect, the open group's
    increments, fold), where fold is the effect of every version up to this
    one, the state composition.fold_commits keeps. The folds are a prefix
    scan over the versions, so a read at read_st, the fold of the versions
    below it, is the newest row's fold when that row is below read_st, and
    otherwise one bisect away. The flush of a sealed map does the same at
    the window top.
    """

    def __init__(self):
        self._lifecycle_init()
        self._lock = threading.Lock()
        self._rows: dict[str, list[Row]] = {}
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
        self.insert_committed(txn.ct, txn.st, txn.effect_buffer)
        self._txn_terminate(txn.txn_id)

    def insert_committed(self, ct: int, st: int, writes: dict[str, Effect]) -> None:
        """Insert one committed transaction's folded writes; a read sees each
        key as it was before the insert or after it. rebuild_wmp calls it
        directly.

        A version above the key's newest is appended as one row, one fold
        step on top of the newest. One that arrives out of ct order
        (rebuild_wmp replays log order) goes into a copy of the key's rows,
        which is folded again from the insertion point and then replaces
        the list whole, so a reader bisecting the old list never sees it
        shift."""
        with self._lock:
            if self._sealed:
                raise StoreError("commit on a sealed map")
            rows_of = self._rows
            for key, eff in writes.items():
                rows = rows_of.get(key)
                if rows is None:  # _step(None, ...) inline: most writes land here
                    rows_of[key] = [(ct, st, eff, 0 if eff.base is not None
                                     else eff.delta, eff)]
                elif ct > rows[-1][0]:
                    rows.append(_step(rows[-1], ct, st, eff))
                else:
                    # (ct + 1,) sorts after every row at ct: no two Effects
                    # are compared, and a repeated ct lands after its twin
                    i = bisect.bisect_left(rows, (ct + 1,))
                    rows = rows[:i] + [(ct, st, eff)] + rows[i:]
                    prev = rows[i - 1] if i else None
                    for j in range(i, len(rows)):
                        prev = rows[j] = _step(prev, *rows[j][:3])
                    rows_of[key] = rows

    def do_abort(self, txn: TransactionDescriptor) -> None:
        self._txn_check_active(txn.txn_id)
        self._txn_terminate(txn.txn_id)

    def lookup(self, key: str, read_st: int,
               txn: TransactionDescriptor | None = None) -> Effect | None:
        check_key(key)
        return self.probe(key, read_st)

    def probe(self, key: str, read_st: int) -> Effect | None:
        """lookup without the key check, for a caller that made it already.

        The fold of the newest row below read_st: the newest row's, or the
        one a bisect finds. No lock is taken: a commit in ct order only
        appends a whole row, and an out-of-order insert replaces the list,
        so the read sees the key as it was before that commit or after it."""
        rows = self._rows.get(key)
        if rows is None:
            return None
        row = rows[-1]
        if row[0] < read_st:
            return row[4]
        # (read_st,) sorts before every row at or above read_st
        i = bisect.bisect_left(rows, (read_st,))
        return rows[i - 1][4] if i else None

    def consolidated(self, hi: int) -> tuple[list[str], list[Effect]]:
        """Every key with a version below hi, ascending, and its effect at
        hi: what probe(key, hi) gives for each."""
        keys: list[str] = []
        effs: list[Effect] = []
        rows_of = self._rows
        for key in sorted(rows_of):
            rows = rows_of[key]
            row = rows[-1]
            if row[0] >= hi:
                i = bisect.bisect_left(rows, (hi,))
                if not i:
                    continue
                row = rows[i - 1]
            keys.append(key)
            effs.append(row[4])
        return keys, effs

    def written_keys(self) -> set[str]:
        with self._lock:
            return set(self._rows)

    def seal(self, window: Window) -> None:
        with self._lock:
            self._sealed = True
            self.window = window

    @property
    def sealed(self) -> bool:
        return self._sealed


def _step(prev: Row | None, ct: int, st: int, eff: Effect) -> Row:
    """The row of version (ct, st, eff) on top of the key's previous row, or
    as its first: the step of composition.fold_commits. The version starts
    a new group when it is the first or its st is at or above the previous
    ct. An increment adds to the fold and to the open group's increments; an
    assignment replaces the fold, plus the open group's earlier increments.
    That is the group's collapse: the max-ct assignment wins, and every
    increment of the group survives on top of it."""
    if prev is None:
        return ct, st, eff, 0 if eff.base is not None else eff.delta, eff
    last_ct, _, _, incr, acc = prev
    if st >= last_ct:
        incr = 0
    if eff.base is None:
        return (ct, st, eff, incr + eff.delta,
                effect_from_i64(acc.base, wrap_i64(acc.delta + eff.delta)))
    if incr:
        return ct, st, eff, incr, effect_from_i64(eff.base, wrap_i64(eff.delta + incr))
    return ct, st, eff, 0, eff
