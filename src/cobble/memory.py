"""In-memory stores: the append-only journal and the per-key version map.

Both speak the same Store protocol and must agree with each other (and with
the reference valuation) at every (key, read_st); their read paths are kept
deliberately independent so tests can cross-check them. The journal groups
and collapses concurrent versions on every read (consolidate_forward); the
map keeps each key's running fold as commits arrive, so a read above a key's
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

# A committed version is (ct, st, txn_id, effect); lists stay sorted by ct.
Version = tuple[int, int, str, Effect]
# A key's running fold: (last ct, the open group's increments, the effect).
Fold = tuple[int, int, Effect]


def _ct(v: Version) -> int:
    return v[0]


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
    """Per-key sorted version lists plus each key's running fold; the fastest
    of the basic stores to read.

    Writes stay buffered in the transaction until commit, when the whole
    batch is inserted atomically with respect to readers. A key with two or
    more versions also keeps its fold over all of them, (last ct, the open
    group's increments, effect), the state composition.fold_commits keeps;
    each commit replaces it whole. A lone version is its own fold. A read
    above a key's newest ct returns the fold, and so does the flush of a
    sealed map; only a read inside a key's history walks its versions.
    """

    def __init__(self):
        self._lifecycle_init()
        self._lock = threading.Lock()
        self._per_key: dict[str, list[Version]] = {}
        self._folds: dict[str, Fold] = {}
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
        never changes a read, because commit timestamps are unique.

        A version above the key's newest is appended and takes one fold
        step. One that arrives out of ct order (rebuild_wmp replays log
        order) is inserted in place, and the key is folded again in ct
        order."""
        with self._lock:
            if self._sealed:
                raise StoreError("commit on a sealed map")
            per_key = self._per_key
            folds = self._folds
            for key, eff in writes.items():
                version = (ct, st, txn_id, eff)
                versions = per_key.get(key)
                if versions is None:
                    per_key[key] = [version]
                    continue
                if ct > versions[-1][0]:
                    fold = folds.get(key)
                    if fold is None:
                        fold = _lone(versions[0])
                    versions.append(version)
                    folds[key] = _step(fold, ct, st, eff)
                else:
                    # key=: a repeated ct must not go on to compare Effects
                    bisect.insort(versions, version, key=_ct)
                    folds[key] = _fold(versions, 0, len(versions))

    def do_abort(self, txn: TransactionDescriptor) -> None:
        self._txn_check_active(txn.txn_id)
        self._txn_terminate(txn.txn_id)

    def lookup(self, key: str, read_st: int,
               txn: TransactionDescriptor | None = None) -> Effect | None:
        check_key(key)
        return self.probe(key, read_st)

    def probe(self, key: str, read_st: int) -> Effect | None:
        """lookup without the key check, for a caller that made it already.

        Above the key's newest version this takes no lock: a fold is
        replaced whole, and a commit in ct order only appends, so the read
        sees the key as it was before that commit or after it."""
        versions = self._per_key.get(key)
        if versions is None:
            return None
        fold = self._folds.get(key)
        if fold is None:  # a lone version is its own fold
            ct, _, _, eff = versions[0]
            return eff if ct < read_st else None
        if fold[0] < read_st:
            return fold[2]
        # the walk holds the lock because a concurrent insort below the
        # bisect point would shift the indices it walks
        with self._lock:
            return _effect_below(versions, read_st)

    def consolidated(self, hi: int) -> tuple[list[str], list[Effect]]:
        """Every key with a version below hi, ascending, and its effect at hi:
        what probe(key, hi) gives for each, from the folds, or from the
        version lists where hi lies inside a key's history."""
        keys: list[str] = []
        effs: list[Effect] = []
        with self._lock:
            per_key = self._per_key
            folds = self._folds
            for key in sorted(per_key):
                fold = folds.get(key)
                if fold is None:
                    ct, _, _, eff = per_key[key][0]
                    if ct >= hi:
                        continue
                elif fold[0] < hi:
                    eff = fold[2]
                else:
                    eff = _effect_below(per_key[key], hi)
                    if eff is None:
                        continue
                keys.append(key)
                effs.append(eff)
        return keys, effs

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


def _lone(version: Version) -> Fold:
    """The fold of a lone version."""
    ct, _, _, eff = version
    return ct, 0 if eff.base is not None else eff.delta, eff


def _step(fold: Fold, ct: int, st: int, eff: Effect) -> Fold:
    """fold with one newer version (ct, st, eff) on top: the step of
    composition.fold_commits. The version starts a new group when its st
    is at or above the last ct. An increment adds to the effect and to the
    open group's increments; an assignment replaces the effect, plus the
    open group's earlier increments. That is the group's collapse: the
    max-ct assignment wins, and every increment of the group survives on
    top of it."""
    last_ct, incr, acc = fold
    if st >= last_ct:
        incr = 0
    if eff.base is None:
        return (ct, incr + eff.delta,
                effect_from_i64(acc.base, wrap_i64(acc.delta + eff.delta)))
    if incr:
        return ct, incr, effect_from_i64(eff.base, wrap_i64(eff.delta + incr))
    return ct, 0, eff


def _fold(versions: list[Version], lo: int, hi: int) -> Fold:
    """The fold of versions[lo:hi], where versions[lo] starts a group."""
    fold = _lone(versions[lo])
    for i in range(lo + 1, hi):
        ct, st, _, eff = versions[i]
        fold = _step(fold, ct, st, eff)
    return fold


def _effect_below(versions: list[Version], read_st: int) -> Effect | None:
    """The folded effect of the versions below read_st, for a read inside a
    key's history. Walk back from the bisect point to the start of the
    newest group that holds an assignment, which absorbs everything older,
    or to the first version, and fold forward from there."""
    # (read_st,) sorts before every version at or above read_st; commit
    # timestamps are unique, so no two Effects are ever compared
    hi = bisect.bisect_left(versions, (read_st,))
    if hi == 0:
        return None
    lo = 0
    assigned = False
    for j in range(hi - 1, 0, -1):
        _, st, _, eff = versions[j]
        if eff.base is not None:
            assigned = True
        if assigned and st >= versions[j - 1][0]:  # j starts the group
            lo = j
            break
    return _fold(versions, lo, hi)[2]
