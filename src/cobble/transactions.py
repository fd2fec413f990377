"""Transaction coordination on top of a backing store.

Two isolation modes share one code path. Cycle-free concurrent commits
("tcc") let every well-formed transaction through; commutative increments
from concurrent writers survive side by side and consolidate on read.
Snapshot isolation ("si") adds a first-committer-wins check against the
committed write index before a commit timestamp is leased, so a conflicting
transaction aborts without consuming a timestamp.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

from . import faults
from .effects import Effect, apply, evaluate
from .store import (
    StaleSnapshotError,
    Store,
    TransactionDescriptor,
    TransactionError,
    check_key,
)
from .timestamps import TimestampGenerator

ISOLATION_LEVELS = ("tcc", "si")


@dataclass(frozen=True)
class CommitResult:
    committed: bool
    ct: int | None = None
    reason: str | None = None


class TransactionCoordinator:
    """One in-flight transaction: snapshot reads, buffered writes, commit."""

    def __init__(self, manager: "TransactionManager", txn: TransactionDescriptor):
        self.manager = manager
        self.txn = txn
        self._done = False

    @property
    def txn_id(self) -> str:
        return self.txn.txn_id

    @property
    def st(self) -> int:
        return self.txn.st

    def _check_active(self) -> None:
        if self._done:
            raise TransactionError(f"txn {self.txn.txn_id!r} already terminated")

    def read(self, key: str) -> int:
        """Value of key at this transaction's snapshot plus its own writes."""
        self._check_active()
        txn = self.txn
        if key not in txn.init_set:
            # pin the store-side state once; later reads stay stable even as
            # other transactions commit. The store's lookup checks the key.
            txn.read_buffer[key] = self.manager.store.lookup(key, txn.st, txn)
            txn.init_set.add(key)
        base = txn.read_buffer[key]
        local = txn.effect_buffer.get(key)
        if base is None and local is None:
            return 0
        if base is None:
            eff = local
        elif local is None:
            eff = base
        else:
            eff = apply(base, local)
        return evaluate(eff, 0)

    def update(self, key: str, effect: Effect) -> None:
        self._check_active()
        check_key(key)
        txn = self.txn
        prior = txn.effect_buffer.get(key)
        txn.effect_buffer[key] = effect if prior is None else apply(prior, effect)
        self.manager.store.do_update(txn, key, effect)

    def assign(self, key: str, value: int) -> None:
        self.update(key, Effect.assign(value))

    def incr(self, key: str, amount: int = 1) -> None:
        self.update(key, Effect.incr(amount))

    def commit(self) -> CommitResult:
        self._check_active()
        mgr = self.manager
        txn = self.txn
        with mgr._commit_mutex:
            if mgr.isolation == "si":
                for key in txn.effect_buffer:
                    seen = mgr._write_index.get(key)
                    if seen is not None and seen >= txn.st:
                        mgr.store.do_abort(txn)
                        self._finish()
                        return CommitResult(False, None, f"write conflict on {key!r}")
            ct = mgr.gen.next()
            txn.ct = ct
            try:
                mgr.store.do_commit(txn)
            except Exception:
                # a broken store, or an OSError from the rotation the commit
                # triggered: release the lease as finished so other snapshots
                # are not wedged behind it, whether or not the commit landed
                mgr.gen.end_commit_notify(ct)
                self._finish()
                raise
            faults.fire("after-flush-before-notify")
            if mgr.isolation == "si":
                for key in txn.effect_buffer:
                    mgr._write_index[key] = ct
            if ct > mgr._last_ct:
                mgr._last_ct = ct
            mgr.gen.end_commit_notify(ct)
        self._finish()
        return CommitResult(True, ct)

    def abort(self) -> None:
        self._check_active()
        self.manager.store.do_abort(self.txn)
        self._finish()

    def _finish(self) -> None:
        self._done = True
        self.manager._active.pop(self.txn.txn_id, None)


class TransactionManager:
    """Hands out transactions over one store and one timestamp generator."""

    def __init__(self, store: Store, gen: TimestampGenerator | None = None,
                 isolation: str = "tcc"):
        if isolation not in ISOLATION_LEVELS:
            raise ValueError(f"unknown isolation {isolation!r}")
        self.store = store
        self.gen = gen or TimestampGenerator()
        self.isolation = isolation
        self._commit_mutex = threading.Lock()
        self._ids = itertools.count()
        self._id_lock = threading.Lock()
        self._active: dict[str, TransactionCoordinator] = {}
        # key -> ct of its last commit, for si's conflict check; tcc reads
        # nothing from it, so it stays empty there
        self._write_index: dict[str, int] = {}
        self._last_ct = -1

    def begin_txn(self) -> TransactionCoordinator:
        with self._id_lock:
            txn_id = f"t{next(self._ids)}"
        for _ in range(1000):
            txn = TransactionDescriptor(txn_id, st=self.gen.peek_snapshot())
            try:
                self.store.do_begin(txn)
            except StaleSnapshotError:
                # a rotation slipped between the snapshot draw and the begin;
                # a fresh draw lands in the new window
                continue
            coord = TransactionCoordinator(self, txn)
            self._active[txn_id] = coord
            return coord
        raise TransactionError("could not obtain a current snapshot")

    def coordinator(self, txn_id: str) -> TransactionCoordinator:
        coord = self._active.get(txn_id)
        if coord is None:
            raise TransactionError(f"no active txn {txn_id!r}")
        return coord

    def read_at(self, key: str, read_st: int) -> int:
        """Value of key at an arbitrary past snapshot, no transaction state."""
        eff = self.store.lookup(key, read_st)  # which checks the key
        return 0 if eff is None else evaluate(eff, 0)

    @property
    def last_commit_ts(self) -> int:
        return self._last_ct

    def recover_floor(self, highest: int) -> None:
        self.gen.recover_floor(highest)
        if highest > self._last_ct:
            self._last_ct = highest
