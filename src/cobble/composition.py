"""Store composition: windowed ministores, the WAL+memtable pair, checkpoints.

Writes fan out to every ministore whose window contains the transaction's
timestamp; reads route to one covering ministore (lowest read priority).
A checkpoint freezes a sealed store's consolidated state at its window top,
packed as one sorted key run with columnar effects.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from operator import itemgetter

from .effects import Effect, effect_from_i64, wrap_i64
from .memory import MapStore
from .persistent import Commit, CommitLog, PersistentJournal
from .store import (
    Store,
    StoreError,
    TransactionDescriptor,
    Window,
    WindowError,
    check_key,
)

READ_PRIORITY_MAP = 0
READ_PRIORITY_WAL = 1

_ct = itemgetter(1)


@dataclass
class Ministore:
    store: Store
    window: Window
    read_priority: int


class ComposedStore(Store):
    """Write-all / read-one composition of ministores."""

    def __init__(self, ministores: list[Ministore]):
        if not ministores:
            raise StoreError("composition needs at least one ministore")
        self.ministores = list(ministores)

    @property
    def window(self) -> Window:
        lo = min(m.window.lo for m in self.ministores)
        his = [m.window.hi for m in self.ministores]
        hi = None if any(h is None for h in his) else max(his)
        return Window(lo, hi)

    def _targets(self, ts: int) -> list[Ministore]:
        targets = [m for m in self.ministores if m.window.contains(ts)]
        if not targets:
            raise WindowError(f"timestamp {ts} outside every ministore window")
        return targets

    def do_begin(self, txn: TransactionDescriptor) -> None:
        for m in self._targets(txn.st):
            m.store.do_begin(txn)

    def do_update(self, txn: TransactionDescriptor, key: str, effect: Effect) -> None:
        for m in self._targets(txn.st):
            m.store.do_update(txn, key, effect)

    def do_commit(self, txn: TransactionDescriptor) -> None:
        if txn.ct is None:
            raise StoreError("commit without a ct")
        for m in self._targets(txn.ct):
            m.store.do_commit(txn)

    def do_abort(self, txn: TransactionDescriptor) -> None:
        for m in self._targets(txn.st):
            m.store.do_abort(txn)

    def lookup(self, key: str, read_st: int,
               txn: TransactionDescriptor | None = None) -> Effect | None:
        window = self.window
        if read_st < window.lo:
            raise WindowError(f"read_st {read_st} not covered (window starts at {window.lo})")
        # a ministore can answer iff it holds the composition's entire
        # history below read_st (or below its sealed top, which then is all
        # there is)
        needed = read_st if window.hi is None else min(read_st, window.hi)
        coverers = [m for m in self.ministores
                    if m.window.lo == window.lo
                    and (m.window.hi is None or m.window.hi >= needed)]
        if not coverers:
            raise WindowError(f"no single ministore covers read_st {read_st}")
        best = min(coverers, key=lambda m: m.read_priority)
        return best.store.lookup(key, read_st, txn)


class WALMemtablePair(Store):
    """Durable log plus a fast map over the same window.

    The log is read only after a crash, when recovery folds it straight
    into a checkpoint; reads come from the memtable alone. A commit reaches
    the log first (acknowledged after fsync), then the memtable. The
    engine's log is a CommitLog, which writes nothing before commit; any log
    with the store write protocol fits, a PersistentJournal included.
    """

    def __init__(self, wal: CommitLog | PersistentJournal, memtable: MapStore,
                 window: Window):
        self.wal = wal
        self.memtable = memtable
        self._window = window
        self.committed_effects = 0
        self._last_ct: int | None = None

    @property
    def window(self) -> Window:
        return self._window

    @property
    def sealed(self) -> bool:
        return self._window.hi is not None

    @property
    def last_ct(self) -> int | None:
        return self._last_ct

    def do_begin(self, txn: TransactionDescriptor) -> None:
        if self.sealed:
            raise StoreError("begin on a sealed pair")
        self.wal.do_begin(txn)
        self.memtable.do_begin(txn)

    def do_update(self, txn: TransactionDescriptor, key: str, effect: Effect) -> None:
        self.wal.do_update(txn, key, effect)
        self.memtable.do_update(txn, key, effect)

    def do_commit(self, txn: TransactionDescriptor) -> None:
        # a commit the memtable would refuse must not leave a durable frame
        self.memtable._txn_check_active(txn.txn_id)
        self.wal.do_commit(txn)  # durability gate: fsync happens in here
        self.memtable.do_commit(txn)
        self._count_commit(txn.ct, len(txn.effect_buffer))

    def _count_commit(self, ct: int | None, n_effects: int) -> None:
        self.committed_effects += n_effects
        if ct is not None and (self._last_ct is None or ct > self._last_ct):
            self._last_ct = ct

    def do_abort(self, txn: TransactionDescriptor) -> None:
        self.wal.do_abort(txn)
        self.memtable.do_abort(txn)

    def lookup(self, key: str, read_st: int,
               txn: TransactionDescriptor | None = None) -> Effect | None:
        return self.memtable.lookup(key, read_st, txn)

    def written_keys(self) -> set[str]:
        return self.memtable.written_keys()

    def seal(self, hi: int | None = None) -> Window:
        """Fix the window top to one past the last committed ct."""
        if self.sealed:
            return self._window
        if hi is None:
            hi = self._window.lo if self._last_ct is None else self._last_ct + 1
        self._window = Window(self._window.lo, hi)
        self.memtable.seal(self._window)
        return self._window


def rebuild_wmp(wal_path: str, lo: int) -> WALMemtablePair:
    """Reconstruct a live pair from its commit log, memtable included.

    Recovery folds the logs with fold_commits and never builds a memtable;
    this is the reference that fold is checked against. A transaction the
    crash left open wrote nothing, so there is nothing to abort.
    """
    wal, commits = CommitLog.recover(wal_path)
    wmp = WALMemtablePair(wal, MapStore(), Window(lo, None))
    for st, ct, writes in commits:
        wmp.memtable.insert_committed(
            ct, st, {key: effect_from_i64(base, delta) for key, base, delta in writes})
        wmp._count_commit(ct, len(writes))
    return wmp


class Checkpoint(Store):
    """Single consolidated effect per key, valid for reads at or above hi.

    Packed: one run of keys sorted by code point (which UTF-8 byte order
    keeps) plus three parallel columns, a has-base flag byte, the i64 bases
    (0 where the flag is 0) and the i64 deltas. Only this class knows the
    columns; the engine's merge goes through its methods. A probe is one
    hash lookup into a key -> position index built in bulk, and only a hit
    builds an Effect. key_range is the first and the last key, so
    covers_key is O(1). Loading a file is a few bulk operations with no
    Python loop per entry.

    Immutable: never receives transactional writes. Reads below hi cannot be
    answered (the per-version history was folded away) and raise.
    """

    def __init__(self, entries: dict[str, Effect], window: Window,
                 path: str | None = None):
        self._fill(window, path, *_columns(sorted(entries.items())))

    @classmethod
    def _packed(cls, window: Window, keys: list[str], flags: bytes | bytearray,
                bases: array, deltas: array, path: str | None = None,
                index: dict[str, int] | None = None) -> "Checkpoint":
        ck = cls.__new__(cls)
        ck._fill(window, path, keys, flags, bases, deltas, index)
        return ck

    def _fill(self, window, path, keys, flags, bases, deltas, index=None) -> None:
        if window.hi is None:
            raise StoreError("checkpoint requires a sealed window")
        self.window = window
        self.path = path
        self._keys = keys
        self._flags = flags
        self._bases = bases
        self._deltas = deltas
        self._index = dict(zip(keys, range(len(keys)))) if index is None else index
        self.key_range: tuple[str, str] | None = (keys[0], keys[-1]) if keys else None

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[str]:
        """The keys, ascending."""
        return iter(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def _effect(self, i: int) -> Effect:
        return effect_from_i64(self._bases[i] if self._flags[i] else None, self._deltas[i])

    @property
    def entries(self) -> dict[str, Effect]:
        """key -> effect, built on each call (for inspection, not for reads)."""
        return {key: self._effect(i) for i, key in enumerate(self._keys)}

    def covers_key(self, key: str) -> bool:
        kr = self.key_range
        return kr is not None and kr[0] <= key <= kr[1]

    def lookup(self, key: str, read_st: int,
               txn: TransactionDescriptor | None = None) -> Effect | None:
        check_key(key)
        return self.probe(key, read_st)

    def probe(self, key: str, read_st: int) -> Effect | None:
        """lookup without the key check, for a caller that made it already."""
        if read_st < self.window.hi:
            raise WindowError(
                f"checkpoint consolidated at {self.window.hi} cannot answer read_st {read_st}")
        i = self._index.get(key)
        return None if i is None else self._effect(i)

    def fold(self, newer: "Checkpoint", keys: Iterable[str], window: Window) -> "Checkpoint":
        """A copy with newer's effect on each of keys applied on top, as
        effects.apply(mine, newer's) does; both must hold every one of keys.
        The key set does not change, so the copy shares the keys and index."""
        flags = bytearray(self._flags)
        bases = array("q", self._bases)
        deltas = array("q", self._deltas)
        index = self._index
        for key in keys:
            i, j = index[key], newer._index[key]
            if newer._flags[j]:  # a later assignment absorbs the history
                flags[i] = 1
                bases[i] = newer._bases[j]
                deltas[i] = newer._deltas[j]
            else:
                deltas[i] = wrap_i64(deltas[i] + newer._deltas[j])
        return Checkpoint._packed(window, self._keys, flags, bases, deltas, index=index)

    def subset(self, keys: list[str]) -> "Checkpoint":
        """A new, unpersisted checkpoint of keys (ascending, all held here)
        with their effects, over the same window."""
        if len(keys) == len(self._keys):
            return Checkpoint._packed(self.window, self._keys, self._flags,
                                      self._bases, self._deltas, index=self._index)
        pos = [self._index[key] for key in keys]
        return Checkpoint._packed(
            self.window, keys, bytes([self._flags[i] for i in pos]),
            array("q", [self._bases[i] for i in pos]),
            array("q", [self._deltas[i] for i in pos]))

    def _read_only(self):
        raise StoreError("checkpoint is read-only")

    def do_begin(self, txn):
        self._read_only()

    def do_update(self, txn, key, effect):
        self._read_only()

    def do_commit(self, txn):
        self._read_only()

    def do_abort(self, txn):
        self._read_only()

    def persist(self, path: str, fire_point: str | None = None) -> None:
        from . import codec

        codec.write_map_file(path, self.window, self._keys, self._flags,
                             self._bases, self._deltas, fire_point=fire_point)

    @classmethod
    def load(cls, path: str, window: Window | None = None) -> "Checkpoint":
        """Read a checkpoint file; window, when given, overrides the file's."""
        from . import codec

        file_window, keys, flags, bases, deltas = codec.read_map_file(path)
        return cls._packed(window or file_window, keys, flags, bases, deltas, path=path)


def _columns(items: Iterable[tuple[str, Effect]]
             ) -> tuple[list[str], bytearray, array, array]:
    """Checkpoint columns of (key, effect) pairs given in ascending key order."""
    keys: list[str] = []
    flags = bytearray()
    bases = array("q")
    deltas = array("q")
    for key, eff in items:
        keys.append(key)
        flags.append(eff.base is not None)
        bases.append(eff.base or 0)
        deltas.append(eff.delta)
    return keys, flags, bases, deltas


def fold_commits(commits: Iterable[Commit], window: Window) -> Checkpoint:
    """The checkpoint at window.hi of logged commits, straight from their
    flat writes: the same checkpoint as make_checkpoint of a memtable that
    holds them, with no memtable, Effect or concurrent set built.

    Commits are taken in ct order, whatever order they were logged in. Per
    key this is memory.consolidate_forward: a version starts a new group
    when its st is at or above the previous version's ct; within a group
    the max-ct assignment wins and every base-less increment adds on top;
    groups compose oldest first. The fold keeps, per key, the value so far
    ([last ct, the open group's increments, base or None, delta]): an
    increment adds to the delta, an assignment makes the value itself plus
    the group's earlier increments. Sums wrap to i64 once, at the end.
    """
    if window.hi is None:
        raise StoreError("cannot checkpoint an open window")
    state: dict[str, list] = {}
    get = state.get
    for st, ct, writes in sorted(commits, key=_ct):
        for key, base, delta in writes:
            s = get(key)
            if s is None:  # a key's first version: its own group
                state[key] = [ct, 0 if base is not None else delta, base, delta]
                continue
            if st >= s[0]:
                s[1] = 0  # a new group starts
            if base is None:
                s[1] += delta
                s[3] += delta
            else:
                s[2] = base
                s[3] = delta + s[1]
            s[0] = ct
    keys = sorted(state)
    flags = bytearray(len(keys))
    bases = array("q", bytes(8 * len(keys)))
    deltas = array("q", bytes(8 * len(keys)))
    pop = state.pop
    for i, key in enumerate(keys):
        _, _, base, delta = pop(key)  # drop each key's state as it closes
        if base is not None:
            flags[i] = 1
            bases[i] = base
        deltas[i] = wrap_i64(delta)
    return Checkpoint._packed(window, keys, flags, bases, deltas)


def make_checkpoint(src: Store, window: Window) -> Checkpoint:
    """Consolidate a sealed store into key -> effect at window.hi."""
    if window.hi is None:
        raise StoreError("cannot checkpoint an open window")
    sealed = getattr(src, "sealed", True)
    if not sealed:
        raise StoreError("cannot checkpoint an unsealed store")
    hi = window.hi
    consolidated = ((key, src.lookup(key, hi)) for key in sorted(src.written_keys()))
    return Checkpoint._packed(
        window, *_columns((k, e) for k, e in consolidated if e is not None))
