"""Store composition: the WAL+memtable pair and checkpoints.

The pair is the write-all/read-one composition: a commit goes to the log
(durable) and then to the memtable, and every read goes to the memtable
alone. A checkpoint freezes a sealed store's consolidated state at its
window top, packed as one sorted key run with columnar effects.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from operator import itemgetter

from .effects import Effect, effect_from_i64, wrap_i64
from .memory import MapStore
from .persistent import Commit, CommitLog, PersistentJournal
from .store import Store, StoreError, TransactionDescriptor, Window, WindowError, check_key

_ct = itemgetter(1)


class WALMemtablePair(Store):
    """Durable log plus a fast map over the same window.

    The log is read only after a crash, when recovery folds it straight
    into a checkpoint; reads come from the memtable alone. A commit reaches
    the log first (acknowledged after fsync), then the memtable. Begin,
    update and abort go to the log alone, so the log is the pair's only
    transaction lifecycle: the engine's CommitLog keeps none (the engine's
    pins decide every transaction), and a standalone pair over a
    PersistentJournal gets the journal's.
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

    def do_begin(self, txn: TransactionDescriptor) -> None:
        if self.sealed:
            raise StoreError("begin on a sealed pair")
        self.wal.do_begin(txn)

    def do_update(self, txn: TransactionDescriptor, key: str, effect: Effect) -> None:
        self.wal.do_update(txn, key, effect)

    def do_commit(self, txn: TransactionDescriptor) -> None:
        # a commit the memtable would refuse must leave no durable frame
        if self.sealed:
            raise StoreError("commit on a sealed pair")
        self.wal.do_commit(txn)  # durability gate: fsync happens in here
        self.memtable.insert_committed(txn.ct, txn.st, txn.effect_buffer)
        self._count_commit(txn.ct, len(txn.effect_buffer))

    def _count_commit(self, ct: int, n_effects: int) -> None:
        self.committed_effects += n_effects
        if self._last_ct is None or ct > self._last_ct:
            self._last_ct = ct

    def do_abort(self, txn: TransactionDescriptor) -> None:
        self.wal.do_abort(txn)

    def lookup(self, key: str, read_st: int,
               txn: TransactionDescriptor | None = None) -> Effect | None:
        return self.memtable.lookup(key, read_st, txn)

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
        keys = sorted(entries)
        self._fill(window, path, *_columns(keys, [entries[k] for k in keys]))

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

    def fold(self, newer: "Checkpoint", window: Window) -> "Checkpoint":
        """A new checkpoint over window: newer's effect on each of its keys
        applied on top of mine, as effects.apply(mine, newer's) does, and a
        key only newer holds merged in at its place in key order. The columns
        are copied in bulk and only newer's keys are visited; when I hold
        every one of them the copy shares my keys and index."""
        flags = bytearray(self._flags)
        bases = array("q", self._bases)
        deltas = array("q", self._deltas)
        index = self._index
        fresh: list[int] = []  # positions in newer of the keys I lack
        for j, key in enumerate(newer._keys):
            i = index.get(key)
            if i is None:
                fresh.append(j)
            elif newer._flags[j]:  # a later assignment absorbs the history
                flags[i] = 1
                bases[i] = newer._bases[j]
                deltas[i] = newer._deltas[j]
            else:
                deltas[i] = wrap_i64(deltas[i] + newer._deltas[j])
        if not fresh:
            return Checkpoint._packed(window, self._keys, flags, bases, deltas, index=index)
        keys = self._keys + [newer._keys[j] for j in fresh]
        flags += bytes([newer._flags[j] for j in fresh])
        bases.extend([newer._bases[j] for j in fresh])
        deltas.extend([newer._deltas[j] for j in fresh])
        order = sorted(range(len(keys)), key=keys.__getitem__)  # two sorted runs
        return Checkpoint._packed(
            window, [keys[i] for i in order], bytes([flags[i] for i in order]),
            array("q", [bases[i] for i in order]), array("q", [deltas[i] for i in order]))

    def cut(self, bounds: list[str]) -> list["Checkpoint"]:
        """Pieces over the same window, split before each of bounds
        (ascending): piece i holds the keys below bounds[i] not in an
        earlier piece, the last one the rest. Pieces may be empty."""
        keys = self._keys
        edges = [0] + [bisect_left(keys, b) for b in bounds] + [len(keys)]
        return [Checkpoint._packed(self.window, keys[a:b], self._flags[a:b],
                                   self._bases[a:b], self._deltas[a:b])
                for a, b in zip(edges, edges[1:])]

    def chunks(self, size: int) -> list["Checkpoint"]:
        """Pieces over the same window in key order, as even as can be, none
        holding more than size entries."""
        n = len(self._keys)
        count = -(-n // size)
        return self.cut([self._keys[n * i // count] for i in range(1, count)])

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


def _columns(keys: list[str], effects: list[Effect]
             ) -> tuple[list[str], bytearray, array, array]:
    """Checkpoint columns of keys, given ascending, and their effects."""
    return (keys, bytearray([e.base is not None for e in effects]),
            array("q", [e.base or 0 for e in effects]),
            array("q", [e.delta for e in effects]))


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


def make_checkpoint(src: MapStore | WALMemtablePair, window: Window) -> Checkpoint:
    """Consolidate a sealed memtable, or a pair's, into key -> effect at
    window.hi, with its columns built straight from the per-key version
    lists (MapStore.consolidated)."""
    if window.hi is None:
        raise StoreError("cannot checkpoint an open window")
    memtable = src.memtable if isinstance(src, WALMemtablePair) else src
    if not memtable.sealed:
        raise StoreError("cannot checkpoint an unsealed store")
    return Checkpoint._packed(window, *_columns(*memtable.consolidated(window.hi)))
