"""Levelled store engine: live pairs (a commit log plus a memtable) on top,
checkpoint levels below, a MANIFEST recording every structural change.

Every file takes its name from one counter: wal-{fid}.log for a commit log,
ckpt-{fid}.cb for a checkpoint, wherever it sits in the layout. The layout
changes only in a compaction pass, which builds the final layout (a
rotation when the accepting pair is full, then the swaps and level merges
that capacity asks for and the gate allows), writes the checkpoints that
layout holds with no file, and applies it with _apply_locked: the
difference from the current layout is logged as one MANIFEST batch of
ADD/REMOVE entries, durable as one frame before the layout in memory
changes (no batch when nothing named changed), and every file the new
layout no longer names is unlinked. A pass that raises changes nothing in
memory and unlinks what it wrote; a commit or abort that ran it still
reports its own outcome, the error is kept in compaction_error, and the
next commit runs the pass again. A batch also records the last commit
timestamp: once recovery drops a log that held no writes, that is the only
trace of its commits.

Each live pair is the write-all/read-one composition: its log holds one
frame per committed transaction and serves no reads, its memtable serves
them all. A begin pins the transaction to the accepting pair, and that pin
is the transaction's only lifecycle below the coordinator. A rotation
waits until no transaction is pinned, so every pin is on the accepting
pair. It seals the pair and persists its level-0 checkpoint, built from
the memtable's per-key version lists; the pass's batch adds it, removes
the sealed log and adds the next pair's log, so the MANIFEST names at most
one log. The sealed pair stays live, its memtable answering every read,
until a pass swaps the checkpoint into level 0, which changes no name.
Level 0 holds checkpoints in age order with overlapping key ranges; every
level >= 1 is a run of checkpoints sorted by key range with disjoint
ranges. A read walks the live pairs and level 0 newest to oldest, then
makes one bisect and at most one probe per deeper level, collecting
per-slice effects until an assignment cuts history, and folds the slices
oldest-first. The compaction horizon is the highest window top in the
levels; a begin below it is refused, since its reads could not be answered.

A level merge (merge_down, a function of the rows alone) moves a source
that overlaps nothing below down whole, and otherwise folds it into only
the checkpoints it overlaps. Compaction only folds already-consolidated
entries, never concurrent effects across stores. Recovery replays the
MANIFEST (cutting a torn last batch), rebuilds each level's key order from
the ranges it records (refusing overlaps), folds the one named log straight
into one more level-0 checkpoint when it holds writes, logs the difference
from the replayed layout as one batch, deletes every wal-*/ckpt-* file the
result does not name, and restarts timestamps above every commit timestamp
it saw; rerunning it reproduces the same visible layout.
"""

from __future__ import annotations

import os
import re
import threading
from bisect import bisect_right
from dataclasses import dataclass

from . import faults
from .composition import Checkpoint, WALMemtablePair, fold_commits, make_checkpoint
# perfbench/spans.py wraps rebuild_wmp by this name; recovery no longer calls it
from .composition import rebuild_wmp  # noqa: F401
from .effects import Effect, apply
from .memory import MapStore
from .persistent import Batch, CommitLog, ManifestLog
from .store import (
    IntegrityError,
    ManifestAction,
    ManifestEntry,
    StaleSnapshotError,
    Store,
    StoreError,
    TransactionDescriptor,
    TransactionError,
    Window,
    WindowError,
    check_key,
)

MANIFEST_NAME = "MANIFEST"
LIVE_LEVEL = -1


@dataclass
class EngineConfig:
    max_levels: int = 4
    live_capacity: int = 4
    wmp_rotate_effects: int = 4096
    level_capacities: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.max_levels < 2:
            raise ValueError("need at least two levels")
        if self.live_capacity < 1 or self.wmp_rotate_effects < 1:
            raise ValueError("capacities must be positive")

    def capacity(self, level: int) -> int:
        if self.level_capacities is not None:
            return self.level_capacities[level]
        return 4 * 10 ** level


def wal_name(fid: int) -> str:
    return f"wal-{fid}.log"


def ckpt_name(fid: int) -> str:
    return f"ckpt-{fid}.cb"


_FILE_NAME = re.compile(r"wal-(\d+)\.log|ckpt-(\d+)\.cb")

# (level, name) -> (window, key range) of every file a layout names, in
# layout order
Named = dict[tuple[int, str], tuple[Window, tuple[str, str] | None]]
Levels = tuple[tuple[Checkpoint, ...], ...]


def _log_name(wmp: WALMemtablePair) -> str:
    return os.path.basename(wmp.wal.path)


def _named(live, levels, flushed) -> Named:
    """What a layout names: each live pair's log, or, for a pair in flushed
    (a sealed pair mapped to its built checkpoint), that checkpoint at level
    0; then every level's checkpoints."""
    named: Named = {}
    for w in live:
        ck = flushed.get(w)
        if ck is None:
            named[(LIVE_LEVEL, _log_name(w))] = (w.window, None)
        else:
            named[(0, ck.path)] = (ck.window, None)
    for lvl, row in enumerate(levels):
        named.update(((lvl, ck.path), (ck.window, ck.key_range)) for ck in row)
    return named


def _unlink(path: str) -> None:
    """Delete a file; one a failed unlink leaves is an orphan that the next
    recovery deletes."""
    try:
        os.remove(path)
    except OSError:
        pass


def _layout_edits(old: Named, new: Named) -> list[ManifestEntry]:
    """The MANIFEST batch that turns layout old into new: a REMOVE for each
    (level, name) only old holds, then an ADD for each only new holds, in
    new's order. A REMOVE, and an ADD at level 0 or live, carry no key
    range."""
    edits = [ManifestEntry(ManifestAction.REMOVE, lvl, name, window)
             for (lvl, name), (window, _) in old.items() if (lvl, name) not in new]
    edits += [ManifestEntry(ManifestAction.ADD, lvl, name, window,
                            key_range if lvl > 0 else None)
              for (lvl, name), (window, key_range) in new.items() if (lvl, name) not in old]
    return edits


def merge_down(levels: Levels, level: int, count: int, chunk: int) -> Levels:
    """levels with the first count checkpoints of levels[level] (oldest
    first) merged into levels[level + 1], a run of checkpoints sorted by key
    range with disjoint ranges. Nothing is written: a checkpoint it builds
    has no path yet.

    The targets a source overlaps are found by bisect on the range starts. A
    source that overlaps none moves down whole: the same checkpoint and
    file. Otherwise the source is cut at the overlapping targets' starts,
    and each target folds in its piece (keys below the first target or
    above the last join it, so ranges stay disjoint); a result of more than
    2 * chunk entries is split into pieces of at most chunk. Only those
    targets are rewritten.
    """
    row = list(levels[level + 1])
    for src in levels[level][:count]:
        lo, hi = src.key_range
        starts = [ck.key_range[0] for ck in row]
        a = bisect_right(starts, lo) - 1
        if a < 0 or row[a].key_range[1] < lo:
            a += 1
        b = bisect_right(starts, hi)
        if a == b:
            row.insert(a, src)
            continue
        out: list[Checkpoint] = []
        for target, piece in zip(row[a:b], src.cut(starts[a + 1:b])):
            if not len(piece):
                out.append(target)
                continue
            merged = target.fold(piece, Window(min(target.window.lo, src.window.lo),
                                               max(target.window.hi, src.window.hi)))
            if len(merged) > 2 * chunk:
                out += merged.chunks(chunk)
            else:
                out.append(merged)
        row[a:b] = out
    return levels[:level] + (levels[level][count:], tuple(row)) + levels[level + 2:]


class LevelledStore(Store):
    """The engine. Use LevelledStore.create / open_engine, not __init__ directly."""

    def __init__(self, directory: str, config: EngineConfig,
                 manifest: ManifestLog,
                 live: list[WALMemtablePair],
                 levels: list[list[Checkpoint]],
                 last_ct: int, fid: int):
        self.directory = directory
        self.config = config
        self._manifest = manifest
        # (live pairs, checkpoint levels, each level's range starts), replaced
        # by one assignment so that a lookup reading it once never sees a pair
        # both live and checkpointed, or a level out of step with its starts
        self._layout: tuple[tuple[WALMemtablePair, ...], Levels, tuple[tuple[str, ...], ...]]
        self._mutex = threading.RLock()
        # each live pair whose rotation flushed it -> its built checkpoint,
        # which the MANIFEST names at level 0 in place of the pair's log
        self._flushed: dict[WALMemtablePair, Checkpoint] = {}
        self._set_layout_locked(tuple(live), tuple(tuple(row) for row in levels))
        self._rotation_cond = threading.Condition(self._mutex)
        self._rotation_pending = False
        # a commit runs a pass for work other than a rotation only while this
        # is set: a reopened layout may hold work, a failed pass leaves it,
        # and the release of a snapshot the gate held work back for sets it
        self._compaction_due = any(levels)
        self._gate_blocked = False
        # txn id -> snapshot of each txn, all pinned to the accepting pair
        self._pins: dict[str, int] = {}
        self._last_ct = last_ct
        self._fid = fid
        self.probes: dict[int, int] = {LIVE_LEVEL: 0}
        self.probes.update({k: 0 for k in range(config.max_levels)})
        self.stats = {"rotations": 0, "live_checkpoints": 0, "level_merges": 0,
                      "old_read_rejections": 0, "failed_passes": 0}
        # the OSError or StoreError of the last pass, None once one succeeds
        self.compaction_error: Exception | None = None

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, directory: str, config: EngineConfig | None = None) -> "LevelledStore":
        config = config or EngineConfig()
        os.makedirs(directory, exist_ok=True)
        mpath = os.path.join(directory, MANIFEST_NAME)
        if os.path.exists(mpath) and os.path.getsize(mpath) > 0:
            raise StoreError(f"{directory} already holds an engine; use open_engine")
        manifest = ManifestLog(mpath)
        engine = cls(directory, config, manifest,
                     live=[], levels=[[] for _ in range(config.max_levels)],
                     last_ct=-1, fid=0)
        with engine._mutex:
            first = engine._new_pair_locked(0)
            try:
                faults.fire("after-wal-write-before-manifest", path=first.wal.path)
                engine._apply_locked((first,), engine._layout[1], {})
            except BaseException:
                first.wal.close()
                raise
        return engine

    def _abs(self, rel: str) -> str:
        return os.path.join(self.directory, rel)

    def _take_fid_locked(self) -> int:
        fid = self._fid
        self._fid += 1
        return fid

    def _new_pair_locked(self, lo: int) -> WALMemtablePair:
        """An accepting pair at lo over a new log, not yet in the layout."""
        path = self._abs(wal_name(self._take_fid_locked()))
        return WALMemtablePair(CommitLog(path), MapStore(), Window(lo, None))

    def _persist_locked(self, ck: Checkpoint, written: list[str],
                        fire_point: str | None = None) -> None:
        """Name a new checkpoint, add the name to written, write the file."""
        ck.path = ckpt_name(self._take_fid_locked())
        written.append(ck.path)
        ck.persist(self._abs(ck.path), fire_point=fire_point)

    def _set_layout_locked(self, live: tuple[WALMemtablePair, ...], levels: Levels) -> None:
        self._horizon = max((ck.window.hi for row in levels for ck in row), default=0)
        starts = ((),) + tuple(tuple(ck.key_range[0] for ck in row) for row in levels[1:])
        self._layout = (live, levels, starts)

    def _apply_locked(self, live: tuple[WALMemtablePair, ...], levels: Levels,
                      flushed: dict[WALMemtablePair, Checkpoint],
                      written: list[str] = ()) -> None:
        """Make (live, levels) the layout, with flushed holding the built
        checkpoints of its sealed pairs. The difference from the current
        layout is logged as one durable MANIFEST batch, if there is one,
        before the layout in memory changes; then every log and file that the
        old layout or written names and the new one does not is closed and
        unlinked."""
        old_live, old_levels, _ = self._layout
        old = _named(old_live, old_levels, self._flushed)
        flushed = {w: flushed[w] for w in live if w in flushed}
        new = _named(live, levels, flushed)
        edits = _layout_edits(old, new)
        if edits:
            self._manifest.append(max(self._last_ct, 0), edits)
        self._flushed = flushed
        self._set_layout_locked(live, levels)
        kept = {name for _, name in new}
        logs = {_log_name(w): w for w in old_live}
        for name in [name for _, name in old] + list(written):
            if name not in kept:
                if name in logs:
                    logs[name].wal.close()
                _unlink(self._abs(name))

    # -- Store protocol -------------------------------------------------------

    def do_begin(self, txn: TransactionDescriptor) -> None:
        """Pin the txn to the accepting pair; the pair sees no begin."""
        with self._rotation_cond:
            while self._rotation_pending:
                self._rotation_cond.wait()
            if txn.txn_id in self._pins:
                raise TransactionError(f"duplicate begin for txn {txn.txn_id!r}")
            # group-aligned windows: every version in a window must carry a
            # snapshot that covers all prior windows, else the per-window fold
            # would lose effects concurrent across the boundary; and no read
            # below the horizon can be answered. Once pinned, the gate keeps
            # the horizon at or below the snapshot.
            lo = self._layout[0][-1].window.lo
            if txn.st < lo - 1 or txn.st < self._horizon:
                raise StaleSnapshotError(
                    f"snapshot {txn.st} predates accepting window [{lo}, ...) "
                    f"or compaction horizon {self._horizon}")
            self._pins[txn.txn_id] = txn.st

    def _pinned(self, txn: TransactionDescriptor) -> WALMemtablePair:
        """The accepting pair, which holds every pin; raises when txn holds
        none."""
        if txn.txn_id not in self._pins:
            raise TransactionError(f"txn {txn.txn_id!r} not active in this engine")
        return self._layout[0][-1]

    def do_update(self, txn: TransactionDescriptor, key: str, effect: Effect) -> None:
        # the effect rides in the descriptor's buffer until commit, and a pin
        # exists only while the txn is active: nothing else to check or keep
        self._pinned(txn)

    def do_commit(self, txn: TransactionDescriptor) -> None:
        wmp = self._pinned(txn)
        try:
            wmp.do_commit(txn)
        except Exception:
            self._release(txn.txn_id)
            raise
        self._release(txn.txn_id, txn.ct)

    def do_abort(self, txn: TransactionDescriptor) -> None:
        self._pinned(txn)
        self._release(txn.txn_id)

    def _release(self, txn_id: str, ct: int | None = None) -> None:
        """Unpin; after a commit at ct, or at the last unpin while a rotation
        waits for it, run _maybe_compact, whose failure the txn never sees."""
        with self._rotation_cond:
            self._pins.pop(txn_id, None)
            if self._gate_blocked:  # retry what the gate held back
                self._gate_blocked = False
                self._compaction_due = True
            if ct is not None:
                self._last_ct = max(self._last_ct, ct)
            if ct is not None or (self._rotation_pending and not self._pins):
                self._maybe_compact()

    @property
    def horizon(self) -> int:
        return self._horizon

    @property
    def last_committed_ct(self) -> int:
        return self._last_ct

    def lookup(self, key: str, read_st: int,
               txn: TransactionDescriptor | None = None) -> Effect | None:
        check_key(key)
        if read_st < self._horizon:
            self.stats["old_read_rejections"] += 1
            raise WindowError(f"read_st {read_st} below compaction horizon {self._horizon}")
        live, levels, starts = self._layout
        probes = self.probes
        found: list[Effect] = []
        assigned = False
        for wmp in reversed(live):
            if not wmp.window.intersects_prefix(read_st):
                continue
            probes[LIVE_LEVEL] += 1
            eff = wmp.memtable.probe(key, read_st)  # the key was checked above
            if eff is not None:
                found.append(eff)
                if eff.base is not None:
                    assigned = True
                    break
        if not assigned:
            for ck in reversed(levels[0]):
                if not ck.window.intersects_prefix(read_st):
                    continue
                probes[0] += 1
                eff = ck.probe(key, read_st)
                if eff is not None:
                    found.append(eff)
                    if eff.base is not None:
                        assigned = True
                        break
        if not assigned:
            # a level >= 1 is sorted by key range with disjoint ranges: only
            # the last checkpoint starting at or below the key can hold it
            # (and its window lies below the horizon, so below read_st)
            for lvl in range(1, len(levels)):
                i = bisect_right(starts[lvl], key) - 1
                if i < 0:
                    continue
                ck = levels[lvl][i]
                if not ck.covers_key(key):
                    continue
                probes[lvl] += 1
                eff = ck.probe(key, read_st)
                if eff is not None:
                    found.append(eff)
                    if eff.base is not None:
                        break
        if not found:
            return None
        acc = found[-1]  # oldest slice
        for eff in reversed(found[:-1]):
            acc = apply(acc, eff)
        return acc

    def reset_probes(self) -> None:
        for k in self.probes:
            self.probes[k] = 0

    def probe_total(self) -> int:
        return sum(self.probes.values())

    # -- compaction passes -----------------------------------------------------

    def _maybe_compact(self) -> None:
        """Run a pass when the accepting pair is full (while a txn is pinned,
        its rotation waits for the last unpin) or work is due. A failed pass
        raises nothing here: the next commit runs it again."""
        with self._mutex:
            full = self._layout[0][-1].committed_effects >= self.config.wmp_rotate_effects
            if full and self._pins:
                self._rotation_pending = True
                full = False
            if full or self._compaction_due:
                try:
                    self._compact_locked(force=False)
                except (OSError, StoreError):
                    pass

    def compact(self, force: bool = False) -> None:
        """Run a pass now, raising what it raises; force treats every
        threshold as zero (rotate the accepting pair if it holds a commit
        and no pin, swap in every sealed pair, push everything down)."""
        with self._mutex:
            self._compact_locked(force)

    def _gate_locked(self, hi: int) -> bool:
        """Only history below every active snapshot may be consolidated."""
        min_st = min(self._pins.values(), default=None)
        if min_st is None or hi <= min_st:
            return True
        self._gate_blocked = True
        return False

    def _compact_locked(self, force: bool) -> None:
        """One pass: build the final layout from the current one, persist
        its checkpoints that have no file, and apply it once. In order: a
        rotation when the accepting pair is full (under force, holds a
        commit) and no txn is pinned; the swaps of sealed pairs into level 0
        down to the live capacity (1 under force); on each level, the merge
        of its excess over capacity (0 under force) into the next. The gate
        can hold a swap or a merge back. When a step raises, nothing in
        memory changes; after an OSError or StoreError the pass's files are
        unlinked and the error kept, while a crash leaves them to recovery's
        sweep. Stats count a pass once it succeeds."""
        live, levels, _ = self._layout
        flushed = self._flushed
        tail = live[-1]
        rotate = not self._pins and tail.committed_effects >= (
            1 if force else self.config.wmp_rotate_effects)
        fid, written = self._fid, []
        new = None
        swaps = merges = 0
        try:
            if rotate:
                # every commit in the window has landed: none is pinned
                ck = make_checkpoint(tail, tail.seal())
                self._persist_locked(ck, written, fire_point="during-checkpoint-serialize")
                new = self._new_pair_locked(ck.window.hi)
                written.append(_log_name(new))
                faults.fire("after-wal-write-before-manifest", path=new.wal.path)
                live += (new,)
                flushed = {**flushed, tail: ck}
            keep = 1 if force else self.config.live_capacity
            while (len(live) > keep and live[0] in flushed
                   and self._gate_locked(live[0].window.hi)):
                levels = (levels[0] + (flushed[live[0]],),) + levels[1:]
                live = live[1:]
                swaps += 1
            for level in range(self.config.max_levels - 1):
                # L0's oldest, whose ranges overlap; below it, the lowest ranges
                excess = len(levels[level]) - (0 if force else self.config.capacity(level))
                if excess > 0 and all(self._gate_locked(ck.window.hi)
                                      for ck in levels[level][:excess]):
                    levels = merge_down(levels, level, excess, self.config.wmp_rotate_effects)
                    merges += 1
            for ck in [ck for row in levels for ck in row if ck.path is None]:
                self._persist_locked(ck, written)
            self._apply_locked(live, levels, flushed, written)
        except BaseException as exc:
            self._fid = fid
            if new is not None:
                new.wal.close()
            if rotate:
                tail.unseal()
            if isinstance(exc, (OSError, StoreError)):
                for name in written:
                    _unlink(self._abs(name))
                self.compaction_error = exc
                self.stats["failed_passes"] += 1
            raise
        finally:
            if rotate:
                self._rotation_pending = False
                self._rotation_cond.notify_all()
        self._compaction_due = False
        self.compaction_error = None
        self.stats["rotations"] += rotate
        self.stats["live_checkpoints"] += swaps
        self.stats["level_merges"] += merges

    # -- introspection ---------------------------------------------------------

    def layout(self) -> dict:
        with self._mutex:
            live, levels, _ = self._layout
            return {
                "live": [(_log_name(w), (w.window.lo, w.window.hi)) for w in live],
                "levels": [
                    [(c.path, (c.window.lo, c.window.hi), c.key_range) for c in row]
                    for row in levels
                ],
                "entries": [[len(c) for c in row] for row in levels],
                "horizon": self._horizon,
                "last_ct": self._last_ct,
            }

    def close(self) -> None:
        with self._mutex:
            for wmp in self._layout[0]:
                wmp.wal.close()
            self._manifest.close()


# -- recovery -------------------------------------------------------------------

def replay_manifest(batches: list[Batch]) -> tuple[dict[str, ManifestEntry],
                                                  list[dict[str, ManifestEntry]],
                                                  int, int]:
    """Fold the logged manifest batches, oldest first, into the referenced
    layout.

    Returns (live adds by path, per-level adds by path, next fid, max batch
    ts). The next fid is one above every fid an entry ever named.
    """
    live: dict[str, ManifestEntry] = {}
    levels: list[dict[str, ManifestEntry]] = []
    max_fid = -1
    max_ts = -1
    for ts, entries in batches:
        if ts > max_ts:
            max_ts = ts
        for entry in entries:
            fm = _FILE_NAME.fullmatch(entry.path)
            if fm:
                max_fid = max(max_fid, int(fm[1] or fm[2]))
            while entry.level >= len(levels):
                levels.append({})
            target = live if entry.level == LIVE_LEVEL else levels[entry.level]
            if entry.action == ManifestAction.ADD:
                target[entry.path] = entry
            else:
                target.pop(entry.path, None)
    for lvl in range(1, len(levels)):
        levels[lvl] = _key_ordered(lvl, levels[lvl])
    return live, levels, max_fid + 1, max_ts


def _key_ordered(level: int, refs: dict[str, ManifestEntry]) -> dict[str, ManifestEntry]:
    """A level >= 1's entries sorted by the key range each records; raises
    IntegrityError when one records none or two ranges overlap."""
    for e in refs.values():
        if e.key_range is None:
            raise IntegrityError(f"level {level} checkpoint {e.path} records no key range")
    ordered = sorted(refs.values(), key=lambda e: e.key_range)
    pair = first_overlap([(e.path, e.key_range) for e in ordered])
    if pair is not None:
        raise IntegrityError(
            f"level {level} checkpoints {pair[0]} and {pair[1]} have overlapping key ranges")
    return {e.path: e for e in ordered}


def first_overlap(row: list[tuple[str, tuple[str, str]]]) -> tuple[str, str] | None:
    """The names of the first two neighbours whose key ranges overlap in a
    row of (name, key range) sorted by range, or None when the row is
    disjoint (neighbours disjoint in start order means all are)."""
    for (p, r), (q, s) in zip(row, row[1:]):
        if s[0] <= r[1]:
            return p, q
    return None


def recover_engine(directory: str, config: EngineConfig | None = None
                   ) -> tuple[LevelledStore, int]:
    """Rebuild an engine from its directory.

    Returns (engine, highest timestamp encountered); restart the timestamp
    generator with recover_floor(highest). Safe to rerun after a crash at
    any point in here: the visible layout and lookups come out the same.
    Every file handle it opened is closed when it raises.
    """
    config = config or EngineConfig()
    mpath = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(mpath):
        raise StoreError(f"no engine manifest in {directory}")
    manifest, batches = ManifestLog.recover(mpath)
    pair: WALMemtablePair | None = None
    try:
        faults.fire("during-recovery-step-0", path=mpath)

        live_refs, level_refs, fid, max_manifest_ts = replay_manifest(batches)
        faults.fire("during-recovery-step-1")

        # a rotation removes the sealed log in the batch that adds the next
        if len(live_refs) > 1:
            raise IntegrityError(f"{mpath} names {len(live_refs)} live logs "
                                 f"({', '.join(live_refs)}); at most one can be live")
        highest = max(0, max_manifest_ts)
        for lvl in range(config.max_levels, len(level_refs)):
            if level_refs[lvl]:
                raise StoreError(
                    f"manifest references level {lvl} but config allows "
                    f"{config.max_levels} levels")
        levels: list[list[Checkpoint]] = [[] for _ in range(config.max_levels)]
        for lvl in range(min(len(level_refs), config.max_levels)):
            for entry in level_refs[lvl].values():
                try:
                    ck = Checkpoint.load(os.path.join(directory, entry.path), entry.window)
                except FileNotFoundError as exc:
                    raise IntegrityError(
                        f"{mpath} references missing checkpoint {entry.path}") from exc
                ck.path = entry.path
                if lvl and ck.key_range != entry.key_range:
                    raise IntegrityError(
                        f"{entry.path} holds keys {ck.key_range}, {mpath} records {entry.key_range}")
                levels[lvl].append(ck)
                if ck.window.hi - 1 > highest:
                    highest = ck.window.hi - 1
        # read and validate the log before changing any file
        log = next(iter(live_refs.values()), None)
        commits = []
        if log is not None:
            log_path = os.path.join(directory, log.path)
            commits, cut = CommitLog.scan(log_path)
            if cut is not None:
                os.truncate(log_path, cut)
            highest = max([highest] + [ct for _, ct, _ in commits])
        faults.fire("during-recovery-step-2")

        coverage_hi = max((ck.window.hi for row in levels for ck in row), default=0)
        if any(writes for _, _, writes in commits):
            # fold the log straight into one L0 checkpoint
            ck = fold_commits(commits, Window(log.window.lo,
                                              max(ct for _, ct, _ in commits) + 1))
            ck.path = ckpt_name(fid)
            fid += 1
            ck.persist(os.path.join(directory, ck.path))
            levels[0].append(ck)
            coverage_hi = ck.window.hi
        elif log is not None and log.window.lo == coverage_hi:
            # a log with no writes, starting where the checkpoints end, stays
            # the accepting pair, so a reopen with nothing to fold changes no
            # file (one whose window no longer tiles is dropped)
            pair = WALMemtablePair(CommitLog(log_path, _recovered=True), MapStore(),
                                   Window(log.window.lo, None))
            for _, ct, _ in commits:
                pair._count_commit(ct, 0)
        faults.fire("during-recovery-step-3")

        if pair is None:
            pair = WALMemtablePair(CommitLog(os.path.join(directory, wal_name(fid))),
                                   MapStore(), Window(coverage_hi, None))
            fid += 1

        replayed = {(e.level, e.path): (e.window, e.key_range)
                    for refs in (live_refs, *level_refs) for e in refs.values()}
        new = _named((pair,), levels, {})
        edits = _layout_edits(replayed, new)
        if edits:
            manifest.append(highest, edits)
        faults.fire("during-recovery-step-4")

        # a file the layout does not name was left by a crash or a failed unlink
        kept = {name for _, name in new}
        for name in os.listdir(directory):
            if name.startswith(("wal-", "ckpt-")) and name not in kept:
                _unlink(os.path.join(directory, name))

        engine = LevelledStore(directory, config, manifest, live=[pair], levels=levels,
                               last_ct=highest, fid=fid)
        faults.fire("during-recovery-step-5")
    except BaseException:
        if pair is not None:
            pair.wal.close()
        manifest.close()
        raise
    return engine, highest


def open_engine(directory: str, config: EngineConfig | None = None
                ) -> tuple[LevelledStore, int | None]:
    """Create a fresh engine or recover an existing one.

    Returns (engine, floor): floor is None for a fresh directory, else the
    timestamp to hand to TimestampGenerator.recover_floor.
    """
    mpath = os.path.join(directory, MANIFEST_NAME)
    if os.path.exists(mpath) and os.path.getsize(mpath) > 0:
        engine, highest = recover_engine(directory, config)
        return engine, highest
    return LevelledStore.create(directory, config), None
