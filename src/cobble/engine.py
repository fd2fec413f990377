"""Levelled store engine: live pairs (a commit log plus a memtable) on top,
checkpoint levels below, a MANIFEST journal recording every structural
change.

Each live pair's log holds one frame per committed transaction and serves
no reads. Reads walk levels newest to oldest collecting per-slice effects
until an assignment cuts history, then fold the slices oldest-first.
Compaction only folds already-consolidated entries; it never merges
concurrent effects across stores. Recovery replays the MANIFEST, folds every
live commit log that holds writes straight into one level-0 checkpoint (no
memtable is rebuilt), and restarts timestamps above every commit timestamp
it saw; rerunning it reproduces the same visible layout.
"""

from __future__ import annotations

import os
import re
import struct
import threading
from dataclasses import dataclass
from enum import IntEnum

from . import codec, effects, faults
from .composition import Checkpoint, WALMemtablePair, fold_commits, make_checkpoint
# recovery no longer calls rebuild_wmp; perfbench/spans.py still wraps it by
# this name
from .composition import rebuild_wmp  # noqa: F401
from .effects import Effect, apply
from .memory import MapStore
from .persistent import CommitLog, PersistentJournal
from .store import (
    IntegrityError,
    RecordKind,
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
_OPEN_HI = (1 << 64) - 1  # wire sentinel for an open window top


class ManifestAction(IntEnum):
    ADD = 0
    REMOVE = 1


@dataclass(frozen=True)
class ManifestEntry:
    action: ManifestAction
    level: int  # -1 = live
    path: str  # relative to the engine directory
    window: Window
    key_range: tuple[str, str] | None = None


def encode_manifest_entry(e: ManifestEntry) -> bytes:
    out = bytearray()
    out.append(int(e.action))
    out.append(e.level + 1)
    pb = e.path.encode("utf-8")
    out += struct.pack("<H", len(pb))
    out += pb
    hi = _OPEN_HI if e.window.hi is None else e.window.hi
    out += struct.pack("<QQ", e.window.lo, hi)
    if e.key_range is None:
        out.append(0)
    else:
        out.append(1)
        for k in e.key_range:
            kb = k.encode("utf-8")
            out += struct.pack("<H", len(kb))
            out += kb
    return bytes(out)


def decode_manifest_entry(buf: bytes) -> ManifestEntry:
    action = ManifestAction(buf[0])
    level = buf[1] - 1
    off = 2
    (plen,) = struct.unpack_from("<H", buf, off)
    off += 2
    path = buf[off:off + plen].decode("utf-8")
    off += plen
    lo, hi = struct.unpack_from("<QQ", buf, off)
    off += 16
    window = Window(lo, None if hi == _OPEN_HI else hi)
    key_range = None
    if buf[off]:
        off += 1
        parts = []
        for _ in range(2):
            (klen,) = struct.unpack_from("<H", buf, off)
            off += 2
            parts.append(buf[off:off + klen].decode("utf-8"))
            off += klen
        key_range = (parts[0], parts[1])
    return ManifestEntry(action, level, path, window, key_range)


@dataclass
class EngineConfig:
    max_levels: int = 4
    live_capacity: int = 4
    wmp_rotate_effects: int = 4096
    level_capacities: tuple[int, ...] | None = None
    isolation: str = "tcc"

    def __post_init__(self):
        if self.max_levels < 2:
            raise ValueError("need at least two levels")
        if self.live_capacity < 1 or self.wmp_rotate_effects < 1:
            raise ValueError("capacities must be positive")
        if self.isolation not in ("tcc", "si"):
            raise ValueError(f"unknown isolation {self.isolation!r}")

    def capacity(self, level: int) -> int:
        if self.level_capacities is not None:
            return self.level_capacities[level]
        return 4 * 10 ** level


def wal_name(lo: int) -> str:
    return f"wal-{lo}.log"


def ckpt_name(level: int, window: Window, fid: int) -> str:
    return f"ckpt-{level}-{window.lo}-{window.hi}-{fid}.cb"


_CKPT_RE = re.compile(r"ckpt-\d+-\d+-\d+-(\d+)\.cb$")


class LevelledStore(Store):
    """The engine. Use LevelledStore.create / open_engine, not __init__ directly."""

    def __init__(self, directory: str, config: EngineConfig,
                 manifest: PersistentJournal,
                 live: list[WALMemtablePair],
                 levels: list[list[Checkpoint]],
                 horizon: int, last_ct: int, fid: int, mseq: int):
        self.directory = directory
        self.config = config
        self._manifest = manifest
        # (live pairs, checkpoint levels), replaced by one assignment so that a
        # lookup reading it once never sees a pair both live and checkpointed
        self._layout: tuple[tuple[WALMemtablePair, ...],
                            tuple[tuple[Checkpoint, ...], ...]] = (
            tuple(live), tuple(tuple(l) for l in levels))
        self._mutex = threading.RLock()
        self._rotation_cond = threading.Condition(self._mutex)
        self._rotation_pending = False
        self._pins: dict[str, WALMemtablePair] = {}
        self._active_sts: dict[str, int] = {}
        self._horizon = horizon
        self._last_ct = last_ct
        self._fid = fid
        self._mseq = mseq
        self.probes: dict[int, int] = {LIVE_LEVEL: 0}
        self.probes.update({k: 0 for k in range(config.max_levels)})
        self.stats = {"rotations": 0, "live_checkpoints": 0, "level_merges": 0,
                      "level_merge_collapses": 0, "old_read_rejections": 0}

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, directory: str, config: EngineConfig | None = None) -> "LevelledStore":
        config = config or EngineConfig()
        os.makedirs(directory, exist_ok=True)
        mpath = os.path.join(directory, MANIFEST_NAME)
        if os.path.exists(mpath) and os.path.getsize(mpath) > 0:
            raise StoreError(f"{directory} already holds an engine; use open_engine")
        manifest = PersistentJournal(mpath)
        engine = cls(directory, config, manifest,
                     live=[], levels=[[] for _ in range(config.max_levels)],
                     horizon=0, last_ct=-1, fid=0, mseq=0)
        with engine._mutex:
            engine._open_fresh_wmp_locked(0, [])
        return engine

    def _abs(self, rel: str) -> str:
        return os.path.join(self.directory, rel)

    def _open_fresh_wmp_locked(self, lo: int, extra_entries: list[ManifestEntry]) -> None:
        """Create a new accepting pair at lo and record it (plus any batched
        entries) in one manifest transaction."""
        rel = wal_name(lo)
        path = self._abs(rel)
        if os.path.exists(path):
            os.remove(path)  # orphan from an earlier crash; never referenced
        wmp = WALMemtablePair(CommitLog(path), _fresh_map(), Window(lo, None))
        wmp._wal_rel = rel
        faults.fire("after-wal-write-before-manifest", path=path)
        entries = list(extra_entries)
        entries.append(ManifestEntry(ManifestAction.ADD, LIVE_LEVEL, rel, Window(lo, None)))
        self._manifest_commit_locked(entries)
        live, levels = self._layout
        self._layout = (live + (wmp,), levels)

    def _manifest_commit_locked(self, entries: list[ManifestEntry],
                                ts: int | None = None) -> None:
        ts = max(self._last_ct, 0) if ts is None else ts
        txn = TransactionDescriptor(f"m{self._mseq}", st=ts, ct=ts)
        self._mseq += 1
        self._manifest.do_begin(txn)
        for e in entries:
            self._manifest.append_manifest(txn, encode_manifest_entry(e))
        self._manifest.do_commit(txn)

    # -- Store protocol -------------------------------------------------------

    def do_begin(self, txn: TransactionDescriptor) -> None:
        with self._rotation_cond:
            while self._rotation_pending:
                self._rotation_cond.wait()
            wmp = self._layout[0][-1]
            # group-aligned windows: every version in a window must carry a
            # snapshot that covers all prior windows, else the per-window fold
            # would lose effects concurrent across the boundary
            if txn.st < wmp.window.lo - 1:
                raise StaleSnapshotError(
                    f"snapshot {txn.st} predates accepting window "
                    f"[{wmp.window.lo}, ...)")
            self._pins[txn.txn_id] = wmp
            self._active_sts[txn.txn_id] = txn.st
        try:
            wmp.do_begin(txn)
        except Exception:
            self._release(txn.txn_id)
            raise

    def _pinned(self, txn: TransactionDescriptor) -> WALMemtablePair:
        wmp = self._pins.get(txn.txn_id)
        if wmp is None:
            raise TransactionError(f"txn {txn.txn_id!r} not active in this engine")
        return wmp

    def do_update(self, txn: TransactionDescriptor, key: str, effect: Effect) -> None:
        self._pinned(txn).do_update(txn, key, effect)

    def do_commit(self, txn: TransactionDescriptor) -> None:
        wmp = self._pinned(txn)
        try:
            wmp.do_commit(txn)
        except Exception:
            self._release(txn.txn_id)
            raise
        with self._mutex:
            if txn.ct > self._last_ct:
                self._last_ct = txn.ct
        self._release(txn.txn_id)
        self._maybe_compact()

    def do_abort(self, txn: TransactionDescriptor) -> None:
        wmp = self._pinned(txn)
        try:
            wmp.do_abort(txn)
        finally:
            self._release(txn.txn_id)

    def _release(self, txn_id: str) -> None:
        with self._rotation_cond:
            wmp = self._pins.pop(txn_id, None)
            self._active_sts.pop(txn_id, None)
            if (self._rotation_pending and wmp is self._layout[0][-1]
                    and not self._pin_count_locked(wmp)):
                self._rotate_locked()

    def _pin_count_locked(self, wmp: WALMemtablePair) -> int:
        return sum(1 for w in self._pins.values() if w is wmp)

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
        live, levels = self._layout
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
            for lvl, row in enumerate(levels):
                for ck in reversed(row):
                    if not ck.window.intersects_prefix(read_st):
                        continue
                    if lvl >= 1 and not ck.covers_key(key):
                        continue
                    probes[lvl] += 1
                    eff = ck.probe(key, read_st)
                    if eff is not None:
                        found.append(eff)
                        if eff.base is not None:
                            assigned = True
                            break
                if assigned:
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

    # -- rotation and compaction ---------------------------------------------

    def _maybe_compact(self) -> None:
        with self._mutex:
            tail = self._layout[0][-1]
            if (tail.committed_effects >= self.config.wmp_rotate_effects
                    and not self._rotation_pending and not tail.sealed):
                if self._pin_count_locked(tail) == 0:
                    self._rotate_locked()
                else:
                    self._rotation_pending = True  # last unpin completes it
            self._compact_live_locked(force=False)
            self._compact_levels_locked(force=False)

    def compact(self, force: bool = False) -> None:
        """Run the capacity loop now; force treats every threshold as zero
        (seal the accepting pair if it can be sealed, push everything down)."""
        with self._mutex:
            if force and not self._rotation_pending:
                tail = self._layout[0][-1]
                if (not tail.sealed and tail.committed_effects > 0
                        and self._pin_count_locked(tail) == 0):
                    self._rotate_locked()
            self._compact_live_locked(force)
            self._compact_levels_locked(force)

    def _rotate_locked(self) -> None:
        tail = self._layout[0][-1]
        if tail.sealed or tail.committed_effects == 0:
            self._rotation_pending = False
            self._rotation_cond.notify_all()
            return
        window = tail.seal()
        self._rotation_pending = False
        self.stats["rotations"] += 1
        self._open_fresh_wmp_locked(window.hi, [])
        self._rotation_cond.notify_all()

    def _gate_locked(self, hi: int) -> bool:
        """Only history below every active snapshot may be consolidated."""
        min_st = min(self._active_sts.values(), default=None)
        return min_st is None or hi <= min_st

    def _compact_live_locked(self, force: bool) -> None:
        keep = 1 if force else self.config.live_capacity
        while len(self._layout[0]) > keep:
            oldest = self._layout[0][0]
            if not oldest.sealed:
                break
            if not self._gate_locked(oldest.window.hi):
                break
            self._checkpoint_wmp_locked(oldest)

    def _checkpoint_wmp_locked(self, wmp: WALMemtablePair) -> None:
        window = wmp.window
        entries_list: list[ManifestEntry] = []
        ck = make_checkpoint(wmp, window)
        if len(ck):
            rel = ckpt_name(0, window, self._fid)
            self._fid += 1
            ck.persist(self._abs(rel), fire_point="during-checkpoint-serialize")
            ck.path = rel
            entries_list.append(ManifestEntry(
                ManifestAction.ADD, 0, rel, window, None))
        entries_list.append(ManifestEntry(
            ManifestAction.REMOVE, LIVE_LEVEL, wmp._wal_rel, window))
        self._manifest_commit_locked(entries_list)
        live, levels = self._layout
        if len(ck):
            levels = (levels[0] + (ck,),) + levels[1:]
        self._layout = (live[1:], levels)
        if len(ck) and window.hi > self._horizon:
            self._horizon = window.hi
        self.stats["live_checkpoints"] += 1
        wmp.wal.close()
        try:
            os.remove(self._abs(wmp._wal_rel))
        except OSError:
            pass

    def _compact_levels_locked(self, force: bool) -> None:
        collapses_before = effects.counters["multi_collapse"]
        for level in range(self.config.max_levels - 1):
            row = list(self._layout[1][level])
            cap = 0 if force else self.config.capacity(level)
            excess = len(row) - cap
            if excess <= 0:
                continue
            sources = row[:excess]
            if not all(self._gate_locked(s.window.hi) for s in sources):
                continue
            self._merge_down_locked(level, sources)
        self.stats["level_merge_collapses"] += (
            effects.counters["multi_collapse"] - collapses_before)

    def _merge_down_locked(self, level: int, sources: list[Checkpoint]) -> None:
        """Fold source checkpoints (oldest first) into level+1.

        Shared keys fold into the owning target (older history first); keys
        no target owns gather into a fresh checkpoint per source. Targets are
        rebuilt as new objects/files; the old layout stays intact until the
        manifest transaction commits.
        """
        levels = self._layout[1]
        next_row: list[Checkpoint] = list(levels[level + 1])
        replaced: dict[int, Checkpoint] = {}  # index in next_row -> original
        for src in sources:
            residual: list[str] = []
            touched: dict[int, list[str]] = {}
            for key in src:
                for i, target in enumerate(next_row):
                    if key in target:
                        touched.setdefault(i, []).append(key)
                        break
                else:
                    residual.append(key)
            for i, keys in touched.items():
                target = next_row[i]
                window = Window(min(target.window.lo, src.window.lo),
                                max(target.window.hi, src.window.hi))
                if i not in replaced:
                    replaced[i] = target
                next_row[i] = target.fold(src, keys, window)
            if residual:
                next_row.append(src.subset(residual))
        self.stats["level_merges"] += 1

        adds: list[ManifestEntry] = []
        removes: list[ManifestEntry] = []
        old_paths: list[str] = []
        fresh: list[Checkpoint] = []
        for i, ck in enumerate(next_row):
            if ck.path is not None:
                continue  # unchanged survivor
            fresh.append(ck)
            rel = ckpt_name(level + 1, ck.window, self._fid)
            self._fid += 1
            ck.persist(self._abs(rel))
            ck.path = rel
            adds.append(ManifestEntry(ManifestAction.ADD, level + 1, rel,
                                      ck.window, ck.key_range))
        for original in replaced.values():
            if original.path is None:
                continue  # intermediate built this pass, never in the manifest
            removes.append(ManifestEntry(ManifestAction.REMOVE, level + 1,
                                         original.path, original.window))
            old_paths.append(original.path)
        for src in sources:
            removes.append(ManifestEntry(ManifestAction.REMOVE, level,
                                         src.path, src.window))
            old_paths.append(src.path)
        self._manifest_commit_locked(adds + removes)

        rows = list(levels)
        rows[level] = tuple(levels[level][len(sources):])
        # keep row order equal to what manifest replay reconstructs:
        # untouched survivors in place, rebuilt/new checkpoints at the end
        fresh_ids = {id(ck) for ck in fresh}
        rows[level + 1] = tuple(
            [ck for ck in next_row if id(ck) not in fresh_ids] + fresh)
        self._layout = (self._layout[0], tuple(rows))
        for ck in next_row:
            if ck.window.hi > self._horizon:
                self._horizon = ck.window.hi
        for rel in old_paths:
            try:
                os.remove(self._abs(rel))
            except OSError:
                pass

    # -- introspection ---------------------------------------------------------

    def layout(self) -> dict:
        with self._mutex:
            live, levels = self._layout
            return {
                "live": [(w._wal_rel, (w.window.lo, w.window.hi)) for w in live],
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


def _fresh_map() -> MapStore:
    return MapStore()


# -- recovery -------------------------------------------------------------------

def replay_manifest(manifest: PersistentJournal) -> tuple[dict[str, ManifestEntry],
                                                          list[dict[str, ManifestEntry]],
                                                          int, int, int]:
    """Fold the committed manifest transactions into the referenced layout.

    Returns (live adds by path, per-level adds by path, next fid, next mseq,
    max ts seen in committed manifest records).
    """
    live: dict[str, ManifestEntry] = {}
    levels: list[dict[str, ManifestEntry]] = []
    max_fid = -1
    max_mseq = -1
    max_ts = -1
    pending: dict[str, list] = {}
    for rec in manifest.records():
        if rec.kind == RecordKind.BEGIN:
            pending[rec.txn_id] = []
        elif rec.kind == RecordKind.MANIFEST:
            if rec.txn_id in pending:
                pending[rec.txn_id].append(rec.payload)
        elif rec.kind == RecordKind.ABORT:
            pending.pop(rec.txn_id, None)
        elif rec.kind == RecordKind.COMMIT:
            payloads = pending.pop(rec.txn_id, [])
            if rec.ts > max_ts:
                max_ts = rec.ts
            m = re.fullmatch(r"m(\d+)", rec.txn_id)
            if m:
                max_mseq = max(max_mseq, int(m.group(1)))
            for payload in payloads:
                entry = decode_manifest_entry(payload)
                fm = _CKPT_RE.search(entry.path)
                if fm:
                    max_fid = max(max_fid, int(fm.group(1)))
                while entry.level >= len(levels):
                    levels.append({})
                target = live if entry.level == LIVE_LEVEL else levels[entry.level]
                if entry.action == ManifestAction.ADD:
                    target[entry.path] = entry
                else:
                    target.pop(entry.path, None)
    return live, levels, max_fid + 1, max_mseq + 1, max_ts


def _recover_manifest(path: str) -> PersistentJournal:
    """PersistentJournal.recover, except that a bad frame with a whole valid
    frame after it raises IntegrityError and leaves the file as it is.

    Edits are written and fsynced one batch at a time, so a crash can tear
    only the tail; cutting the log at a bad frame in the middle would drop
    every later edit for good.
    """
    with open(path, "rb") as f:
        data = f.read()
    _, valid_end = codec.scan_frames(data)
    if valid_end < len(data) and codec.frame_after(data, valid_end):
        raise IntegrityError(
            f"{path}: bad frame at byte {valid_end} with valid frames after it")
    return PersistentJournal.recover(path)


def recover_engine(directory: str, config: EngineConfig | None = None
                   ) -> tuple[LevelledStore, int]:
    """Rebuild an engine from its directory.

    Returns (engine, highest timestamp encountered); restart the timestamp
    generator with recover_floor(highest). Safe to rerun after a crash at
    any point in here: the visible layout and lookups come out the same.
    """
    config = config or EngineConfig()
    mpath = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(mpath):
        raise StoreError(f"no engine manifest in {directory}")
    manifest = _recover_manifest(mpath)
    faults.fire("during-recovery-step-0", path=mpath)

    live_refs, level_refs, fid, mseq, max_manifest_ts = replay_manifest(manifest)
    faults.fire("during-recovery-step-1")

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
            levels[lvl].append(ck)
            if ck.window.hi - 1 > highest:
                highest = ck.window.hi - 1
    # read and validate every live log before changing any file
    live_entries = list(live_refs.values())
    scans = [CommitLog.scan(os.path.join(directory, e.path)) for e in live_entries]
    for entry, (commits, cut) in zip(live_entries, scans):
        if cut is not None:
            os.truncate(os.path.join(directory, entry.path), cut)
        highest = max([highest] + [ct for _, ct, _ in commits])
    faults.fire("during-recovery-step-2")

    # A trailing pair with no writes is kept as the accepting pair instead of
    # being replaced: its replacement would carry the same name, and deleting
    # the old file after the swap would unlink the new one out from under us.
    adopted: WALMemtablePair | None = None
    if scans and not any(writes for _, _, writes in scans[-1][0]):
        scans.pop()
        entry = live_entries.pop()
        wal, commits = CommitLog.recover(os.path.join(directory, entry.path))
        adopted = WALMemtablePair(wal, _fresh_map(), Window(entry.window.lo, None))
        adopted._wal_rel = entry.path
        for _, ct, _ in commits:
            adopted._count_commit(ct, 0)

    # fold every other live log into one L0 checkpoint: each window boundary
    # is a group boundary (do_begin keeps st >= window.lo - 1), so folding the
    # logs together equals folding each and applying them oldest first
    entries: list[ManifestEntry] = []
    new_l0: list[Checkpoint] = []
    commits = [c for log_commits, _ in scans for c in log_commits]
    if commits:
        window = Window(min(e.window.lo for e in live_entries),
                        max(ct for _, ct, _ in commits) + 1)
        ck = fold_commits(commits, window)
        if len(ck):
            rel = ckpt_name(0, window, fid)
            fid += 1
            ck.persist(os.path.join(directory, rel))
            ck.path = rel
            new_l0.append(ck)
            entries.append(ManifestEntry(ManifestAction.ADD, 0, rel, window))
    pushed = [entry.path for entry in live_entries]
    for entry in live_entries:
        entries.append(ManifestEntry(ManifestAction.REMOVE, LIVE_LEVEL, entry.path,
                                     entry.window))
    faults.fire("during-recovery-step-3")

    levels[0].extend(new_l0)
    coverage_hi = 0
    horizon = 0
    for row in levels:
        for ck in row:
            coverage_hi = max(coverage_hi, ck.window.hi)
            horizon = max(horizon, ck.window.hi)

    if adopted is not None and adopted.window.lo != coverage_hi:
        # windows no longer tile up to the pair; drop it too (it holds no
        # writes, so this is just a manifest removal) and fall back to a
        # fresh pair
        entries.append(ManifestEntry(ManifestAction.REMOVE, LIVE_LEVEL,
                                     adopted._wal_rel, adopted.window))
        adopted.wal.close()
        pushed.append(adopted._wal_rel)
        adopted = None

    if adopted is not None:
        fresh = adopted
    else:
        fresh_rel = wal_name(coverage_hi)
        fresh_abs = os.path.join(directory, fresh_rel)
        if os.path.exists(fresh_abs):
            os.remove(fresh_abs)
        fresh = WALMemtablePair(CommitLog(fresh_abs), _fresh_map(),
                                Window(coverage_hi, None))
        fresh._wal_rel = fresh_rel
        entries.append(ManifestEntry(ManifestAction.ADD, LIVE_LEVEL, fresh_rel,
                                     Window(coverage_hi, None)))

    if entries:
        txn = TransactionDescriptor(f"m{mseq}", st=highest, ct=highest)
        mseq += 1
        manifest.do_begin(txn)
        for e in entries:
            manifest.append_manifest(txn, encode_manifest_entry(e))
        manifest.do_commit(txn)
    faults.fire("during-recovery-step-4")

    for rel in pushed:
        try:
            os.remove(os.path.join(directory, rel))
        except OSError:
            pass

    engine = LevelledStore(directory, config, manifest,
                           live=[fresh], levels=levels,
                           horizon=horizon, last_ct=highest, fid=fid, mseq=mseq)
    faults.fire("during-recovery-step-5")
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
