"""Binary codecs: journal record frames, commit and MANIFEST batch frames,
and map/checkpoint files.

Frame layout: magic "CBLE" | u32le payload length | payload | u32le CRC-32
(IEEE, over the payload only). A scan stops at the first frame that fails
magic, bounds, CRC, or record decoding; everything before it is the valid
prefix.

Commit payload (one per committed transaction in a commit log), each
integer little-endian in the bytes it needs: tag "c" | head byte | ct |
ct - st | write count | writes, each a width byte | key length | base |
delta | key (UTF-8). The head byte gives the widths of the three integers
after it, two bits each (bits 0-1 ct, 2-3 ct - st, 4-5 count; 6-7 are 0),
all unsigned:

    code   0   1   2   3
    bytes  1   2   4   8

The width byte gives the widths of one write's fields: bits 0-2 the
signed base and bits 3-5 the signed delta (bit 6 set: the key length is
u16, else u8; bit 7 is 0):

    code   0                      1   2   3   4
    bytes  0 (no base; delta 0)   1   2   4   8

An assignment of 0 stores its base in one byte. Each width is the
smallest that holds the value; st > ct does not encode. The tag is no
RecordKind value, so a journal record never decodes as a commit, and a
payload in an earlier layout (tag "C") is refused.

MANIFEST batch payload (one per batch of engine layout edits), little-endian:
tag "m" | u64 ts (the engine's last commit timestamp) | entries to the end,
each u8 action (0 add, 1 remove) | u8 level + 1 (0 = live) | u64 window.lo |
u64 window.hi (2^64 - 1 while open) | u8 has-range | path | and when
has-range is 1, the lowest and highest key, each string a u16 length and
UTF-8. A journal record, the MANIFEST's earlier layout, starts with a
RecordKind byte, never "m", so it is refused.

Map (checkpoint) file layout, little-endian on every host: magic
"CBLMAP02" | u64 window.lo | u64 window.hi | u32 entry count n | u32 key
blob length | key blob | n flag bytes | n i64 bases | n i64 deltas | u32
CRC-32 over everything after the magic. The key blob is the n keys in
UTF-8, strictly ascending by code point (which UTF-8 byte order keeps),
joined by NUL, which no key contains. Entry i is keys[i] with effect
(bases[i] if flags[i] else None, deltas[i]); a base is 0 where its flag is
0. A store keeps one consolidated effect per key at its window top, so the
window is stored once per file, and no version, ct or st per entry.
"""

from __future__ import annotations

import operator
import os
import struct
import sys
import zlib
from array import array
from typing import NoReturn

from .effects import Effect, decode_effect, encode_effect
from .store import (
    IntegrityError,
    JournalRecord,
    ManifestAction,
    ManifestEntry,
    RecordKind,
    Window,
)

FRAME_MAGIC = b"CBLE"
MAP_MAGIC = b"CBLMAP02"
COMMIT_TAG = b"c"
MANIFEST_TAG = b"m"
_FRAME_HEADER = len(FRAME_MAGIC) + 4
_MAP_HEADER = struct.Struct("<QQII")  # window lo, window hi, entry count, key blob bytes
_UNSIGNED = "BHIQ"  # head width codes 0-3
_SIGNED = ("", "b", "h", "i", "q")  # write width codes 0-4
_BATCH_HEAD = struct.Struct("<cQ")  # tag, ts
_ENTRY = struct.Struct("<BBQQB")  # action, level + 1, window lo, hi, has-range
_U16 = struct.Struct("<H")
_OPEN_HI = (1 << 64) - 1  # wire sentinel for an open window top


def _fields(fmt: str) -> tuple:
    """(unpack_from, size, pack) of one precompiled field group."""
    s = struct.Struct(fmt)
    return s.unpack_from, s.size, s.pack


def _bad_width(buf: bytes, off: int) -> NoReturn:
    raise ValueError(f"bad width byte {buf[off]:#x}")


# (unpack_from, size, pack) of each field group, by the byte that starts it:
# the head byte, ct, ct - st and write count; the width byte, key length,
# then base and delta where present. An invalid byte's unpack raises, so
# decoding needs no check of its own.
_BAD = (_bad_width, 0, _bad_width)
_HEADS = [_fields("<B" + _UNSIGNED[h & 3] + _UNSIGNED[h >> 2 & 3] + _UNSIGNED[h >> 4])
          if h < 0o100 else _BAD for h in range(256)]
_WRITES = [_fields("<B" + "BH"[w >> 6] + _SIGNED[w & 7] + _SIGNED[w >> 3 & 7])
           if w < 0o200 and w & 7 < 5 and w >> 3 & 7 < 5 else _BAD for w in range(256)]

# one logged write: (key, base or None, delta), both i64
Write = tuple[str, int | None, int]


def encode_record(rec: JournalRecord) -> bytes:
    txn_id = rec.txn_id.encode("utf-8")
    if len(txn_id) > 0xFFFF:
        raise ValueError("txn id too long")
    out = bytearray()
    out.append(int(rec.kind))
    out += struct.pack("<H", len(txn_id))
    out += txn_id
    out += struct.pack("<Q", rec.ts)
    if rec.kind == RecordKind.UPDATE:
        key = rec.key.encode("utf-8")
        out += struct.pack("<H", len(key))
        out += key
        out += encode_effect(rec.effect)
    return bytes(out)


def decode_record(payload: bytes) -> JournalRecord:
    try:
        kind = RecordKind(payload[0])
        off = 1
        (tlen,) = struct.unpack_from("<H", payload, off)
        off += 2
        txn_id = payload[off:off + tlen].decode("utf-8")
        if len(payload[off:off + tlen]) != tlen:
            raise ValueError("short txn id")
        off += tlen
        (ts,) = struct.unpack_from("<Q", payload, off)
        off += 8
        if kind == RecordKind.UPDATE:
            (klen,) = struct.unpack_from("<H", payload, off)
            off += 2
            key = payload[off:off + klen].decode("utf-8")
            if len(payload[off:off + klen]) != klen:
                raise ValueError("short key")
            off += klen
            effect, off = decode_effect(payload, off)
            if off != len(payload):
                raise ValueError("trailing bytes in update record")
            return JournalRecord(kind, txn_id, ts, key, effect)
        if off != len(payload):
            raise ValueError("trailing bytes in record")
        return JournalRecord(kind, txn_id, ts)
    except (IndexError, struct.error, UnicodeDecodeError, ValueError) as exc:
        raise IntegrityError(f"bad record payload: {exc}") from exc


def encode_commit(st: int, ct: int, writes: dict[str, Effect]) -> bytes:
    """The commit payload of (st, ct, writes); struct.error if ct or ct - st
    is not a u64 (st > ct included) or a key's UTF-8 exceeds 65535 bytes."""
    gap = ct - st
    count = len(writes)
    head = ((0 if ct < 0x100 else 1 if ct < 0x10000 else 2 if ct < 0x100000000 else 3)
            | (0 if gap < 0x100 else 4 if gap < 0x10000 else 8 if gap < 0x100000000 else 12)
            | (0 if count < 0x100 else 16 if count < 0x10000 else 32 if count < 0x100000000
               else 48))
    parts = [COMMIT_TAG, _HEADS[head][2](head, ct, gap, count)]
    for key, eff in writes.items():
        kb = key.encode()
        base = eff.base
        delta = eff.delta
        w = 0 if len(kb) < 0x100 else 0o100
        if delta:
            w |= (0o10 if -0x80 <= delta < 0x80 else 0o20 if -0x8000 <= delta < 0x8000
                  else 0o30 if -0x80000000 <= delta < 0x80000000 else 0o40)
        if base is None:
            parts.append(_WRITES[w][2](w, len(kb), delta) if delta
                         else _WRITES[w][2](w, len(kb)))
        else:
            w |= (1 if -0x80 <= base < 0x80 else 2 if -0x8000 <= base < 0x8000
                  else 3 if -0x80000000 <= base < 0x80000000 else 4)
            parts.append(_WRITES[w][2](w, len(kb), base, delta) if delta
                         else _WRITES[w][2](w, len(kb), base))
        parts.append(kb)
    return b"".join(parts)


def decode_commit(payload: bytes) -> tuple[int, int, list[Write]]:
    """(st, ct, writes) of a commit payload, each write a flat (key, base or
    None, delta) in logged order; IntegrityError if malformed."""
    try:
        if payload[:1] != COMMIT_TAG:
            raise ValueError("not a commit payload")
        unpack, size, _ = _HEADS[payload[1]]
        _, ct, gap, count = unpack(payload, 1)
        off = 1 + size
        n = len(payload)
        writes: list[Write] = []
        for _ in range(count):
            w = payload[off]
            unpack, size, _ = _WRITES[w]
            f = unpack(payload, off)
            start = off + size
            off = start + f[1]
            if off > n:
                raise ValueError("short key")
            if w & 0o70:  # a delta, and a base if w & 7
                writes.append((payload[start:off].decode(), f[2], f[3]) if w & 7
                              else (payload[start:off].decode(), None, f[2]))
            else:
                writes.append((payload[start:off].decode(), f[2], 0) if w & 7
                              else (payload[start:off].decode(), None, 0))
        if off != n:
            raise ValueError("trailing bytes in commit payload")
        return ct - gap, ct, writes
    except (IndexError, struct.error, UnicodeDecodeError, ValueError) as exc:
        raise IntegrityError(f"bad commit payload: {exc}") from exc


def encode_batch(ts: int, entries: list[ManifestEntry]) -> bytes:
    """The MANIFEST payload of one edit batch; struct.error if ts or a window
    bound is not a u64 or a path or key exceeds 65535 UTF-8 bytes."""
    parts = [_BATCH_HEAD.pack(MANIFEST_TAG, ts)]
    for e in entries:
        hi = _OPEN_HI if e.window.hi is None else e.window.hi
        parts.append(_ENTRY.pack(e.action, e.level + 1, e.window.lo, hi,
                                 e.key_range is not None))
        for text in (e.path, *(e.key_range or ())):
            raw = text.encode()
            parts += (_U16.pack(len(raw)), raw)
    return b"".join(parts)


def decode_batch(payload: bytes) -> tuple[int, list[ManifestEntry]]:
    """(ts, entries) of a MANIFEST batch payload; IntegrityError if malformed."""
    try:
        tag, ts = _BATCH_HEAD.unpack_from(payload)
        if tag != MANIFEST_TAG:
            raise ValueError("not a manifest batch")
        off = _BATCH_HEAD.size
        entries = []
        while off < len(payload):
            action, level, lo, hi, has_range = _ENTRY.unpack_from(payload, off)
            off += _ENTRY.size
            texts = []  # the path, then the key range if it has one
            for _ in range(3 if has_range else 1):
                (n,) = _U16.unpack_from(payload, off)
                off += 2 + n
                texts.append(payload[off - n:off].decode())
            if off > len(payload) or has_range > 1:
                raise ValueError("malformed entry")
            entries.append(ManifestEntry(ManifestAction(action), level - 1, texts[0],
                                         Window(lo, None if hi == _OPEN_HI else hi),
                                         tuple(texts[1:]) or None))
        return ts, entries
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise IntegrityError(f"bad manifest batch: {exc}") from exc


def encode_frame(payload: bytes) -> bytes:
    return (FRAME_MAGIC + struct.pack("<I", len(payload)) + payload
            + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def scan_frames(data: bytes) -> tuple[list[bytes], int]:
    """Extract payloads of the longest valid frame prefix.

    Returns (payloads, end) where end is the byte offset right after the
    last valid frame; anything beyond is torn or corrupt.
    """
    payloads = []
    off = 0
    n = len(data)
    while off + _FRAME_HEADER + 4 <= n:
        if data[off:off + 4] != FRAME_MAGIC:
            break
        (plen,) = struct.unpack_from("<I", data, off + 4)
        end = off + _FRAME_HEADER + plen + 4
        if end > n:
            break
        payload = data[off + _FRAME_HEADER:off + _FRAME_HEADER + plen]
        (crc,) = struct.unpack_from("<I", data, end - 4)
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            break
        payloads.append(payload)
        off = end
    return payloads, off


def frame_after(data: bytes, start: int) -> bool:
    """Whether a whole, CRC-valid frame begins anywhere past offset start."""
    view = memoryview(data)
    pos = data.find(FRAME_MAGIC, start + 1)
    while pos >= 0:
        if scan_frames(view[pos:])[0]:
            return True
        pos = data.find(FRAME_MAGIC, pos + 1)
    return False


def scan_records(data: bytes) -> tuple[list[JournalRecord], int]:
    """Frames to records; a CRC-valid but undecodable record also ends the prefix."""
    records = []
    payloads, off = scan_frames(data)
    valid_end = 0
    for payload in payloads:
        try:
            records.append(decode_record(payload))
        except IntegrityError:
            return records, valid_end
        valid_end += _FRAME_HEADER + len(payload) + 4
    return records, valid_end


# --- map / checkpoint files --------------------------------------------------

def _le(column: array) -> bytes:
    if sys.byteorder == "big":
        column = array("q", column)
        column.byteswap()
    return column.tobytes()


def _i64_column(data: bytes) -> array:
    column = array("q")
    column.frombytes(data)
    if sys.byteorder == "big":
        column.byteswap()
    return column


def write_map_file(path: str, window: Window, keys: list[str],
                   flags: bytes | bytearray, bases: array, deltas: array,
                   fire_point: str | None = None) -> None:
    """Write one packed checkpoint: keys ascending by code point, with the
    parallel has-base flag, base and delta columns; hi must be finalized.

    When fire_point is given the fault hook runs after half of the bytes
    are down, so an injected crash leaves a torn file behind.
    """
    from . import faults

    if window.hi is None:
        raise ValueError("cannot persist an open window")
    n = len(keys)
    if not len(flags) == len(bases) == len(deltas) == n:
        raise ValueError("checkpoint columns differ in length")
    blob = "\x00".join(keys).encode("utf-8")
    body = b"".join((_MAP_HEADER.pack(window.lo, window.hi, n, len(blob)),
                     blob, bytes(flags), _le(bases), _le(deltas)))
    data = MAP_MAGIC + body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    with open(path, "wb") as f:
        half = len(data) // 2
        f.write(data[:half])
        if fire_point:
            f.flush()
            faults.fire(fire_point, path=path)
        f.write(data[half:])
        f.flush()
        os.fsync(f.fileno())


def read_map_file(path: str) -> tuple[Window, list[str], bytes, array, array]:
    """(window, keys, flags, bases, deltas) of a packed checkpoint file.

    Bulk operations only: one CRC, one decode and split of the key blob and
    one frombytes per column. IntegrityError on a torn, corrupt or malformed
    file.
    """
    with open(path, "rb") as f:
        data = f.read()
    head = len(MAP_MAGIC) + _MAP_HEADER.size
    if len(data) < head + 4 or data[:len(MAP_MAGIC)] != MAP_MAGIC:
        raise IntegrityError(f"{path}: not a map file")
    body = memoryview(data)[len(MAP_MAGIC):-4]
    (crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise IntegrityError(f"{path}: checksum mismatch")
    lo, hi, n, klen = _MAP_HEADER.unpack_from(data, len(MAP_MAGIC))
    if head + klen + 17 * n + 4 != len(data) or (klen == 0) != (n == 0):
        raise IntegrityError(f"{path}: section lengths disagree")
    off = head + klen
    try:
        keys = data[head:off].decode("utf-8").split("\x00") if n else []
    except UnicodeDecodeError as exc:
        raise IntegrityError(f"{path}: malformed key blob: {exc}") from exc
    if len(keys) != n or (n and not keys[0]) or not all(map(operator.lt, keys, keys[1:])):
        raise IntegrityError(f"{path}: keys not strictly ascending")
    flags = data[off:off + n]
    if flags.translate(None, b"\x00\x01"):
        raise IntegrityError(f"{path}: bad has-base flag")
    off += n
    bases = _i64_column(data[off:off + 8 * n])
    deltas = _i64_column(data[off + 8 * n:off + 16 * n])
    return Window(lo, hi), keys, flags, bases, deltas
