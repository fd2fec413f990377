"""Binary codecs: journal record and commit frames, the MANIFEST file, and
map/checkpoint files.

Frame layout: payload length n as a varint | payload | u32le CRC-32 (IEEE,
over the length bytes and the payload). The varint is LEB128: seven bits a
byte, low group first, the high bit set on every byte but the last, at most
5 bytes; so a payload under 128 B takes 5 B of framing. n = 0 is invalid,
and since the CRC covers the length, no run of zero bytes is a valid frame.
A scan stops at the first frame that fails bounds, CRC, or record
decoding; everything before it is the valid prefix. There is no magic: a
frame in the layout this one replaced began with "CBLE", which no frame of
this layout's logs does, and a log that begins so is refused.

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

MANIFEST file: exactly one frame, whose payload is the engine's whole
layout, little-endian: tag "L" | u64 ts (the engine's last commit
timestamp) | u64 next file id | entries to the end, each u8 level + 1 (0 =
live) | u64 window.lo | u64 window.hi (2^64 - 1 while open) | u8 has-range
| path | and when has-range is 1, the lowest and highest key, each string a
u16 length and UTF-8. A MANIFEST in an earlier layout (a log of journal
records, or of "m"-tagged batches of layout edits) is refused.

Map (checkpoint) file layout, little-endian on every host: magic
"CBLMAP03" | u64 window.lo | u64 window.hi | u32 entry count n | u32 key
blob length | u8 base width wb | u8 delta width wd | key blob | n flag
bytes | n bases, wb bytes each | n deltas, wd bytes each | u32 CRC-32 over
everything after the magic. The key blob is the n keys in UTF-8, strictly
ascending by code point (which UTF-8 byte order keeps), joined by NUL,
which no key contains. Entry i is keys[i] with effect (bases[i] if
flags[i] else None, deltas[i]); a base is 0 where its flag is 0. Each
column stores its i64 values two's complement in its width, 0 to 8 bytes,
the smallest that holds every value of the column: an all-zero column takes
no bytes. A store keeps one consolidated effect per key at its window top,
so the window is stored once per file, and no version, ct or st per entry.
A file in an earlier layout ("CBLMAP02", every column i64) is refused.
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
    ManifestEntry,
    RecordKind,
    Window,
)

OLD_FRAME_MAGIC = b"CBLE"  # began every frame of the layout this one replaced
MAP_MAGIC = b"CBLMAP03"
COMMIT_TAG = b"c"
LAYOUT_TAG = b"L"
# window lo, window hi, entry count, key blob bytes, base and delta widths
_MAP_HEADER = struct.Struct("<QQIIBB")
_UNSIGNED = "BHIQ"  # head width codes 0-3
_SIGNED = ("", "b", "h", "i", "q")  # write width codes 0-4
_LAYOUT_HEAD = struct.Struct("<cQQ")  # tag, ts, next file id
_ENTRY = struct.Struct("<BQQB")  # level + 1, window lo, hi, has-range
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_SIGN = bytes(0xFF if b >> 7 else 0 for b in range(256))  # a byte's sign fill
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


def encode_layout(ts: int, next_fid: int, entries: list[ManifestEntry]) -> bytes:
    """The MANIFEST file of one layout; struct.error if ts, the next fid or a
    window bound is not a u64 or a path or key exceeds 65535 UTF-8 bytes."""
    parts = [_LAYOUT_HEAD.pack(LAYOUT_TAG, ts, next_fid)]
    for e in entries:
        hi = _OPEN_HI if e.window.hi is None else e.window.hi
        parts.append(_ENTRY.pack(e.level + 1, e.window.lo, hi, e.key_range is not None))
        for text in (e.path, *(e.key_range or ())):
            raw = text.encode()
            parts += (_U16.pack(len(raw)), raw)
    return encode_frame(b"".join(parts))


def decode_layout(data: bytes) -> tuple[int, int, list[ManifestEntry]]:
    """(ts, next fid, entries) of a MANIFEST file; IntegrityError unless it is
    one whole frame holding a well-formed layout."""
    try:
        payloads, end = scan_frames(data)
        if len(payloads) != 1 or end != len(data):
            raise ValueError(f"{len(payloads)} whole frames in {len(data)} bytes, not one")
        payload = payloads[0]
        tag, ts, next_fid = _LAYOUT_HEAD.unpack_from(payload)
        if tag != LAYOUT_TAG:
            raise ValueError("not a layout")
        off = _LAYOUT_HEAD.size
        entries = []
        while off < len(payload):
            level, lo, hi, has_range = _ENTRY.unpack_from(payload, off)
            off += _ENTRY.size
            texts = []  # the path, then the key range if it has one
            for _ in range(3 if has_range else 1):
                (n,) = _U16.unpack_from(payload, off)
                off += 2 + n
                texts.append(payload[off - n:off].decode())
            if off > len(payload) or has_range > 1:
                raise ValueError("malformed entry")
            entries.append(ManifestEntry(level - 1, texts[0],
                                         Window(lo, None if hi == _OPEN_HI else hi),
                                         tuple(texts[1:]) or None))
        return ts, next_fid, entries
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise IntegrityError(f"bad manifest: {exc}") from exc


def encode_frame(payload: bytes) -> bytes:
    n = len(payload)
    head = bytearray()
    while n >= 0x80:
        head.append(n & 0x7F | 0x80)
        n >>= 7
    head.append(n)
    body = bytes(head) + payload
    return body + _U32.pack(zlib.crc32(body))


def _frame_at(data: bytes, off: int) -> tuple[bytes, int] | None:
    """(payload, end offset) of the whole, CRC-valid frame at off, else None.

    The CRC is computed only once the frame's length fits in data.
    """
    n = len(data)
    plen = shift = 0
    pos = off
    while True:
        if pos >= n or shift > 28:
            return None
        b = data[pos]
        pos += 1
        plen |= (b & 0x7F) << shift
        if b < 0x80:
            break
        shift += 7
    end = pos + plen + 4
    if not plen or end > n:
        return None
    body = data[off:end - 4]
    if zlib.crc32(body) != _U32.unpack_from(data, end - 4)[0]:
        return None
    return body[pos - off:], end


def scan_frames(data: bytes) -> tuple[list[bytes], int]:
    """Extract payloads of the longest valid frame prefix.

    Returns (payloads, end) where end is the byte offset right after the
    last valid frame; anything beyond is torn or corrupt.
    """
    payloads = []
    off = 0
    while (frame := _frame_at(data, off)) is not None:
        payload, off = frame
        payloads.append(payload)
    return payloads, off


def commit_frame_after(data: bytes, start: int) -> bool:
    """Whether a whole, CRC-valid frame of a commit payload starts past
    offset start.

    Each commit tag byte found past start is tried as the first payload
    byte after a varint of 1 to 5 bytes, and no offset is tried twice: in
    random bytes, a few offsets in 256.
    """
    tried = start + 1  # offsets below this one need no try
    q = data.find(COMMIT_TAG, start + 2)
    while q >= 0:
        if any(_frame_at(data, pos) for pos in range(max(tried, q - 5), q)):
            return True
        tried = q
        q = data.find(COMMIT_TAG, q + 1)
    return False


def scan_records(data: bytes) -> tuple[list[JournalRecord], int]:
    """Frames to records; a CRC-valid but undecodable record also ends the prefix."""
    records = []
    off = 0
    while (frame := _frame_at(data, off)) is not None:
        try:
            records.append(decode_record(frame[0]))
        except IntegrityError:
            break
        off = frame[1]
    return records, off


# --- map / checkpoint files --------------------------------------------------

def _narrow(column: array) -> tuple[int, bytes]:
    """(w, bytes) of an i64 column: the smallest width w, 0 to 8, that holds
    every value, and the values little-endian in w bytes each.

    Strided byte compares and copies only: width w - 1 holds the column
    when it fits w and byte w - 1 of every value is the sign fill of byte
    w - 2.
    """
    if sys.byteorder == "big":
        column = array("q", column)
        column.byteswap()
    raw = column.tobytes()
    if raw == bytes(len(raw)):
        return 0, b""
    w = 8
    while w > 1 and raw[w - 1::8] == raw[w - 2::8].translate(_SIGN):
        w -= 1
    if w == 8:
        return w, raw
    out = bytearray(w * len(column))
    for k in range(w):
        out[k::w] = raw[k::8]
    return w, out


def _widen(data: bytes, start: int, n: int, w: int) -> array:
    """The i64 column of the n values stored w bytes each from data[start:],
    copied strided into place and sign-filled."""
    stop = start + n * w
    if w == 8:
        raw = data[start:stop]
    else:
        raw = bytearray(8 * n)
        if w:
            for k in range(w):
                raw[k::8] = data[start + k:stop:w]
            fill = data[start + w - 1:stop:w].translate(_SIGN)
            for k in range(w, 8):
                raw[k::8] = fill
    column = array("q")
    column.frombytes(raw)
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
    wb, base_bytes = _narrow(bases)
    wd, delta_bytes = _narrow(deltas)
    body = b"".join((_MAP_HEADER.pack(window.lo, window.hi, n, len(blob), wb, wd),
                     blob, bytes(flags), base_bytes, delta_bytes))
    data = MAP_MAGIC + body + _U32.pack(zlib.crc32(body))
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
    a few strided copies per column. IntegrityError on a torn, corrupt or
    malformed file.
    """
    with open(path, "rb") as f:
        data = f.read()
    head = len(MAP_MAGIC) + _MAP_HEADER.size
    if len(data) < head + 4 or data[:len(MAP_MAGIC)] != MAP_MAGIC:
        raise IntegrityError(f"{path}: not a map file")
    body = memoryview(data)[len(MAP_MAGIC):-4]
    (crc,) = _U32.unpack_from(data, len(data) - 4)
    if zlib.crc32(body) != crc:
        raise IntegrityError(f"{path}: checksum mismatch")
    lo, hi, n, klen, wb, wd = _MAP_HEADER.unpack_from(data, len(MAP_MAGIC))
    if wb > 8 or wd > 8:
        raise IntegrityError(f"{path}: bad column width")
    if head + klen + (1 + wb + wd) * n + 4 != len(data) or (klen == 0) != (n == 0):
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
    bases = _widen(data, off, n, wb)
    deltas = _widen(data, off + wb * n, n, wd)
    return Window(lo, hi), keys, flags, bases, deltas
