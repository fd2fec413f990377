"""Binary codecs: journal record frames, commit frames and map/checkpoint files.

Frame layout: magic "CBLE" | u32le payload length | payload | u32le CRC-32
(IEEE, over the payload only). A scan stops at the first frame that fails
magic, bounds, CRC, or record decoding; everything before it is the valid
prefix.

Commit payload (one per committed transaction in a commit log): tag "C" |
u64le st | u64le ct | u32le write count | writes, each u16le key length |
key | effect encoding. The tag is no RecordKind value, so a journal record
never decodes as a commit.

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

from .effects import Effect, decode_effect, encode_effect
from .store import IntegrityError, JournalRecord, RecordKind, Window

FRAME_MAGIC = b"CBLE"
MAP_MAGIC = b"CBLMAP02"
COMMIT_TAG = b"C"
_FRAME_HEADER = len(FRAME_MAGIC) + 4
_MAP_HEADER = struct.Struct("<QQII")  # window lo, window hi, entry count, key blob bytes


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
    elif rec.kind == RecordKind.MANIFEST:
        out += rec.payload or b""
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
        if kind == RecordKind.MANIFEST:
            return JournalRecord(kind, txn_id, ts, payload=payload[off:])
        if off != len(payload):
            raise ValueError("trailing bytes in record")
        return JournalRecord(kind, txn_id, ts)
    except (IndexError, struct.error, UnicodeDecodeError, ValueError) as exc:
        raise IntegrityError(f"bad record payload: {exc}") from exc


def encode_commit(st: int, ct: int, writes: dict[str, Effect]) -> bytes:
    out = bytearray(COMMIT_TAG)
    out += struct.pack("<QQI", st, ct, len(writes))
    for key, eff in writes.items():
        kb = key.encode("utf-8")
        out += struct.pack("<H", len(kb))
        out += kb
        out += encode_effect(eff)
    return bytes(out)


def decode_commit(payload: bytes) -> tuple[int, int, dict[str, Effect]]:
    """(st, ct, folded writes) of a commit payload; IntegrityError if malformed."""
    try:
        if payload[:1] != COMMIT_TAG:
            raise ValueError("not a commit payload")
        st, ct, count = struct.unpack_from("<QQI", payload, 1)
        off = 1 + 20
        writes: dict[str, Effect] = {}
        for _ in range(count):
            (klen,) = struct.unpack_from("<H", payload, off)
            off += 2
            kb = payload[off:off + klen]
            if len(kb) != klen:
                raise ValueError("short key")
            off += klen
            key = kb.decode("utf-8")
            writes[key], off = decode_effect(payload, off)
        if off != len(payload):
            raise ValueError("trailing bytes in commit payload")
        return st, ct, writes
    except (IndexError, struct.error, UnicodeDecodeError, ValueError) as exc:
        raise IntegrityError(f"bad commit payload: {exc}") from exc


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


def write_journal_file(path: str, records: list[JournalRecord]) -> None:
    with open(path, "wb") as f:
        for rec in records:
            f.write(encode_frame(encode_record(rec)))
        f.flush()
        os.fsync(f.fileno())


def read_journal_file(path: str) -> tuple[list[JournalRecord], int]:
    with open(path, "rb") as f:
        data = f.read()
    return scan_records(data)


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
