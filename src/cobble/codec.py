"""Binary codecs: journal record frames, commit frames and map/checkpoint files.

Frame layout: magic "CBLE" | u32le payload length | payload | u32le CRC-32
(IEEE, over the payload only). A scan stops at the first frame that fails
magic, bounds, CRC, or record decoding; everything before it is the valid
prefix.

Commit payload (one per committed transaction in a commit log): tag "C" |
u64le st | u64le ct | u32le write count | writes, each u16le key length |
key | effect encoding. The tag is no RecordKind value, so a journal record
never decodes as a commit.

Map file layout: magic "CBLMAP01" | u32le entry count | entries sorted by
key bytes | u32le CRC-32 over everything after the magic. Each entry is
u16le key length | key | u64le window.lo | u64le window.hi | u32le version
count | versions, each u64le ct | u64le st | effect encoding.
"""

from __future__ import annotations

import os
import struct
import zlib

from .effects import Effect, decode_effect, encode_effect
from .store import IntegrityError, JournalRecord, RecordKind, Window

FRAME_MAGIC = b"CBLE"
MAP_MAGIC = b"CBLMAP01"
COMMIT_TAG = b"C"
_FRAME_HEADER = len(FRAME_MAGIC) + 4


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

def write_map_file(path: str, window: Window,
                   entries: dict[str, list[tuple[int, int, Effect]]],
                   fire_point: str | None = None) -> None:
    """Entries map key -> [(ct, st, effect)]; hi must be finalized.

    When fire_point is given the fault hook runs after half of the bytes
    are down, so an injected crash leaves a torn file behind.
    """
    from . import faults

    if window.hi is None:
        raise ValueError("cannot persist an open window")
    body = bytearray()
    body += struct.pack("<I", len(entries))
    for key, versions in sorted(entries.items(), key=lambda kv: kv[0].encode("utf-8")):
        kb = key.encode("utf-8")
        body += struct.pack("<H", len(kb))
        body += kb
        body += struct.pack("<QQ", window.lo, window.hi)
        body += struct.pack("<I", len(versions))
        for ct, st, eff in versions:
            body += struct.pack("<QQ", ct, st)
            body += encode_effect(eff)
    blob = MAP_MAGIC + bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    with open(path, "wb") as f:
        half = len(blob) // 2
        f.write(blob[:half])
        if fire_point:
            f.flush()
            faults.fire(fire_point, path=path)
        f.write(blob[half:])
        f.flush()
        os.fsync(f.fileno())


def read_map_file(path: str) -> tuple[Window | None, dict[str, list[tuple[int, int, Effect]]]]:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < len(MAP_MAGIC) + 8 or data[:len(MAP_MAGIC)] != MAP_MAGIC:
        raise IntegrityError(f"{path}: not a map file")
    body = data[len(MAP_MAGIC):-4]
    (crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise IntegrityError(f"{path}: checksum mismatch")
    try:
        off = 0
        (count,) = struct.unpack_from("<I", body, off)
        off += 4
        entries: dict[str, list[tuple[int, int, Effect]]] = {}
        window: Window | None = None
        for _ in range(count):
            (klen,) = struct.unpack_from("<H", body, off)
            off += 2
            key = body[off:off + klen].decode("utf-8")
            off += klen
            lo, hi = struct.unpack_from("<QQ", body, off)
            off += 16
            window = Window(lo, hi)
            (vcount,) = struct.unpack_from("<I", body, off)
            off += 4
            versions = []
            for _ in range(vcount):
                ct, st = struct.unpack_from("<QQ", body, off)
                off += 16
                eff, off = decode_effect(body, off)
                versions.append((ct, st, eff))
            entries[key] = versions
        if off != len(body):
            raise ValueError("trailing bytes")
        return window, entries
    except (IndexError, struct.error, UnicodeDecodeError, ValueError) as exc:
        raise IntegrityError(f"{path}: malformed map file: {exc}") from exc
