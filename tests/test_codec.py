"""Seeded random round-trips of the two variable-width layouts in
cobble.codec: log frames (varint length, payload, CRC-32 over both) and
checkpoint files (one width, 0 to 8 bytes, per column).

Each seed draws frames whose lengths straddle the varint's byte boundaries
and checks that a log of them scans back whole, that every cut keeps exactly
the frames before it, and that a flipped byte ends the scan at its frame,
with commit_frame_after finding the frames behind it. It then draws
checkpoint columns of random widths and checks that each loads back equal,
stored in the smallest width that holds it.

Outside pytest, run seeds with

    PYTHONPATH=src python tests/test_codec.py FIRST COUNT
"""

import os
import random
import sys
import tempfile
from array import array
from collections import Counter

from cobble import codec
from cobble.store import Window

TIER1_SEEDS = range(10)
# payload lengths on each side of the varint's one-, two- and three-byte forms
LENGTH_EDGES = (1, 2, 127, 128, 129, (1 << 14) - 1, 1 << 14)


def _payload(rng: random.Random) -> bytes:
    """Random bytes after a commit payload's tag, which commit_frame_after
    seeks."""
    n = rng.choice(LENGTH_EDGES) if rng.random() < 0.3 else rng.randint(1, 300)
    return codec.COMMIT_TAG + rng.randbytes(n - 1)


def _width(values) -> int:
    """The smallest width, 0 to 8 bytes, that holds every value."""
    if not any(values):
        return 0
    return next(w for w in range(1, 9)
                if all(-(1 << 8 * w - 1) <= v < 1 << 8 * w - 1 for v in values))


def _column(rng: random.Random, n: int) -> array:
    w = rng.randint(0, 8)
    top = 1 << 8 * w - 1 if w else 0
    values = [rng.randrange(-top, top) if w else 0 for _ in range(n)]
    if n and w and rng.random() < 0.5:  # the column's extreme values
        values[rng.randrange(n)] = rng.choice((-top, top - 1))
    return array("q", values)


def check_frames(rng: random.Random, counts: Counter) -> None:
    payloads = [_payload(rng) for _ in range(rng.randint(1, 12))]
    frames = [codec.encode_frame(p) for p in payloads]
    data = b"".join(frames)
    assert codec.scan_frames(data) == (payloads, len(data))
    ends = [0]
    for frame in frames:
        ends.append(ends[-1] + len(frame))
    for cut in {rng.randrange(len(data)) for _ in range(8)} | set(ends[:-1]):
        kept = sum(1 for end in ends[1:] if end <= cut)
        assert codec.scan_frames(data[:cut]) == (payloads[:kept], ends[kept])
        counts["cuts"] += 1
    k = rng.randrange(len(frames))
    at = rng.randrange(ends[k], ends[k + 1])
    flipped = bytearray(data)
    flipped[at] ^= 1 << rng.randrange(8)
    flipped = bytes(flipped)
    assert codec.scan_frames(flipped) == (payloads[:k], ends[k])
    assert codec.commit_frame_after(flipped, ends[k]) == (k + 1 < len(frames))
    counts["flips"] += 1
    counts["frames"] += len(frames)


def check_map(rng: random.Random, path: str, counts: Counter) -> None:
    n = rng.choice((0, 1, rng.randint(2, 300)))
    keys = sorted({f"k{rng.randrange(10 ** 6):06d}" for _ in range(n)})
    n = len(keys)
    flags = bytes(rng.randrange(2) for _ in range(n))
    bases = _column(rng, n)
    for i in range(n):
        if not flags[i]:
            bases[i] = 0
    deltas = _column(rng, n)
    window = Window(rng.randrange(1 << 20), 1 << 21)
    codec.write_map_file(path, window, keys, flags, bases, deltas)
    with open(path, "rb") as f:
        widths = f.read(34)[32:]
    assert tuple(widths) == (_width(bases), _width(deltas))
    assert codec.read_map_file(path) == (window, keys, flags, bases, deltas)
    counts["maps"] += 1
    counts[f"width {widths[1]}"] += 1


def run_seed(seed: int, work: str) -> Counter:
    rng = random.Random(seed)
    counts = Counter()
    path = os.path.join(work, f"map-{seed}.cb")
    for _ in range(20):
        check_frames(rng, counts)
        check_map(rng, path, counts)
    os.remove(path)
    return counts


def test_random_frames_and_maps_round_trip(tmp_path):
    total = Counter()
    for seed in TIER1_SEEDS:
        total += run_seed(seed, str(tmp_path))
    assert total["flips"] == total["maps"] == 20 * len(TIER1_SEEDS), total
    assert all(total[f"width {w}"] for w in range(9)), total


if __name__ == "__main__":
    first, count = (int(a) for a in sys.argv[1:3])
    with tempfile.TemporaryDirectory(prefix="cobble-codec-") as work:
        for seed in range(first, first + count):
            print(f"seed {seed}: {dict(run_seed(seed, work))}", flush=True)
