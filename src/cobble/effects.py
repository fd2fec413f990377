"""Effect algebra for the store: assignments, increments and their composition.

An effect is (base, delta): an optional absolute assignment plus a relative
increment on top of it. Sequential composition is `apply`; sets of effects
from concurrent transactions collapse deterministically via `collapse`.
All arithmetic wraps in signed 64-bit space.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

_I64_SIGN = 1 << 63
_U64_MASK = (1 << 64) - 1

def wrap_i64(x: int) -> int:
    """Reduce x into [-2**63, 2**63) with two's-complement wrapping."""
    return ((x + _I64_SIGN) & _U64_MASK) - _I64_SIGN


@dataclass(frozen=True, slots=True)
class Effect:
    base: int | None
    delta: int

    def __post_init__(self):
        if self.base is not None:
            object.__setattr__(self, "base", wrap_i64(self.base))
        object.__setattr__(self, "delta", wrap_i64(self.delta))

    @staticmethod
    def assign(value: int) -> "Effect":
        return Effect(value, 0)

    @staticmethod
    def incr(amount: int) -> "Effect":
        return Effect(None, amount)

    @staticmethod
    def identity() -> "Effect":
        return Effect(None, 0)

    @property
    def is_assignment(self) -> bool:
        return self.base is not None

    def evaluate(self, pre: int = 0) -> int:
        """Value after this effect, given the value `pre` before it."""
        if self.base is not None:
            return wrap_i64(self.base + self.delta)
        return wrap_i64(pre + self.delta)


IDENTITY = Effect.identity()

_new = object.__new__
_set = object.__setattr__


def effect_from_i64(base: int | None, delta: int) -> Effect:
    """Effect(base, delta) for values already in signed 64-bit range, such
    as those read from an i64 column, without the constructor's wrapping
    (which makes up two thirds of its cost)."""
    eff = _new(Effect)
    _set(eff, "base", base)
    _set(eff, "delta", delta)
    return eff


def evaluate(e: Effect, pre: int = 0) -> int:
    """Value after effect e, given the value pre before it."""
    return e.evaluate(pre)


def apply(first: Effect, second: Effect) -> Effect:
    """Sequential composition: `first` happened, then `second`.

    A later assignment absorbs all earlier history; increments accumulate.
    Associative by construction.
    """
    if second.base is not None:
        return second
    if first.base is not None:
        return Effect(first.base, first.delta + second.delta)
    return Effect(None, first.delta + second.delta)


@dataclass(frozen=True, slots=True)
class StampedEffect:
    ct: int
    txn_id: str
    effect: Effect


class ConcurrentSet:
    """Effects of mutually concurrent transactions, deduplicated by (txn_id, ct)."""

    __slots__ = ("members",)

    def __init__(self, members=()):
        self.members = frozenset(members)

    @staticmethod
    def of(*stamped: StampedEffect) -> "ConcurrentSet":
        return ConcurrentSet(stamped)

    def merge(self, other: "ConcurrentSet") -> "ConcurrentSet":
        return ConcurrentSet(self.members | other.members)

    def __eq__(self, other):
        return isinstance(other, ConcurrentSet) and self.members == other.members

    def __hash__(self):
        return hash(self.members)

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return f"ConcurrentSet({sorted(self.members, key=lambda m: m.ct)!r})"


def merge_sets(a: ConcurrentSet, b: ConcurrentSet) -> ConcurrentSet:
    return a.merge(b)


def collapse(s: ConcurrentSet | frozenset | set) -> Effect:
    """Deterministic order-free collapse of one concurrent group.

    Last-writer-wins on assignments (max ct among base-bearing members);
    increments of members without a base all survive on top of the winner.
    """
    members = s.members if isinstance(s, ConcurrentSet) else frozenset(s)
    if not members:
        raise ValueError("collapse of empty concurrent set")
    winner = None
    incr_sum = 0
    for m in members:
        if m.effect.base is None:
            incr_sum += m.effect.delta
        elif winner is None or m.ct > winner.ct:
            winner = m
    if winner is None:
        return Effect(None, incr_sum)
    return Effect(winner.effect.base, winner.effect.delta + incr_sum)


# --- wire encoding -----------------------------------------------------------
# 1 tag byte: 0x00 = no base, 0x01 = base present; then optional 8-byte LE
# signed base; then 8-byte LE signed delta.

def encode_effect(e: Effect) -> bytes:
    if e.base is None:
        return b"\x00" + struct.pack("<q", e.delta)
    return b"\x01" + struct.pack("<qq", e.base, e.delta)


def decode_effect(buf: bytes, off: int = 0) -> tuple[Effect, int]:
    tag = buf[off]
    off += 1
    if tag == 0x00:
        (delta,) = struct.unpack_from("<q", buf, off)
        return Effect(None, delta), off + 8
    if tag == 0x01:
        base, delta = struct.unpack_from("<qq", buf, off)
        return Effect(base, delta), off + 16
    raise ValueError(f"bad effect tag {tag:#x}")
