"""Effect algebra: pinned examples plus randomized law checks."""

import random

import pytest

from cobble.effects import (
    IDENTITY,
    ConcurrentSet,
    Effect,
    StampedEffect,
    apply,
    collapse,
    decode_effect,
    encode_effect,
    evaluate,
    merge_sets,
    wrap_i64,
)

I64_MIN = -(2 ** 63)
I64_MAX = 2 ** 63 - 1


def se(ct: int, eff: Effect, txn_id: str | None = None) -> StampedEffect:
    return StampedEffect(ct, txn_id or f"t{ct}", eff)


class TestPinnedValues:
    def test_assign_then_incr_acts_as_assign_three(self):
        out = apply(Effect.assign(2), Effect.incr(1))
        assert out == Effect(2, 1)
        assert out.is_assignment
        # an assignment-class effect lands on 3 from any starting point
        for pre in (0, 100, -7, I64_MIN):
            assert evaluate(out, pre) == 3

    def test_identity_is_neutral_on_both_sides(self):
        for e in (Effect.assign(5), Effect.incr(-3), IDENTITY, Effect(7, 2)):
            assert apply(IDENTITY, e) == e
            assert apply(e, IDENTITY) == e

    def test_collapse_two_concurrent_increments(self):
        s = ConcurrentSet.of(se(1, Effect.incr(1)), se(2, Effect.incr(3)))
        assert collapse(s) == Effect(None, 4)

    def test_collapse_singleton_assignment(self):
        assert collapse(ConcurrentSet.of(se(5, Effect.assign(7)))) == Effect(7, 0)

    def test_collapse_assign_assign_incr(self):
        # LWW picks the ct=3 assignment; the concurrent increment survives;
        # the losing assignment disappears entirely
        s = ConcurrentSet.of(
            se(1, Effect.assign(2)), se(3, Effect.assign(9)), se(2, Effect.incr(5)))
        assert collapse(s) == Effect(9, 5)

    def test_evaluate_pinned(self):
        assert evaluate(Effect(2, 1), 100) == 3
        for x in (0, 41, -9):
            assert evaluate(Effect(None, 0), x) == x
        assert evaluate(Effect(None, 10), 5) == 15

    def test_evaluate_defaults_to_empty_state_zero(self):
        assert evaluate(Effect.incr(10)) == 10

    def test_collapse_empty_set_is_a_caller_bug(self):
        with pytest.raises(ValueError):
            collapse(ConcurrentSet())


class TestWrapping:
    def test_wrap_i64_bounds(self):
        assert wrap_i64(I64_MAX) == I64_MAX
        assert wrap_i64(I64_MAX + 1) == I64_MIN
        assert wrap_i64(I64_MIN - 1) == I64_MAX
        assert wrap_i64(2 ** 64) == 0

    def test_apply_wraps(self):
        out = apply(Effect.assign(I64_MAX), Effect.incr(1))
        assert evaluate(out, 0) == I64_MIN

    def test_constructor_normalizes(self):
        assert Effect(None, I64_MAX + 2).delta == I64_MIN + 1
        assert Effect(2 ** 64 + 5, 0).base == 5


class TestApplyLaws:
    def _random_effect(self, rng: random.Random) -> Effect:
        grid = [0, 1, -1, 2, 17, -40, I64_MAX, I64_MIN, 12345]
        base = None if rng.random() < 0.5 else rng.choice(grid)
        return Effect(base, rng.choice(grid))

    def test_associativity_random(self):
        rng = random.Random(101)
        for _ in range(2000):
            e1, e2, e3 = (self._random_effect(rng) for _ in range(3))
            assert apply(apply(e1, e2), e3) == apply(e1, apply(e2, e3))

    def test_assignment_absorbs_history(self):
        rng = random.Random(102)
        for _ in range(500):
            prior = self._random_effect(rng)
            assign = Effect(rng.randrange(-50, 50), 0)
            assert apply(prior, assign) == assign

    def test_evaluate_homomorphism(self):
        # evaluating a composition equals evaluating step by step
        rng = random.Random(103)
        for _ in range(2000):
            e1, e2 = self._random_effect(rng), self._random_effect(rng)
            for pre in (0, 7, -3):
                assert evaluate(apply(e1, e2), pre) == evaluate(e2, evaluate(e1, pre))


class TestMergeSets:
    def _random_set(self, rng: random.Random, pool) -> ConcurrentSet:
        return ConcurrentSet(rng.sample(pool, rng.randint(0, len(pool))))

    def _pool(self, rng: random.Random):
        out = []
        for ct in range(8):
            base = None if rng.random() < 0.5 else rng.randrange(-9, 9)
            out.append(se(ct, Effect(base, rng.randrange(-9, 9))))
        return out

    def test_idempotent(self):
        x = ConcurrentSet.of(se(1, Effect.incr(1)))
        assert merge_sets(x, x) == x

    def test_commutative(self):
        x = ConcurrentSet.of(se(1, Effect.incr(1)))
        y = ConcurrentSet.of(se(2, Effect.assign(4)))
        merged = merge_sets(x, y)
        assert merged == merge_sets(y, x)
        assert len(merged) == 2

    def test_aci_random(self):
        rng = random.Random(104)
        for _ in range(1000):
            pool = self._pool(rng)
            a, b, c = (self._random_set(rng, pool) for _ in range(3))
            assert merge_sets(a, b) == merge_sets(b, a)
            assert merge_sets(merge_sets(a, b), c) == merge_sets(a, merge_sets(b, c))
            assert merge_sets(a, a) == a

    def test_collapse_invariant_under_merge_order(self):
        rng = random.Random(105)
        for _ in range(1000):
            pool = self._pool(rng)
            a, b = self._random_set(rng, pool), self._random_set(rng, pool)
            if len(merge_sets(a, b)) == 0:
                continue
            assert collapse(merge_sets(a, b)) == collapse(merge_sets(b, a))

    def test_collapse_invariant_under_grouping(self):
        rng = random.Random(106)
        for _ in range(500):
            pool = self._pool(rng)
            a, b, c = (self._random_set(rng, pool) for _ in range(3))
            whole = merge_sets(merge_sets(a, b), c)
            if len(whole) == 0:
                continue
            assert collapse(whole) == collapse(merge_sets(a, merge_sets(b, c)))


class TestEncoding:
    def test_round_trip(self):
        for e in (Effect(None, 0), Effect(None, -5), Effect(3, 4),
                  Effect(I64_MIN, I64_MAX)):
            buf = encode_effect(e)
            got, off = decode_effect(buf)
            assert got == e
            assert off == len(buf)

    def test_layout(self):
        # 1 tag byte, optional 8-byte LE base, 8-byte LE delta
        assert encode_effect(Effect(None, 1)) == b"\x00" + (1).to_bytes(8, "little")
        assert encode_effect(Effect(2, 1)) == (
            b"\x01" + (2).to_bytes(8, "little") + (1).to_bytes(8, "little"))
