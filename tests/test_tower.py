import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from zclosure import tower
from zclosure.tower import (
    _lift,
    _lval_add,
    _normalize,
    _ln2_bounds,
    DEFAULT_EXACT_BITS,
    TowerNumber,
    ln_bounds,
    log2_bounds,
    tower_add,
    tower_cmp,
    tower_exact,
    tower_fact,
    tower_max,
    tower_mul,
    tower_pow,
)

mpmath.mp.dps = 60


class TestLogBounds:
    def test_ln_close_to_truth(self):
        rng = random.Random(31)
        for _ in range(60):
            q = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            lo, hi = ln_bounds(q, 64)
            truth = mpmath.log(mpmath.mpf(q.numerator) / q.denominator)
            assert lo <= hi
            assert hi - lo <= Fraction(1, 2**60)
            assert float(lo) == pytest.approx(float(truth), abs=1e-12)

    def test_ln_one(self):
        assert ln_bounds(1) == (0, 0)

    def test_log2_exact_on_powers(self):
        assert log2_bounds(2) == (1, 1)
        assert log2_bounds(1024) == (10, 10)
        assert log2_bounds(Fraction(1, 8)) == (-3, -3)

    def test_log2_exact_enclosure(self):
        # 2^lo <= q <= 2^hi verified by exact integer powers at modest bits
        for q in (3, 5, 100, Fraction(7, 3)):
            lo, hi = log2_bounds(q, 16)
            assert lo <= hi and hi - lo <= Fraction(1, 2**12)
            assert 2 ** lo.numerator <= (
                Fraction(q) ** lo.denominator
            ), "lower bound breached"
            assert Fraction(q) ** hi.denominator <= 2**hi.numerator, "upper bound breached"

    def test_ln_exact_enclosure(self):
        # e is irrational; certify via 2^(lo/ln2) style cross checks in log2
        lo2, hi2 = log2_bounds(3, 16)
        lo, hi = ln_bounds(3, 16)
        l2lo, l2hi = ln_bounds(2, 16)
        # ln(3) = log2(3) ln(2): the two routes must overlap
        assert lo <= hi2 * l2hi and lo2 * l2lo <= hi

    def test_huge_argument(self):
        lo, hi = log2_bounds(Fraction(3) ** 100000, 64)
        truth = 100000 * mpmath.log(mpmath.mpf(3)) / mpmath.log(mpmath.mpf(2))
        assert hi - lo <= Fraction(1, 2**60)
        assert float(lo) == pytest.approx(float(truth), abs=1e-9)


def _ln_enclosure(value: Fraction, prec: int):
    """[lo, hi] Fractions around ln(value), by mpmath interval arithmetic."""
    saved, mpmath.iv.prec = mpmath.iv.prec, prec
    try:
        t = mpmath.iv.log(mpmath.iv.mpf(value.numerator) / value.denominator)
    finally:
        mpmath.iv.prec = saved
    return tuple((-1) ** sign * Fraction(man) * Fraction(2) ** exp for sign, man, exp, _ in t._mpi_)


def _log_arguments():
    rng = random.Random(16)
    qs = [
        Fraction(rng.randint(1, 10 ** rng.randint(1, 40)), rng.randint(1, 10 ** rng.randint(1, 40)))
        for _ in range(400)
    ]
    return qs + [
        Fraction(3) ** 1000,
        Fraction(3) ** -700,
        Fraction(2**64 + 1, 2**64),
        Fraction(2**64 - 1, 2**64),
        Fraction(2**200 + 1),
        Fraction(2**200 - 1),
    ]


class TestLogEnclosure:
    """ln_bounds, log2_bounds and _ln2_bounds enclose the value certified by
    mpmath intervals at 2000 bits, and are at most 2 ulps wide at bits."""

    @pytest.mark.parametrize("bits", [16, 64, 128])
    def test_ln_and_log2_enclose(self, bits):
        ulps2 = Fraction(2, 1 << bits)
        for q in _log_arguments():
            if q == 1:
                continue
            true_lo, true_hi = _ln_enclosure(q, 2000)
            lo, hi = ln_bounds(q, bits)
            assert lo <= true_lo and true_hi <= hi and hi - lo <= ulps2, q
            if q.numerator & (q.numerator - 1) == q.denominator & (q.denominator - 1) == 0:
                continue  # exact, checked below
            true_lo, true_hi = _iterated_log2_enclosure(q, 1, 2000)
            lo, hi = log2_bounds(q, bits)
            assert lo <= true_lo and true_hi <= hi and hi - lo <= ulps2, q
        true_lo, true_hi = _ln_enclosure(Fraction(2), 2000)
        lo, hi = _ln2_bounds(bits)
        assert lo <= true_lo and true_hi <= hi and hi - lo <= ulps2
        assert (lo * (1 << bits)).denominator == (hi * (1 << bits)).denominator == 1

    def test_fixed_point_kernel_encloses(self):
        # the atanh series' own bound, before any guard bits are shifted off
        rng = random.Random(7)
        for p in (8, 16, 64, 200):
            for _ in range(100):
                den = rng.randint(3, 2**p)
                num = rng.randint(0, den // 3)
                lo, hi = tower._atanh_fixed(num, den, p)
                # atanh(u) = ln((1 + u) / (1 - u)) / 2
                true_lo, true_hi = _ln_enclosure(Fraction(den + num, den - num), 2000)
                assert lo <= true_lo * 2 ** (p - 1) and true_hi * 2 ** (p - 1) <= hi
                assert hi - lo <= p + 4

    def test_log2_exact_on_powers_of_two(self):
        for k in (0, 1, 63, 64, 65, 1000):
            for bits in (16, 64, 128):
                assert log2_bounds(Fraction(2) ** k, bits) == (k, k)
                assert log2_bounds(Fraction(2) ** -k, bits) == (-k, -k)
        assert log2_bounds(Fraction(2) ** 10**5) == (10**5, 10**5)


class TestConstruction:
    def test_collapse_small_pow(self):
        t = tower_pow(9, 4096)
        assert t.is_exact and t.value == 9**4096

    def test_symbolic_above_threshold(self):
        t = tower_pow(2, tower_pow(2, 75))
        assert t.kind == "pow"
        assert t.exp.is_exact  # 2^75 itself collapses

    def test_threshold_is_configurable(self, monkeypatch):
        # tower_pow and tower_fact read DEFAULT_EXACT_BITS at call time
        monkeypatch.setattr(tower, "DEFAULT_EXACT_BITS", 10)
        big = tower_pow(3, 10**6)
        assert big.kind == "pow"
        small = tower_pow(3, 4)
        assert small.is_exact and small.value == 81
        assert tower_fact(10).kind == "factorial"

    def test_factorial_collapse(self):
        assert tower_fact(50).value == math.factorial(50)
        assert tower_fact(10**9).kind == "factorial"

    def test_mul_add_flatten(self):
        t = tower_mul(2, tower_mul(3, tower_fact(10**9)))
        assert t.kind == "mul" and t.coeff == 6
        s = tower_add(1, tower_add(2, tower_fact(10**9)))
        assert s.kind == "add" and s.const == 3

    def test_pow_identities(self):
        assert tower_pow(7, 0) == tower_exact(1)
        assert tower_pow(7, 1) == tower_exact(7)
        assert tower_pow(1, tower_fact(10**9)) == tower_exact(1)

    def test_structural_equality_sorts_factors(self):
        a = tower_fact(10**9)
        b = tower_pow(3, tower_pow(2, 99))
        assert tower_mul(a, b) == tower_mul(b, a)


def _undecided_pair():
    """2^(2E) and 3 * 2^E * 2^E for E = (10^9)!, which no interval
    precision separates."""
    e = tower_fact(10**9)
    return tower_pow(2, tower_mul(2, e)), tower_mul(3, tower_pow(2, e), tower_pow(2, e))


class TestComparison:
    def test_exact_consistency_randomized(self):
        rng = random.Random(33)
        for _ in range(80):
            x = rng.randint(1, 10**6)
            y = rng.randint(1, 10**6)
            want = (x > y) - (x < y)
            assert tower_cmp(tower_exact(x), tower_exact(y)) == want
            # the same values built symbolically must compare the same way
            sx = TowerNumber("pow", base=tower_exact(x), exp=tower_exact(3))
            sy = TowerNumber("pow", base=tower_exact(y), exp=tower_exact(3))
            if x != y:
                assert tower_cmp(sx, sy) == want

    def test_symbolic_vs_exact(self):
        big = tower_pow(2, tower_pow(2, 75))
        assert tower_cmp(big, tower_exact(10**100)) == 1
        assert tower_cmp(tower_exact(10**100), big) == -1

    def test_factorial_vs_power(self):
        # 2^(2^75) dwarfs (10^9)!  since log2((10^9)!) ~ 3e10 << 2^75
        fact = tower_fact(10**9)
        pw = tower_pow(2, tower_pow(2, 75))
        assert tower_cmp(fact, pw) == -1

    def test_shared_structure_cancellation(self):
        f = tower_fact(tower_pow(11, tower_pow(2, 80)))
        a = tower_mul(2, f)
        b = tower_mul(3, f)
        assert tower_cmp(a, b) == -1
        assert tower_cmp(tower_add(f, 1), f) == 1
        assert tower_cmp(tower_pow(f, 3), tower_pow(f, 4)) == -1

    def test_max(self):
        a = tower_exact(5)
        b = tower_fact(10**9)
        assert tower_max(a, b) == b

    def test_max_undecided_is_upper_bound(self):
        # 2^(2E) < 3 * 2^E * 2^E, but no interval precision separates them
        a, b = _undecided_pair()
        assert tower_cmp(a, b) == 0
        assert tower_max(a, b) == tower_add(a, b)
        assert tower_max(b, a) == tower_add(a, b)

    def test_one_interval_attempt(self, monkeypatch):
        # an undecided pair is tried once at COMPARE_BITS, not again at
        # higher precision
        calls = []
        inner = tower._cmp_intervals

        def counted(a, b):
            calls.append((a, b))
            return inner(a, b)

        monkeypatch.setattr(tower, "_cmp_intervals", counted)
        assert tower_cmp(*_undecided_pair()) == 0
        assert len(calls) == 1

    def test_fractional_powers_stay_level_one(self):
        # 2^(1/2) is bounded by log2 of it, 1/2, not by an interval
        # rounded out to integer powers of two
        root2 = tower_pow(2, Fraction(1, 2))
        assert root2.kind == "pow"
        got = [tower_cmp(root2, tower_exact(q)) for q in (1, Fraction(7, 5), Fraction(3, 2), 2)]
        assert got == [1, 1, -1, -1]
        assert tower_cmp(tower_pow(3, Fraction(1, 2)), root2) == 1

    def test_no_order_operators(self):
        # tower_cmp reports an undecided pair as 0, so an order operator built
        # on it would call a <= b and a >= b both true on the undecided pair
        a, b = _undecided_pair()
        with pytest.raises(TypeError):
            a <= b

    def test_total_order_small_sample(self):
        values = [
            tower_exact(3),
            tower_exact(1000),
            tower_fact(10**9),
            tower_pow(2, tower_pow(2, 75)),
            tower_pow(3, tower_pow(2, 80)),
        ]
        # pairwise consistent and transitively ordered
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                assert tower_cmp(a, b) == -tower_cmp(b, a)
                if i < j:
                    assert tower_cmp(a, b) == -1


def _iterated_log2_enclosure(value: Fraction, k: int, prec: int):
    """[lo, hi] Fractions around log2^k(value), by mpmath interval arithmetic."""
    saved, mpmath.iv.prec = mpmath.iv.prec, prec
    try:
        t = mpmath.iv.mpf(value.numerator) / value.denominator
        for _ in range(k):
            t = mpmath.iv.log(t) / mpmath.iv.log(2)
    finally:
        mpmath.iv.prec = saved
    lo, hi = ((-1) ** sign * Fraction(man) * Fraction(2) ** exp for sign, man, exp, _ in t._mpi_)
    return lo, hi


def _leveled(value: Fraction, k: int):
    lv = _normalize((0, value, value))
    while lv[0] < k:
        lv = _lift(lv)
    return lv


@st.composite
def summands(draw):
    """x >= y >= 4, so log2^3 of both is defined, from close to far apart."""
    q = draw(st.integers(1, 2**16))
    y = Fraction(4 * q + draw(st.integers(0, 2**64)), q)
    z = Fraction(draw(st.integers(0, 2**64)), draw(st.integers(1, 2**16)))
    x = y + z * 2 ** draw(st.integers(0, 3000))
    return x, y, draw(st.integers(0, 3))


class TestLeveledSum:
    @settings(max_examples=100, deadline=None)
    @given(summands())
    @example((Fraction(2**16), Fraction(16), 3))
    @example((Fraction(2**16), Fraction(16), 2))
    @example((Fraction(2**100), Fraction(3 * 2**90), 3))
    def test_encloses_iterated_log_of_sum(self, case):
        # log2^3(2^16 + 16) = 2 + 2^-16.4: a fixed 2^-20 margin is too small
        x, y, k = case
        level, lo, hi = _lval_add(_leveled(x, k), _leveled(y, k))
        true_lo, true_hi = _iterated_log2_enclosure(x + y, level, 2 * tower.COMPARE_BITS + 64)
        assert lo <= true_hi and true_lo <= hi
