import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from zclosure.errors import ResourceLimit
from zclosure.poly import Poly, ideal_member
from zclosure.bounds import masser_box_bound
from zclosure.relations import (
    factor_rational,
    lattice_to_binomial_ideal,
    rational_relation_lattice,
)
from zclosure.tower import tower_exact
from zclosure._rat import rat


class TestFactor:
    def test_small(self):
        assert factor_rational(rat(12)) == (1, {2: 2, 3: 1})

    def test_fraction(self):
        assert factor_rational(rat(-9, 10)) == (-1, {2: -1, 3: 2, 5: -1})

    def test_one(self):
        assert factor_rational(rat(1)) == (1, {})

    def test_large_prime_rejected(self):
        # no prime factor below FACTOR_BOUND, and the cofactor is above its square
        with pytest.raises(ResourceLimit, match="trial-division bound"):
            factor_rational(rat((10**9 + 7) ** 2 * (10**9 + 9)))

    def test_leftover_prime_accepted(self):
        # a prime above the last trial divisor squared but below FACTOR_BOUND^2
        # is left over after every trial division and is still exact
        assert factor_rational(rat(999999999989)) == (1, {999999999989: 1})

    def test_work_budget(self):
        # 10^100000 = 2^100000 5^100000: each division costs its 332k bits
        with pytest.raises(ResourceLimit, match="work budget"):
            factor_rational(rat(10**100000))


def lattice_rows(values):
    return rational_relation_lattice(values)


class TestRelationLattice:
    def test_height_example(self):
        # (2^p, 1/2) with p = 5: single relation (2^p)^1 (1/2)^5 = 1
        assert lattice_rows([rat(32), rat(1, 2)]) == [[1, 5]]

    def test_independent_primes(self):
        assert lattice_rows([rat(2), rat(3)]) == []

    def test_four_eight(self):
        rows = lattice_rows([rat(4), rat(8)])
        assert rows == [[3, -2]]
        assert rat(4) ** 3 * rat(8) ** -2 == 1

    def test_zero_refused(self):
        with pytest.raises(ValueError, match="eigenvalues must be nonzero"):
            rational_relation_lattice([rat(2), rat(0)])

    def test_minus_one(self):
        assert lattice_rows([rat(-1)]) == [[2]]

    def test_sign_mixing(self):
        # (-2, 2): magnitude kernel is (1, -1); sign forces doubling
        rows = lattice_rows([rat(-2), rat(2)])
        for row in rows:
            assert rat(-2) ** row[0] * rat(2) ** row[1] == 1
        assert rows == [[2, -2]]

    def test_soundness_on_powers(self):
        rng = random.Random(41)
        for _ in range(25):
            values = [
                rat(rng.choice([1, -1]) * rng.randint(1, 8), rng.randint(1, 8))
                for _ in range(rng.choice([1, 2, 3]))
            ]
            rows = lattice_rows(values)
            for row in rows:
                for t in range(-3, 4):
                    prod = rat(1)
                    for v, e in zip(values, row):
                        prod *= v ** (e * t)
                    assert prod == 1

    def test_saturation_bruteforce(self):
        # no relation with |k_i| <= 12 outside the lattice the basis generates
        rng = random.Random(42)
        for _ in range(12):
            n = rng.choice([2, 3])
            values = [
                rat(rng.choice([1, -1]) * rng.randint(1, 8), rng.randint(1, 8))
                for _ in range(n)
            ]
            rows = lattice_rows(values)
            span = {tuple(0 for _ in range(n))}
            if rows:
                reach = 13 * n
                for coeffs in itertools.product(range(-reach, reach + 1), repeat=len(rows)):
                    vec = tuple(
                        sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(n)
                    )
                    if all(abs(x) <= 12 for x in vec):
                        span.add(vec)
            for k in itertools.product(range(-12, 13), repeat=n):
                prod = rat(1)
                for v, e in zip(values, k):
                    prod *= v**e
                if prod == 1:
                    assert k in span, (values, k, rows)

    def test_permutation_equivariance(self):
        values = [rat(4), rat(-6), rat(9)]
        rows = set(map(tuple, lattice_rows(values)))
        perm = [2, 0, 1]
        permuted_rows = rational_relation_lattice([values[i] for i in perm])
        # permuting eigenvalues permutes coordinates: same lattice after unpermuting
        unpermuted = set()
        for row in permuted_rows:
            vec = [0, 0, 0]
            for pos, orig in enumerate(perm):
                vec[orig] = row[pos]
            unpermuted.add(tuple(vec))
        from zclosure.linalg import row_hnf

        assert row_hnf([list(r) for r in rows]) == row_hnf([list(r) for r in unpermuted])


class TestBinomialIdeal:
    def test_height_example_binomial(self):
        ideal = lattice_to_binomial_ideal(rational_relation_lattice([rat(32), rat(1, 2)]), 2)
        x1 = Poly.variable(0, 2)
        x2 = Poly.variable(1, 2)
        assert len(ideal.generators) == 1
        assert ideal.generators[0] == x1 * x2**5 - 1

    def test_empty_lattice(self):
        ideal = lattice_to_binomial_ideal(rational_relation_lattice([rat(2), rat(3)]), 2)
        assert ideal.is_zero()

    def test_split_parts(self):
        ideal = lattice_to_binomial_ideal(rational_relation_lattice([rat(4), rat(8)]), 2)
        x1 = Poly.variable(0, 2)
        x2 = Poly.variable(1, 2)
        assert ideal.generators[0] == x1**3 - x2**2

    def test_binomials_vanish_on_orbit(self):
        values = [rat(-2), rat(4), rat(1, 2)]
        ideal = lattice_to_binomial_ideal(rational_relation_lattice(values), 3)
        for t in range(-3, 4):
            point = [v**t for v in values]
            for g in ideal.generators:
                assert g.evaluate(point) == 0


class TestMasserBox:
    def test_n1_convention(self):
        assert masser_box_bound(1, 2, 1, 1) == tower_exact(1)
        assert masser_box_bound(1, 2, 20, 1) == tower_exact(1)

    def test_monotone_in_h(self):
        a = masser_box_bound(2, 4, 2, 1)
        b = masser_box_bound(2, 16, 2, 1)
        assert a.value <= b.value

    def test_golden_value(self):
        # ceil(2 ln2 * 2 * (ln 4)^3 / (lnln 4)^2): high precision value
        # 69.2354... (mpmath, 60 digits), so the exact ceiling is 70
        mpmath.mp.dps = 40
        truth = (
            (2 * mpmath.log(2))
            * 2
            * mpmath.log(4) ** 3
            / mpmath.log(mpmath.log(4)) ** 2
        )
        assert mpmath.floor(truth) == 69
        assert masser_box_bound(2, 2, 2, 1) == tower_exact(70)
