"""Multiplicative relation lattices among rational eigenvalues.

The lattice {k : prod lambda_i^(k_i) = 1} is computed exactly by factoring
the eigenvalues, taking the integer kernel of the prime-exponent matrix,
and cutting down to the index <= 2 sublattice fixed by the sign condition.
Each basis row turns into one binomial of the diagonal closure.
"""

import math
from fractions import Fraction

from .errors import ResourceLimit
from .linalg import IntMatrix, integer_kernel, row_hnf
from .poly import Ideal, Poly
from .tower import TowerNumber, tower_exact, ln_bounds
from ._rat import rat

__all__ = [
    "EigenSpec",
    "RelationLattice",
    "factor_rational",
    "rational_relation_lattice",
    "lattice_to_binomial_ideal",
    "masser_box_bound",
]

# Trial divisors run up to FACTOR_BOUND, so a cofactor left below its square is
# prime.  Each division is charged the bit length of the value divided, up to
# FACTOR_WORK_BITS per integer: about half a second, or every trial division
# of a 1500-bit value.
FACTOR_BOUND = 10**6
FACTOR_WORK_BITS = 5 * 10**8


class EigenSpec:
    """A tuple of nonzero rational eigenvalues."""

    __slots__ = ("values",)

    def __init__(self, values):
        values = tuple(rat(v) for v in values)
        if any(not v for v in values):
            raise ValueError("eigenvalues must be nonzero")
        self.values = values

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return f"EigenSpec({', '.join(str(v) for v in self.values)})"


class RelationLattice:
    """Saturated basis (rows) of the multiplicative relation lattice."""

    __slots__ = ("n", "basis")

    def __init__(self, n, basis: IntMatrix):
        if basis.cols != n and basis.rows:
            raise ValueError("basis width must equal n")
        self.n = n
        self.basis = basis

    def rows(self):
        return self.basis.row_lists()

    def __eq__(self, other):
        return (
            isinstance(other, RelationLattice)
            and self.n == other.n
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"RelationLattice(n={self.n}, basis={self.basis.row_lists()})"


def factor_rational(q):
    """(sign, {prime: exponent}) of a nonzero rational, by trial division.

    Denominator primes get negative exponents.  Raises ResourceLimit when a
    factor above FACTOR_BOUND^2 remains (a leftover below that is a prime),
    and when factoring the numerator or the denominator charges more than
    FACTOR_WORK_BITS.
    """
    q = rat(q)
    if not q:
        raise ValueError("cannot factor zero")
    sign = 1 if q > 0 else -1
    exps = {}
    for value, direction in ((abs(int(q.numerator)), 1), (int(q.denominator), -1)):
        for p, e in _factor_int(value).items():
            exps[p] = exps.get(p, 0) + direction * e
    return sign, {p: e for p, e in exps.items() if e}


def _factor_int(n):
    out = {}
    work = 0
    for p in _trial_primes(FACTOR_BOUND):
        if p * p > n:
            break
        while True:
            work += n.bit_length()
            if work > FACTOR_WORK_BITS:
                raise ResourceLimit(f"trial division exceeded its work budget of {FACTOR_WORK_BITS} bits")
            if n % p:
                break
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        if n > FACTOR_BOUND * FACTOR_BOUND:
            raise ResourceLimit(
                f"prime factor of {n} exceeds the trial-division bound {FACTOR_BOUND}"
            )
        out[n] = out.get(n, 0) + 1
    return out


def _trial_primes(bound):
    yield 2
    yield 3
    k = 5
    while k <= bound:
        yield k
        yield k + 2
        k += 6


def rational_relation_lattice(spec) -> RelationLattice:
    """Basis of {k in Z^n : prod values_i^(k_i) = 1} for rational values.

    Kernel of the prime-exponent matrix intersected with the sign condition
    prod sign(v_i)^(k_i) = +1 (an index <= 2 sublattice).
    """
    if not isinstance(spec, EigenSpec):
        spec = EigenSpec(spec)
    n = len(spec)
    factored = [factor_rational(v) for v in spec.values]
    primes = sorted({p for _, exps in factored for p in exps})
    matrix = IntMatrix.from_rows(
        [[factored[i][1].get(p, 0) for i in range(n)] for p in primes]
    ) if primes else IntMatrix(0, n, [])
    magnitude = integer_kernel(matrix)
    signs = [0 if s > 0 else 1 for s, _ in factored]

    def parity(row):
        return sum(e * s for e, s in zip(row, signs)) % 2

    rows = magnitude.row_lists()
    odd = [i for i, r in enumerate(rows) if parity(r)]
    if odd:
        j = odd[0]
        fixed = []
        for i, r in enumerate(rows):
            if i == j:
                fixed.append([2 * e for e in r])
            elif parity(r):
                fixed.append([a + b for a, b in zip(r, rows[j])])
            else:
                fixed.append(r)
        rows = row_hnf(fixed)
    basis = IntMatrix.from_rows(rows) if rows else IntMatrix(0, n, [])
    return RelationLattice(n, basis)


def lattice_to_binomial_ideal(lattice: RelationLattice) -> Ideal:
    """One binomial x^(k+) - x^(k-) per basis row, in n diagonal coordinates."""
    n = lattice.n
    gens = []
    for row in lattice.rows():
        pos = tuple(max(e, 0) for e in row)
        neg = tuple(max(-e, 0) for e in row)
        if pos == neg:
            continue
        gens.append(Poly(n, {pos: 1, neg: -1}))
    return Ideal(n, gens)


def masser_box_bound(n: int, h: int, D: int, c=1) -> TowerNumber:
    """Entry bound for a generating set of the relation lattice.

    (c n ln h)^(n-1) D^(n-1) (ln(D+2))^(3n-3) / (lnln(D+2))^(3n-4),
    rounded up, with natural logs replaced by rational bounds in the
    direction that preserves the upper bound.  n = 1 gives 1 (all factor
    groups are empty products).
    """
    if n < 1 or h < 2 or D < 1:
        raise ValueError("need n >= 1, h >= 2, D >= 1")
    c = Fraction(int(rat(c).numerator), int(rat(c).denominator))
    if c <= 0:
        raise ValueError("the absolute constant c must be positive")
    if n == 1:
        return tower_exact(1)
    ln_h_hi = ln_bounds(h)[1]
    ln_d2_lo, ln_d2_hi = ln_bounds(D + 2)
    lnln_d2_lo = ln_bounds(ln_d2_lo)[0]
    if lnln_d2_lo <= 0:
        raise ValueError("D too small for the log-log denominator")
    value = (
        (c * n * ln_h_hi) ** (n - 1)
        * Fraction(D) ** (n - 1)
        * ln_d2_hi ** (3 * n - 3)
        / lnln_d2_lo ** (3 * n - 4)
    )
    return tower_exact(math.ceil(value))
