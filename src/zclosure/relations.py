"""Multiplicative relation lattices among rational eigenvalues.

The lattice {k : prod lambda_i^(k_i) = 1} is computed exactly by factoring
the eigenvalues and taking one integer kernel: one row of exponents per
prime, and one sign row that makes the number of negative factors even.
Each basis row turns into one binomial of the diagonal closure.
"""

from .errors import ResourceLimit
from .linalg import integer_kernel
from .poly import Ideal, Poly
from ._rat import rat

__all__ = [
    "factor_rational",
    "rational_relation_lattice",
    "lattice_to_binomial_ideal",
]

# Trial divisors run up to FACTOR_BOUND, so a cofactor left below its square is
# prime.  Each division is charged the bit length of the value divided, up to
# FACTOR_WORK_BITS per integer: about half a second, or every trial division
# of a 1500-bit value.
FACTOR_BOUND = 10**6
FACTOR_WORK_BITS = 5 * 10**8


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


def rational_relation_lattice(values):
    """Saturated HNF basis rows of {k in Z^n : prod values_i^(k_i) = 1}.

    The kernel is taken in coordinates (k, t): one row of exponents per
    prime, and the sign row sum_i k_i [values_i < 0] + 2 t = 0.  Since t is
    fixed by k, dropping it leaves the HNF basis of the lattice itself.
    """
    values = [rat(v) for v in values]
    if any(not v for v in values):
        raise ValueError("eigenvalues must be nonzero")
    factored = [factor_rational(v) for v in values]
    primes = sorted({p for _, exps in factored for p in exps})
    rows = [[exps.get(p, 0) for _, exps in factored] + [0] for p in primes]
    rows.append([int(sign < 0) for sign, _ in factored] + [2])
    return [row[:-1] for row in integer_kernel(rows)]


def lattice_to_binomial_ideal(rows, n) -> Ideal:
    """One binomial x^(k+) - x^(k-) per basis row, in n diagonal coordinates."""
    gens = []
    for row in rows:
        pos = tuple(max(e, 0) for e in row)
        neg = tuple(max(-e, 0) for e in row)
        if pos == neg:
            continue
        gens.append(Poly(n, {pos: 1, neg: -1}))
    return Ideal(n, gens)
