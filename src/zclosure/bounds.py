"""Exact evaluation of the closed-form degree and chain-length bounds.

Each function composes its formula exactly over TowerNumbers, so values
collapse to integers when feasible and otherwise stay symbolic.  The
one-formula headline version of the closure degree bound involves an
unspecified polynomial, so only the exact composed form is computed.
"""

import math
from fractions import Fraction

from .tower import (
    TowerNumber,
    tower_exact,
    tower_pow,
    tower_fact,
    tower_mul,
    tower_add,
    tower_max,
    log2_bounds,
    ln_bounds,
)
from ._rat import rat
from .errors import ResourceLimit

__all__ = [
    "BoundReport",
    "semisimple_index_bound",
    "unipotent_degree_bound",
    "general_index_bound",
    "elimination_degree_bound",
    "quotient_embedding_bounds",
    "masser_lattice_bound",
    "masser_box_bound",
    "schreier_height_bound",
    "closure_degree_bound",
    "chain_bounds",
    "finite_subgroup_order_bound",
]

# Largest bit size of the exact Schreier height base h^(n^3+n^2) n! n (n = 79
# with h = 3 fits); the log bounds and the output of the composed closure
# bound grow with it, to 31 s at n = 100, h = 9.
MAX_SCHREIER_BASE_BITS = 10**6


class BoundReport:
    """Named bound values plus the inputs they were computed from."""

    __slots__ = ("params", "bounds")

    def __init__(self, params, bounds):
        self.params = dict(params)
        self.bounds = dict(bounds)

    def __eq__(self, other):
        return (
            isinstance(other, BoundReport)
            and self.params == other.params
            and self.bounds == other.bounds
        )

    def __getitem__(self, name):
        return self.bounds[name]

    def pretty(self):
        lines = ["params: " + ", ".join(f"{k}={v}" for k, v in self.params.items())]
        memo = {}  # one for the report: a node shared by several bounds is rendered once
        for name, value in self.bounds.items():
            lines.append(f"  {name} = {value.pretty(memo)}")
        return "\n".join(lines)

    def __repr__(self):
        return f"BoundReport({self.params}, {{{', '.join(self.bounds)}}})"


def semisimple_index_bound(n: int) -> TowerNumber:
    """(2 (n^2+1)^2)!  -- index bound for the semisimple (pistil) case."""
    _check_n(n)
    return tower_fact(2 * (n * n + 1) ** 2)


def unipotent_degree_bound(n: int) -> TowerNumber:
    """(n^3+1)^(2^(3 n^2)) -- degree bound for unipotent-generated closures."""
    _check_n(n)
    inner = tower_pow(2, 3 * n * n)
    return tower_pow(n**3 + 1, inner)


def general_index_bound(n: int) -> TowerNumber:
    """(2 [(n^2+D)^(4D^2) + 1]^2)! with D the unipotent degree bound."""
    return _general_index(n, unipotent_degree_bound(n))


def _general_index(n, d):
    """general_index_bound(n) from its unipotent degree bound d."""
    power = tower_pow(tower_add(n * n, d), tower_mul(4, d, d))
    inner = tower_mul(2, tower_pow(tower_add(power, 1), 2))
    return tower_fact(inner)


def elimination_degree_bound(d: int, n_vars: int) -> TowerNumber:
    """(d+1)^(2^n_vars) -- elimination-ideal degree growth."""
    if d < 1 or n_vars < 0:
        raise ValueError("need d >= 1 and n_vars >= 0")
    return tower_pow(d + 1, tower_pow(2, n_vars))


def quotient_embedding_bounds(n: int, d: int):
    """(dimension bound, map degree bound) for the quotient homomorphism."""
    _check_n(n)
    if d < 1:
        raise ValueError("need d >= 1")
    p_bound = tower_pow(n * n + d, 2 * d * d)
    map_degree = tower_mul(d, tower_pow(n * n + d, 2 * d * d + 1))
    return p_bound, map_degree


def _log_upper(value, base):
    """Exact Fraction upper bound of log_base(value); exact when possible."""
    if base == 2:
        return log2_bounds(value)[1]
    num = ln_bounds(value)
    den = ln_bounds(base)
    cands = [num[0] / den[0], num[0] / den[1], num[1] / den[0], num[1] / den[1]]
    return max(cands)


def _tower_log(t: TowerNumber, base: int) -> TowerNumber:
    """log_base of a tower as a TowerNumber (rational upper bound at leaves)."""
    if t.is_exact:
        lu = _log_upper(t.value, base)
        if lu <= 0:
            raise ValueError("logarithm of a value <= 1 in a bound formula")
        return tower_exact(lu)
    if t.kind == "pow":
        return tower_mul(t.exp, _tower_log(t.base, base))
    if t.kind == "mul":
        parts = [_tower_log(f, base) for f in t.factors]
        if t.coeff != 1:
            parts.append(tower_exact(_log_upper(t.coeff, base)))
        return tower_add(*parts)
    raise ValueError(f"cannot take an exact symbolic log of a {t.kind} node")


def masser_lattice_bound(n: int, h, c=1, log_base: int = 2) -> TowerNumber:
    """(c n^7 n! log h)^n, rounded up when it evaluates exactly.

    h may be an integer (>= 2) or a TowerNumber; the log base (>= 2) defaults
    to 2 and logs are evaluated as rational upper bounds when irrational.
    """
    _check_n(n)
    c = _positive_constant(c)
    if log_base < 2:
        raise ValueError("need log_base >= 2")
    prefix = c * n**7 * math.factorial(n)
    if isinstance(h, TowerNumber) and not h.is_exact:
        log_h = _tower_log(h, log_base)
        return tower_pow(tower_mul(tower_exact(prefix), log_h), n)
    value = h.value if isinstance(h, TowerNumber) else Fraction(int(h))
    if value < 2:
        raise ValueError("need h >= 2")
    log_h = _log_upper(value, log_base)
    return tower_exact(math.ceil((prefix * log_h) ** n))


def masser_box_bound(n: int, h: int, D: int, c=1) -> TowerNumber:
    """Entry bound for a generating set of the relation lattice.

    (c n ln h)^(n-1) D^(n-1) (ln(D+2))^(3n-3) / (lnln(D+2))^(3n-4),
    rounded up, with natural logs replaced by rational bounds in the
    direction that preserves the upper bound.  n = 1 gives 1 (all factor
    groups are empty products).
    """
    if n < 1 or h < 2 or D < 1:
        raise ValueError("need n >= 1, h >= 2, D >= 1")
    c = _positive_constant(c)
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


def schreier_height_bound(n: int, h: int) -> TowerNumber:
    """(h^(n^3+n^2) n! n)^(2 j + 1) with j the general index bound.

    Bounds the entry heights of Schreier words of the length the index
    bound allows.  Raises ResourceLimit before building the base when its
    bit size, estimated with n! <= n^n, exceeds MAX_SCHREIER_BASE_BITS.
    """
    _check_n(n)
    if h < 1:
        raise ValueError("need h >= 1")
    return _schreier_height(n, h, tower_add(tower_mul(2, general_index_bound(n)), 1))


def _schreier_height(n, h, two_j_plus_1):
    """schreier_height_bound(n, h) from 2 j + 1, j the general index bound,
    for checked n and h."""
    bits = (n**3 + n * n) * h.bit_length() + (n + 1) * n.bit_length()
    if bits > MAX_SCHREIER_BASE_BITS:
        raise ResourceLimit(
            f"Schreier height base of about {bits} bits exceeds the limit {MAX_SCHREIER_BASE_BITS}"
        )
    return tower_pow(h ** (n**3 + n * n) * math.factorial(n) * n, two_j_plus_1)


def closure_degree_bound(n: int, h: int, s: int, c=1, log_base: int = 2) -> BoundReport:
    """The composed degree bound for a closure with |S| = s generators.

    Composes the pipeline exactly: the Schreier word count, the height
    blow-up of those words, the per-generator eigenvalue-lattice degree,
    its max with the unipotent degree, and the final coset-union bound
    (d+1)^(2^((count+2)(n^2+1) j)) with j the general index bound.
    """
    d = unipotent_degree_bound(n)
    return _closure_degree(n, h, s, c, log_base, d, _general_index(n, d))


def _closure_degree(n, h, s, c, log_base, unipotent, jp):
    """closure_degree_bound(n, h, s, c, log_base) from the unipotent degree
    bound and the general index bound jp of a checked n."""
    if h < 2 or s < 1:
        raise ValueError("need h >= 2 and s >= 1")
    two_jp_plus_1 = tower_add(tower_mul(2, jp), 1)
    ell = tower_pow(2 * s, two_jp_plus_1)
    h_prime = _schreier_height(n, h, two_jp_plus_1)
    f = masser_lattice_bound(n, h_prime, c, log_base=log_base)
    d = tower_max(tower_mul(n, f), unipotent)
    exponent = tower_mul(tower_add(ell, 2), n * n + 1, jp)
    final = tower_pow(tower_add(d, 1), tower_pow(2, exponent))
    return BoundReport(
        {"n": n, "h": h, "s": s, "c": str(c)},
        {
            "schreier_count": ell,
            "schreier_height": h_prime,
            "lattice_degree": f,
            "block_degree": d,
            "closure_degree": final,
        },
    )


def chain_bounds(n: int, field_degree: int = 1) -> BoundReport:
    """Length bounds for strict chains of closures in dimension n.

    semisimple: n^2 (2 (n^2+1)^2 k)!; general: n^2 p^2 (2 (p^2+1)^2 k)!
    with p the quotient dimension for the unipotent degree bound and k the
    number field degree (k = 1 reproduces the rational-case formulas).
    """
    _check_n(n)
    if field_degree < 1:
        raise ValueError("need field_degree >= 1")
    k = field_degree
    semisimple = tower_mul(n * n, tower_fact(2 * (n * n + 1) ** 2 * k))
    d = unipotent_degree_bound(n)
    p = tower_pow(tower_add(n * n, d), tower_mul(2, d, d))
    inner = tower_mul(2 * k, tower_pow(tower_add(tower_pow(p, 2), 1), 2))
    general = tower_mul(n * n, tower_pow(p, 2), tower_fact(inner))
    return BoundReport(
        {"n": n, "field_degree": k},
        {
            "semisimple": semisimple,
            "general": general,
            "quotient_dimension": p,
            "unipotent_degree": d,
        },
    )


def finite_subgroup_order_bound(p: int, field_degree: int = 1) -> TowerNumber:
    """(2 p k)! -- the order cap for finite rational (or number-field) groups."""
    if p < 1 or field_degree < 1:
        raise ValueError("need p >= 1 and field_degree >= 1")
    return tower_fact(2 * p * field_degree)


def _check_n(n):
    if n < 1:
        raise ValueError("need n >= 1")


def _positive_constant(c):
    """The absolute constant c of a Masser-style formula, as a Fraction."""
    c = Fraction(int(rat(c).numerator), int(rat(c).denominator))
    if c <= 0:
        raise ValueError("the absolute constant c must be positive")
    return c
