"""Exact representation of astronomically large bound values.

A TowerNumber is an exact positive real: either a rational, or a symbolic
power / factorial / product / sum over other TowerNumbers.  Nodes collapse
to exact rationals whenever the result stays below DEFAULT_EXACT_BITS
bits.  Comparisons first try exact values and structural monotone
reduction (shared subtrees cancel), then decide once on interval bounds
of iterated base-2 logarithms at COMPARE_BITS bits; a pair those
intervals do not separate stays undecided.  Tower numbers have no order
or arithmetic operators: tower_cmp reads 0 for an undecided pair, so an
order built on it would not be one.

The module also provides exact rational upper/lower bounds for ln and log2
of rationals, used by the Masser-style formulas.  They run on integer
dyadic endpoints (integers scaled by 2^-p, as in Johansson 2017, "Arb",
IEEE TC 66(8)): the exponent and mantissa of q come from bit lengths and
shifts, one atanh series runs in fixed point with at least 20 guard bits
below 2^-bits, and each endpoint is rounded outward to 2^-bits by a shift.
The comparison intervals run on the same core and stay in ints: an
endpoint is an int standing for a multiple of 2^-COMPARE_BITS, and a value
off that grid (an exact leaf, a product, the factorial's log2 e term) is
carried as an int over its own denominator until it is rounded outward
onto the grid.
"""

import functools
import math
import sys
from fractions import Fraction

# exact values legitimately reach hundreds of thousands of digits
if hasattr(sys, "set_int_max_str_digits"):
    if sys.get_int_max_str_digits() < 3_000_000:
        sys.set_int_max_str_digits(3_000_000)

__all__ = [
    "TowerNumber",
    "tower_exact",
    "tower_pow",
    "tower_fact",
    "tower_mul",
    "tower_add",
    "tower_max",
    "tower_cmp",
    "ln_bounds",
    "log2_bounds",
    "DEFAULT_EXACT_BITS",
    "COMPARE_BITS",
]

DEFAULT_EXACT_BITS = 10**6
# precision of the leveled log intervals that decide tower comparisons
COMPARE_BITS = 128

# working bits below the requested precision; they absorb the series' error
_GUARD_BITS = 20


def _atanh_fixed(num: int, den: int, p: int):
    """(lo, hi) with lo <= 2^p atanh(num/den) <= hi, for 0 <= num/den <= 1/3.

    With u = num/den, t runs over floor(2^p u^(2k+1)) one floor at a time,
    so it is below the true term by at most k + 1; each summand t // (2k+1)
    then loses at most 2, and once t = 0 the tail is at most 9/8 < 2
    (u^2 <= 1/9).
    """
    t = (num << p) // den
    num2, den2 = num * num, den * den
    total = k = 0
    while t:
        total += t // (2 * k + 1)
        t = t * num2 // den2
        k += 1
    return total, total + 2 * k + 2


@functools.cache
def _ln2_fixed(p: int):
    """(lo, hi) with lo <= 2^p ln 2 <= hi; ln 2 = 2 atanh(1/3)."""
    lo, hi = _atanh_fixed(1, 3, p)
    return 2 * lo, 2 * hi


def _split_log2(a: int, b: int):
    """(e, a', b') with e = floor(log2(a/b)) and (a/b) / 2^e = a'/b' in [1, 2),
    for ints a, b > 0."""
    e = a.bit_length() - b.bit_length()
    a, b = (a, b << e) if e >= 0 else (a << -e, b)
    if a < b:
        return e - 1, a << 1, b
    return e, a, b


def _ln_mantissa(a: int, b: int, p: int):
    """(lo, hi) with lo <= 2^p ln(a/b) <= hi, for 1 <= a/b < 2.

    The series runs at m = floor(2^p a/b); ln(a/b) - ln(m/2^p) is at most
    2^-p, since ln has slope at most 1 on [1, 2).
    """
    m, rest = divmod(a << p, b)
    one = 1 << p
    lo, hi = _atanh_fixed(m - one, m + one, p)
    return 2 * lo, 2 * hi + (1 if rest else 0)


def _outward(lo: int, hi: int, shift: int):
    """[lo, hi] shifted right by shift bits, rounded outward."""
    return lo >> shift, -(-hi >> shift)


def _ln2_scaled(bits: int):
    """(lo, hi) ints with lo <= 2^bits ln 2 <= hi."""
    return _outward(*_ln2_fixed(bits + _GUARD_BITS), _GUARD_BITS)


def _log2_scaled(a: int, b: int, bits: int):
    """(lo, hi) ints with lo <= 2^bits log2(a/b) <= hi, for ints a, b > 0;
    lo = hi on powers of two.  The values depend on a/b only, not on its
    representation: log2_bounds and the leveled intervals both run on it."""
    e, a, b = _split_log2(a, b)
    if a == b:
        return e << bits, e << bits
    p = bits + _GUARD_BITS
    m_lo, m_hi = _ln_mantissa(a, b, p)
    ln2_lo, ln2_hi = _ln2_fixed(p)
    # log2 of the mantissa is ln m / ln 2 in [0, 1): divide outward
    lo = (e << p) + (m_lo << p) // ln2_hi
    hi = (e << p) - (-(m_hi << p) // ln2_lo)
    return _outward(lo, hi, _GUARD_BITS)


def ln_bounds(q, bits: int = 64):
    """(lo, hi) Fractions with lo <= ln(q) <= hi, for rational q > 0."""
    q = _frac_of(q)
    if q <= 0:
        raise ValueError("log of a non-positive value")
    if q == 1:
        return Fraction(0), Fraction(0)
    e, a, b = _split_log2(q.numerator, q.denominator)
    # e ln 2 multiplies the error of ln 2 by |e|: carry its bits as guard
    shift = _GUARD_BITS + abs(e).bit_length()
    p = bits + shift
    m_lo, m_hi = _ln_mantissa(a, b, p)
    ln2_lo, ln2_hi = _ln2_fixed(p)
    if e < 0:
        ln2_lo, ln2_hi = ln2_hi, ln2_lo
    lo, hi = _outward(e * ln2_lo + m_lo, e * ln2_hi + m_hi, shift)
    return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)


def log2_bounds(q, bits: int = 64):
    """(lo, hi) Fractions with lo <= log2(q) <= hi; exact on powers of two."""
    q = _frac_of(q)
    if q <= 0:
        raise ValueError("log of a non-positive value")
    lo, hi = _log2_scaled(q.numerator, q.denominator, bits)
    return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)


def _frac_of(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(int(x.numerator), int(x.denominator))


# ---------------------------------------------------------------------------
# TowerNumber


class TowerNumber:
    """Immutable positive value: exact rational or symbolic tower node.

    kind is one of "exact", "pow", "factorial", "mul", "add".  Use the
    tower_* constructors; they canonicalize and collapse to exact form when
    the result fits in DEFAULT_EXACT_BITS bits.
    """

    __slots__ = ("kind", "value", "base", "exp", "arg", "coeff", "factors", "const", "terms", "_key")

    def __init__(self, kind, **fields):
        object.__setattr__(self, "kind", kind)
        for name in ("value", "base", "exp", "arg", "coeff", "factors", "const", "terms"):
            object.__setattr__(self, name, fields.get(name))
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("TowerNumber is immutable")

    @property
    def is_exact(self):
        return self.kind == "exact"

    def key(self):
        if self._key is None:
            if self.kind == "exact":
                k = ("e", self.value)
            elif self.kind == "pow":
                k = ("p", self.base.key(), self.exp.key())
            elif self.kind == "factorial":
                k = ("f", self.arg.key())
            elif self.kind == "mul":
                k = ("m", self.coeff, tuple(sorted(f.key() for f in self.factors)))
            else:
                k = ("a", self.const, tuple(sorted(t.key() for t in self.terms)))
            object.__setattr__(self, "_key", k)
        return self._key

    def __eq__(self, other):
        if isinstance(other, int):
            other = tower_exact(other)
        return isinstance(other, TowerNumber) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"TowerNumber({self.pretty()})"

    def pretty(self, memo=None):
        """Human rendering with the up-arrow power notation; a memo dict
        passed to several calls renders a node they share once."""
        return self._pretty({} if memo is None else memo)

    def _pretty(self, memo):
        # memo: id of a node -> its text, so a shared subtree is rendered once
        text = memo.get(id(self))
        if text is not None:
            return text

        def wrap(t):
            s = t._pretty(memo)
            return f"({s})" if t.kind in ("mul", "add") or ("↑" in s or "!" in s) else s

        if self.kind == "exact":
            v = self.value
            if v.denominator == 1 and v.numerator.bit_length() > 80:
                text = f"~2^{v.numerator.bit_length() - 1}"
            else:
                text = str(v)
        elif self.kind == "pow":
            text = f"{wrap(self.base)}↑{wrap(self.exp)}"
        elif self.kind == "factorial":
            text = f"{wrap(self.arg)}!"
        elif self.kind == "mul":
            bits = [wrap(f) for f in self.factors]
            if self.coeff != 1:
                bits = [str(self.coeff)] + bits
            text = "·".join(bits)
        else:
            bits = [t._pretty(memo) for t in self.terms]
            if self.const:
                bits.append(str(self.const))
            text = " + ".join(bits)
        memo[id(self)] = text
        return text


def _coerce(x):
    if isinstance(x, TowerNumber):
        return x
    return tower_exact(x)


def tower_exact(v):
    v = _frac_of(v if not isinstance(v, str) else Fraction(v))
    if v < 0:
        raise ValueError("TowerNumber values are nonnegative")
    return TowerNumber("exact", value=v)


def tower_pow(base, exp):
    base, exp = _coerce(base), _coerce(exp)
    if exp.is_exact and exp.value == 0:
        return tower_exact(1)
    if exp.is_exact and exp.value == 1:
        return base
    if base.is_exact and base.value == 1:
        return tower_exact(1)
    if base.is_exact and exp.is_exact and exp.value.denominator == 1:
        b, e = base.value, exp.value.numerator
        # e times the bit length of b bounds the bit length of b^e
        if e * max(1, b.numerator.bit_length(), b.denominator.bit_length()) < DEFAULT_EXACT_BITS:
            return tower_exact(b**e)
    return TowerNumber("pow", base=base, exp=exp)


def tower_fact(arg):
    arg = _coerce(arg)
    if arg.is_exact and arg.value.denominator == 1:
        n = int(arg.value)
        # bit length of n! is about n log2(n/e); cheap upper estimate n*bits(n)
        if n <= 2 or n * n.bit_length() <= DEFAULT_EXACT_BITS:
            return tower_exact(math.factorial(n))
    return TowerNumber("factorial", arg=arg)


def tower_mul(*xs):
    coeff = Fraction(1)
    factors = []
    for x in xs:
        x = _coerce(x)
        if x.is_exact:
            coeff *= x.value
        elif x.kind == "mul":
            coeff *= x.coeff
            factors.extend(x.factors)
        else:
            factors.append(x)
    if not factors:
        return tower_exact(coeff)
    factors.sort(key=lambda f: f.key())
    if coeff == 1 and len(factors) == 1:
        return factors[0]
    if coeff <= 0:
        raise ValueError("TowerNumber values are positive")
    return TowerNumber("mul", coeff=coeff, factors=tuple(factors))


def tower_add(*xs):
    const = Fraction(0)
    terms = []
    for x in xs:
        x = _coerce(x)
        if x.is_exact:
            const += x.value
        elif x.kind == "add":
            const += x.const
            terms.extend(x.terms)
        else:
            terms.append(x)
    if not terms:
        return tower_exact(const)
    terms.sort(key=lambda t: t.key())
    if const == 0 and len(terms) == 1:
        return terms[0]
    return TowerNumber("add", const=const, terms=tuple(terms))


def tower_max(a, b):
    """The larger of a and b; their sum, a sound upper bound, when the
    comparison is undecided."""
    c = tower_cmp(a, b)
    if c == 0 and _coerce(a).key() != _coerce(b).key():
        return tower_add(a, b)
    return a if c >= 0 else b


# ---------------------------------------------------------------------------
# comparison: structural monotone reduction, then leveled log intervals

# A leveled interval (k, lo, hi) holds ints on the grid 2^-COMPARE_BITS:
# lo / 2^COMPARE_BITS <= log2^k(value) <= hi / 2^COMPARE_BITS, where log2^0
# is the value itself.
_ONE = 1 << COMPARE_BITS
# a level-0 interval whose top exceeds 2^_FIT_BITS is lifted one log2 up
_FIT_BITS = 256
# -2^300 on the grid: the lower end of log2 over an interval that reaches 0
_NEG_SENTINEL = -(1 << (300 + COMPARE_BITS))


def tower_cmp(a, b) -> int:
    """-1, 0, or 1; 0 means equal or undecided at COMPARE_BITS bits."""
    c = _cmp(a, b)
    return 0 if c is None else c


def _cmp(a, b):
    """-1, 0 or 1 when decided; None when undecided."""
    a, b = _coerce(a), _coerce(b)
    if a.key() == b.key():
        return 0
    if a.is_exact and b.is_exact:
        return -1 if a.value < b.value else (1 if a.value > b.value else 0)
    structural = _cmp_structural(a, b)
    if structural is not None:
        return structural
    return _cmp_intervals(a, b)


def _cmp_structural(a, b):
    # identical operation with one shared operand: descend monotonically
    if a.kind == "pow" and b.kind == "pow":
        if a.base.key() == b.base.key() and _definitely_ge(a.base, 2):
            return _cmp(a.exp, b.exp)
        if a.exp.key() == b.exp.key() and _definitely_ge(a.exp, 1):
            return _cmp(a.base, b.base)
    if a.kind == "factorial" and b.kind == "factorial":
        return _cmp(a.arg, b.arg)
    if a.kind == "mul" or b.kind == "mul":
        ca, fa = _mul_parts(a)
        cb, fb = _mul_parts(b)
        fa, fb, shared = _cancel_shared(fa, fb)
        if shared:
            # shared factors are positive, so they cancel from both sides
            return _cmp(tower_mul(tower_exact(ca), *fa), tower_mul(tower_exact(cb), *fb))
        if ca == cb and len(fa) == 1 and len(fb) == 1:
            return _cmp(fa[0], fb[0])
    if a.kind == "add" or b.kind == "add":
        ca, ta = _add_parts(a)
        cb, tb = _add_parts(b)
        ta, tb, shared = _cancel_shared(ta, tb)
        if shared:
            # cancel shared terms; shift constants to keep both sides positive
            base = min(ca, cb) - 1
            return _cmp(
                tower_add(tower_exact(ca - base), *ta),
                tower_add(tower_exact(cb - base), *tb),
            )
        if ca == cb and len(ta) == 1 and len(tb) == 1:
            return _cmp(ta[0], tb[0])
    return None


def _mul_parts(t):
    if t.kind == "mul":
        return t.coeff, list(t.factors)
    if t.is_exact:
        return t.value, []
    return Fraction(1), [t]


def _add_parts(t):
    if t.kind == "add":
        return t.const, list(t.terms)
    if t.is_exact:
        return t.value, []
    return Fraction(0), [t]


def _cancel_shared(xs, ys):
    """xs and ys without the operands they share as multisets, and whether
    they share any."""
    rest_x, rest_y = [], list(ys)
    for x in xs:
        for i, y in enumerate(rest_y):
            if x.key() == y.key():
                del rest_y[i]
                break
        else:
            rest_x.append(x)
    return rest_x, rest_y, len(rest_x) < len(xs)


def _definitely_ge(t, threshold):
    lv = _lval(t)
    if lv is None:
        return False
    k, lo, hi = lv
    if k == 0:
        return lo >= threshold << COMPARE_BITS
    return lo >= _ONE  # the value is at least 2


def _lval(t):
    try:
        return _lval_inner(t, depth=0)
    except (OverflowError, ValueError):
        return None


def _log2_interval(lo, hi, den):
    """Grid bounds of log2 over [lo/den, hi/den]: the sentinel for an end at
    or below 0, and one log for a point."""
    if lo == hi > 0:
        return _log2_scaled(lo, den, COMPARE_BITS)
    bottom = _log2_scaled(lo, den, COMPARE_BITS)[0] if lo > 0 else _NEG_SENTINEL
    top = _log2_scaled(hi, den, COMPARE_BITS)[1] if hi > 0 else _NEG_SENTINEL
    return bottom, top


def _lift(lv):
    """Apply one more log2 to a leveled interval."""
    k, lo, hi = lv
    return (k + 1, *_log2_interval(lo, hi, _ONE))


def _normalize(lo, hi, den):
    """The leveled interval of a value in [lo/den, hi/den], for den > 0: at
    level 0 rounded outward to the grid, or at level 1 when the top exceeds
    2^_FIT_BITS."""
    if hi > den << _FIT_BITS:
        return (1, *_log2_interval(lo, hi, den))
    return (0, (lo << COMPARE_BITS) // den, -((-hi << COMPARE_BITS) // den))


def _lval_inner(t, depth):
    if depth > 12:
        raise ValueError("tower too deep for interval comparison")
    if t.is_exact:
        v = t.value
        return _normalize(v.numerator, v.numerator, v.denominator)
    if t.kind == "pow":
        lb = _lval_inner(t.base, depth + 1)
        le = _lval_inner(t.exp, depth + 1)
        # log2(b^e) = e * log2(b)
        return _shift_up(_lval_mul(le, _log_of_lval(lb)))
    if t.kind == "factorial":
        la = _lval_inner(t.arg, depth + 1)
        log_a = _log_of_lval(la)
        # (n/e)^n <= n! <= n^n: log2(n!) in [n (log2 n - log2 e), n log2 n]
        if log_a[0] == 0:
            # log2 e <= 1 / ln 2 <= _ONE / ln2_lo, with ln2_lo on the grid: over
            # the denominator _ONE ln2_lo it is _ONE^2, and log2 n - log2 e
            # is bounded below there exactly
            ln2_lo = _ln2_scaled(COMPARE_BITS)[0]
            log2e = _ONE * _ONE
            low_mult = (0, log_a[1] * ln2_lo - log2e, log_a[2] * ln2_lo - log2e)
            if low_mult[1] <= 0:
                raise ValueError("factorial of a small symbolic argument")
            low = _lval_mul(la, low_mult, _ONE * ln2_lo)
        else:
            # log2 n is astronomically large; log2^k(log2 n - 1.45) loses
            # at most 1 at the first level and less further up
            low = _lval_mul(la, (log_a[0], log_a[1] - _ONE, log_a[2]))
        low, high = _common_level(low, _lval_mul(la, log_a))
        return _shift_up((low[0], low[1], high[2]))
    if t.kind == "mul":
        parts = [_log_of_lval(_lval_inner(f, depth + 1)) for f in t.factors]
        if t.coeff != 1:
            parts.append((0, *_log2_scaled(t.coeff.numerator, t.coeff.denominator, COMPARE_BITS)))
        total = parts[0]
        for p in parts[1:]:
            total = _lval_add(total, p)
        return _shift_up(total)
    # add: the terms are symbolic, so their sum sits at level >= 1, where the
    # constant enters lifted once from its exact value
    total = _lval_inner(t.terms[0], depth + 1)
    for x in t.terms[1:]:
        total = _lval_add(total, _lval_inner(x, depth + 1))
    if t.const:
        c = t.const
        total = _lval_add(total, (1, *_log2_interval(c.numerator, c.numerator, c.denominator)))
    return total


def _log_of_lval(lv, den=_ONE):
    """Leveled interval of log2(x) given one of x; the ends of a level-0
    interval may lie over den instead of 2^COMPARE_BITS."""
    k, lo, hi = lv
    if k >= 1:
        return (k - 1, lo, hi)
    if lo <= 0:
        raise ValueError("log of a non-positive interval")
    return (0, *_log2_interval(lo, hi, den))


def _shift_up(lv):
    """x -> 2^x at the level bookkeeping: bounds of log2^k(v) become level k+1."""
    k, lo, hi = lv
    return (k + 1, lo, hi)


def _common_level(u, v):
    while u[0] < v[0]:
        u = _lift(u)
    while v[0] < u[0]:
        v = _lift(v)
    return u, v


def _lval_add(u, v):
    """Sum of two leveled intervals interpreted as plain values."""
    u, v = _common_level(u, v)
    k = u[0]
    if k == 0:
        return _normalize(u[1] + v[1], u[2] + v[2], _ONE)
    big, small = (u, v) if u[1] >= v[1] else (v, u)
    lo = big[1]
    if lo >= 0 and small[2] <= lo - _ONE:
        return (k, lo, big[2] + _dominated_margin(k, lo, lo - small[2]))
    return (k, lo, max(u[2], v[2]) + _ONE)


# the margin's quantities are ints on the finer grid 2^-_MARGIN_BITS
_MARGIN_BITS = COMPARE_BITS + 8
# an upper bound of log2(1/ln 2) = 0.5288...: 17/32
_LOG2_INV_LN2 = 17 << (_MARGIN_BITS - 5)


def _dominated_margin(k, lo, gap):
    """A power of two in [2^-COMPARE_BITS, 1], on the grid, bounding
    log2^k(x + y) - log2^k(x), given 0 <= lo <= X_k and X_k - Y_k >= gap >= 1
    (X_j = log2^j x, Y_j = log2^j y).

    The growth is at most min(1, 2^-(X_1 - Y_1) / ln 2) at level 1, and
    log2(a + d) <= log2 a + d / (a ln 2) divides it by X_j ln 2 per level.
    X_j = 2^X_{j+1} and X_j - Y_j = X_j (1 - 2^-(X_{j+1} - Y_{j+1})) carry
    lower bounds down from level k, rounded down and capped at
    _MARGIN_BITS.  Each of them is a dyadic with at most _MARGIN_BITS
    fractional bits, so on that grid the ints are exact.
    """
    cap = _MARGIN_BITS << _MARGIN_BITS
    finer = _MARGIN_BITS - COMPARE_BITS
    x, g = min(lo << finer, cap), min(gap << finer, cap)
    log_margin = 0
    for _ in range(k - 1):
        log_margin += _LOG2_INV_LN2 - x  # log2 of 1 / (X_j ln 2), X_j = 2^x
        x = min(1 << ((x >> _MARGIN_BITS) + _MARGIN_BITS), cap)
        g = min(x - (x >> (g >> _MARGIN_BITS)), cap)
    log_margin += min(0, _LOG2_INV_LN2 - g)
    exponent = -(-log_margin >> _MARGIN_BITS)
    return 1 << (COMPARE_BITS + max(min(exponent, 0), -COMPARE_BITS))


def _lval_mul(u, v, v_den=_ONE):
    """Product of two leveled intervals interpreted as plain values; the ends
    of a level-0 v may lie over v_den instead of 2^COMPARE_BITS."""
    if u[0] == 0 and v[0] == 0:
        cands = (u[1] * v[1], u[1] * v[2], u[2] * v[1], u[2] * v[2])
        return _normalize(min(cands), max(cands), _ONE * v_den)
    return _shift_up(_lval_add(_log_of_lval(u), _log_of_lval(v, v_den)))


def _cmp_intervals(a, b):
    la = _lval(a)
    lb = _lval(b)
    if la is None or lb is None:
        return None
    la, lb = _common_level(la, lb)
    if la[2] < lb[1]:
        return -1
    if lb[2] < la[1]:
        return 1
    return None
