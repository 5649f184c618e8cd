"""Rational scalar used everywhere: gmpy2.mpq when available, Fraction otherwise.

Both types keep fractions reduced with a positive denominator, expose
``.numerator``/``.denominator``, and print as ``p/q`` (or ``p`` when q = 1),
which is also the JSON wire format.
"""

from fractions import Fraction

from .errors import ResourceLimit

try:
    from gmpy2 import mpq as RAT
except ImportError:  # pragma: no cover - exercised only without gmpy2
    RAT = Fraction

ZERO = RAT(0)
ONE = RAT(1)

# Largest decimal exponent a rational string may carry: Fraction builds
# 10^|e| before any other budget applies ("1e10000000" is a 33M-bit integer).
MAX_DECIMAL_EXPONENT = 10**4


def rat(x, y=None):
    """Coerce ints, strings like ``p/q``, Fractions, or RAT values to RAT."""
    if y is not None:
        return RAT(x, y)
    if isinstance(x, str):
        exponent = x.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
        if exponent.isdecimal() and (
            len(exponent) > len(str(MAX_DECIMAL_EXPONENT)) or int(exponent) > MAX_DECIMAL_EXPONENT
        ):
            raise ResourceLimit(f"decimal exponent of a rational string exceeds {MAX_DECIMAL_EXPONENT}")
        return RAT(Fraction(x))
    return RAT(x)


def height(q) -> int:
    """max(|numerator|, denominator) of a reduced fraction; height(0) = 1."""
    return max(abs(int(q.numerator)), int(q.denominator))
