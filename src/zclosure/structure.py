"""Matrix structure theory over the rationals.

Characteristic and minimal polynomials, semisimplicity and unipotence
tests, the Jordan-Chevalley decomposition (computed by Newton iteration on
the squarefree part of the characteristic polynomial, entirely in rational
matrix arithmetic), truncated logarithm/exponential of unipotents, and
polynomial matrices: one-parameter subgroups, generic matrices, det, adjugate.
"""

import heapq
import math

from .errors import NotUnipotent, ResourceLimit, SingularMatrix, UnsupportedEigenvalues
from .linalg import QMatrix
from .poly import Poly, derivative, uni_divmod, uni_gcd
from .relations import factor_rational
from ._rat import ZERO, ONE, rat

__all__ = [
    "JCDecomposition",
    "PolyMatrix",
    "char_poly",
    "min_poly",
    "is_semisimple",
    "is_unipotent",
    "is_nilpotent",
    "jordan_chevalley",
    "nilpotent_log",
    "nilpotent_exp",
    "one_parameter",
    "eval_poly_at_matrix",
    "rational_eigenvalues",
    "companion_matrix",
]

# Candidates p/q the rational-root search tries per polynomial.
ROOT_CANDIDATE_BUDGET = 10**4


class JCDecomposition:
    """Commuting factorization g = semisimple * unipotent."""

    __slots__ = ("semisimple", "unipotent")

    def __init__(self, semisimple, unipotent):
        self.semisimple = semisimple
        self.unipotent = unipotent

    def product(self):
        return self.semisimple * self.unipotent

    def __eq__(self, other):
        return (
            isinstance(other, JCDecomposition)
            and self.semisimple == other.semisimple
            and self.unipotent == other.unipotent
        )

    def __repr__(self):
        return f"JCDecomposition(semisimple={self.semisimple!r}, unipotent={self.unipotent!r})"


def char_poly(g: QMatrix) -> Poly:
    """Monic characteristic polynomial det(x*I - g), by Faddeev-LeVerrier."""
    if not g.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = g.rows
    coeffs = [ONE]  # x^n downwards
    m = QMatrix.zero(n, n)
    c = ONE
    for k in range(1, n + 1):
        m = g * m + c * QMatrix.identity(n)
        c = -(g * m).trace() / k
        coeffs.append(c)
    return Poly(1, {(n - i,): c for i, c in enumerate(coeffs)})


def min_poly(g: QMatrix) -> Poly:
    """Monic generator of the annihilating ideal of g.

    By Cayley-Hamilton vec(I), vec(g), ..., vec(g^n) are dependent; the first
    free column k of their rref is the degree, and its kernel vector, which
    is 1 at k and 0 past it, holds the coefficients.
    """
    if not g.is_square:
        raise ValueError("minimal polynomial of a non-square matrix")
    n = g.rows
    powers = [QMatrix.identity(n)]
    for _ in range(n):
        powers.append(powers[-1] * g)
    columns = QMatrix(n * n, n + 1, [p.entries[j] for j in range(n * n) for p in powers])
    coeffs = columns.kernel_basis()[0]
    return Poly(1, {(i,): coeffs[i, 0] for i in range(n + 1)})


def is_semisimple(g: QMatrix) -> bool:
    """Squarefree minimal polynomial; valid over the perfect field Q."""
    m = min_poly(g)
    return uni_gcd(m, derivative(m)).total_degree() == 0


def is_nilpotent(g: QMatrix) -> bool:
    return (g ** g.rows).is_zero()


def is_unipotent(g: QMatrix) -> bool:
    return is_nilpotent(g - QMatrix.identity(g.rows))


def eval_poly_at_matrix(p: Poly, g: QMatrix) -> QMatrix:
    """Horner evaluation of a univariate polynomial at a square matrix."""
    n = g.rows
    coeffs = [ZERO] * (p.total_degree() + 1)
    for (e,), c in p.terms.items():
        coeffs[e] = c
    acc = QMatrix.zero(n, n)
    for c in reversed(coeffs):
        acc = acc * g + c * QMatrix.identity(n)
    return acc


def jordan_chevalley(g: QMatrix) -> JCDecomposition:
    """Unique decomposition g = g_s g_u with g_s semisimple, g_u unipotent.

    Newton iteration a <- a - f(a) f'(a)^{-1} on the squarefree part f of the
    characteristic polynomial; f(g) is nilpotent and f'(a) stays invertible,
    so the iteration converges in at most ceil(log2 n) + 1 steps and never
    leaves rational matrices.
    """
    if not g.is_square:
        raise ValueError("decomposition of a non-square matrix")
    n = g.rows
    if not g.det():
        raise SingularMatrix("Jordan-Chevalley multiplicative form needs det != 0")
    chi = char_poly(g)
    f = uni_divmod(chi, uni_gcd(chi, derivative(chi)))[0]
    fp = derivative(f)
    a = g
    for _ in range(n + 2):
        fa = eval_poly_at_matrix(f, a)
        if fa.is_zero():
            break
        a = a - fa * eval_poly_at_matrix(fp, a).inverse()
    else:
        raise AssertionError("Newton iteration failed to converge")
    g_s = a
    g_u = QMatrix.identity(n) + g_s.inverse() * (g - g_s)
    return JCDecomposition(g_s, g_u)


def nilpotent_log(u: QMatrix) -> QMatrix:
    """log of a unipotent matrix: the series truncates after n - 1 terms."""
    n = u.rows
    nil = u - QMatrix.identity(n)
    if not (nil**n).is_zero():
        raise NotUnipotent("matrix is not unipotent")
    acc = QMatrix.zero(n, n)
    power = QMatrix.identity(n)
    for k in range(1, n):
        power = power * nil
        if power.is_zero():
            break
        acc = acc + power * (rat((-1) ** (k - 1), k))
    return acc


def nilpotent_exp(m: QMatrix) -> QMatrix:
    """exp of a nilpotent matrix, truncated at the nilpotency index."""
    n = m.rows
    if not (m**n).is_zero():
        raise NotUnipotent("matrix is not nilpotent")
    acc = QMatrix.identity(n)
    power = QMatrix.identity(n)
    fact = 1
    for k in range(1, n):
        power = power * m
        if power.is_zero():
            break
        fact *= k
        acc = acc + power * rat(1, fact)
    return acc


class PolyMatrix:
    """Square matrix with polynomial entries (shared arity)."""

    __slots__ = ("n", "arity", "entries")

    def __init__(self, n, arity, entries):
        entries = tuple(entries)
        if len(entries) != n * n:
            raise ValueError("entry count mismatch")
        if any(e.arity != arity for e in entries):
            raise ValueError("entry arity mismatch")
        self.n = n
        self.arity = arity
        self.entries = entries

    @classmethod
    def generic(cls, n, arity, offset=0):
        """The n x n matrix whose (i, j) entry is variable offset + i n + j."""
        return cls(n, arity, [Poly.variable(offset + k, arity) for k in range(n * n)])

    @classmethod
    def constant(cls, q: QMatrix, arity):
        """The rational square matrix q with constant polynomial entries."""
        return cls(q.rows, arity, [Poly.const(arity, e) for e in q.entries])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.n + j]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.n == other.n
            and self.arity == other.arity
            and self.entries == other.entries
        )

    def __mul__(self, other):
        if self.n != other.n or self.arity != other.arity:
            raise ValueError("shape or arity mismatch")
        n = self.n
        out = []
        for i in range(n):
            for j in range(n):
                s = Poly.zero(self.arity)
                for k in range(n):
                    a = self[i, k]
                    b = other[k, j]
                    if a and b:
                        s = s + a * b
                out.append(s)
        return PolyMatrix(n, self.arity, out)

    def evaluate(self, point) -> QMatrix:
        return QMatrix(self.n, self.n, [e.evaluate(point) for e in self.entries])

    def minor(self, i, j):
        """The matrix without row i and column j."""
        n = self.n
        entries = [self[r, c] for r in range(n) if r != i for c in range(n) if c != j]
        return PolyMatrix(n - 1, self.arity, entries)

    def det(self) -> Poly:
        """Determinant by cofactor expansion along the first row."""
        if self.n == 0:
            return Poly.const(self.arity, 1)
        total = Poly.zero(self.arity)
        for j in range(self.n):
            term = self[0, j] * self.minor(0, j).det()
            total = total + term if j % 2 == 0 else total - term
        return total

    def adjugate(self):
        """Transposed cofactor matrix: adjugate * self = det * identity."""
        n = self.n
        out = []
        for i in range(n):
            for j in range(n):
                cofactor = self.minor(j, i).det()
                out.append(cofactor if (i + j) % 2 == 0 else -cofactor)
        return PolyMatrix(n, self.arity, out)

    def map_variables(self, new_arity, var_map):
        """Reindex variables: old variable i becomes new variable var_map[i]."""
        entries = [e.map_variables(new_arity, var_map) for e in self.entries]
        return PolyMatrix(self.n, new_arity, entries)

    def max_degree(self):
        return max((e.total_degree() for e in self.entries), default=0)

    def __repr__(self):
        return f"PolyMatrix(n={self.n}, arity={self.arity})"


def one_parameter(h: QMatrix) -> PolyMatrix:
    """The polynomial map z -> exp(z log h) through a unipotent h.

    Entries have degree < n, the value at 0 is the identity, the value at 1
    is h, and addition of parameters corresponds to matrix product.
    """
    n = h.rows
    log = nilpotent_log(h)  # raises NotUnipotent
    entries = [Poly.zero(1) for _ in range(n * n)]
    power = QMatrix.identity(n)
    fact = 1
    for k in range(n):
        if k:
            power = power * log
            fact *= k
            if power.is_zero():
                break
        coeff = rat(1, fact)
        for idx, e in enumerate(power.entries):
            if e:
                entries[idx] = entries[idx] + Poly(1, {(k,): coeff * e})
    return PolyMatrix(n, 1, entries)


def rational_eigenvalues(g: QMatrix):
    """Eigenvalues with multiplicity when the spectrum is rational.

    Raises UnsupportedEigenvalues when the characteristic polynomial has an
    irrational root.  Rational candidates come from the integer-cleared
    polynomial via the rational root theorem.
    """
    chi = char_poly(g)
    n = g.rows
    roots = []
    p = chi
    while p.total_degree() > 0:
        root = _some_rational_root(p)
        if root is None:
            raise UnsupportedEigenvalues(
                "matrix has irrational eigenvalues; the exact engine needs a rational spectrum"
            )
        roots.append(root)
        z = Poly.variable(0, 1)
        p = uni_divmod(p, z - Poly.const(1, root))[0]
    roots.sort()
    return roots


def _divisors(n):
    """(count, ascending) for the positive divisors of a nonzero integer.

    ascending() yields them in increasing order, one at a time from the
    bounded factorization, so a search that stops early builds few of them.
    factor_rational raises ResourceLimit past its trial-division bound.
    """
    exps = factor_rational(n)[1]
    powers = [(p, p**e) for p, e in exps.items()]

    def ascending():
        heap, seen = [1], {1}
        while heap:
            d = heapq.heappop(heap)
            yield d
            for p, top in powers:
                if d % top and d * p not in seen:  # p's exponent in d is below e
                    seen.add(d * p)
                    heapq.heappush(heap, d * p)

    return math.prod(e + 1 for e in exps.values()), ascending


def _some_rational_root(p: Poly):
    """A rational root of a univariate rational polynomial, or None.

    Raises ResourceLimit once ROOT_CANDIDATE_BUDGET candidates failed.
    """
    coeffs = {}
    denom_lcm = 1
    for (e,), c in p.terms.items():
        coeffs[e] = c
        d = int(c.denominator)
        denom_lcm = denom_lcm * d // math.gcd(denom_lcm, d)
    ints = {e: int(c * denom_lcm) for e, c in coeffs.items()}
    if not ints:
        return None
    deg = max(ints)
    lead = ints[deg]
    low = min(ints)
    if low > 0:
        return ZERO  # x^low divides p
    (q_count, qs), (p_count, ps) = _divisors(lead), _divisors(ints[0])
    candidates = ((q, pnum, sign) for q in qs() for pnum in ps() for sign in (1, -1))
    for tried, (q, pnum, sign) in enumerate(candidates):
        if tried == ROOT_CANDIDATE_BUDGET:
            raise ResourceLimit(
                f"rational-root search exceeded its budget of {ROOT_CANDIDATE_BUDGET} "
                f"candidates ({2 * q_count * p_count} in all)"
            )
        cand = rat(sign * pnum, q)
        if p.evaluate([cand]) == 0:
            return cand
    return None


def companion_matrix(coeffs):
    """Companion matrix of the monic polynomial x^n + c_{n-1} x^{n-1} + ... + c_0."""
    coeffs = [rat(c) for c in coeffs]
    n = len(coeffs)
    entries = []
    for i in range(n):
        for j in range(n):
            if j == n - 1:
                entries.append(-coeffs[i])
            elif i == j + 1:
                entries.append(ONE)
            else:
                entries.append(ZERO)
    return QMatrix(n, n, entries)
