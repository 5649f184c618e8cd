"""Matrix structure theory over the rationals.

Characteristic and minimal polynomials, semisimplicity and unipotence
tests, the Jordan-Chevalley decomposition (computed by Newton iteration on
the squarefree part of the characteristic polynomial, entirely in rational
matrix arithmetic), rational eigenvalues (roots of that squarefree part mod a
prime, Newton-lifted p-adically past the root bound and tested exactly),
truncated logarithm/exponential of unipotents, and polynomial matrices:
one-parameter subgroups, generic matrices, det, adjugate.
"""

import math

from .errors import NotUnipotent, ResourceLimit, SingularMatrix, UnsupportedEigenvalues
from .linalg import QMatrix
from .poly import Poly, derivative, uni_divmod, uni_gcd
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

# Residues the rational-root search evaluates: each prime it tries, looking
# for one at which every root is simple, is charged its size.
ROOT_RESIDUE_BUDGET = 10**6


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

    Each rational root of the squarefree part of the characteristic
    polynomial is divided out of it as often as it divides; raises
    UnsupportedEigenvalues when a factor of positive degree is left.
    """
    chi = char_poly(g)
    z = Poly.variable(0, 1)
    roots = []
    for root in _rational_roots(uni_divmod(chi, uni_gcd(chi, derivative(chi)))[0]):
        linear = z - Poly.const(1, root)
        quotient, remainder = uni_divmod(chi, linear)
        while not remainder:
            chi = quotient
            roots.append(root)
            quotient, remainder = uni_divmod(chi, linear)
    if chi.total_degree() > 0:
        raise UnsupportedEigenvalues(
            "matrix has irrational eigenvalues; the exact engine needs a rational spectrum"
        )
    roots.sort()
    return roots


def _rational_roots(f: Poly):
    """The rational roots of a squarefree univariate polynomial, by p-adic lifting.

    Cleared to integer coefficients c with leading coefficient a, a root u/v
    in lowest terms has v | a and |a u/v| <= |a| + max |c_i|.  So a u/v is the
    symmetric residue of a r mod p^k once p^k exceeds twice that bound, where
    r is the Newton lift of the root u/v mod p, and p is the first odd prime
    not dividing a at which every root of f mod p is simple.  Raises
    ResourceLimit once the primes tried sum past ROOT_RESIDUE_BUDGET.
    """
    denom = math.lcm(*(int(q.denominator) for q in f.terms.values()))
    c = [0] * (f.total_degree() + 1)  # constant first
    for (e,), q in f.terms.items():
        c[e] = int(q * denom)
    dc = [i * ci for i, ci in enumerate(c)][1:]
    a = c[-1]
    p = 1
    spent = 0
    while True:
        p += 2
        while any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
            p += 2
        spent += p
        if spent > ROOT_RESIDUE_BUDGET:
            raise ResourceLimit(
                f"rational-root search exceeded its budget of {ROOT_RESIDUE_BUDGET} residues "
                f"(primes up to {p})"
            )
        if a % p:
            cp = [ci % p for ci in c]
            lifted = [r for r in range(p) if not _eval_mod(cp, r, p)]
            if all(_eval_mod(dc, r, p) for r in lifted):
                break
    bound = 2 * (abs(a) + max(map(abs, c)))
    m = p
    while m <= bound:
        m *= m
        lifted = [(r - _eval_mod(c, r, m) * pow(_eval_mod(dc, r, m), -1, m)) % m for r in lifted]
    candidates = (rat(s - m if s > m // 2 else s, a) for s in (a * r % m for r in lifted))
    return [q for q in candidates if not f.evaluate([q])]


def _eval_mod(c, x, m):
    """Horner value mod m of the integer polynomial c, constant first."""
    acc = 0
    for ci in reversed(c):
        acc = (acc * x + ci) % m
    return acc


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
