"""Matrix structure theory over the rationals.

Characteristic and minimal polynomials, semisimplicity and unipotence
tests, the Jordan-Chevalley decomposition (computed by Newton iteration on
the squarefree part of the characteristic polynomial, entirely in rational
matrix arithmetic), rational eigenvalues (roots of that squarefree part mod a
prime, Newton-lifted p-adically past the root bound and tested exactly),
truncated logarithm/exponential of unipotents, and polynomial matrices:
one-parameter subgroups, generic matrices, det, adjugate.

A univariate polynomial is the list of its rational coefficients, constant
first, with a nonzero last entry (the zero polynomial is []).
"""

import math

from .errors import NotUnipotent, ResourceLimit, SingularMatrix, UnsupportedEigenvalues
from .linalg import QMatrix
from .poly import Poly
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

# The matrix-product loops (char_poly, min_poly, Horner evaluation and the
# Newton iteration, the nilpotent power series) and the Euclidean gcd charge
# each step n times the bits (numerator plus denominator) of its n x n factors
# or its length-n dividend and divisor; each loop stops past this total.
STRUCTURE_WORK_BITS = 2 * 10**7


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


def _charged(work, factor, *operands):
    """work plus factor times the bits of the operands' entries."""
    bits = sum(e.numerator.bit_length() + e.denominator.bit_length() for x in operands for e in x)
    work += factor * bits
    if work > STRUCTURE_WORK_BITS:
        raise ResourceLimit(f"structure theory exceeded its work budget of {STRUCTURE_WORK_BITS} bits")
    return work


def _trim(c):
    """c up to its last nonzero coefficient."""
    return c[: max((i + 1 for i, ci in enumerate(c) if ci), default=0)]


def _deriv(c):
    return [i * ci for i, ci in enumerate(c)][1:]


def _divmod(f, g):
    """Quotient and remainder of f by a nonzero g."""
    dg = len(g) - 1
    r = list(f)
    q = [ZERO] * max(0, len(f) - dg)
    for k in reversed(range(len(q))):
        q[k] = factor = r[k + dg] / g[-1]
        for i, c in enumerate(g):
            r[k + i] -= factor * c
    return q, _trim(r[:dg])


def _monic_gcd(f, g):
    work = 0
    while g:
        work = _charged(work, len(f), f, g)
        f, g = g, _divmod(f, g)[1]
    return [c / f[-1] for c in f]


def _squarefree(f):
    """f over its gcd with f', which has the same roots, each simple."""
    return _divmod(f, _monic_gcd(f, _deriv(f)))[0]


def char_poly(g: QMatrix) -> list:
    """Monic characteristic polynomial det(x*I - g), by Faddeev-LeVerrier,
    keeping g M_k so that each step does one matrix product."""
    if not g.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = g.rows
    coeffs = [ONE]  # x^n downwards
    identity = QMatrix.identity(n)
    gm = QMatrix.zero(n, n)
    work = 0
    for k in range(1, n + 1):
        m = gm + coeffs[-1] * identity
        work = _charged(work, n, g.entries, m.entries)
        gm = g * m
        coeffs.append(-gm.trace() / k)
    return coeffs[::-1]


def min_poly(g: QMatrix) -> list:
    """Monic generator of the annihilating ideal of g.

    By Cayley-Hamilton vec(I), vec(g), ..., vec(g^n) are dependent; the first
    free column k of their rref is the degree, and its kernel vector, which
    is 1 at k and 0 past it, holds the coefficients.
    """
    if not g.is_square:
        raise ValueError("minimal polynomial of a non-square matrix")
    n = g.rows
    powers = _powers(g)
    columns = QMatrix(n * n, len(powers), [p.entries[j] for j in range(n * n) for p in powers])
    return _trim(list(columns.kernel_basis()[0].entries))


def _powers(m: QMatrix):
    """I, m, m^2, ... up to m^n or the first zero power (m^k with k <= n for a
    nilpotent m)."""
    powers = [QMatrix.identity(m.rows)]
    work = 0
    while len(powers) <= m.rows and not powers[-1].is_zero():
        work = _charged(work, m.rows, powers[-1].entries, m.entries)
        powers.append(powers[-1] * m)
    return powers


def is_semisimple(g: QMatrix) -> bool:
    """Squarefree minimal polynomial; valid over the perfect field Q."""
    m = min_poly(g)
    return len(_monic_gcd(m, _deriv(m))) == 1


def is_nilpotent(g: QMatrix) -> bool:
    return (g ** g.rows).is_zero()


def is_unipotent(g: QMatrix) -> bool:
    return is_nilpotent(g - QMatrix.identity(g.rows))


def eval_poly_at_matrix(coeffs, g: QMatrix) -> QMatrix:
    """Horner evaluation of a univariate polynomial at a square matrix."""
    return _horner(coeffs, g, 0)[0]


def _horner(coeffs, g, work):
    """The value of coeffs at g by Horner's rule, and work plus its charge."""
    identity = QMatrix.identity(g.rows)
    acc = QMatrix.zero(g.rows, g.rows)
    for c in reversed(coeffs):
        work = _charged(work, g.rows, acc.entries, g.entries)
        acc = acc * g + c * identity
    return acc, work


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
    f = _squarefree(char_poly(g))
    fp = _deriv(f)
    a, work = g, 0
    for _ in range(n + 2):
        fa, work = _horner(f, a, work)
        if fa.is_zero():
            break
        fpa, work = _horner(fp, a, work)
        a = a - fa * fpa.inverse()
    else:
        raise AssertionError("Newton iteration failed to converge")
    g_s = a
    g_u = QMatrix.identity(n) + g_s.inverse() * (g - g_s)
    return JCDecomposition(g_s, g_u)


def nilpotent_log(u: QMatrix) -> QMatrix:
    """log of a unipotent matrix: the series truncates after n - 1 terms."""
    n = u.rows
    nil = u - QMatrix.identity(n)
    if not is_nilpotent(nil):
        raise NotUnipotent("matrix is not unipotent")
    return sum((p * rat((-1) ** (k - 1), k) for k, p in enumerate(_powers(nil)) if k), QMatrix.zero(n, n))


def nilpotent_exp(m: QMatrix) -> QMatrix:
    """exp of a nilpotent matrix, truncated at the nilpotency index."""
    n = m.rows
    if not is_nilpotent(m):
        raise NotUnipotent("matrix is not nilpotent")
    return sum((p * rat(1, math.factorial(k)) for k, p in enumerate(_powers(m))), QMatrix.zero(n, n))


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
    terms = [{} for _ in range(n * n)]
    for k, power in enumerate(_powers(nilpotent_log(h))):  # raises NotUnipotent
        coeff = rat(1, math.factorial(k))
        for idx, e in enumerate(power.entries):
            if e:
                terms[idx][(k,)] = coeff * e
    return PolyMatrix(n, 1, [Poly(1, t) for t in terms])


def rational_eigenvalues(g: QMatrix):
    """Eigenvalues with multiplicity when the spectrum is rational.

    Each rational root of the squarefree part of the characteristic
    polynomial is divided out of it as often as it divides; raises
    UnsupportedEigenvalues when a factor of positive degree is left.
    """
    chi = char_poly(g)
    roots = []
    for root in _rational_roots(_squarefree(chi)):
        while not (step := _divmod(chi, [-root, ONE]))[1]:
            chi = step[0]
            roots.append(root)
    if len(chi) > 1:
        raise UnsupportedEigenvalues(
            "matrix has irrational eigenvalues; the exact engine needs a rational spectrum"
        )
    roots.sort()
    return roots


def _rational_roots(f):
    """The rational roots of a squarefree univariate polynomial, by p-adic lifting.

    Cleared to integer coefficients c with leading coefficient a, a root u/v
    in lowest terms has v | a and |a u/v| <= |a| + max |c_i|.  So a u/v is the
    symmetric residue of a r mod p^k once p^k exceeds twice that bound, where
    r is the Newton lift of the root u/v mod p, and p is the first odd prime
    not dividing a at which every root of f mod p is simple.  Raises
    ResourceLimit once the primes tried sum past ROOT_RESIDUE_BUDGET.
    """
    denom = math.lcm(*(int(q.denominator) for q in f))
    c = [int(q * denom) for q in f]
    dc = _deriv(c)
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
    return [q for q in candidates if not _divmod(f, [-q, ONE])[1]]


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
    return QMatrix(n, n, [
        -coeffs[i] if j == n - 1 else ONE if i == j + 1 else ZERO for i in range(n) for j in range(n)
    ])
