"""The closure engine.

Matrix groups embed into affine space as (entries, 1/det) points; monomials
of degree up to d evaluated at these points span a finite-dimensional space
on which left multiplication acts linearly.  The engine saturates that span
from the identity by a breadth-first worklist over (basis vector, generator)
pairs; the orthogonal complement of the saturated span is exactly the space
of degree-<= d polynomials vanishing on the generated group.

On top of the fixed point sit the structural closures: binomial ideals for
cyclic semisimple matrices, implicitization of unipotent one-parameter
products, the group-variety certificate, iterative-deepening auto closure,
and Schreier generator enumeration for finite-index subgroups.
"""

from collections import deque
from functools import lru_cache
from math import comb, gcd, lcm

from .errors import (
    NoStabilization,
    NotSemisimple,
    ResourceLimit,
    SingularMatrix,
)
from .linalg import EchelonBasis, QMatrix
from .poly import (
    GREVLEX,
    Ideal,
    Poly,
    eliminate,
    ideal_equal,
    ideal_member,
)
from .relations import lattice_to_binomial_ideal, rational_relation_lattice
from .structure import PolyMatrix, is_semisimple, one_parameter, rational_eigenvalues
from ._rat import ONE, rat

__all__ = [
    "GeneratorSet",
    "LiftedBasis",
    "ClosureResult",
    "monomial_basis",
    "gl_embed",
    "lifted_span",
    "invariants_up_to_degree",
    "restricted_kernel",
    "minimal_restricted_degree",
    "identity_point_ideal",
    "closure_cyclic_semisimple",
    "implicitize",
    "closure_unipotent_product",
    "is_group_variety",
    "auto_closure",
    "schreier_generators",
]

# Largest monomial coordinate count C(m + d, d) a span is built in; 3x3
# matrices at d = 6 need 8008.
MAX_COORDINATES = 10**5

# Most distinct products schreier_generators enumerates before it raises.
MAX_SCHREIER_PRODUCTS = 200_000

# Most bits of reduced numerators and denominators, over the entries of all
# distinct products, schreier_generators stores before it raises: 200_000 3x3
# products with 2-bit integer entries hold 5.4 * 10^6, and [[2]] reaches it at
# word length about 3200, in about 0.1 s.
MAX_SCHREIER_BITS = 10**7


class GeneratorSet:
    """Finite set of invertible rational matrices, closed copy with inverses.

    elements[i] is the (H, D, a, b) record (_int_element) of with_inverses[i],
    the form in which the span and the Schreier enumeration multiply."""

    __slots__ = ("n", "gens", "with_inverses", "elements")

    def __init__(self, gens):
        gens = tuple(gens)
        if not gens:
            raise ValueError("need at least one generator")
        n = gens[0].rows
        ordered = {}  # record -> matrix; records in lowest terms are equal iff the matrices are
        inverses = []
        for g in gens:
            if not g.is_square or g.rows != n:
                raise ValueError("generators must be square of equal size")
            det = g.det()
            if not det:
                raise SingularMatrix("generators must be invertible")
            ordered.setdefault(_int_element(g, ONE / det), g)
            inverses.append((g.inverse(), det))
        for g, y in inverses:
            ordered.setdefault(_int_element(g, y), g)
        self.n = n
        self.gens = gens
        self.with_inverses = tuple(ordered.values())
        self.elements = tuple(ordered)

    def __repr__(self):
        return f"GeneratorSet(n={self.n}, {len(self.gens)} generators)"


def gl_embed(g: QMatrix):
    """The point of g in the (n^2+1)-coordinate model: entries row-major, then 1/det g."""
    det = g.det()
    if not det:
        raise SingularMatrix("cannot embed a singular matrix")
    return (*g.entries, ONE / det)


@lru_cache(maxsize=None)
def monomial_basis(m: int, d: int):
    """All exponent tuples of m variables with total degree <= d, ascending in grevlex.

    Grevlex compares degree first, so the constant monomial comes first and
    each degree is one block.  This is the coordinate order of every lifted
    vector; an echelon row's pivot is its first nonzero column, so its
    grevlex-least monomial.
    """
    level = {(0,) * m}
    monos = set(level)
    for _ in range(d):
        level = {mono[:i] + (mono[i] + 1,) + mono[i + 1 :] for mono in level for i in range(m)}
        monos |= level
    return tuple(sorted(monos, key=GREVLEX.key))


@lru_cache(maxsize=None)
def _lift_table(m: int, d: int):
    """(parent, var) per non-constant coordinate: its monomial is var times
    the monomial at parent, an earlier coordinate of monomial_basis(m, d)."""
    basis = monomial_basis(m, d)
    index = {mono: i for i, mono in enumerate(basis)}
    table = []
    for mono in basis[1:]:
        var = next(i for i, e in enumerate(mono) if e)
        table.append((index[mono[:var] + (mono[var] - 1,) + mono[var + 1 :]], var))
    return tuple(table)


@lru_cache(maxsize=None)
def _lift_codegrees(m: int, d: int):
    """(d - degree in the first m - 1 variables, d - degree in the last) per
    coordinate of monomial_basis(m, d)."""
    return tuple((d - sum(mono[:-1]), d - mono[-1]) for mono in monomial_basis(m, d))


def _lift(coords, d):
    """All monomials of degree <= d in the integer coords, one product per monomial."""
    out = [1]
    for parent, var in _lift_table(len(coords), d):
        x = out[parent]
        out.append(x * coords[var] if x else x)
    return out


class LiftedBasis:
    """Saturated span of lifted group elements: its echelon, and the witness word of each row.

    The columns ascend in grevlex, which compares degree first, and a row's
    pivot is its first nonzero column, so the pivot monomials of degree t
    are the standard monomials of degree t of the closure ideal I(G), and
    hilbert_function[t] counts them:
    the affine Hilbert function of I(G) up to degree d.  Standard monomials
    form an order ideal, so when hilbert_function[d] is 0 no standard
    monomial has degree d or more (certifies_finite).  Then the closure is
    finite, of order dimension, and every element of its reduced grevlex
    basis has degree at most d and is a minimal kernel vector of this span:
    monic, with its other terms on pivot columns, so already reduced.
    """

    __slots__ = ("d", "m", "words", "echelon")

    def __init__(self, d, m, words, echelon):
        self.d = d
        self.m = m
        self.words = words
        self.echelon = echelon

    @property
    def dimension(self):
        return len(self.words)

    @property
    def hilbert_function(self):
        """Pivot count per degree 0..d."""
        counts = [0] * (self.d + 1)
        basis = monomial_basis(self.m, self.d)
        for p in self.echelon.pivots:
            counts[sum(basis[p])] += 1
        return counts

    @property
    def certifies_finite(self):
        """True when no pivot has degree d: the closure is finite (see above)."""
        return not self.hilbert_function[self.d]

    def kernel_vectors(self):
        return self.echelon.kernel()


class ClosureResult:
    """Degree-bounded vanishing ideal of a generated group."""

    __slots__ = ("ideal", "degree_used", "certified", "span")

    def __init__(self, ideal, degree_used, certified, span):
        self.ideal = ideal
        self.degree_used = degree_used
        self.certified = certified
        self.span = span

    def __repr__(self):
        return (
            f"ClosureResult(degree={self.degree_used}, span={self.span.dimension}, "
            f"generators={len(self.ideal.generators)}, certified={self.certified})"
        )


def _int_element(g: QMatrix, y):
    """g as (H, D, a, b): g = H / D and y = 1/det g = a / b, each in lowest terms, D, b > 0."""
    den = lcm(*(int(e.denominator) for e in g.entries))
    h = tuple(int(e.numerator) * (den // int(e.denominator)) for e in g.entries)
    return h, den, int(y.numerator), int(y.denominator)


def _identity_element(n):
    """The (H, D, a, b) record of the n x n identity."""
    return tuple(int(i == j) for i in range(n) for j in range(n)), 1, 1, 1


def _int_product(g, w, n):
    """The element g·w of two (H, D, a, b) elements, in lowest terms."""
    gh, gd, ga, gb = g
    wh, wd, wa, wb = w
    cols = [wh[j::n] for j in range(n)]
    h = []
    for i in range(0, n * n, n):
        row = gh[i : i + n]
        for col in cols:
            x = 0
            for p, q in zip(row, col):
                x += p * q
            h.append(x)
    den = gd * wd
    c = gcd(den, *h)
    a, b = ga * wa, gb * wb
    e = gcd(a, b)
    # from a list, not an iterator (see EchelonBasis._remainder)
    return tuple([x // c for x in h]), den // c, a // e, b // e


def _scaled_lift(element, d):
    """An integer vector proportional to the monomial lift of the element.

    The lift of (H / D, a / b) at a monomial of degree e in the entries and k
    in y is H^alpha a^k / (D^e b^k); times D^d b^d it is an integer.
    """
    h, den, a, b = element
    out = _lift(h + (a,), d)
    if den == 1 and b == 1:
        return out
    dpow = [den**i for i in range(d + 1)]
    bpow = [b**i for i in range(d + 1)]
    return [x * dpow[i] * bpow[j] for x, (i, j) in zip(out, _lift_codegrees(len(h) + 1, d))]


def lifted_span(generators: GeneratorSet, d: int) -> LiftedBasis:
    """Span of the monomial lifts of the generated group, saturated from the identity.

    Each basis vector is the lift of a group element W, kept exactly on ints
    as (H, D, a, b) with W = H / D and 1/det W = a / b; its image under the
    generator record g of generators.elements is the lift of g·W.  The
    echelon receives an integer vector proportional to each lift, which
    decides independence and pivots exactly as the lift would; no rational
    lift is built.  Breadth-first over (basis vector, generator) pairs in
    insertion order, so the witness words and the resulting basis are
    reproducible; words[i] lists the generators applied, first to last.
    Records are in lowest terms with D, b > 0, so equal elements have equal
    records, and a product whose record was tried before (the identity
    included) is skipped before it is lifted: the span only grows, so it
    already holds that lift.  Each distinct element is tried once, and a
    finite group of order N costs at most N insertions.
    A row's pivot is its first nonzero column, in ascending grevlex, so the
    free column of each kernel vector is its grevlex leading monomial.
    Raises ResourceLimit before building anything when C(m + d, d), which
    also bounds the span's dimension, exceeds MAX_COORDINATES, and from the
    echelon past linalg.ECHELON_WORK_BITS.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    n = generators.n
    m = n * n + 1
    size = comb(m + d, d)
    if size > MAX_COORDINATES:
        raise ResourceLimit(f"{size} monomial coordinates exceed the limit {MAX_COORDINATES}")
    gens = generators.elements
    echelon = EchelonBasis(size)
    identity = _identity_element(n)
    echelon.insert(_scaled_lift(identity, d))
    elements = [identity]
    words = [()]
    tried = {identity}
    queue = deque((0, gi) for gi in range(len(gens)))
    while queue:
        vi, gi = queue.popleft()
        h = _int_product(gens[gi], elements[vi], n)
        if h in tried:
            continue
        tried.add(h)
        if echelon.insert(_scaled_lift(h, d)):
            elements.append(h)
            words.append(words[vi] + (gi,))
            queue.extend((len(elements) - 1, gj) for gj in range(len(gens)))
    return LiftedBasis(d, m, words, echelon)


def _minimal_kernel_polys(span: LiftedBasis):
    """Kernel polynomials whose free monomial no other free monomial divides.

    With grevlex pivots the free monomials are the leading monomials of the
    vanishing polynomials of degree <= d, a set closed under multiplication
    by monomials within degree d.  So a free monomial t is minimal exactly
    when every t - e_i (t_i > 0) is a pivot column.  Only the minimal
    vectors are built, sparsely off the echelon rows.
    """
    basis = monomial_basis(span.m, span.d)
    index = {mono: i for i, mono in enumerate(basis)}
    pivots = set(span.echelon.pivots)
    minimal = [
        c
        for c, t in enumerate(basis)
        if c not in pivots
        and all(index[t[:i] + (e - 1,) + t[i + 1 :]] in pivots for i, e in enumerate(t) if e)
    ]
    return [
        Poly(span.m, {basis[c]: x for c, x in vec.items()})
        for vec in span.echelon.kernel_at(minimal)
    ]


def invariants_up_to_degree(
    generators: GeneratorSet, d: int, degree_dominates=False
) -> ClosureResult:
    """All polynomials of degree <= d vanishing on the generated group.

    The returned ideal's generators are the kernel elements of the saturated
    span whose grevlex leading monomials are minimal under divisibility;
    they generate the same ideal as the whole kernel (the span keeps the
    full kernel in kernel_vectors()).  Each is monic in grevlex.

    When the span has no pivot of degree d (span.certifies_finite; see
    LiftedBasis), the closure is finite and these generators, which come in
    column order and so by ascending leading monomial, are already its
    reduced grevlex basis: they seed the ideal's GREVLEX cache, and no
    Buchberger run follows on them.  certified is "degree-complete"
    only when the caller asserts d dominates the true closure degree.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    span = lifted_span(generators, d)
    gens = _minimal_kernel_polys(span)
    if span.certifies_finite:
        ideal = Ideal.with_grevlex_basis(span.m, gens)
    else:
        ideal = Ideal(span.m, gens)
    certified = "degree-complete" if degree_dominates else "heuristic-stable"
    return ClosureResult(ideal, d, certified, span)


def restricted_kernel(span: LiftedBasis, var_indices, max_degree=None):
    """Vanishing polynomials supported on monomials in the given variables.

    The kernel of the echelon rows projected onto those monomials.  Columns
    ascend in degree and each kernel vector has the degree of its free
    monomial, so max_degree, when given, just drops the vectors above it.
    """
    basis = monomial_basis(span.m, span.d)
    allowed = set(var_indices)
    cols = [
        i
        for i, mono in enumerate(basis)
        if all(e == 0 or v in allowed for v, e in enumerate(mono))
    ]
    projected = EchelonBasis(len(cols))
    for row in span.echelon.rows:
        projected.insert([row[c] for c in cols])
    out = []
    for vec in projected.kernel():
        poly = Poly(span.m, {basis[c]: x for c, x in zip(cols, vec) if x})
        if max_degree is None or poly.total_degree() <= max_degree:
            out.append(poly)
    return out


def minimal_restricted_degree(span: LiftedBasis, var_indices):
    """Smallest degree of a nonzero vanishing polynomial in the given variables."""
    kernel = restricted_kernel(span, var_indices)
    return kernel[0].total_degree() if kernel else None


def identity_point_ideal(n: int) -> Ideal:
    m = n * n + 1
    gens = []
    for i in range(n):
        for j in range(n):
            var = Poly.variable(i * n + j, m)
            gens.append(var - 1 if i == j else var)
    gens.append(Poly.variable(m - 1, m) - 1)
    return Ideal(m, gens)


def closure_cyclic_semisimple(g: QMatrix) -> Ideal:
    """Vanishing ideal of the closure of the group generated by a single
    rationally diagonalizable matrix.

    Diagonalize g = P a P^{-1}, emit the relation-lattice binomials on the
    diagonal, off-diagonal vanishing, and the inverse-determinant relation,
    then substitute the entries of P^{-1} X P for the diagonal coordinates.
    """
    if not g.det():
        raise SingularMatrix("need an invertible matrix")
    if not is_semisimple(g):
        raise NotSemisimple("matrix is not semisimple")
    eigen = rational_eigenvalues(g)  # raises UnsupportedEigenvalues
    n = g.rows
    m = n * n + 1
    columns = []
    diag = []
    for value in sorted(set(eigen)):
        for vec in (g - QMatrix.diagonal([value] * n)).kernel_basis():
            columns.append([vec[i, 0] for i in range(n)])
            diag.append(value)
    p = QMatrix(n, n, [columns[j][i] for i in range(n) for j in range(n)])
    p_inv = p.inverse()

    binomials = lattice_to_binomial_ideal(rational_relation_lattice(diag), n)
    diagonal = [i * n + i for i in range(n)]
    gens = [b.map_variables(m, diagonal) for b in binomials.generators]
    gens.extend(Poly.variable(i * n + j, m) for i in range(n) for j in range(n) if i != j)
    det_relation = Poly.variable(m - 1, m)
    for v in diagonal:
        det_relation = det_relation * Poly.variable(v, m)
    gens.append(det_relation - 1)
    # X = P D P^{-1} on the closure, so D = P^{-1} X P: substitute it for D
    to_diagonal = (
        PolyMatrix.constant(p_inv, m) * PolyMatrix.generic(n, m) * PolyMatrix.constant(p, m)
    )
    mapping = dict(enumerate(to_diagonal.entries))
    return Ideal(m, [f.subs(mapping) for f in gens])


def implicitize(components, num_params: int) -> Ideal:
    """Ideal of the closure of the image of a polynomial map.

    components: polynomials in num_params variables, one per output
    coordinate.  Eliminates the parameters from <out_i - f_i(params)>.
    """
    k = num_params
    total = k + len(components)
    gens = []
    for i, f in enumerate(components):
        if f.arity != k:
            raise ValueError("component arity must equal num_params")
        gens.append(Poly.variable(k + i, total) - f.map_variables(total, range(k)))
    return eliminate(Ideal(total, gens), k)


def closure_unipotent_product(hs, n=None) -> Ideal:
    """Closure of { Phi_{h_1}(z_1) ... Phi_{h_l}(z_l) } for unipotent h_i.

    Implicitizes the multi-parameter product of one-parameter subgroups in
    the embedded coordinates; the product has determinant 1, so the last
    coordinate is constant 1.  An empty list (dimension n required) yields
    the ideal of the identity point.
    """
    hs = list(hs)
    if not hs:
        if n is None:
            raise ValueError("an empty product needs the dimension n")
        return identity_point_ideal(n)
    n = hs[0].rows
    ell = len(hs)
    product = None
    for i, h in enumerate(hs):
        phi = one_parameter(h).map_variables(ell, {0: i})  # raises NotUnipotent
        product = phi if product is None else product * phi
    components = list(product.entries) + [Poly.const(ell, 1)]
    return implicitize(components, ell)


def is_group_variety(ideal: Ideal, n: int) -> bool:
    """Certificate that V(ideal) ∩ GL_n is a subgroup.

    Checks the identity point, closure of the generator polynomials under a
    generic product, and under the adjugate (Cramer) inverse.
    """
    m = n * n + 1
    if ideal.arity != m:
        raise ValueError("ideal must live in n^2+1 variables")
    reduced = ideal.groebner(GREVLEX)
    if not reduced:
        return True
    identity = (*QMatrix.identity(n).entries, ONE)  # gl_embed of the identity
    for f in reduced:
        if f.evaluate(identity) != 0:
            return False

    # product: two generic copies u (vars 0..m-1) and v (vars m..2m-1); the
    # copies share no variable, so their union is the reduced Gröbner basis
    # of the doubled ideal, and every product image reduces against it
    double = [f.map_variables(2 * m, range(m)) for f in reduced] + [
        f.map_variables(2 * m, range(m, 2 * m)) for f in reduced
    ]
    doubled = Ideal.with_grevlex_basis(
        2 * m, sorted(double, key=lambda f: GREVLEX.key(f.leading(GREVLEX)[0]))
    )
    product = PolyMatrix.generic(n, 2 * m) * PolyMatrix.generic(n, 2 * m, m)
    prod_map = dict(enumerate(product.entries))
    prod_map[m - 1] = Poly.variable(m - 1, 2 * m) * Poly.variable(2 * m - 1, 2 * m)
    for f in reduced:
        if not ideal_member(f.subs(prod_map), doubled):
            return False

    # inverse: adjugate times y gives the entries, det gives the new y
    generic = PolyMatrix.generic(n, m)
    yvar = Poly.variable(m - 1, m)
    inv_map = {k: e * yvar for k, e in enumerate(generic.adjugate().entries)}
    inv_map[m - 1] = generic.det()
    for f in reduced:
        if not ideal_member(f.subs(inv_map), ideal):
            return False
    return True


def auto_closure(generators: GeneratorSet, max_d: int) -> ClosureResult:
    """Iterative deepening until the degree-d ideal stabilizes.

    Stops at the first d with V_d = V_{d+1} (as ideals) that contains
    y·det - 1 and whose variety passes the group certificate; the
    certificate is heuristic, which the result's certified field records.
    Every closure ideal contains y·det - 1, so an ideal without it is not
    the closure's, however stable: for a group dense in GL_n, n >= 2, the
    ideals of degree below n + 1 are all zero, and V(0) ∩ GL_n is a group.
    A degree-d span with no pivot of degree d (span.certifies_finite),
    d = max_d included, stops there before the degree d + 1 span is built:
    its closure is finite and V_d is the whole closure ideal, so
    V_d = V_{d+1} and that variety is a group.
    """
    if max_d < 1:
        raise ValueError("max degree must be at least 1")
    n = generators.n
    m = n * n + 1
    det_relation = PolyMatrix.generic(n, m).det() * Poly.variable(m - 1, m) - 1
    previous = None
    for d in range(1, max_d + 1):
        current = invariants_up_to_degree(generators, d)
        if (
            previous is not None
            and ideal_equal(previous.ideal, current.ideal)
            and ideal_member(det_relation, previous.ideal)
            and is_group_variety(previous.ideal, n)
        ):
            return previous
        if current.span.certifies_finite:
            return current
        previous = current
    raise NoStabilization(f"no stabilization up to degree {max_d}")


# The membership tests of schreier_generators on a record h and the identity's
# e: 1/det = a / b in lowest terms is 1 exactly when a = b.
SCHREIER_MEMBERS = {
    "det1": lambda h, e: h[2] == h[3],
    "identity": lambda h, e: h == e,
    "all": lambda h, e: True,
}


def schreier_generators(generators: GeneratorSet, member, index_bound: int, length_cap=None):
    """Generators of a finite-index subgroup via bounded word enumeration.

    Enumerates all products of generators and inverses of length at most
    2*index_bound + 1, or length_cap when given (deduplicated), keeping those
    SCHREIER_MEMBERS[member] accepts; stops at the first length that adds
    no new product, so a finite group ends the enumeration once it closes.
    Products are records of generators.elements, equal exactly when the
    matrices are; only the accepted ones become QMatrix.  Raises
    ResourceLimit past MAX_SCHREIER_PRODUCTS distinct products or
    MAX_SCHREIER_BITS bits of their entries' reduced numerators and denominators.
    """
    if index_bound < 1:
        raise ValueError("index bound must be at least 1")
    if length_cap is not None and length_cap < 0:
        raise ValueError("length cap must be nonnegative")
    accept = SCHREIER_MEMBERS[member]
    cap = length_cap if length_cap is not None else 2 * index_bound + 1
    n = generators.n
    identity = _identity_element(n)
    seen = {identity: None}  # insertion-ordered
    frontier = [identity]
    bits = 0
    for _ in range(cap):
        nxt = []
        for w in frontier:
            for g in generators.elements:
                prod = _int_product(w, g, n)
                if prod not in seen:
                    seen[prod] = None
                    if len(seen) > MAX_SCHREIER_PRODUCTS:
                        raise ResourceLimit(
                            f"product enumeration exceeded {MAX_SCHREIER_PRODUCTS} matrices"
                        )
                    for x in prod[0]:
                        c = gcd(x, prod[1])
                        bits += (x // c).bit_length() + (prod[1] // c).bit_length()
                    if bits > MAX_SCHREIER_BITS:
                        raise ResourceLimit(
                            f"product enumeration exceeded {MAX_SCHREIER_BITS} bits of entries"
                        )
                    nxt.append(prod)
        if not nxt:
            break
        frontier = nxt
    return [QMatrix(n, n, [rat(x, h[1]) for x in h[0]]) for h in seen if accept(h, identity)]
