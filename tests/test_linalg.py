import itertools
import random
from collections import deque
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from zclosure.closure import GeneratorSet, lifted_span, monomial_basis
from zclosure import linalg
from zclosure.errors import ResourceLimit, SingularMatrix
from zclosure.linalg import (
    QMatrix,
    EchelonBasis,
    height,
    integer_kernel,
    row_hnf,
)
from zclosure.poly import GREVLEX
from zclosure._rat import ONE, ZERO, rat

from oracles import matrix_height, monomial_lift


def qm(rows):
    return QMatrix.from_rows([[rat(e) for e in r] for r in rows])


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
).map(rat)


def random_matrix(rng, n, max_height=10):
    return QMatrix(
        n,
        n,
        [
            rat(rng.randint(-max_height, max_height), rng.randint(1, max_height))
            for _ in range(n * n)
        ],
    )


def random_invertible(rng, n, max_height=10):
    while True:
        m = random_matrix(rng, n, max_height)
        if m.det():
            return m


class TestHeight:
    def test_paper_definition(self):
        assert height(rat(2, 3)) == 3

    def test_zero_is_one(self):
        assert height(rat(0)) == 1

    def test_negative(self):
        assert height(rat(-7, 2)) == 7

    @given(rationals, rationals)
    def test_submultiplicative(self, p, q):
        assert height(p * q) <= height(p) * height(q)


class TestMatrixHeight:
    def test_identity(self):
        assert matrix_height(QMatrix.identity(2)) == 1

    def test_max_over_entries(self):
        assert matrix_height(qm([["1/2", 3], [0, 1]])) == 3

    def test_example_power_height(self):
        # diag(2^p, 1/2) has height 2^p; p = 5
        assert matrix_height(QMatrix.diagonal([rat(2) ** 5, rat(1, 2)])) == 32

    def test_empty(self):
        assert matrix_height(QMatrix.zero(0, 0)) == 1


class TestInverse:
    def test_identity(self):
        assert QMatrix.identity(3).inverse() == QMatrix.identity(3)

    def test_diagonal(self):
        m = QMatrix.diagonal([rat(2), rat(1, 3)])
        assert m.inverse() == QMatrix.diagonal([rat(1, 2), rat(3)])

    def test_unitriangular(self):
        m = qm([[1, 1], [0, 1]])
        inv = m.inverse()
        assert inv == qm([[1, -1], [0, 1]])
        assert m * inv == QMatrix.identity(2)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            qm([[1, 2], [2, 4]]).inverse()

    def test_product_inverse_exact(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.choice([2, 3])
            a = random_invertible(rng, n)
            b = random_invertible(rng, n)
            ab = a * b
            assert ab * ab.inverse() == QMatrix.identity(n)


class TestRref:
    def test_zero(self):
        red, pivots = QMatrix.zero(2, 2).rref()
        assert red == QMatrix.zero(2, 2)
        assert pivots == []

    def test_identity(self):
        red, pivots = QMatrix.identity(3).rref()
        assert red == QMatrix.identity(3)
        assert pivots == [0, 1, 2]

    def test_rank_one(self):
        red, pivots = qm([[1, 2], [2, 4]]).rref()
        assert red == qm([[1, 2], [0, 0]])
        assert pivots == [0]

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(20):
            m = random_matrix(rng, 3)
            red, _ = m.rref()
            again, _ = red.rref()
            assert red == again


class TestKernel:
    def test_identity_trivial(self):
        assert QMatrix.identity(3).kernel_basis() == []

    def test_one_by_two(self):
        (v,) = qm([[2, 3]]).kernel_basis()
        # direct solve: 2a + 3b = 0, basis (3, -2) up to scaling
        assert v[0, 0] * rat(2) + v[1, 0] * rat(3) == 0
        assert v[0, 0] * rat(-2) == v[1, 0] * rat(3)

    def test_zero_matrix_full(self):
        basis = QMatrix.zero(2, 2).kernel_basis()
        assert len(basis) == 2

    def test_products_vanish(self):
        rng = random.Random(3)
        for _ in range(20):
            m = random_matrix(rng, 3)
            for v in m.kernel_basis():
                assert (m * v).is_zero()
            assert len(m.kernel_basis()) == 3 - m.rank()


class TestIntegerKernel:
    def test_identity_empty(self):
        assert integer_kernel([[1, 0], [0, 1]]) == []

    def test_one_by_two(self):
        assert integer_kernel([[2, 3]]) == [[3, -2]]

    def test_three_columns(self):
        assert integer_kernel([[1, 1, 0], [0, 1, 1]]) == [[1, -1, 1]]

    def test_saturated(self):
        # stacking any kernel vector on the basis must not enlarge the lattice:
        # the HNF of the stack equals the HNF of the basis
        rng = random.Random(5)
        for _ in range(30):
            m = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(2)]
            rows = integer_kernel(m)
            if not rows:
                continue
            coeffs = [rng.randint(-5, 5) for _ in rows]
            extra = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(4)]
            assert row_hnf(rows + [extra]) == row_hnf(rows)

    def test_kernel_rows_annihilate(self):
        rng = random.Random(9)
        for _ in range(30):
            m = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(3)]
            k = integer_kernel(m)
            for r in k:
                for i in range(3):
                    assert sum(m[i][j] * r[j] for j in range(5)) == 0
            # rank-nullity over Q bounds the basis size
            q = QMatrix(3, 5, [rat(e) for row in m for e in row])
            assert len(k) == 5 - q.rank()

    def test_work_budget(self, monkeypatch):
        # the first row update, [3, 0, 1] minus 1 times the pivot row
        # [2, 1, 0], is charged 3 * (1 + 2) = 9 bits
        assert integer_kernel([[2, 3]]) == [[3, -2]]
        monkeypatch.setattr(linalg, "HNF_WORK_BITS", 8)
        with pytest.raises(ResourceLimit, match="work budget of 8 bits"):
            integer_kernel([[2, 3]])


class TestEchelonBasis:
    def test_insert_and_kernel(self):
        basis = EchelonBasis(3)
        assert basis.insert([rat(1), rat(2), rat(3)])
        assert not basis.insert([rat(2), rat(4), rat(6)])
        assert basis.insert([rat(0), rat(1), rat(1)])
        assert len(basis) == 2
        for v in basis.kernel():
            assert sum(a * b for a, b in zip(v, [rat(1), rat(2), rat(3)])) == 0
            assert sum(a * b for a, b in zip(v, [rat(0), rat(1), rat(1)])) == 0
        assert len(basis.kernel()) == 1

    def test_matches_matrix_kernel(self):
        rng = random.Random(13)
        for _ in range(10):
            vectors = [[rat(rng.randint(-4, 4)) for _ in range(5)] for _ in range(3)]
            basis = EchelonBasis(5)
            for v in vectors:
                basis.insert(v)
            mk = QMatrix.from_rows(vectors).kernel_basis()
            ek = basis.kernel()
            assert len(mk) == len(ek)
            span = EchelonBasis(5)
            for v in ek:
                assert span.insert(v)
            for col in mk:
                assert not span.insert([col[i, 0] for i in range(5)])


@settings(max_examples=50)
@given(st.lists(rationals, min_size=4, max_size=4))
def test_two_by_two_inverse_roundtrip(entries):
    m = QMatrix(2, 2, entries)
    if not m.det():
        return
    assert m * m.inverse() == QMatrix.identity(2)
    assert m.inverse().inverse() == m


# zero half the time, so pivots skip columns and rows arrive out of pivot order
small_rationals = st.one_of(
    st.just(rat(0)), st.fractions(min_value=-3, max_value=3, max_denominator=3).map(rat)
)

# numerators up to 10^12 over denominators up to 10^6, so reduced rows carry
# large, mostly coprime denominators
wide_rationals = st.one_of(
    st.just(rat(0)),
    st.builds(rat, st.integers(-(10**12), 10**12), st.integers(1, 10**6)),
)


@st.composite
def matrices(draw, square=False, entries=small_rationals, max_rows=4):
    """Rational matrices up to 4x5 (max_rows x max_rows when square): sparse,
    and often rank-deficient.

    Each row after the first may be replaced by a combination of the rows
    above it, so zero, wide, tall and rank-deficient matrices all occur.
    """
    rows = draw(st.integers(1, max_rows))
    cols = rows if square else draw(st.integers(1, 5))
    m = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.booleans()):
            coeffs = [draw(entries) for _ in range(i)]
            m[i] = [sum((c * m[j][k] for j, c in enumerate(coeffs)), rat(0)) for k in range(cols)]
    return QMatrix(rows, cols, [e for row in m for e in row])


def to_sympy(m):
    return sympy.Matrix(
        m.rows,
        m.cols,
        [sympy.Rational(int(e.numerator), int(e.denominator)) for e in m.entries],
    )


def from_sympy(value):
    if isinstance(value, sympy.MatrixBase):
        return QMatrix(value.rows, value.cols, [from_sympy(e) for e in value])
    return rat(int(value.p), int(value.q))


class TestEchelonAgainstSympy:
    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_rref_and_kernel(self, m):
        red, pivots = m.rref()
        sym_red, sym_pivots = to_sympy(m).rref()
        assert red == from_sympy(sym_red)
        assert pivots == list(sym_pivots)
        kernel = m.kernel_basis()
        assert len(kernel) == m.cols - len(pivots)
        for v in kernel:
            assert (m * v).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_pivot_is_first_nonzero_column(self, m):
        echelon = EchelonBasis(m.cols)
        for i in range(m.rows):
            echelon.insert(m.row(i))
        rank = to_sympy(m).rank()
        assert len(echelon) == rank
        for row, pivot in zip(echelon.rows, echelon.pivots):
            assert next(c for c, x in enumerate(row) if x) == pivot
            assert row[pivot] == 1
            assert all(not row[p] for p in echelon.pivots if p != pivot)
        for i in range(m.rows):
            assert echelon.contains(m.row(i))
        kernel = echelon.kernel()
        assert len(kernel) == m.cols - rank
        for v in kernel:
            assert (m * QMatrix.column(v)).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(matrices(square=True))
    def test_inverse(self, m):
        assert m.det() == from_sympy(to_sympy(m).det())
        if not m.det():
            with pytest.raises(SingularMatrix):
                m.inverse()
        else:
            assert m.inverse() == from_sympy(to_sympy(m).inv())


def gaussian_det(m):
    """Frozen copy of the former QMatrix.det: rational Gaussian elimination."""
    n = m.rows
    rows = [list(m.row(i)) for i in range(n)]
    det = ONE
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return ZERO
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        inv = ONE / rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] * inv
            if f:
                for j in range(c, n):
                    rows[r][j] -= f * rows[c][j]
    return det


def permutation_sign(perm):
    """(-1)^(n - number of cycles), counted by walking the cycles."""
    seen = set()
    cycles = 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return (-1) ** (len(perm) - cycles)


@st.composite
def square_pairs(draw):
    """Two n x n rational matrices with the same n, up to 5."""
    n = draw(st.integers(1, 5))
    a, b = (draw(st.lists(small_rationals, min_size=n * n, max_size=n * n)) for _ in range(2))
    return QMatrix(n, n, a), QMatrix(n, n, b)


class TestDeterminant:
    """det is the signed product of the echelon's pivot entries."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_permutation_matrices(self, n):
        # pivots arrive in every order, so a wrong parity rule fails here
        for perm in itertools.permutations(range(n)):
            m = QMatrix(n, n, [int(j == perm[i]) for i in range(n) for j in range(n)])
            assert m.det() == permutation_sign(perm)

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            matrices(square=True, max_rows=6),
            matrices(square=True, entries=wide_rationals, max_rows=6),
        )
    )
    def test_matches_sympy_and_gaussian(self, m):
        det = m.det()
        assert det == from_sympy(to_sympy(m).det())
        assert det == gaussian_det(m)

    @settings(max_examples=60, deadline=None)
    @given(square_pairs(), st.data())
    def test_multiplicative_and_repeated_row(self, pair, data):
        a, b = pair
        assert (a * b).det() == a.det() * b.det()
        n = a.rows
        if n > 1:
            i, j = data.draw(st.permutations(range(n)))[:2]
            rows = [list(a.row(k)) for k in range(n)]
            rows[j] = rows[i]
            assert QMatrix.from_rows(rows).det() == 0


class DenseEchelon:
    """Frozen dense reference for EchelonBasis: every row is a full list."""

    def __init__(self, length, priority=None):
        self.length = length
        self.rows = []
        self.pivots = []
        self._pivot_of = {}
        self._priority = range(length) if priority is None else priority

    def __len__(self):
        return len(self.rows)

    def reduce(self, vector):
        v = list(vector)
        for pivot, row in zip(self.pivots, self.rows):
            f = v[pivot]
            if f:
                for j, b in enumerate(row):
                    if b:
                        v[j] -= f * b
        return v

    def insert(self, vector):
        v = self.reduce(vector)
        pivot = next((j for j in self._priority if v[j]), None)
        if pivot is None:
            return False
        inv = ONE / v[pivot]
        v = [x * inv for x in v]
        for row in self.rows:
            f = row[pivot]
            if f:
                for j, b in enumerate(v):
                    if b:
                        row[j] -= f * b
        self.rows.append(v)
        self.pivots.append(pivot)
        self._pivot_of[pivot] = len(self.rows) - 1
        return True

    def rref_rows(self):
        pivots = sorted(self._pivot_of)
        return pivots, [self.rows[self._pivot_of[p]] for p in pivots]

    def kernel(self):
        pivots, red = self.rref_rows()
        basis = []
        for fc in (c for c in range(self.length) if c not in self._pivot_of):
            v = [ZERO] * self.length
            v[fc] = ONE
            for row, pc in zip(red, pivots):
                v[pc] = -row[fc]
            basis.append(v)
        return basis


def assert_tails_sparse(echelon):
    """Tails hold nonzero ints off every pivot, over a positive denominator in lowest terms."""
    pivots = set(echelon.pivots)
    assert len(echelon._dens) == len(echelon._tails)
    for pivot, tail, den in zip(echelon.pivots, echelon._tails, echelon._dens):
        assert all(type(b) is int and b for b in tail.values()), (pivot, tail)
        assert not pivots & tail.keys(), (pivot, tail)
        assert type(den) is int and den > 0, (pivot, den)
        assert gcd(den, *tail.values()) == 1, (pivot, den, tail)


def check_same_echelon(m):
    sparse = EchelonBasis(m.cols)
    dense = DenseEchelon(m.cols)
    for i in range(m.rows):
        assert bool(sparse.insert(m.row(i))) == dense.insert(m.row(i))
        assert sparse.pivots == dense.pivots
        assert sparse.rows == dense.rows
        assert_tails_sparse(sparse)
    assert len(sparse) == len(dense)
    assert sparse.rref_rows() == dense.rref_rows()
    assert sparse.kernel() == dense.kernel()
    for i in range(m.rows):
        assert sparse.reduce(m.row(i)) == dense.reduce(m.row(i))


def fraction_lifted_span(generators, d):
    """Frozen Fraction reference for lifted_span, on DenseEchelon.

    Group elements are QMatrix products and every lift is a rational vector;
    returns (vectors, words, pivots, kernel).
    """
    n = generators.n
    m = n * n + 1
    basis = monomial_basis(m, d)
    priority = sorted(range(len(basis)), key=lambda i: GREVLEX.key(basis[i]))
    gens = [(g, ONE / g.det()) for g in generators.with_inverses]
    echelon = DenseEchelon(len(basis), priority)
    identity = QMatrix.identity(n)
    v0 = monomial_lift(identity.entries + (ONE,), d)
    echelon.insert(v0)
    vectors = [v0]
    elements = [(identity, ONE)]
    words = [()]
    queue = deque((0, gi) for gi in range(len(gens)))
    while queue:
        vi, gi = queue.popleft()
        g, y = gens[gi]
        w, yw = elements[vi]
        h, yh = g * w, y * yw
        image = monomial_lift(h.entries + (yh,), d)
        if echelon.insert(image):
            vectors.append(image)
            elements.append((h, yh))
            words.append(words[vi] + (gi,))
            queue.extend((len(vectors) - 1, gj) for gj in range(len(gens)))
    return vectors, words, echelon.pivots, echelon.kernel()


def assert_same_span(generators, d):
    """lifted_span gives the reference's words, pivots and kernel."""
    span = lifted_span(generators, d)
    assert_tails_sparse(span.echelon)
    _, words, pivots, kernel = fraction_lifted_span(generators, d)
    assert span.words == words
    assert span.echelon.pivots == pivots
    assert span.kernel_vectors() == kernel


@st.composite
def rational_gl2(draw):
    entries = [draw(small_rationals) for _ in range(4)]
    assume(entries[0] * entries[3] != entries[1] * entries[2])
    return QMatrix(2, 2, entries)


@st.composite
def signed_permutations3(draw):
    perm = draw(st.permutations(range(3)))
    signs = [draw(st.sampled_from([-1, 1])) for _ in range(3)]
    return QMatrix(3, 3, [signs[i] if j == perm[i] else 0 for i in range(3) for j in range(3)])


class TestSparseEchelonAgainstDense:
    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_same_echelon(self, m):
        check_same_echelon(m)

    @settings(max_examples=40, deadline=None)
    @given(matrices(entries=wide_rationals))
    def test_same_echelon_wide_denominators(self, m):
        check_same_echelon(m)

    def test_cancelled_entries_are_dropped(self):
        # back-substituting (0, 1, 1) into (1, 1, 1) cancels column 2
        echelon = EchelonBasis(3)
        echelon.insert([rat(1), rat(1), rat(1)])
        echelon.insert([rat(0), rat(1), rat(1)])
        assert_tails_sparse(echelon)
        assert echelon._tails == [{}, {2: 1}]
        assert echelon._dens == [1, 1]

    @pytest.mark.parametrize(
        "gens, d",
        [
            ([[[1, 1], [0, 1]], [[1, 0], [1, 1]]], 3),
            (
                [
                    [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                    [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
                    [[1, 0, 0], [0, 1, 0], [1, 0, 1]],
                ],
                2,
            ),
            ([[[1, 1], [0, 1]], [[1, 0], [1, 1]]], 4),
            # SL2 conjugated by [[1, 1/2], [0, 1]]
            ([[[1, 1], [0, 1]], [["3/2", "-1/4"], [1, "1/2"]]], 3),
            ([[[2, 0], [0, "1/2"]]], 4),
        ],
        ids=["sl2-d3", "sl3-d2", "sl2-d4", "sl2-rational", "torus"],
    )
    def test_same_span(self, gens, d):
        assert_same_span(GeneratorSet([qm(g) for g in gens]), d)

    @settings(max_examples=50, deadline=None)
    @given(
        st.one_of(
            st.lists(rational_gl2(), min_size=1, max_size=2),
            st.lists(signed_permutations3(), min_size=1, max_size=2),
        ),
        st.integers(1, 3),
    )
    def test_lifted_span_matches_fraction_reference(self, gens, d):
        assert_same_span(GeneratorSet(gens), d)
