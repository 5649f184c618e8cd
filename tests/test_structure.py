import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from zclosure.errors import NotUnipotent, SingularMatrix, UnsupportedEigenvalues
from zclosure.linalg import QMatrix
from zclosure.poly import Poly, derivative, uni_divmod, uni_gcd
from zclosure.structure import (
    PolyMatrix,
    char_poly,
    companion_matrix,
    eval_poly_at_matrix,
    is_nilpotent,
    is_semisimple,
    is_unipotent,
    jordan_chevalley,
    min_poly,
    nilpotent_exp,
    nilpotent_log,
    one_parameter,
    rational_eigenvalues,
)
from zclosure._rat import rat


def qm(rows):
    return QMatrix.from_rows([[rat(e) for e in r] for r in rows])


def x():
    return Poly.variable(0, 1)


def random_unipotent(rng, n):
    # exp of a random strictly upper triangular nilpotent
    entries = [
        rat(rng.randint(-3, 3), rng.randint(1, 3)) if j > i else rat(0)
        for i in range(n)
        for j in range(n)
    ]
    return nilpotent_exp(QMatrix(n, n, entries))


def random_invertible(rng, n, max_height=10):
    while True:
        m = QMatrix(
            n,
            n,
            [
                rat(rng.randint(-max_height, max_height), rng.randint(1, max_height))
                for _ in range(n * n)
            ],
        )
        if m.det():
            return m


class TestCharPoly:
    def test_identity(self):
        assert char_poly(QMatrix.identity(2)) == (x() - 1) ** 2

    def test_diagonal(self):
        assert char_poly(QMatrix.diagonal([rat(2), rat(3)])) == (x() - 2) * (x() - 3)

    def test_rotation(self):
        assert char_poly(qm([[0, -1], [1, 0]])) == x() ** 2 + 1

    def test_annihilates(self):
        rng = random.Random(21)
        for _ in range(20):
            g = random_invertible(rng, 3, 5)
            assert eval_poly_at_matrix(char_poly(g), g).is_zero()


class TestMinPoly:
    def test_identity(self):
        assert min_poly(QMatrix.identity(3)) == x() - 1

    def test_jordan_block(self):
        assert min_poly(qm([[2, 1], [0, 2]])) == (x() - 2) ** 2

    def test_repeated_eigenvalue(self):
        g = QMatrix.diagonal([rat(2), rat(2), rat(3)])
        assert min_poly(g) == (x() - 2) * (x() - 3)

    def test_divides_char_and_annihilates(self):
        rng = random.Random(22)
        for _ in range(20):
            g = random_invertible(rng, 3, 5)
            m = min_poly(g)
            assert eval_poly_at_matrix(m, g).is_zero()
            from zclosure.poly import uni_divmod

            assert uni_divmod(char_poly(g), m)[1].is_zero()

    @staticmethod
    def check_min_poly(g):
        m = min_poly(g)
        assert m.terms[(m.total_degree(),)] == 1
        assert eval_poly_at_matrix(m, g).is_zero()
        assert uni_divmod(char_poly(g), m)[1].is_zero()
        return m

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=9, max_size=9))
    def test_integer_matrices(self, entries):
        self.check_min_poly(QMatrix(3, 3, entries))

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    @pytest.mark.parametrize("eigenvalue", [0, 1, -2, rat(1, 3)])
    def test_jordan_blocks(self, size, eigenvalue):
        block = QMatrix(
            size,
            size,
            [eigenvalue if i == j else (1 if j == i + 1 else 0) for i in range(size) for j in range(size)],
        )
        assert self.check_min_poly(block) == (x() - eigenvalue) ** size
        # a direct sum with a smaller block of the same eigenvalue keeps the polynomial
        padded = QMatrix.from_rows(
            [list(block.row(i)) + [0] for i in range(size)] + [[0] * size + [eigenvalue]]
        )
        assert self.check_min_poly(padded) == (x() - eigenvalue) ** size


class TestPredicates:
    def test_identity_both(self):
        assert is_semisimple(QMatrix.identity(2))
        assert is_unipotent(QMatrix.identity(2))

    def test_jordan_block(self):
        g = qm([[1, 1], [0, 1]])
        assert not is_semisimple(g)
        assert is_unipotent(g)

    def test_rotation_semisimple(self):
        # min poly x^2 + 1 has gcd 1 with its derivative 2x
        g = qm([[0, -1], [1, 0]])
        assert is_semisimple(g)
        m = min_poly(g)
        assert uni_gcd(m, derivative(m)).total_degree() == 0

    def test_nilpotent(self):
        assert is_nilpotent(qm([[0, 1], [0, 0]]))
        assert not is_nilpotent(QMatrix.identity(2))


class TestJordanChevalley:
    def test_semisimple_fixed(self):
        g = QMatrix.diagonal([rat(2), rat(3)])
        d = jordan_chevalley(g)
        assert d.semisimple == g
        assert d.unipotent == QMatrix.identity(2)

    def test_unipotent_fixed(self):
        g = qm([[1, 1], [0, 1]])
        d = jordan_chevalley(g)
        assert d.semisimple == QMatrix.identity(2)
        assert d.unipotent == g

    def test_jordan_block_two(self):
        d = jordan_chevalley(qm([[2, 1], [0, 2]]))
        assert d.semisimple == QMatrix.diagonal([rat(2), rat(2)])
        assert d.unipotent == qm([[1, "1/2"], [0, 1]])

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            jordan_chevalley(qm([[1, 1], [1, 1]]))

    def test_uniqueness_on_commuting_product(self):
        g_s = QMatrix.diagonal([rat(2), rat(2), rat(5)])
        g_u = qm([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        assert g_s * g_u == g_u * g_s
        d = jordan_chevalley(g_s * g_u)
        assert d.semisimple == g_s
        assert d.unipotent == g_u

    def test_irrational_spectrum_stays_rational(self):
        # companion of x^2 - 2 times a commuting unipotent: outputs rational
        c = companion_matrix([-2, 0])
        assert char_poly(c) == x() ** 2 - 2
        g = c * nilpotent_exp(qm([[0, 0], [0, 0]]))
        d = jordan_chevalley(g)
        assert d.semisimple == c
        # a genuinely mixed case in dimension 3
        block = QMatrix.from_rows(
            [
                [c[0, 0], c[0, 1], rat(1)],
                [c[1, 0], c[1, 1], rat(0)],
                [rat(0), rat(0), rat(1)],
            ]
        )
        dd = jordan_chevalley(block)
        assert dd.product() == block
        assert dd.semisimple * dd.unipotent == dd.unipotent * dd.semisimple
        assert is_semisimple(dd.semisimple)
        assert is_unipotent(dd.unipotent)

    def test_invariants_random(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.choice([2, 3])
            g = random_invertible(rng, n)
            d = jordan_chevalley(g)
            assert d.semisimple * d.unipotent == g
            assert d.semisimple * d.unipotent == d.unipotent * d.semisimple
            assert is_semisimple(d.semisimple)
            assert is_unipotent(d.unipotent)


class TestLogExp:
    def test_log_identity(self):
        assert nilpotent_log(QMatrix.identity(3)).is_zero()

    def test_log_simple(self):
        assert nilpotent_log(qm([[1, 1], [0, 1]])) == qm([[0, 1], [0, 0]])

    def test_log_two_terms(self):
        u = qm([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        # N - N^2/2 with N = u - 1
        assert nilpotent_log(u) == qm([[0, 1, "-1/2"], [0, 0, 1], [0, 0, 0]])
        assert nilpotent_exp(nilpotent_log(u)) == u

    def test_not_unipotent(self):
        with pytest.raises(NotUnipotent):
            nilpotent_log(QMatrix.diagonal([rat(2), rat(1)]))

    def test_round_trip_random(self):
        rng = random.Random(24)
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            u = random_unipotent(rng, n)
            assert nilpotent_exp(nilpotent_log(u)) == u


class TestOneParameter:
    def test_identity_constant(self):
        phi = one_parameter(QMatrix.identity(2))
        assert phi.evaluate([rat(5)]) == QMatrix.identity(2)
        assert phi.max_degree() == 0

    def test_shear(self):
        phi = one_parameter(qm([[1, 1], [0, 1]]))
        z = Poly.variable(0, 1)
        assert phi[0, 0] == Poly.const(1, 1)
        assert phi[0, 1] == z
        assert phi[1, 0].is_zero()
        assert phi[1, 1] == Poly.const(1, 1)

    def test_half_step(self):
        phi = one_parameter(qm([[1, 2], [0, 1]]))
        assert phi.evaluate([rat(1, 2)]) == qm([[1, 1], [0, 1]])

    def test_endpoints_and_degree(self):
        rng = random.Random(25)
        for _ in range(20):
            n = rng.choice([2, 3, 4])
            u = random_unipotent(rng, n)
            phi = one_parameter(u)
            assert phi.evaluate([rat(0)]) == QMatrix.identity(n)
            assert phi.evaluate([rat(1)]) == u
            assert phi.max_degree() < n

    def test_homomorphism_polynomial_identity(self):
        # Phi(z + w) == Phi(z) Phi(w) coefficient-wise in Q[z, w]
        rng = random.Random(26)
        z2 = Poly.variable(0, 2)
        w2 = Poly.variable(1, 2)
        for _ in range(10):
            n = rng.choice([2, 3])
            u = random_unipotent(rng, n)
            phi = one_parameter(u)
            phi_z = phi.map_variables(2, {0: 0})
            phi_w = phi.map_variables(2, {0: 1})
            product = phi_z * phi_w
            for idx in range(n * n):
                shifted = phi.entries[idx].subs({0: z2 + w2})
                assert shifted == product.entries[idx]


class TestPolyMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_adjugate_times_generic_is_det_identity(self, n):
        generic = PolyMatrix.generic(n, n * n)
        det = generic.det()
        zero = Poly.zero(n * n)
        det_identity = PolyMatrix(
            n, n * n, [det if i == j else zero for i in range(n) for j in range(n)]
        )
        assert generic.adjugate() * generic == det_identity
        assert generic * generic.adjugate() == det_identity

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_det_and_adjugate_at_rational_points(self, n):
        rng = random.Random(40 + n)
        generic = PolyMatrix.generic(n, n * n)
        det = generic.det()
        adjugate = generic.adjugate()
        for _ in range(10):
            point = [rat(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n * n)]
            q = QMatrix(n, n, point)
            assert det.evaluate(point) == q.det()
            if q.det():
                assert adjugate.evaluate(point) * (1 / q.det()) == q.inverse()

    @pytest.mark.parametrize("arity", [0, 3])
    def test_empty_det_is_one(self, arity):
        # like QMatrix.det: the empty product
        assert PolyMatrix(0, arity, []).det() == Poly.const(arity, 1)

    def test_generic_offset_and_constant(self):
        q = qm([[1, 2], [3, 4]])
        generic = PolyMatrix.generic(2, 6, 2)
        assert generic[1, 0] == Poly.variable(4, 6)
        product = PolyMatrix.constant(q, 6) * generic
        point = [rat(9), rat(9), rat(5), rat(6), rat(7), rat(8)]
        assert product.evaluate(point) == q * qm([[5, 6], [7, 8]])

    def test_minor(self):
        generic = PolyMatrix.generic(3, 9)
        assert generic.minor(1, 0).entries == tuple(
            Poly.variable(v, 9) for v in (1, 2, 7, 8)
        )


class TestRationalEigenvalues:
    def test_diagonal(self):
        g = QMatrix.diagonal([rat(2) ** 5, rat(1, 2)])
        assert rational_eigenvalues(g) == [rat(1, 2), rat(32)]

    def test_conjugated(self):
        g = qm([[5, -6], [3, -4]])
        assert rational_eigenvalues(g) == [rat(-1), rat(2)]

    def test_multiplicity(self):
        g = QMatrix.diagonal([rat(2), rat(2), rat(3)])
        assert rational_eigenvalues(g) == [rat(2), rat(2), rat(3)]

    def test_irrational_rejected(self):
        with pytest.raises(UnsupportedEigenvalues):
            rational_eigenvalues(qm([[0, -1], [1, 0]]))
        with pytest.raises(UnsupportedEigenvalues):
            rational_eigenvalues(companion_matrix([-2, 0]))


def random_unimodular(rng, n):
    """Product of unit lower and unit upper triangular integer matrices."""

    def unit_triangular(below):
        return QMatrix(n, n, [
            rat(1 if i == j else rng.randint(-3, 3) if (i > j) == below else 0)
            for i in range(n)
            for j in range(n)
        ])

    return unit_triangular(True) * unit_triangular(False)


def planted_spectrum(rng, n):
    """n rationals drawn with repeats from a pool holding zero, negatives and
    denominators up to 720720."""
    denominators = [1, 1, 2, 9, 16, 720, 720720]
    pool = [rat(rng.randint(-40, 40), rng.choice(denominators)) for _ in range(n // 2 + 1)]
    return sorted(rng.choice(pool + [rat(0)]) for _ in range(n))


def sympy_rational_roots(g):
    """The rational roots of g's characteristic polynomial with multiplicity, by sympy."""
    z = sympy.Symbol("z")
    m = sympy.Matrix(g.rows, g.cols, [sympy.Rational(str(e)) for e in g.entries])
    found = sympy.roots(m.charpoly(z).as_expr(), z, filter="Q")
    return sorted(rat(str(r)) for r, k in found.items() for _ in range(k))


class TestRationalEigenvaluesAgainstSympy:
    """Each matrix is conjugated by a unimodular base.  Where sympy finds n
    rational roots of the characteristic polynomial, counted with
    multiplicity, they are the eigenvalues; where it finds fewer,
    rational_eigenvalues raises UnsupportedEigenvalues."""

    @staticmethod
    def check(g):
        want = sympy_rational_roots(g)
        if len(want) == g.rows:
            assert rational_eigenvalues(g) == want
        else:
            with pytest.raises(UnsupportedEigenvalues):
                rational_eigenvalues(g)
        return len(want) == g.rows

    def test_planted_spectra(self):
        rng = random.Random(25)
        for _ in range(150):
            n = rng.randint(1, 5)
            values = planted_spectrum(rng, n)
            # a Jordan block joins some equal neighbours: g is then not semisimple
            block = [values[i] == values[i + 1] and rng.random() < 0.5 for i in range(n - 1)]
            entries = [
                values[i] if i == j else rat(int(j == i + 1 and block[i]))
                for i in range(n)
                for j in range(n)
            ]
            u = random_unimodular(rng, n)
            assert self.check(u * QMatrix(n, n, entries) * u.inverse())

    def test_companions_with_a_quadratic_factor(self):
        rng = random.Random(26)
        rational = []
        for _ in range(100):
            # (z^2 - k) times planted linear factors; k a square in some draws
            poly = x() ** 2 - rng.choice([-3, -1, 0, 1, 2, 4, 5, 9, rat(1, 4), rat(3, 16)])
            for value in planted_spectrum(rng, rng.randint(0, 3)):
                poly = poly * (x() - value)
            coeffs = [poly.terms.get((i,), rat(0)) for i in range(poly.total_degree())]
            u = random_unimodular(rng, len(coeffs))
            rational.append(self.check(u * companion_matrix(coeffs) * u.inverse()))
        assert True in rational and False in rational
