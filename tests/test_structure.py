import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from zclosure import structure
from zclosure.errors import NotUnipotent, ResourceLimit, SingularMatrix, UnsupportedEigenvalues
from zclosure.linalg import QMatrix
from zclosure.poly import Poly
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


Z = sympy.Symbol("z")


def to_sympy(c):
    """The sympy polynomial in Z with coefficients c, constant first."""
    return sympy.Poly([sympy.Rational(str(q)) for q in reversed(c)] or [0], Z, domain="QQ")


def from_sympy(p):
    """The coefficients of a sympy polynomial or expression in Z, constant
    first, without trailing zeros."""
    coeffs = [rat(str(q)) for q in reversed(sympy.Poly(p, Z, domain="QQ").all_coeffs())]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def random_coeffs(rng, degree):
    """Coefficients of a seeded rational polynomial of the given degree."""
    coeffs = [rat(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)]
    return coeffs + [rat(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))]


def linear_power(root, k):
    """(z - root)^k, expanded by sympy."""
    return from_sympy((Z - sympy.Rational(str(root))) ** k)


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


class TestListPolynomials:
    """The private coefficient-list helpers against sympy, on seeded random
    rational polynomials."""

    def test_divmod(self):
        rng = random.Random(30)
        for _ in range(200):
            f = random_coeffs(rng, rng.randint(0, 7))
            g = random_coeffs(rng, rng.randint(0, 4))
            q, r = structure._divmod(f, g)
            assert to_sympy(q) * to_sympy(g) + to_sympy(r) == to_sympy(f)
            assert len(r) < len(g) and (not r or r[-1])
            assert (q, r) == tuple(map(from_sympy, sympy.div(to_sympy(f), to_sympy(g))))

    def test_derivative_and_monic_gcd(self):
        rng = random.Random(31)
        for _ in range(100):
            common = to_sympy(random_coeffs(rng, rng.randint(0, 3)))
            f = from_sympy(common * to_sympy(random_coeffs(rng, rng.randint(0, 4))))
            g = from_sympy(common * to_sympy(random_coeffs(rng, rng.randint(0, 4))))
            assert structure._deriv(f) == from_sympy(to_sympy(f).diff(Z))
            assert structure._monic_gcd(f, g) == from_sympy(sympy.gcd(to_sympy(f), to_sympy(g)))

    def test_squarefree_part(self):
        rng = random.Random(32)
        for _ in range(100):
            f = to_sympy([rat(rng.choice([-2, 1, 3]), rng.randint(1, 2))])
            for _ in range(3):
                f *= to_sympy(random_coeffs(rng, rng.randint(0, 2))) ** rng.randint(1, 3)
            f = from_sympy(f)
            part = structure._squarefree(f)
            assert part[-1] == f[-1]
            assert [c / part[-1] for c in part] == from_sympy(sympy.sqf_part(to_sympy(f)))


class TestCharPoly:
    def test_identity(self):
        assert char_poly(QMatrix.identity(2)) == [1, -2, 1]

    def test_diagonal(self):
        assert char_poly(QMatrix.diagonal([rat(2), rat(3)])) == [6, -5, 1]

    def test_rotation(self):
        assert char_poly(qm([[0, -1], [1, 0]])) == [1, 0, 1]

    def test_against_sympy(self):
        rng = random.Random(33)
        for n in range(1, 6):
            for _ in range(10):
                g = random_invertible(rng, n)
                m = sympy.Matrix(n, n, [sympy.Rational(str(e)) for e in g.entries])
                assert char_poly(g) == [rat(str(c)) for c in reversed(m.charpoly().all_coeffs())]

    def test_companion(self):
        rng = random.Random(34)
        for n in range(1, 7):
            coeffs = [rat(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            assert char_poly(companion_matrix(coeffs)) == coeffs + [1]

    def test_annihilates(self):
        rng = random.Random(21)
        for _ in range(20):
            g = random_invertible(rng, 3, 5)
            assert eval_poly_at_matrix(char_poly(g), g).is_zero()


class TestMinPoly:
    def test_identity(self):
        assert min_poly(QMatrix.identity(3)) == [-1, 1]

    def test_jordan_block(self):
        assert min_poly(qm([[2, 1], [0, 2]])) == [4, -4, 1]

    def test_repeated_eigenvalue(self):
        g = QMatrix.diagonal([rat(2), rat(2), rat(3)])
        assert min_poly(g) == [6, -5, 1]

    def test_divides_char_and_annihilates(self):
        rng = random.Random(22)
        for _ in range(20):
            g = random_invertible(rng, 3, 5)
            m = min_poly(g)
            assert eval_poly_at_matrix(m, g).is_zero()
            assert sympy.rem(to_sympy(char_poly(g)), to_sympy(m)).is_zero

    @staticmethod
    def check_min_poly(g):
        m = min_poly(g)
        assert m[-1] == 1
        assert eval_poly_at_matrix(m, g).is_zero()
        assert sympy.rem(to_sympy(char_poly(g)), to_sympy(m)).is_zero
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
        assert self.check_min_poly(block) == linear_power(eigenvalue, size)
        # a direct sum with a smaller block of the same eigenvalue keeps the polynomial
        padded = QMatrix.from_rows(
            [list(block.row(i)) + [0] for i in range(size)] + [[0] * size + [eigenvalue]]
        )
        assert self.check_min_poly(padded) == linear_power(eigenvalue, size)


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
        m = to_sympy(min_poly(g))
        assert sympy.gcd(m, m.diff(Z)).degree() == 0

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
        assert char_poly(c) == [-2, 0, 1]
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


class TestWorkBudget:
    @pytest.mark.parametrize("budget", [83, 84])
    def test_char_poly_charges_each_product(self, monkeypatch, budget):
        # g has 12 bits (1 + 1, 2 + 1, 2 + 1, 3 + 1) and I has 6; step 1
        # charges 2 (12 + 6) for g I, step 2 charges 2 (12 + 12) for
        # g (g - 5 I), whose entries -4, 2, 3, -1 also have 12 bits
        monkeypatch.setattr(structure, "STRUCTURE_WORK_BITS", budget)
        g = qm([[1, 2], [3, 4]])
        if budget == 84:
            assert char_poly(g) == [-2, -5, 1]
        else:
            with pytest.raises(ResourceLimit, match="work budget of 83 bits"):
                char_poly(g)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: char_poly(qm([[1, 2], [3, 4]])),
            lambda: min_poly(qm([[1, 2], [3, 4]])),
            lambda: eval_poly_at_matrix([1, 1], qm([[1, 2], [3, 4]])),
            lambda: nilpotent_log(qm([[1, 1], [0, 1]])),
            lambda: nilpotent_exp(qm([[0, 1], [0, 0]])),
            lambda: one_parameter(qm([[1, 1], [0, 1]])),
            lambda: structure._monic_gcd([rat(-1), rat(0), rat(1)], [rat(1), rat(1)]),
        ],
        ids=["char_poly", "min_poly", "horner", "log", "exp", "one_parameter", "gcd"],
    )
    def test_every_loop_is_charged(self, monkeypatch, call):
        call()
        monkeypatch.setattr(structure, "STRUCTURE_WORK_BITS", 0)
        with pytest.raises(ResourceLimit):
            call()


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
