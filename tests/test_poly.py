import itertools
import random

import pytest

from zclosure import poly
from zclosure.errors import ResourceLimit
from zclosure.linalg import QMatrix
from zclosure.poly import (
    GREVLEX,
    LEX,
    Ideal,
    MonomialOrder,
    Poly,
    elimination_order,
    eliminate,
    groebner,
    ideal_equal,
    ideal_member,
    normal_form,
)
from zclosure._rat import rat

from oracles import substitute_linear


def vars3():
    return [Poly.variable(i, 3) for i in range(3)]


def vars2():
    return [Poly.variable(i, 2) for i in range(2)]


class TestOrders:
    def test_grevlex_within_degree(self):
        # x^2 > xy > y^2 > xz > yz > z^2 for x > y > z
        monos = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
        keys = [GREVLEX.key(m) for m in monos]
        assert keys == sorted(keys, reverse=True)

    def test_lex(self):
        assert LEX.key((1, 0)) > LEX.key((0, 5))

    def test_multiplicative(self):
        rng = random.Random(2)
        for order in (GREVLEX, LEX, elimination_order(1)):
            for _ in range(50):
                a, b, c = (
                    tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(3)
                )
                if order.key(a) > order.key(b):
                    ac = tuple(x + y for x, y in zip(a, c))
                    bc = tuple(x + y for x, y in zip(b, c))
                    assert order.key(ac) > order.key(bc)

    def test_elimination_block_dominates(self):
        ord1 = elimination_order(1)
        # any monomial containing the first variable beats any not containing it
        assert ord1.key((1, 0, 0)) > ord1.key((0, 5, 5))


class TestArithmetic:
    def test_ring_ops(self):
        x, y = vars2()
        p = (x + y) * (x - y)
        assert p == x**2 - y**2

    def test_evaluate(self):
        x, y = vars2()
        p = x**2 * y - 3
        assert p.evaluate([rat(2), rat(1, 4)]) == rat(-2)

    def test_subs(self):
        x, y = vars2()
        p = x**2 + y
        q = p.subs({0: x + y, 1: y})
        assert q == (x + y) ** 2 + y


def seeded_poly(rng, arity, terms=6, max_exp=3):
    return Poly(
        arity,
        {
            tuple(rng.randint(0, max_exp) for _ in range(arity)): rat(
                rng.randint(-9, 9), rng.randint(1, 5)
            )
            for _ in range(terms)
        },
    )


class TestMapVariables:
    @pytest.mark.parametrize(
        "arity,new_arity,var_map",
        [
            (3, 7, range(4, 7)),  # offset
            (3, 6, [0, 2, 4]),  # interleaved
            (3, 10, {0: 0, 1: 4, 2: 8}),  # diagonal of a 3x3 matrix, then y
            (3, 3, [2, 0, 1]),  # permutation
        ],
        ids=["offset", "interleaved", "diagonal", "permutation"],
    )
    def test_matches_substitution_of_variables(self, arity, new_arity, var_map):
        rng = random.Random(f"map-{new_arity}")
        for _ in range(10):
            f = seeded_poly(rng, arity)
            want = f.subs({i: Poly.variable(var_map[i], new_arity) for i in range(arity)})
            got = f.map_variables(new_arity, var_map)
            assert got == want
            assert got.arity == new_arity

    def test_zero_and_constant(self):
        assert Poly.zero(2).map_variables(4, [1, 3]) == Poly.zero(4)
        assert Poly.const(2, 5).map_variables(4, [1, 3]) == Poly.const(4, 5)


class TestNormalForm:
    def test_zero(self):
        x, y = vars2()
        assert normal_form(Poly.zero(2), [x], GREVLEX).is_zero()

    def test_member_of_basis(self):
        x, y = vars2()
        f = x**2 - y
        assert normal_form(f, [f], GREVLEX).is_zero()

    def test_single_step_lex(self):
        x, y = vars2()
        assert normal_form(x**2, [x**2 - y], LEX) == y

    def test_no_divisible_terms_remain(self):
        rng = random.Random(4)
        for _ in range(20):
            polys = []
            for _ in range(3):
                terms = {
                    tuple(rng.randint(0, 3) for _ in range(2)): rat(
                        rng.randint(-5, 5)
                    )
                    for _ in range(3)
                }
                p = Poly(2, terms)
                if p:
                    polys.append(p)
            if not polys:
                continue
            f = Poly(
                2,
                {
                    tuple(rng.randint(0, 4) for _ in range(2)): rat(rng.randint(-5, 5))
                    for _ in range(4)
                },
            )
            r = normal_form(f, polys, GREVLEX)
            leads = [g.leading(GREVLEX)[0] for g in polys]
            for m in r.terms:
                assert not any(all(a <= b for a, b in zip(lm, m)) for lm in leads)


class TestGroebner:
    def test_already_reduced(self):
        x, y = vars2()
        assert groebner([x - 1], GREVLEX) == [x - 1]

    def test_twisted_cubic_lex(self):
        # hand Buchberger: S(x^2-y, x^3-z) -> xy - z; S(x^2-y, xy-z) -> xz - y^2;
        # S(xy-z, xz-y^2) -> y^3 - z^2; all remaining pairs reduce to 0.
        x, y, z = vars3()
        basis = groebner([x**2 - y, x**3 - z], LEX)
        assert y**3 - z**2 in basis
        assert basis == sorted(
            [x**2 - y, x * y - z, x * z - y**2, y**3 - z**2],
            key=lambda g: LEX.key(g.leading(LEX)[0]),
        )

    def test_unit_ideal(self):
        x, y = vars2()
        assert groebner([Poly.const(2, 1)], GREVLEX) == [Poly.const(2, 1)]
        assert groebner([x, x - 1], GREVLEX) == [Poly.const(2, 1)]

    def test_buchberger_criterion_on_output(self):
        # all S-polynomials of the returned basis reduce to 0
        rng = random.Random(8)
        x, y = vars2()
        corpora = [
            [x**2 + y**2 - 1, x * y - 1],
            [x**3 - 2 * x * y, x**2 * y - 2 * y**2 + x],
            [x**2 - y, y**2 - x],
        ]
        for gens in corpora:
            for order in (GREVLEX, LEX):
                basis = groebner(gens, order)
                for f, g in itertools.combinations(basis, 2):
                    fm, fc = f.leading(order)
                    gm, gc = g.leading(order)
                    lcm = tuple(max(a, b) for a, b in zip(fm, gm))
                    mf = Poly(2, {tuple(l - a for l, a in zip(lcm, fm)): 1 / fc})
                    mg = Poly(2, {tuple(l - a for l, a in zip(lcm, gm)): 1 / gc})
                    s = mf * f - mg * g
                    assert normal_form(s, basis, order).is_zero()

    def test_deterministic(self):
        x, y = vars2()
        gens = [x**2 + y**2 - 1, x * y - 1, x**3 - y]
        a = groebner(gens, GREVLEX)
        b = groebner(list(gens), GREVLEX)
        assert [repr(p) for p in a] == [repr(p) for p in b]

    def test_pair_budget(self, monkeypatch):
        x, y = vars2()
        monkeypatch.setattr(poly, "MAX_S_PAIRS", 1)
        with pytest.raises(ResourceLimit, match="S-pair budget 1 exceeded"):
            groebner([x**3 - 2 * x * y, x**2 * y - 2 * y**2 + x], GREVLEX)

    def test_degree_budget(self):
        # the S-pair of x^61 - y and x^62 - y has degree 62 > MAX_GB_DEGREE
        x, y = vars2()
        with pytest.raises(ResourceLimit, match="S-pair degree 62"):
            groebner([x**61 - y, x**62 - y], GREVLEX)

    def test_normal_form_degree_budget(self):
        # division of x^61 by x - y steps through x^60 * (x - y)
        x, y = vars2()
        with pytest.raises(ResourceLimit, match="intermediate degree"):
            normal_form(x**61, [x - y], GREVLEX)

    def test_division_budget_message(self):
        # the first step of x^61 by x - 1 multiplies a degree-1 divisor by
        # x^60; x^60 itself reduces to 1 in 60 steps of degree at most 60
        x, _ = vars2()
        with pytest.raises(ResourceLimit) as exc:
            normal_form(x**61, [x - 1], GREVLEX)
        assert str(exc.value) == "intermediate degree exceeded 60 during division"
        assert normal_form(x**60, [x - 1], GREVLEX) == Poly.const(2, 1)

    def test_s_pair_degree_budget_message(self):
        # lcm(x^31 y, x y^31) = x^31 y^31 has degree 62
        x, y = vars2()
        with pytest.raises(ResourceLimit) as exc:
            groebner([x**31 * y - 1, x * y**31 - 1], GREVLEX)
        assert str(exc.value) == "S-pair degree 62 exceeds budget 60"

    def test_pair_budget_message(self, monkeypatch):
        # this system treats 8 S-pairs under grevlex
        x, y, z = vars3()
        gens = [x * y - z, y * z - x, z * x - y]
        monkeypatch.setattr(poly, "MAX_S_PAIRS", 8)
        assert len(groebner(gens, GREVLEX)) == 6
        monkeypatch.setattr(poly, "MAX_S_PAIRS", 7)
        with pytest.raises(ResourceLimit) as exc:
            groebner(gens, GREVLEX)
        assert str(exc.value) == "S-pair budget 7 exceeded"


# independent elimination oracle: Sylvester resultant with polynomial entries


def poly_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Poly.zero(rows[0][0].arity)
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * poly_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def resultant_in_first_var(f, g):
    """Sylvester resultant eliminating variable 0; result has arity - 1."""
    arity = f.arity

    def coeffs(p):
        d = max((m[0] for m in p.terms), default=0)
        out = [Poly.zero(arity - 1) for _ in range(d + 1)]
        for m, c in p.terms.items():
            out[m[0]] = out[m[0]] + Poly(arity - 1, {m[1:]: c})
        return out

    fc, gc = coeffs(f), coeffs(g)
    df, dg = len(fc) - 1, len(gc) - 1
    size = df + dg
    zero = Poly.zero(arity - 1)
    rows = []
    for i in range(dg):
        rows.append([zero] * i + fc[::-1] + [zero] * (size - i - df - 1))
    for i in range(df):
        rows.append([zero] * i + gc[::-1] + [zero] * (size - i - dg - 1))
    return poly_det(rows)


class TestEliminate:
    def test_twisted_cubic(self):
        t, x, y = vars3()
        out = eliminate(Ideal(3, [x - t**2, y - t**3]), 1)
        u, v = vars2()
        assert ideal_equal(out, Ideal(2, [v**2 - u**3]))
        # substitution check: generators vanish along the parametrization
        for g in out.generators:
            for tv in range(-3, 4):
                assert g.evaluate([rat(tv) ** 2, rat(tv) ** 3]) == 0

    def test_unconstrained(self):
        t, x, y = vars3()
        out = eliminate(Ideal(3, [x - t]), 1)
        assert out.is_zero()

    def test_trivial_split(self):
        t, x, y = vars3()
        out = eliminate(Ideal(3, [t, x - 1]), 1)
        u, v = vars2()
        assert ideal_equal(out, Ideal(2, [u - 1]))

    def test_soundness_members(self):
        # every eliminated generator lies in the original ideal
        t, x, y = vars3()
        ideal = Ideal(3, [x - t**2, y - t**3, t * x - y])
        out = eliminate(ideal, 1)
        for g in out.generators:
            lifted = Poly(3, {(0,) + m: c for m, c in g.terms.items()})
            assert ideal_member(lifted, ideal)

    def test_matches_resultant_oracle(self):
        t, x, y = vars3()
        corpus = [
            (x - t**2, y - t**3),
            (t - x, t - y),
            (t**2 - x, t - y),
            (2 * t - x, t - y),
            (t**3 - x, t - y),
        ]
        for f, g in corpus:
            res = resultant_in_first_var(f, g)
            out = eliminate(Ideal(3, [f, g]), 1)
            assert ideal_equal(out, Ideal(2, [res]))


class TestIdealPredicates:
    def test_zero_member(self):
        x, y = vars2()
        assert ideal_member(Poly.zero(2), Ideal(2, [x]))

    def test_x_not_in_x_squared(self):
        x, y = vars2()
        assert not ideal_member(x, Ideal(2, [x**2]))

    def test_det_at_identity_point(self):
        # variables x11 x12 x21 x22; det - 1 in the ideal of the identity
        v = [Poly.variable(i, 4) for i in range(4)]
        ideal = Ideal(4, [v[0] - 1, v[1], v[2], v[3] - 1])
        det_minus_1 = v[0] * v[3] - v[1] * v[2] - 1
        assert ideal_member(det_minus_1, ideal)

    def test_equal_unit_multiple(self):
        x, y = vars2()
        assert ideal_equal(Ideal(2, [x]), Ideal(2, [2 * x]))

    def test_not_equal_powers(self):
        x, y = vars2()
        assert not ideal_equal(Ideal(2, [x]), Ideal(2, [x**2]))

    def test_equal_linear_span(self):
        x, y = vars2()
        assert ideal_equal(Ideal(2, [x + y, x - y]), Ideal(2, [x, y]))


class TestSubstituteLinear:
    def test_identity(self):
        x, y = vars2()
        ideal = Ideal(2, [x**2 - y])
        out = substitute_linear(ideal, QMatrix.identity(2))
        assert ideal_equal(out, ideal)

    def test_swap(self):
        x, y = vars2()
        swap = QMatrix.from_rows([[0, 1], [1, 0]])
        out = substitute_linear(Ideal(2, [x]), swap)
        assert ideal_equal(out, Ideal(2, [y]))

    def test_scaling(self):
        x, y = vars2()
        a = QMatrix.diagonal([rat(2), rat(1)])
        out = substitute_linear(Ideal(2, [x - y]), a)
        assert ideal_equal(out, Ideal(2, [x - 2 * y]))

    def test_image_points(self):
        # V(ideal) maps forward: A v is a zero of the substituted ideal
        rng = random.Random(1)
        x, y = vars2()
        ideal = Ideal(2, [y - x**2])
        a = QMatrix.from_rows([[1, 2], [3, 4]])
        out = substitute_linear(ideal, a)
        for _ in range(10):
            tv = rat(rng.randint(-5, 5))
            p = [tv, tv**2]
            image = [
                a[0, 0] * p[0] + a[0, 1] * p[1],
                a[1, 0] * p[0] + a[1, 1] * p[1],
            ]
            for g in out.generators:
                assert g.evaluate(image) == 0
