"""Cross-validation of the Gröbner engine against sympy (test-only oracle)."""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.orderings import ProductOrder, grevlex as sym_grevlex, lex as sym_lex

from zclosure.affine import AffineProgram
from zclosure.linalg import QMatrix
from zclosure.poly import GREVLEX, LEX, Poly, elimination_order, groebner
from zclosure._rat import rat

from oracles import invariant_elimination_generators


def to_sympy(p, ring_gens):
    expr = 0
    for mono, c in p.terms.items():
        term = sympy.Rational(int(c.numerator), int(c.denominator))
        for g, e in zip(ring_gens, mono):
            term *= g**e
        expr += term
    return expr


def from_sympy(expr, symbols, arity, order):
    poly = sympy.Poly(expr, *symbols)
    terms = {}
    for mono, coeff in poly.terms():
        q = sympy.Rational(coeff)
        terms[tuple(mono)] = rat(int(q.p), int(q.q))
    # sympy may clear denominators; reduced bases compare monic
    return Poly(arity, terms).monic(order)


def random_poly(rng, arity, max_degree=3, terms=3):
    out = {}
    for _ in range(terms):
        mono = [0] * arity
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(arity)] += 1
        out[tuple(mono)] = rat(rng.randint(-4, 4))
    return Poly(arity, out)


@pytest.mark.parametrize("order_name", ["grevlex", "lex"])
def test_matches_sympy_on_random_ideals(order_name):
    rng = random.Random(61 if order_name == "grevlex" else 62)
    my_order = GREVLEX if order_name == "grevlex" else LEX
    sym_order = sym_grevlex if order_name == "grevlex" else sym_lex
    checked = 0
    while checked < 15:
        arity = rng.choice([2, 3])
        gens = [random_poly(rng, arity) for _ in range(rng.choice([2, 3]))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        symbols = sympy.symbols(f"v:{arity}")
        mine = groebner(gens, my_order)
        theirs = sympy.groebner(
            [to_sympy(g, symbols) for g in gens], *symbols, order=sym_order
        )
        converted = [from_sympy(e, symbols, arity, my_order) for e in theirs.exprs]
        assert sorted(mine, key=lambda p: sorted(p.terms)) == sorted(
            converted, key=lambda p: sorted(p.terms)
        ), (gens, mine, converted)
        checked += 1


def test_matches_sympy_on_classics():
    x, y, z = sympy.symbols("v0 v1 v2")
    vx, vy, vz = [Poly.variable(i, 3) for i in range(3)]
    systems = [
        ([vx**2 + vy**2 + vz**2 - 1, vx - vy, vy - vz], [x**2 + y**2 + z**2 - 1, x - y, y - z]),
        ([vx * vy - vz, vy * vz - vx, vz * vx - vy], [x * y - z, y * z - x, z * x - y]),
        ([vx**2 - vy, vx**3 - vz], [x**2 - y, x**3 - z]),
    ]
    for my_gens, sym_gens in systems:
        mine = groebner(my_gens, GREVLEX)
        theirs = sympy.groebner(sym_gens, x, y, z, order=sym_grevlex)
        converted = [from_sympy(e, (x, y, z), 3, GREVLEX) for e in theirs.exprs]
        assert sorted(mine, key=lambda p: sorted(p.terms)) == sorted(
            converted, key=lambda p: sorted(p.terms)
        )


@pytest.mark.parametrize("k", [1, 2])
def test_elimination_orders_match_sympy(k):
    # elimination_order(k) is grevlex on the first k exponents, ties broken
    # by grevlex on the rest: sympy's product of two grevlex orders
    rng = random.Random(70 + k)
    order = elimination_order(k)
    sym_order = ProductOrder((sym_grevlex, lambda m: m[:k]), (sym_grevlex, lambda m: m[k:]))
    checked = 0
    while checked < 10:
        arity = rng.choice([3, 4])
        gens = [g for g in (random_poly(rng, arity) for _ in range(2)) if g.total_degree()]
        if len(gens) < 2:
            continue
        # planted redundancy: a scalar multiple of one generator, and one
        # with the same leading monomial as another but different lower terms
        lm = gens[1].leading(order)[0]
        lower = {m: c for m, c in random_poly(rng, arity).terms.items() if order.key(m) < order.key(lm)}
        gens += [gens[0] * rat(rng.choice([-3, 2, 5])), gens[1] * 2 + Poly(arity, lower)]
        rng.shuffle(gens)
        symbols = sympy.symbols(f"v:{arity}")
        mine = groebner(gens, order)
        theirs = sympy.groebner([to_sympy(g, symbols) for g in gens], *symbols, order=sym_order)
        converted = [from_sympy(e, symbols, arity, order) for e in theirs.exprs]
        assert sorted(mine, key=lambda p: sorted(p.terms)) == sorted(
            converted, key=lambda p: sorted(p.terms)
        ), (gens, mine, converted)
        assert mine == sorted(mine, key=lambda p: order.key(p.leading(order)[0]))
        checked += mine != [Poly.const(arity, 1)]  # count the proper ideals


def test_invariant_elimination_matches_sympy():
    # the input whose pair schedule sugar moves most: the invariant of
    # [[0, -1], [1, 0]] conjugated by [[2, 1], [1, 1]] eliminates the 10
    # matrix coordinates from 10 closure generators and 2 action equations
    rotation = QMatrix.from_rows([[rat(-3), rat(-2)], [rat(5), rat(3)]])
    gens, k = invariant_elimination_generators(AffineProgram(2, [(rotation, [0, 0])]), 2)
    arity = gens[0].arity
    assert (len(gens), arity, k) == (12, 14, 10)
    order = elimination_order(k)
    sym_order = ProductOrder((sym_grevlex, lambda m: m[:k]), (sym_grevlex, lambda m: m[k:]))
    symbols = sympy.symbols(f"v:{arity}")
    mine = groebner(gens, order)
    theirs = sympy.groebner([to_sympy(g, symbols) for g in gens], *symbols, order=sym_order)
    converted = [from_sympy(e, symbols, arity, order) for e in theirs.exprs]
    assert len(mine) == 34
    assert sorted(mine, key=lambda p: sorted(p.terms)) == sorted(
        converted, key=lambda p: sorted(p.terms)
    )
