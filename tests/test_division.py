"""Heap division and masked Buchberger against frozen copies of the former
max-scan `_divide` and `groebner`: remainders and reduced bases must be equal,
term for term, under grevlex, lex and the elimination orders.  The copy of
`groebner` selects pairs by sugar, as the engine does, or by the normal
strategy it was frozen with."""

import heapq
import random

import pytest

from zclosure import poly
from zclosure.affine import AffineProgram
from zclosure.errors import ResourceLimit
from zclosure.linalg import QMatrix
from zclosure.poly import GREVLEX, LEX, Poly, elimination_order, groebner, normal_form
from zclosure._rat import ONE, ZERO, rat

from oracles import invariant_elimination_generators

ORDERS = [GREVLEX, LEX, elimination_order(1), elimination_order(2), elimination_order(3)]
ORDER_IDS = ["grevlex", "lex", "elim1", "elim2", "elim3"]


# --- frozen reference: the division and Buchberger before divisor masks and
# the term heap (every step scans the pending terms for the largest, every
# divisibility test compares whole exponent tuples)


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def reference_normal_form(f, basis, order):
    return reference_divide(f, [(g.leading(order), g) for g in basis if g], order)


def reference_divide(f, divisors, order):
    p = dict(f.terms)
    remainder = {}
    while p:
        m = max(p, key=order.key)
        c = p.pop(m)
        for (lm, lc), g in divisors:
            if _mono_divides(lm, m):
                break
        else:
            remainder[m] = c
            continue
        q = _mono_div(m, lm)
        factor = c / lc
        for gm, gc in g.terms.items():
            if gm == lm:
                continue
            t = _mono_mul(q, gm)
            s = p.get(t, ZERO) - factor * gc
            if s:
                p[t] = s
            else:
                p.pop(t, None)
    return Poly(f.arity, remainder)


def reference_s_poly(head_f, head_g):
    (fm, fc), f = head_f
    (gm, gc), g = head_g
    lcm = _mono_lcm(fm, gm)
    mf = Poly(f.arity, {_mono_div(lcm, fm): ONE / fc})
    mg = Poly(g.arity, {_mono_div(lcm, gm): ONE / gc})
    return mf * f - mg * g


def reference_groebner(generators, order, counts=None, strategy="sugar"):
    """counts, when given, receives the number of S-pairs treated and of
    pairs pruned by each criterion.  strategy picks the pair selection:
    "sugar" (Giovini et al., ISSAC 1991: the least sugar first, then the
    least lcm) as the engine does, or "normal" (the least lcm first), the
    frozen copy's own.  Ties go to the lower index pair either way.  These
    two are the only additions to the frozen copy."""
    if counts is not None:
        counts.update(treated=0, coprime=0, chain=0)
    basis = [g for g in generators if g]
    if not basis:
        return []
    arity = basis[0].arity
    if any(g.total_degree() == 0 for g in basis):
        return [Poly.const(arity, 1)]
    heads = [(g.leading(order), g) for g in basis]
    lead = [lm for (lm, _), _ in heads]
    # the sugar of an input is its total degree; of a remainder, its pair's
    sugar = [g.total_degree() for g in basis]
    heap = []
    done = set()

    def pair_sugar(i, j):
        lcm = _mono_lcm(lead[i], lead[j])
        return max(sugar[k] + sum(lcm) - sum(lead[k]) for k in (i, j))

    def push(i, j):
        lcm_key = order.key(_mono_lcm(lead[i], lead[j]))
        if strategy == "sugar":
            heapq.heappush(heap, (pair_sugar(i, j), lcm_key, i, j))
        else:
            heapq.heappush(heap, (lcm_key, i, j))

    for i in range(len(heads)):
        for j in range(i):
            push(i, j)

    def chain_skip(i, j, lcm):
        for k in range(len(heads)):
            if k in (i, j):
                continue
            if _mono_divides(lead[k], lcm):
                a = (max(i, k), min(i, k))
                b = (max(j, k), min(j, k))
                if a in done and b in done:
                    return True
        return False

    while heap:
        i, j = heapq.heappop(heap)[-2:]
        done.add((i, j))
        lcm = _mono_lcm(lead[i], lead[j])
        if _mono_mul(lead[i], lead[j]) == lcm:
            if counts is not None:
                counts["coprime"] += 1
            continue
        if chain_skip(i, j, lcm):
            if counts is not None:
                counts["chain"] += 1
            continue
        if counts is not None:
            counts["treated"] += 1
        r = reference_divide(reference_s_poly(heads[i], heads[j]), heads, order)
        if r:
            head = r.leading(order)
            sugar.append(pair_sugar(i, j))
            heads.append((head, r))
            lead.append(head[0])
            new = len(heads) - 1
            for k in range(new):
                push(new, k)

    reduced = []
    for (lm, _), g in sorted(heads, key=lambda h: order.key(h[0][0])):
        if not any(_mono_divides(km, lm) for (km, _), _ in reduced):
            reduced.append(((lm, ONE), reference_divide(g, reduced, order).monic(order)))
    return [g for _, g in reduced]


# --- seeded inputs


def random_poly(rng, arity, max_degree, terms, support=None):
    """Sparse polynomial with small coefficients (so that terms cancel often);
    support limits the variables that may occur."""
    support = range(arity) if support is None else support
    out = {}
    for _ in range(terms):
        mono = [0] * arity
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.choice(support)] += 1
        out[tuple(mono)] = rat(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
    return Poly(arity, out)


def _terms(polys):
    return [sorted(p.terms.items()) for p in polys]


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
def test_normal_form_matches_reference(order):
    rng = random.Random(f"nf:{order!r}")
    for _ in range(60):
        arity = rng.choice([4, 5])
        basis = [random_poly(rng, arity, 3, rng.randint(2, 4)) for _ in range(rng.randint(1, 4))]
        f = random_poly(rng, arity, 5, rng.randint(3, 10))
        mine = normal_form(f, basis, order)
        assert mine.terms == reference_normal_form(f, basis, order).terms, (f, basis)
        assert all(mine.terms.values())  # no stored zero coefficient


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
def test_groebner_matches_reference(order):
    rng = random.Random(f"gb:{order!r}")
    proper = 0
    for _ in range(25):
        arity = rng.choice([4, 5])
        gens = [random_poly(rng, arity, 3, rng.randint(2, 3)) for _ in range(rng.randint(2, 3))]
        mine = groebner(gens, order)
        assert _terms(mine) == _terms(reference_groebner(gens, order)), gens
        proper += mine != [Poly.const(arity, 1)]
    assert proper >= 10  # most inputs are proper ideals, not the unit ideal


def test_cancelled_term_created_again():
    # grevlex, x > y > z: reducing x^2 by x^2 - xy + yz cancels yz (its heap
    # entry stays behind) and creates xy; reducing xy by xy - yz creates yz
    # again, with a second entry.  The stale entry must not add to the result.
    x, y, z = (Poly.variable(i, 3) for i in range(3))
    f = x**2 + y * z
    basis = [x**2 - x * y + y * z, x * y - y * z]
    assert normal_form(f, basis, GREVLEX) == y * z
    for order in ORDERS[:2]:
        assert normal_form(f, basis, order).terms == reference_normal_form(f, basis, order).terms


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
def test_variables_absent_from_every_leading_monomial(order):
    # the leading monomials use only the first two variables, the divided
    # terms all the others too: their mask bits are set in m but not in lm
    rng = random.Random(f"absent:{order!r}")
    arity = 5
    checked = 0
    while checked < 15:
        basis = [random_poly(rng, arity, 2, 1, support=(0, 1)) for _ in range(2)]
        basis = [
            g + random_poly(rng, arity, 1, 2, support=(2, 3, 4))
            for g in basis
            if g.total_degree() >= 2
        ]
        if not basis or any(max(g.leading(order)[0][2:]) for g in basis):
            continue
        f = random_poly(rng, arity, 6, 6)
        mine = normal_form(f, basis, order)
        assert mine.terms == reference_normal_form(f, basis, order).terms
        assert _terms(groebner(basis, order)) == _terms(reference_groebner(basis, order))
        checked += 1
    x, y, z, w = (Poly.variable(i, 4) for i in range(4))
    assert normal_form(x * z**2 * w, [x - y], GREVLEX) == y * z**2 * w


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
def test_disjoint_leading_monomials(order):
    # pairs whose leading monomials share no variable are pruned by the
    # coprime criterion; the basis must still be the reference's
    rng = random.Random(f"coprime:{order!r}")
    v = [Poly.variable(i, 4) for i in range(4)]
    assert groebner([v[0] ** 2 - v[3], v[1] ** 3 - v[3]], GREVLEX) == [
        v[0] ** 2 - v[3],
        v[1] ** 3 - v[3],
    ]
    for _ in range(15):
        gens = [
            random_poly(rng, 4, 3, 1, support=(0,)) + random_poly(rng, 4, 1, 2, support=(3,)),
            random_poly(rng, 4, 3, 1, support=(1,)) + random_poly(rng, 4, 1, 2, support=(3,)),
            random_poly(rng, 4, 2, 2, support=(1, 2, 3)),
        ]
        assert _terms(groebner(gens, order)) == _terms(reference_groebner(gens, order)), gens


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
def test_same_pairs_treated(order, monkeypatch):
    # the S-pair budget admits exactly the pairs the reference treats, so a
    # change in pruning (either criterion) raises or shows in the count
    rng = random.Random(f"pairs:{order!r}")
    pruned = {"coprime": 0, "chain": 0}
    for _ in range(10):
        gens = [random_poly(rng, 4, 3, rng.randint(2, 3)) for _ in range(3)]
        counts = {}
        expected = reference_groebner(gens, order, counts)
        for name in pruned:
            pruned[name] += counts[name]
        treated = counts["treated"]
        monkeypatch.setattr(poly, "MAX_S_PAIRS", treated)
        assert _terms(groebner(gens, order)) == _terms(expected)
        if treated:
            monkeypatch.setattr(poly, "MAX_S_PAIRS", treated - 1)
            with pytest.raises(ResourceLimit, match=f"^S-pair budget {treated - 1} exceeded$"):
                groebner(gens, order)
    assert pruned["coprime"] and pruned["chain"]


def test_sugar_treats_fewer_pairs_than_normal_strategy(monkeypatch):
    # the elimination behind the invariant of [[0, -1], [1, 0]] conjugated
    # by [[2, 1], [1, 1]]: 10 closure generators and 2 action equations in
    # 14 variables, under an order that is not degree-compatible
    rotation = QMatrix.from_rows([[rat(-3), rat(-2)], [rat(5), rat(3)]])
    gens, k = invariant_elimination_generators(AffineProgram(2, [(rotation, [0, 0])]), 2)
    order = elimination_order(k)
    normal, sugar = {}, {}
    expected = reference_groebner(gens, order, normal, strategy="normal")
    assert len(expected) == 34
    assert _terms(reference_groebner(gens, order, sugar)) == _terms(expected)
    assert (normal["treated"], sugar["treated"]) == (233, 94)
    monkeypatch.setattr(poly, "MAX_S_PAIRS", 94)
    assert _terms(groebner(gens, order)) == _terms(expected)
    monkeypatch.setattr(poly, "MAX_S_PAIRS", 93)
    with pytest.raises(ResourceLimit, match="^S-pair budget 93 exceeded$"):
        groebner(gens, order)


# --- non-unit leading coefficients: fraction-free division scales the
# dividend by L/gcd(L, c) at each step, so the leading coefficients here are
# negative, non-unit, or over coprime denominators up to about 50


def rational_poly(rng, arity, max_degree, terms):
    out = {}
    for _ in range(terms):
        mono = [0] * arity
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(arity)] += 1
        den = rng.choice([1, 3, 5, 7, 9, 35, 45, 49])
        out[tuple(mono)] = rat(rng.choice([-12, -7, -2, -1, 1, 2, 7, 12, 25]), den)
    return Poly(arity, out)


def _stores_no_zero(polys):
    return all(all(p.terms.values()) for p in polys)


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
def test_non_unit_leading_coefficients(order):
    rng = random.Random(f"lc:{order!r}")
    units = proper = 0
    for _ in range(30):
        arity = rng.choice([4, 5])
        basis = [rational_poly(rng, arity, 3, rng.randint(2, 4)) for _ in range(rng.randint(1, 3))]
        units += sum(abs(g.leading(order)[1]) == 1 for g in basis)
        f = rational_poly(rng, arity, 5, rng.randint(3, 8))
        mine = normal_form(f, basis, order)
        assert mine.terms == reference_normal_form(f, basis, order).terms, (f, basis)
        basis_gb = groebner(basis[:2], order)
        assert _terms(basis_gb) == _terms(reference_groebner(basis[:2], order)), basis
        assert _stores_no_zero([mine, *basis_gb])
        proper += basis_gb != [Poly.const(arity, 1)]
    assert units < 15  # nearly every divisor has a non-unit leading coefficient
    assert proper >= 20


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
def test_named_leading_coefficients(order):
    x, y, z = (Poly.variable(i, 3) for i in range(3))
    basis = [
        rat(7, 5) * x**2 - rat(12, 35) * y * z + 1,
        rat(-12, 35) * x * y + rat(2, 45) * z**2,
        rat(2, 45) * y**2 - rat(7, 5) * x,
    ]
    f = rat(3, 7) * x**3 * y + rat(-2, 9) * x * y * z**2 + rat(5, 49) * y**3
    mine = normal_form(f, basis, order)
    assert mine.terms == reference_normal_form(f, basis, order).terms
    gb = groebner(basis, order)
    assert _terms(gb) == _terms(reference_groebner(basis, order))
    assert _stores_no_zero([mine, *gb])
