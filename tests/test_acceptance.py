"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Everything asserts exact equality; the timing budgets are the
per-criterion wall-clock caps.
"""

import json
import math
import random
import time

import pytest
import sympy

from zclosure.affine import AffineProgram, strongest_invariant
from zclosure.bounds import (
    unipotent_degree_bound,
    semisimple_index_bound,
    chain_bounds,
    elimination_degree_bound,
    quotient_embedding_bounds,
    finite_subgroup_order_bound,
)
from zclosure.cli import cli_main
from zclosure.closure import (
    GeneratorSet,
    gl_embed,
    invariants_up_to_degree,
    minimal_restricted_degree,
    restricted_kernel,
    schreier_generators,
)
from zclosure.linalg import EchelonBasis, QMatrix
from zclosure.poly import Ideal, Poly, ideal_equal, ideal_member
from zclosure.relations import rational_relation_lattice
from zclosure.structure import (
    companion_matrix,
    is_semisimple,
    is_unipotent,
    jordan_chevalley,
    min_poly,
    nilpotent_exp,
    nilpotent_log,
    one_parameter,
)
from zclosure.tower import tower_exact
from zclosure._rat import rat

from oracles import enumerate_group, ideal_from_json, monomial_lift, perm_matrix, run_program


def qm(rows):
    return QMatrix.from_rows([[rat(e) for e in r] for r in rows])


def report(number, name, elapsed, budget):
    print(f"ACCEPTANCE {number:2d} [{name}]: PASS in {elapsed:.2f}s (budget {budget}s)")


def glvars():
    return [Poly.variable(i, 5) for i in range(5)]


def random_invertible(rng, n, max_height=10):
    while True:
        g = QMatrix(
            n,
            n,
            [
                rat(rng.randint(-max_height, max_height), rng.randint(1, max_height))
                for _ in range(n * n)
            ],
        )
        if g.det():
            return g


SL2 = {"n": 2, "generators": [[["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]]]}


def sl2_generators():
    return GeneratorSet([qm([[1, 1], [0, 1]]), qm([[1, 0], [1, 1]])])


def test_criterion_1_sl2_closure(capsys):
    start = time.perf_counter()
    code = cli_main(
        ["closure", "--generators", json.dumps(SL2), "--degree", "2", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    produced = ideal_from_json(payload["ideal"])
    x11, x12, x21, x22, y = glvars()
    golden = Ideal(5, [y - 1, x11 * x22 - x12 * x21 - 1])
    assert ideal_equal(produced, golden)  # exact
    # degree-1 kernel restricted to the entry variables is zero (degree >= n)
    res1 = invariants_up_to_degree(sl2_generators(), 1)
    assert restricted_kernel(res1.span, [0, 1, 2, 3]) == []
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    with capsys.disabled():
        report(1, "SL2 closure", elapsed, 5)


def test_criterion_2_height_degree(capsys):
    start = time.perf_counter()
    for p in (1, 2, 3, 4):
        g = QMatrix.diagonal([rat(2) ** p, rat(1, 2)])
        assert rational_relation_lattice([rat(2) ** p, rat(1, 2)]) == [[1, p]]  # exact
        res = invariants_up_to_degree(GeneratorSet([g]), p + 1)
        assert minimal_restricted_degree(res.span, [0, 3]) == p + 1  # exact
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        report(2, "height-degree example", elapsed, 30)


FINITE_GROUPS = [
    ("rotation4", [qm([[0, -1], [1, 0]])], 4, 3),
    ("signs", [QMatrix.diagonal([rat(-1), rat(1)]), QMatrix.diagonal([rat(1), rat(-1)])], 4, 3),
    ("sym3", [perm_matrix([1, 0, 2]), perm_matrix([0, 2, 1])], 6, 2),
    ("cyclic6", [qm([[0, -1], [1, 1]])], 6, 3),
    ("dihedral8", [qm([[0, -1], [1, 0]]), QMatrix.diagonal([rat(1), rat(-1)])], 8, 3),
    ("alt4", [perm_matrix([1, 2, 0]), QMatrix.diagonal([rat(-1), rat(-1), rat(1)])], 12, 2),
    ("sym3xsign", [perm_matrix([1, 0, 2]), perm_matrix([0, 2, 1]), QMatrix.diagonal([rat(-1)] * 3)], 12, 2),
]


def test_criterion_3_finite_group_oracle(capsys):
    start = time.perf_counter()
    checked = 0
    for name, gens, order, degree in FINITE_GROUPS:
        n = gens[0].rows
        assert n <= 3 and order <= 24 and degree <= 3
        elements = enumerate_group(gens, n, cap=64)
        assert len(elements) == order
        res = invariants_up_to_degree(GeneratorSet(gens), degree)
        lifts = [monomial_lift(gl_embed(g), degree) for g in elements]
        oracle = QMatrix.from_rows(lifts).kernel_basis()
        engine = res.span.kernel_vectors()
        assert len(oracle) == len(engine)  # same dimension
        span = EchelonBasis(len(lifts[0]))
        for v in oracle:
            assert span.insert([v[i, 0] for i in range(v.rows)])
        for v in engine:
            assert not span.insert(list(v))  # engine kernel inside oracle span
        checked += 1
    assert checked >= 5
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(3, f"finite-group oracle ({checked} groups)", elapsed, "-")


def test_criterion_4_jordan_chevalley_suite(capsys):
    start = time.perf_counter()
    rng = random.Random(104)
    cases = []
    for _ in range(100):
        cases.append(random_invertible(rng, 2, 10))
    for _ in range(96):
        cases.append(random_invertible(rng, 3, 10))
    # matrices with irrational spectra but rational decompositions
    c = companion_matrix([-2, 0])  # x^2 - 2
    mixed = QMatrix.from_rows(
        [
            [c[0, 0], c[0, 1], rat(1)],
            [c[1, 0], c[1, 1], rat(0)],
            [rat(0), rat(0), rat(1)],
        ]
    )
    cases += [c, mixed, companion_matrix([-2, 0, 0]), companion_matrix([2, 0])]
    assert len(cases) == 200
    z = sympy.Symbol("z")
    for g in cases:
        dec = jordan_chevalley(g)
        assert dec.semisimple * dec.unipotent == g  # product, exact
        assert dec.semisimple * dec.unipotent == dec.unipotent * dec.semisimple
        mp = sympy.Poly([sympy.Rational(str(q)) for q in reversed(min_poly(dec.semisimple))], z)
        assert sympy.gcd(mp, mp.diff(z)).degree() == 0  # squarefree, by sympy
        assert is_unipotent(dec.unipotent)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(4, "Jordan-Chevalley suite (200 matrices)", elapsed, "-")


def test_criterion_5_unipotent_round_trip(capsys):
    start = time.perf_counter()
    rng = random.Random(105)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        nil = QMatrix(
            n,
            n,
            [
                rat(rng.randint(-3, 3), rng.randint(1, 3)) if j > i else rat(0)
                for i in range(n)
                for j in range(n)
            ],
        )
        u = nilpotent_exp(nil)
        assert nilpotent_exp(nilpotent_log(u)) == u  # exact round trip
    # homomorphism identity as polynomials
    z2 = Poly.variable(0, 2)
    w2 = Poly.variable(1, 2)
    for _ in range(10):
        n = rng.choice([2, 3])
        u = nilpotent_exp(
            QMatrix(
                n,
                n,
                [
                    rat(rng.randint(-2, 2)) if j > i else rat(0)
                    for i in range(n)
                    for j in range(n)
                ],
            )
        )
        phi = one_parameter(u)
        product = phi.map_variables(2, {0: 0}) * phi.map_variables(2, {0: 1})
        for idx in range(n * n):
            assert phi.entries[idx].subs({0: z2 + w2}) == product.entries[idx]
    # implicitization golden
    from zclosure.closure import closure_unipotent_product

    ideal = closure_unipotent_product([qm([[1, 1], [0, 1]])])
    x11, x12, x21, x22, y = glvars()
    assert ideal_equal(ideal, Ideal(5, [x11 - 1, x22 - 1, x21, y - 1]))  # exact
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(5, "unipotent exp/log and one-parameter identities", elapsed, "-")


def test_criterion_6_bound_goldens(capsys):
    start = time.perf_counter()
    assert semisimple_index_bound(1) == tower_exact(40320)
    assert finite_subgroup_order_bound(2) == tower_exact(24)
    assert elimination_degree_bound(2, 3) == tower_exact(6561)
    assert unipotent_degree_bound(1) == tower_exact(256)
    p, deg = quotient_embedding_bounds(2, 1)
    assert p == tower_exact(25) and deg == tower_exact(125)
    assert chain_bounds(1)["semisimple"] == tower_exact(40320)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        report(6, "bound calculator goldens", elapsed, 1)


def test_criterion_7_engine_invariance(capsys):
    start = time.perf_counter()
    rng = random.Random(107)
    for case in range(10):
        a = random_invertible(rng, 2, 6)
        b = random_invertible(rng, 2, 6)
        base = invariants_up_to_degree(GeneratorSet([a, b]), 2)
        permuted = invariants_up_to_degree(GeneratorSet([b, a]), 2)
        with_inverse = invariants_up_to_degree(GeneratorSet([a, b, a.inverse()]), 2)
        with_square = invariants_up_to_degree(GeneratorSet([a, b, b * b]), 2)
        assert ideal_equal(base.ideal, permuted.ideal)
        assert ideal_equal(base.ideal, with_inverse.ideal)
        assert ideal_equal(base.ideal, with_square.ideal)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(7, "fixed-point invariance (10 cases)", elapsed, "-")


def _soundness_corpus():
    rng = random.Random(108)
    corpus = [
        (sl2_generators(), 2),
        (GeneratorSet([QMatrix.diagonal([rat(2), rat(1, 2)])]), 2),
        (GeneratorSet([QMatrix.identity(2)]), 1),
        (GeneratorSet([qm([[0, -1], [1, 0]])]), 3),
        (GeneratorSet([perm_matrix([1, 0, 2]), perm_matrix([0, 2, 1])]), 2),
        (GeneratorSet([random_invertible(rng, 2, 4), random_invertible(rng, 2, 4)]), 2),
    ]
    return corpus


def test_criterion_8_soundness_fuzz(capsys):
    start = time.perf_counter()
    rng = random.Random(208)
    failures = 0
    for generators, degree in _soundness_corpus():
        result = invariants_up_to_degree(generators, degree)
        kernel = result.span.kernel_vectors()
        for _ in range(200):
            length = rng.randint(0, 12)
            word = QMatrix.identity(generators.n)
            for _ in range(length):
                word = word * rng.choice(generators.with_inverses)
            lift = monomial_lift(gl_embed(word), degree)
            for vec in kernel:
                total = rat(0)
                for coeff, value in zip(vec, lift):
                    if coeff:
                        total += coeff * value
                if total:
                    failures += 1
    assert failures == 0
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(8, "soundness fuzz (6 results x 200 words)", elapsed, "-")


def test_criterion_9_schreier(capsys):
    start = time.perf_counter()
    s1 = perm_matrix([1, 0, 2])
    s2 = perm_matrix([0, 2, 1])
    out = schreier_generators(GeneratorSet([s1, s2]), "det1", 2)
    generated = enumerate_group(out, 3, cap=64)
    a3 = sorted(perm_matrix(p).entries for p in ([0, 1, 2], [1, 2, 0], [2, 0, 1]))
    assert sorted(g.entries for g in generated) == a3  # exactly A3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        report(9, "Schreier generators (S3 -> A3)", elapsed, 1)


def test_criterion_10_affine_front_end(capsys):
    start = time.perf_counter()
    program = AffineProgram(2, [(qm([[0, -1], [1, 0]]), [rat(0), rat(0)])])
    ideal = strongest_invariant(program, 2)
    x, y, x0, y0 = [Poly.variable(i, 4) for i in range(4)]
    assert ideal_member(x**2 + y**2 - x0**2 - y0**2, ideal)  # exact
    # 4-point orbit oracle
    a = qm([[0, -1], [1, 0]])
    rng = random.Random(110)
    for _ in range(5):
        start_state = [rat(rng.randint(-5, 5)), rat(rng.randint(-5, 5))]
        state = QMatrix.column(start_state)
        for _ in range(4):
            point = [state[0, 0], state[1, 0]] + start_state
            for g in ideal.generators:
                assert g.evaluate(point) == 0
            state = a * state
    # 200 random executions
    executions = 0
    while executions < 200:
        start_state = [rat(rng.randint(-6, 6)), rat(rng.randint(-6, 6))]
        trail = run_program(program, start_state, rng.randint(1, 15), rng)
        for state in trail:
            point = list(state) + start_state
            for g in ideal.generators:
                assert g.evaluate(point) == 0
        executions += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    with capsys.disabled():
        report(10, "affine front end (rotation program)", elapsed, 10)
