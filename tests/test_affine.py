import random
import time

import pytest

from zclosure.affine import (
    AffineProgram,
    affine_to_generators,
    homogenize,
    strongest_invariant,
)
from zclosure.closure import implicitize
from zclosure import poly
from zclosure.errors import NonInvertibleUpdate, ResourceLimit
from zclosure.linalg import QMatrix
from zclosure.poly import GREVLEX, Ideal, Poly, eliminate, groebner, ideal_member
from zclosure._rat import rat

from oracles import enumerate_group, invariant_elimination_generators, run_program


def qm(rows):
    return QMatrix.from_rows([[rat(e) for e in r] for r in rows])


def rotation_program():
    return AffineProgram(2, [(qm([[0, -1], [1, 0]]), [rat(0), rat(0)])])


class TestHomogenization:
    def test_increment(self):
        p = AffineProgram(1, [(qm([[1]]), [rat(1)])])
        assert affine_to_generators(p).gens[0] == qm([[1, 1], [0, 1]])

    def test_doubling(self):
        p = AffineProgram(1, [(qm([[2]]), [rat(0)])])
        assert affine_to_generators(p).gens[0] == qm([[2, 0], [0, 1]])

    def test_faithful_on_states(self):
        rng = random.Random(3)
        for _ in range(20):
            a = qm([[rng.randint(-3, 3) or 1, rng.randint(-3, 3)], [0, rng.randint(1, 3)]])
            b = [rat(rng.randint(-3, 3)), rat(rng.randint(-3, 3))]
            h = homogenize(a, b)
            state = [rat(rng.randint(-5, 5)), rat(rng.randint(-5, 5))]
            image = h * QMatrix.column(state + [rat(1)])
            expected = a * QMatrix.column(state) + QMatrix.column(b)
            assert [image[i, 0] for i in range(2)] == [expected[i, 0] for i in range(2)]
            assert image[2, 0] == 1

    def test_non_invertible_update(self):
        with pytest.raises(NonInvertibleUpdate) as err:
            affine_to_generators(AffineProgram(1, [(qm([[0]]), [rat(1)])]))
        assert err.value.index == 0

    def test_first_non_invertible_update_is_named(self):
        updates = [(qm([[2]]), [rat(0)]), (qm([[0]]), [rat(1)]), (qm([[0]]), [rat(0)])]
        with pytest.raises(NonInvertibleUpdate) as err:
            affine_to_generators(AffineProgram(1, updates))
        assert err.value.index == 1
        assert str(err.value) == (
            "update 1 is not invertible; non-invertible updates need a "
            "semigroup closure, which is outside the group engine"
        )


class TestStrongestInvariant:
    def test_identity_program(self):
        p = AffineProgram(1, [(qm([[1]]), [rat(0)])])
        ideal = strongest_invariant(p, 1)
        x, x0 = [Poly.variable(i, 2) for i in range(2)]
        assert ideal_member(x - x0, ideal)

    def test_doubling_program(self):
        # x := 2x: reachable states are 2^t x0; degree-2 invariants are trivial
        p = AffineProgram(1, [(qm([[2]]), [rat(0)])])
        ideal = strongest_invariant(p, 2)
        x, x0 = [Poly.variable(i, 2) for i in range(2)]
        for g in ideal.generators:
            for t in range(6):
                for start in (rat(1), rat(3), rat(-2, 5)):
                    assert g.evaluate([rat(2) ** t * start, start]) == 0
        # x - x0 must NOT be invariant (it fails after one step)
        assert not ideal_member(x - x0, ideal)

    def test_pair_inverse_updates(self):
        # {x := 2x, x := x/2}: for symbolic starts the union of orbits is
        # dense in the plane, so no invariant of degree <= 2 survives
        p = AffineProgram(1, [(qm([[2]]), [rat(0)]), (qm([["1/2"]]), [rat(0)])])
        ideal = strongest_invariant(p, 2)
        assert ideal.is_zero()

    def test_rotation_invariant(self):
        ideal = strongest_invariant(rotation_program(), 2)
        x, y, x0, y0 = [Poly.variable(i, 4) for i in range(4)]
        assert ideal_member(x**2 + y**2 - x0**2 - y0**2, ideal)

    def test_rotation_orbit_oracle(self):
        # exact 4-point orbit: the invariant ideal vanishes on each orbit point
        ideal = strongest_invariant(rotation_program(), 2)
        a = qm([[0, -1], [1, 0]])
        rng = random.Random(37)
        for _ in range(10):
            start = [rat(rng.randint(-5, 5)), rat(rng.randint(-5, 5))]
            state = QMatrix.column(start)
            for _ in range(4):
                point = [state[0, 0], state[1, 0]] + start
                for g in ideal.generators:
                    assert g.evaluate(point) == 0
                state = a * state

    def test_pair_schedule_on_conjugated_rotation(self, monkeypatch):
        # [[0, -1], [1, 0]] conjugated by [[2, 1], [1, 1]]: its elimination
        # treats exactly 94 S-pairs by sugar (233 by the normal strategy), so
        # a change in pair selection or pruning shows as a raise or as a
        # different basis
        program = AffineProgram(2, [(qm([[-3, -2], [5, 3]]), [rat(0), rat(0)])])
        monkeypatch.setattr(poly, "MAX_S_PAIRS", 94)
        assert len(strongest_invariant(program, 2).generators) == 6
        monkeypatch.setattr(poly, "MAX_S_PAIRS", 93)
        with pytest.raises(ResourceLimit, match="^S-pair budget 93 exceeded$"):
            strongest_invariant(program, 2)

    def test_elimination_input_is_written_out(self):
        # the ideal the oracles build is the one strongest_invariant eliminates from
        program = AffineProgram(2, [(qm([[-3, -2], [5, 3]]), [rat(0), rat(0)])])
        gens, k = invariant_elimination_generators(program, 2)
        assert (len(gens), gens[0].arity, k) == (12, 14, 10)
        expected = strongest_invariant(program, 2).groebner()
        assert eliminate(Ideal(14, gens), k).groebner() == expected

    def test_permutation_program_in_three_variables(self):
        # {x := (x2, x1, x3), x := (x1, x3, x2)} generates S3 acting on the
        # coordinates; by the normal strategy its elimination made 909
        # reductions and took 25 s
        swaps = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]]]
        program = AffineProgram(3, [(qm(a), [rat(0)] * 3) for a in swaps])
        start = time.perf_counter()
        ideal = strongest_invariant(program, 2)
        assert time.perf_counter() - start < 10
        rng = random.Random(53)
        group = enumerate_group([qm(a) for a in swaps], 3, 7)
        assert len(group) == 6
        for _ in range(5):
            x0 = [rat(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)]
            for sigma in group:
                state = [sum((sigma[i, j] * x0[j] for j in range(3)), rat(0)) for i in range(3)]
                assert all(g.evaluate(state + x0) == 0 for g in ideal.generators)

        def elementary(v):
            return [v[0] + v[1] + v[2], v[0] * v[1] + v[0] * v[2] + v[1] * v[2], v[0] * v[1] * v[2]]

        x = [Poly.variable(i, 6) for i in range(6)]
        for current, initial in zip(elementary(x[:3]), elementary(x[3:])):
            assert ideal_member(current - initial, ideal)

    def test_soundness_random_executions(self):
        programs = [
            rotation_program(),
            AffineProgram(2, [(qm([[1, 1], [0, 1]]), [rat(0), rat(1)])]),
            AffineProgram(1, [(qm([[3]]), [rat(1)])]),
        ]
        rng = random.Random(41)
        for program in programs:
            ideal = strongest_invariant(program, 2)
            for _ in range(30):
                start = [rat(rng.randint(-4, 4)) for _ in range(program.num_vars)]
                for state in run_program(program, start, 8, rng):
                    point = list(state) + start
                    for g in ideal.generators:
                        assert g.evaluate(point) == 0


def shear_program():
    # x := x + y, y := y + 1
    return AffineProgram(2, [(qm([[1, 1], [0, 1]]), [rat(0), rat(1)])])


class TestEliminationCache:
    """eliminate seeds its result's grevlex cache; it must be the true basis."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: strongest_invariant(rotation_program(), 2),
            lambda: strongest_invariant(shear_program(), 2),
            lambda: implicitize([Poly.variable(0, 1) ** 2, Poly.variable(0, 1) ** 3], 1),
        ],
        ids=["rotation", "shear", "twisted-cubic"],
    )
    def test_seeded_basis_is_reduced_grevlex_basis(self, make):
        ideal = make()
        assert GREVLEX in ideal._gb
        assert ideal.groebner() == groebner(ideal.generators)
