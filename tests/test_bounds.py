import math

import pytest

from zclosure.bounds import (
    MAX_SCHREIER_BASE_BITS,
    unipotent_degree_bound,
    semisimple_index_bound,
    general_index_bound,
    chain_bounds,
    elimination_degree_bound,
    quotient_embedding_bounds,
    finite_subgroup_order_bound,
    masser_lattice_bound,
    schreier_height_bound,
    closure_degree_bound,
)
from zclosure import tower
from zclosure.errors import ResourceLimit
from zclosure.tower import tower_add, tower_cmp, tower_exact, tower_mul


class TestIndexBounds:
    def test_j1(self):
        # (2 (1+1)^2)! = 8!
        assert semisimple_index_bound(1) == tower_exact(40320)

    def test_j2_fifty_factorial(self):
        t = semisimple_index_bound(2)
        assert t.is_exact and t.value == math.factorial(50)

    def test_monotone(self):
        assert tower_cmp(semisimple_index_bound(1), semisimple_index_bound(2)) == -1
        assert tower_cmp(semisimple_index_bound(2), semisimple_index_bound(3)) == -1


class TestUnipotentDegree:
    def test_n1(self):
        assert unipotent_degree_bound(1) == tower_exact(256)

    def test_n2(self):
        t = unipotent_degree_bound(2)
        assert t.is_exact and t.value == 9**4096

    def test_n5_stays_symbolic(self):
        t = unipotent_degree_bound(5)
        assert t.kind == "pow"

    def test_monotone(self):
        assert tower_cmp(unipotent_degree_bound(2), unipotent_degree_bound(3)) == -1
        assert tower_cmp(unipotent_degree_bound(4), unipotent_degree_bound(5)) == -1


class TestGeneralIndex:
    def test_structure(self):
        t = general_index_bound(1)
        assert t.kind == "factorial"

    def test_inner_value_exact_when_raised(self, monkeypatch):
        # D = 256, inner = 2 (257^262144 + 1)^2: ~4.2e6 bits, exact if allowed
        assert not general_index_bound(1).arg.is_exact
        monkeypatch.setattr(tower, "DEFAULT_EXACT_BITS", 8_000_000)
        t = general_index_bound(1)
        assert t.kind == "factorial"
        assert t.arg.is_exact
        assert t.arg.value == 2 * (257**262144 + 1) ** 2

    def test_dominates_j(self):
        for n in (1, 2, 3):
            assert tower_cmp(general_index_bound(n), semisimple_index_bound(n)) == 1


class TestEliminationDegree:
    def test_basic(self):
        assert elimination_degree_bound(2, 3) == tower_exact(6561)

    def test_degenerate(self):
        assert elimination_degree_bound(1, 0) == tower_exact(2)

    def test_monotone(self):
        assert tower_cmp(elimination_degree_bound(2, 3), elimination_degree_bound(3, 3)) == -1
        assert tower_cmp(elimination_degree_bound(2, 3), elimination_degree_bound(2, 4)) == -1


class TestQuotientEmbedding:
    def test_small(self):
        p, deg = quotient_embedding_bounds(1, 1)
        assert p == tower_exact(4)
        assert deg == tower_exact(8)

    def test_n2(self):
        p, deg = quotient_embedding_bounds(2, 1)
        assert p == tower_exact(25)
        assert deg == tower_exact(125)

    def test_p_at_most_degree(self):
        for n in (1, 2, 3):
            for d in (1, 2, 3):
                p, deg = quotient_embedding_bounds(n, d)
                assert tower_cmp(p, deg) == -1


class TestMasserLatticeBound:
    def test_log2_of_2(self):
        assert masser_lattice_bound(1, 2, 1) == tower_exact(1)

    def test_n2_h4(self):
        assert masser_lattice_bound(2, 4, 1) == tower_exact(262144)

    def test_constant_scales(self):
        assert masser_lattice_bound(1, 2, 2) == tower_exact(2)

    def test_growth_in_h(self):
        assert tower_cmp(masser_lattice_bound(2, 4, 1), masser_lattice_bound(2, 16, 1)) == -1

    def test_rejects_h1(self):
        with pytest.raises(ValueError):
            masser_lattice_bound(1, 1, 1)


class TestSchreierHeight:
    def test_h1_collapses(self):
        assert schreier_height_bound(1, 1) == tower_exact(1)

    def test_exponent_structure(self):
        t = schreier_height_bound(1, 2)
        assert t.kind == "pow"
        assert t.base == tower_exact(4)
        assert t.exp == tower_add(tower_mul(2, general_index_bound(1)), 1)

    def test_monotone_in_h(self):
        assert tower_cmp(schreier_height_bound(1, 2), schreier_height_bound(1, 4)) == -1

    def test_base_budget(self):
        # 3^(79^3+79^2) 79! 79 has about 0.79 * 10^6 bits; at n = 80 the
        # estimate 2 (80^3+80^2) + 81 * 7 bits is past the limit
        base = schreier_height_bound(79, 3).base
        assert base.value == 3 ** (79**3 + 79**2) * math.factorial(79) * 79
        assert base.value.numerator.bit_length() <= MAX_SCHREIER_BASE_BITS
        with pytest.raises(ResourceLimit):
            schreier_height_bound(80, 3)
        with pytest.raises(ResourceLimit):
            schreier_height_bound(10**8, 2)


class TestClosureDegreeBound:
    def test_intermediates_present(self):
        report = closure_degree_bound(1, 2, 1)
        assert set(report.bounds) == {"schreier_count", "schreier_height", "lattice_degree", "block_degree", "closure_degree"}

    def test_final_exceeds_d(self):
        report = closure_degree_bound(1, 2, 1)
        assert tower_cmp(report["closure_degree"], tower_add(report["block_degree"], 1)) == 1

    def test_monotone_in_h(self):
        assert (
            tower_cmp(closure_degree_bound(1, 2, 1)["closure_degree"], closure_degree_bound(1, 4, 1)["closure_degree"])
            == -1
        )

    def test_monotone_in_n_and_s(self):
        base = closure_degree_bound(1, 2, 1)["closure_degree"]
        assert tower_cmp(base, closure_degree_bound(2, 2, 1)["closure_degree"]) == -1
        assert tower_cmp(base, closure_degree_bound(1, 2, 2)["closure_degree"]) == -1

    def test_monotone_sweep(self):
        finals = [closure_degree_bound(1, h, 1)["closure_degree"] for h in (2, 4, 8, 64)]
        for a, b in zip(finals, finals[1:]):
            assert tower_cmp(a, b) == -1


class TestChainBounds:
    def test_n1_semisimple(self):
        report = chain_bounds(1)
        assert report["semisimple"] == tower_exact(math.factorial(8))

    def test_n2_semisimple(self):
        report = chain_bounds(2)
        assert report["semisimple"].is_exact
        assert report["semisimple"].value == 4 * math.factorial(50)

    def test_field_degree_one_matches(self):
        assert chain_bounds(2, 1)["semisimple"] == chain_bounds(2)["semisimple"]

    def test_field_degree_grows(self):
        assert (
            tower_cmp(chain_bounds(1, 1)["semisimple"], chain_bounds(1, 2)["semisimple"])
            == -1
        )
        assert tower_cmp(chain_bounds(1, 1)["general"], chain_bounds(1, 2)["general"]) == -1

    def test_general_dominates_semisimple(self):
        report = chain_bounds(1)
        assert tower_cmp(report["semisimple"], report["general"]) == -1


class TestFiniteSubgroupOrder:
    def test_gl2(self):
        assert finite_subgroup_order_bound(2) == tower_exact(24)

    def test_gl1(self):
        assert finite_subgroup_order_bound(1) == tower_exact(2)

    def test_field_degree(self):
        assert finite_subgroup_order_bound(1, 2) == tower_exact(24)


class TestMonotoneSweeps:
    def test_every_formula_nondecreasing(self):
        for fn in (semisimple_index_bound, unipotent_degree_bound, general_index_bound):
            values = [fn(n) for n in (1, 2, 3)]
            for a, b in zip(values, values[1:]):
                assert tower_cmp(a, b) == -1
        masser = [masser_lattice_bound(2, h, 1) for h in (2, 4, 8, 16, 64)]
        for a, b in zip(masser, masser[1:]):
            assert tower_cmp(a, b) == -1
        heights = [schreier_height_bound(2, h) for h in (2, 4, 16, 64)]
        for a, b in zip(heights, heights[1:]):
            assert tower_cmp(a, b) == -1

    def test_closure_degree_all_arguments(self):
        base = closure_degree_bound(1, 2, 1)["closure_degree"]
        for n, h, s in ((2, 2, 1), (1, 4, 1), (1, 64, 1), (1, 2, 2), (1, 2, 4)):
            assert tower_cmp(base, closure_degree_bound(n, h, s)["closure_degree"]) == -1

    def test_chain_bounds_sweep(self):
        for name in ("semisimple", "general"):
            values = [chain_bounds(n)[name] for n in (1, 2, 3)]
            for a, b in zip(values, values[1:]):
                assert tower_cmp(a, b) == -1
