import collections
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from zclosure import bounds, cli, linalg, structure, tower
from zclosure.cli import cli_main
from zclosure.jsonio import SCHEMAS


SL2 = {"n": 2, "generators": [[["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]]]}

S3 = {
    "n": 3,
    "generators": [
        [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
        [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]],
    ],
}

ROTATION_PROGRAM = {
    "num_vars": 2,
    "updates": [{"A": [["0", "-1"], ["1", "0"]], "b": ["0", "0"]}],
}


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestClosureCommand:
    def test_sl2_golden(self, capsys, tmp_path):
        path = write(tmp_path, "sl2.json", SL2)
        payload = run_json(capsys, "closure", "--generators", path, "--degree", "2")
        jsonschema.validate(payload, SCHEMAS["closure_report"])
        texts = payload["ideal"]["text"]
        assert texts == ["y - 1", "x12*x21 - x11*x22 + 1"]
        assert payload["span_dimension"] == 14
        assert payload["certified"] == "heuristic-stable"

    def test_inline_json(self, capsys):
        payload = run_json(
            capsys, "closure", "--generators", json.dumps(SL2), "--degree", "1"
        )
        assert payload["degree"] == 1

    def test_auto(self, capsys):
        payload = run_json(
            capsys,
            "closure",
            "--generators",
            json.dumps(SL2),
            "--auto",
            "--max-degree",
            "5",
        )
        assert payload["degree"] == 2

    def test_text_format(self, capsys):
        code, out, err = run(
            capsys, "closure", "--generators", json.dumps(SL2), "--degree", "2"
        )
        assert code == 0
        assert "reduced basis" in out
        assert "y - 1" in out

    def test_missing_degree(self, capsys):
        code, out, err = run(capsys, "closure", "--generators", json.dumps(SL2))
        assert code == 2

    def test_bad_file(self, capsys):
        code, out, err = run(
            capsys, "closure", "--generators", "/nonexistent.json", "--degree", "2"
        )
        assert code == 2

    def test_singular_generator(self, capsys):
        bad = {"n": 2, "generators": [[["1", "1"], ["1", "1"]]]}
        code, out, err = run(
            capsys, "closure", "--generators", json.dumps(bad), "--degree", "2"
        )
        assert code == 2

    def test_resource_limit_exit_code(self, capsys):
        code, out, err = run(
            capsys,
            "closure",
            "--generators",
            json.dumps(SL2),
            "--auto",
            "--max-degree",
            "1",
        )
        # NoStabilization is an input/configuration problem, not a resource cap
        assert code == 2

    def test_coordinate_budget(self, capsys):
        # C(50, 40) ~ 10^10 monomial coordinates: refused before any is built
        start = time.perf_counter()
        code, out, err = run(
            capsys, "closure", "--generators", json.dumps(S3), "--degree", "40"
        )
        assert code == 3
        assert "10272278170 monomial coordinates" in err
        assert time.perf_counter() - start < 1

    def test_auto_dense_in_gl2_stops_at_the_det_relation(self, capsys):
        # the ideals of degree 1 and 2 are zero and V(0) ∩ GL_2 is a group,
        # but only an ideal with y·det - 1 can be the closure's
        gens = {"n": 2, "generators": [[["2", "1"], ["1", "3"]], [["1", "1"], ["0", "1"]]]}
        payload = run_json(
            capsys, "closure", "--generators", json.dumps(gens), "--auto", "--max-degree", "4"
        )
        assert payload["degree"] == 3
        assert payload["ideal"]["text"] == ["x12*x21*y - x11*x22*y + 1"]

    @pytest.mark.parametrize(
        "argv", [["--degree", "3"], ["--auto", "--max-degree", "4"]], ids=["degree", "auto"]
    )
    def test_dense_span_hits_echelon_work_budget(self, capsys, argv):
        # unbudgeted, the degree-3 span took 526 s: the echelon's numerators
        # and denominators grow to thousands of bits; --auto reaches the same
        # span, as these generators are dense in GL_3
        gens = {
            "n": 3,
            "generators": [
                [["2", "-1", "2"], ["-12", "-3", "0"], ["0", "3", "1"]],
                [["-2", "2", "2"], ["-2", "-2", "0"], ["-1", "-2", "-1"]],
            ],
        }
        start = time.perf_counter()
        code, out, err = run(capsys, "closure", "--generators", json.dumps(gens), *argv)
        assert code == 3
        assert err == (
            "resource limit: echelon form exceeded its work budget of "
            f"{linalg.ECHELON_WORK_BITS} bits\n"
        )
        assert time.perf_counter() - start < 10

    def test_echelon_work_budget_message(self, capsys, monkeypatch):
        monkeypatch.setattr(linalg, "ECHELON_WORK_BITS", 100)
        code, out, err = run(capsys, "closure", "--generators", json.dumps(SL2), "--degree", "2")
        assert code == 3
        assert err == "resource limit: echelon form exceeded its work budget of 100 bits\n"

    def test_exponent_budget(self, capsys):
        # 10^(10^7) would be a 33M-bit integer before any engine budget applies
        gens = {"n": 1, "generators": [[["1e10000000"]]]}
        start = time.perf_counter()
        code, out, err = run(capsys, "closure", "--generators", json.dumps(gens), "--degree", "1")
        assert code == 3
        assert "decimal exponent" in err
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "argv",
    [
        [
            "closure",
            "--generators",
            json.dumps({"n": 1, "generators": [[["1/0"]]]}),
            "--degree",
            "1",
        ],
        ["relations", "--eigenvalues", '["1/0"]'],
        [
            "invariant",
            "--program",
            json.dumps({"num_vars": 1, "updates": [{"A": [["1"]], "b": ["1/0"]}]}),
            "--degree",
            "1",
        ],
    ],
    ids=["closure", "relations", "invariant"],
)
def test_zero_denominator_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("entry", [True, 0.1], ids=["true", "float"])
def test_json_bool_or_float_entry_is_input_error(capsys, entry):
    # 0.1 would otherwise be read as the binary fraction 3602879701896397/2^55
    gens = {"n": 2, "generators": [[["1", entry], ["0", "1"]]]}
    code, out, err = run(capsys, "closure", "--generators", json.dumps(gens), "--degree", "1")
    assert code == 2
    assert err == (
        'error: expected a rational as a "p/q" string or an integer, got '
        f"{json.dumps(entry)}\n"
    )
    code, out, relations_err = run(capsys, "relations", "--eigenvalues", json.dumps(["2", entry]))
    assert code == 2
    assert relations_err == err


def test_json_integer_entry_reads_like_string(capsys):
    as_ints = {"n": 2, "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}
    assert run_json(
        capsys, "closure", "--generators", json.dumps(as_ints), "--degree", "2"
    ) == run_json(capsys, "closure", "--generators", json.dumps(SL2), "--degree", "2")


class TestInvariantCommand:
    def test_rotation(self, capsys, tmp_path):
        path = write(tmp_path, "rot.json", ROTATION_PROGRAM)
        payload = run_json(capsys, "invariant", "--program", path, "--degree", "2")
        jsonschema.validate(payload["ideal"], SCHEMAS["ideal"])
        assert "x1^2 + x2^2 - x1_0^2 - x2_0^2" in payload["ideal"]["text"]

    @pytest.mark.parametrize(
        "program, field",
        [
            ({"num_vars": 1}, '"num_vars" and a list "updates"'),
            ({"num_vars": 1, "updates": [[1]]}, "updates[0]"),
            ({"num_vars": 1, "updates": [{"A": [[None]], "b": ["0"]}]}, "expected a rational"),
        ],
        ids=["no-updates", "update-not-object", "null-entry"],
    )
    def test_shape_error_names_field(self, capsys, program, field):
        code, out, err = run(
            capsys, "invariant", "--program", json.dumps(program), "--degree", "1"
        )
        assert code == 2
        assert field in err

    def test_non_invertible_update(self, capsys):
        program = {"num_vars": 1, "updates": [{"A": [["0"]], "b": ["1"]}]}
        code, out, err = run(
            capsys, "invariant", "--program", json.dumps(program), "--degree", "1"
        )
        assert code == 2


class TestDecomposeCommand:
    def test_jordan_block(self, capsys):
        payload = run_json(
            capsys, "decompose", "--matrix", json.dumps([["2", "1"], ["0", "2"]])
        )
        jsonschema.validate(payload, SCHEMAS["decomposition"])
        assert payload["semisimple"] == [["2", "0"], ["0", "2"]]
        assert payload["unipotent"] == [["1", "1/2"], ["0", "1"]]

    def test_singular(self, capsys):
        code, out, err = run(
            capsys, "decompose", "--matrix", json.dumps([["1", "1"], ["1", "1"]])
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["decompose", "relations"])
    def test_large_matrix_hits_structure_work_budget(self, capsys, command):
        # a seeded 48 x 48 matrix of digits: unbudgeted, decompose answered
        # after 87 s; the Faddeev-LeVerrier products trip the budget
        rng = random.Random(48)
        matrix = [[str(rng.randint(-9, 9)) for _ in range(48)] for _ in range(48)]
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--matrix", json.dumps(matrix))
        assert (code, out) == (3, "")
        assert err == (
            "resource limit: structure theory exceeded its work budget of "
            f"{structure.STRUCTURE_WORK_BITS} bits\n"
        )
        assert time.perf_counter() - start < 10


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["closure", "--generators", '{"n":1,"generators":5}', "--degree", "1"],
            '"generators" must be a list of matrices',
        ),
        (
            ["closure", "--generators", '{"n":1,"generators":[5]}', "--degree", "1"],
            "generators[0] must be a list of equal-length lists",
        ),
        (
            ["closure", "--generators", '{"n":1,"generators":[[5]]}', "--degree", "1"],
            "generators[0] must be a list of equal-length lists",
        ),
        (
            ["closure", "--generators", '{"n":2,"generators":[[["1","0"],["0"]]]}', "--degree", "1"],
            "generators[0] must be a list of equal-length lists",
        ),
        (
            ["schreier", "--generators", '{"n":1,"generators":5}', "--index-bound", "1"],
            '"generators" must be a list of matrices',
        ),
        (
            ["closure", "--generators", '{"n":"2","generators":[[["1","1"],["0","1"]]]}', "--degree", "1"],
            '"n" must be an integer',
        ),
        (
            ["unipotent-closure", "--matrices", '{"x":1}'],
            'matrices must be a list of matrices or a JSON object with a list "matrices"',
        ),
        (
            ["unipotent-closure", "--matrices", '[{"x":1}]'],
            "matrices[0] must be a list of equal-length lists",
        ),
        (["decompose", "--matrix", '{"a":1}'], "matrix must be a list of equal-length lists"),
        (["decompose", "--matrix", "[]"], "matrix needs at least one row and one column"),
        (["decompose", "--matrix", "[[]]"], "matrix needs at least one row and one column"),
        (["relations", "--matrix", "[]"], "matrix needs at least one row and one column"),
        (
            ["closure", "--generators", '{"n":0,"generators":[[]]}', "--degree", "2"],
            '"n" must be at least 1',
        ),
        (
            ["closure", "--generators", '{"n":0,"generators":[[]]}', "--auto"],
            '"n" must be at least 1',
        ),
        (
            ["invariant", "--program", '{"num_vars":true,"updates":[{"A":[["1"]],"b":["1"]}]}', "--degree", "1"],
            '"num_vars" must be an integer',
        ),
        (
            ["invariant", "--program", '{"num_vars":0,"updates":[{"A":[],"b":[]}]}', "--degree", "1"],
            '"num_vars" must be at least 1',
        ),
        (
            ["invariant", "--program", '{"num_vars":2,"updates":[{"A":[["1","0"],["0","1"]],"b":"12"}]}', "--degree", "1"],
            "updates[0].b must be a list",
        ),
        (["relations", "--eigenvalues", '{"2": 0, "1/2": 0}'], "eigenvalues must be a list of rationals"),
    ],
    ids=[
        "generators-int",
        "generator-int",
        "generator-row-int",
        "generator-ragged",
        "schreier-generators-int",
        "n-string",
        "matrices-object",
        "matrices-entry-object",
        "decompose-object",
        "decompose-no-rows",
        "decompose-no-columns",
        "relations-no-rows",
        "closure-n-zero",
        "closure-auto-n-zero",
        "num-vars-bool",
        "num-vars-zero",
        "b-string",
        "eigenvalues-object",
    ],
)
def test_matrix_shape_error_names_field(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["closure", "--generators", '{"n":1,"generators":%s}', "--degree", "1"],
        ["invariant", "--program", '{"num_vars":1,"updates":%s}', "--degree", "1"],
        ["relations", "--eigenvalues", "%s"],
    ],
    ids=["closure", "invariant", "relations"],
)
def test_deeply_nested_json_is_input_error(capsys, tmp_path, argv):
    deep = "[" * 5000 + "]" * 5000
    path = tmp_path / "deep.json"
    path.write_text(argv[2] % deep, encoding="utf-8")
    for source in (argv[2] % deep, str(path)):
        code, out, err = run(capsys, *argv[:2], source, *argv[3:])
        assert code == 2
        assert err == "error: JSON input nested too deeply\n"


def test_bare_generator_list_is_input_error(capsys):
    code, out, err = run(capsys, "closure", "--generators", '[[["1"]]]', "--degree", "2")
    assert code == 2
    assert err == 'error: generators must be a JSON object with "n" and "generators"\n'


def _scaled_diagonal(n):
    """diag(720720 i) for i = 1..n as a --matrix literal: 720720 has 240
    divisors, so a divisor search of the rational roots has many candidates."""
    return json.dumps([[str(720720 * (i + 1)) if i == j else "0" for j in range(n)] for i in range(n)])


class TestRelationsCommand:
    def test_eigenvalues(self, capsys):
        payload = run_json(capsys, "relations", "--eigenvalues", '["32", "1/2"]')
        jsonschema.validate(payload, SCHEMAS["relations"])
        assert payload["basis"] == [[1, 5]]
        assert payload["binomials"]["text"] == ["x1*x2^5 - 1"]

    def test_matrix_route(self, capsys):
        payload = run_json(
            capsys, "relations", "--matrix", json.dumps([["5", "-6"], ["3", "-4"]])
        )
        assert payload["eigenvalues"] == ["-1", "2"]
        assert payload["basis"] == [[2, 0]]

    def test_irrational_matrix(self, capsys):
        code, out, err = run(
            capsys, "relations", "--matrix", json.dumps([["0", "-1"], ["1", "0"]])
        )
        assert code == 2

    def test_needs_input(self, capsys):
        code, out, err = run(capsys, "relations")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_empty_eigenvalues_is_input_error(self, capsys, fmt):
        code, out, err = run(capsys, "relations", "--eigenvalues", "[]", "--format", fmt)
        assert (code, out, err) == (2, "", "error: need at least one eigenvalue\n")

    def test_large_prime_entry_hits_factor_budget(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "relations", "--matrix", json.dumps([[str(10**15 + 37)]])
        )
        assert code == 3
        assert time.perf_counter() - start < 2

    def test_long_integer_hits_factor_work_budget(self, capsys):
        # 10^100000 written out: 200000 trial divisions of up to 332k bits each
        start = time.perf_counter()
        code, out, err = run(capsys, "relations", "--eigenvalues", json.dumps(["1" + "0" * 100000]))
        assert code == 3
        assert "work budget" in err
        assert time.perf_counter() - start < 2

    def test_many_root_candidates_irrational_spectrum_is_input_error(self, capsys):
        # x^2 + c/720720: 2 * 240 * 512 divisor candidates p/q, none a root
        c = 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47
        start = time.perf_counter()
        code, out, err = run(
            capsys, "relations", "--matrix", json.dumps([["0", f"-{c}/720720"], ["1", "0"]])
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: matrix has irrational eigenvalues; the exact engine needs a rational spectrum\n"
        )
        assert time.perf_counter() - start < 1

    def test_scaled_diagonal_of_eight_answers_fast_in_little_memory(self, capsys):
        # diag(720720 i), i = 1..8: 2916480 divisor quotients p/q are
        # candidate roots of the first factor, so no enumeration of them fits
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "relations", "--matrix", _scaled_diagonal(8), "--format", "json"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert json.loads(out)["eigenvalues"] == [str(720720 * i) for i in range(1, 9)]
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("budget", [55, 56])
    def test_root_search_charges_each_prime_tried(self, capsys, monkeypatch, budget):
        # every root of diag(720720 i) is 0 mod 3, 5, 7, 11 and 13, so the
        # search charges 3 + 5 + 7 + 11 + 13 + 17 = 56 before 17 separates them
        monkeypatch.setattr(structure, "ROOT_RESIDUE_BUDGET", budget)
        code, out, err = run(capsys, "relations", "--matrix", _scaled_diagonal(4))
        if budget == 56:
            assert (code, err) == (0, "")
        else:
            assert (code, out) == (3, "")
            assert err == (
                "resource limit: rational-root search exceeded its budget of 55 residues "
                "(primes up to 17)\n"
            )

    def test_roots_colliding_mod_every_small_prime_hit_residue_budget(self, capsys):
        # diag(1, 1 + P), P the product of the odd primes below 5000: the two
        # roots agree mod each of them, which sum past 10^6
        primes = [p for p in range(3, 5000, 2) if all(p % q for q in range(3, math.isqrt(p) + 1, 2))]
        big = 1 + math.prod(primes)
        start = time.perf_counter()
        code, out, err = run(
            capsys, "relations", "--matrix", json.dumps([["1", "0"], ["0", str(big)]])
        )
        assert (code, out) == (3, "")
        assert err == (
            "resource limit: rational-root search exceeded its budget of 1000000 residues "
            "(primes up to 3943)\n"
        )
        assert time.perf_counter() - start < 2

    def test_scaled_diagonal_eigenvalues(self, capsys):
        payload = run_json(capsys, "relations", "--matrix", _scaled_diagonal(4))
        assert payload["eigenvalues"] == [str(720720 * i) for i in range(1, 5)]


    def test_hundred_prime_power_values_fit_the_hnf_budget(self, capsys):
        values, exponents = _prime_power_values(100)
        code, out, err = run(capsys, "relations", "--eigenvalues", json.dumps(values))
        assert code == 0, err
        # the text output of the unbudgeted Hermite normal form
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "71b7eef274c2db4e9840d8e4f3ffd6a797e5d41bdec098af4cb9776673dc1b86"
        )
        payload = run_json(capsys, "relations", "--eigenvalues", json.dumps(values))
        # 6 prime rows of rank 6 leave 94 relations; each row's exponents
        # cancel at every prime (all values are positive)
        assert len(payload["basis"]) == 94
        for row in payload["basis"]:
            assert all(sum(k * r[p] for k, r in zip(row, exponents)) == 0 for p in range(6))

    def test_growing_hnf_entries_hit_the_work_budget(self, capsys):
        # 400 values, 56 KB of JSON: unbudgeted, the kernel's Hermite normal
        # form ran for more than ten minutes on growing intermediate entries
        start = time.perf_counter()
        code, out, err = run(
            capsys, "relations", "--eigenvalues", json.dumps(_prime_power_values(400)[0])
        )
        assert code == 3, err
        assert "Hermite normal form exceeded its work budget" in err
        assert time.perf_counter() - start < 5


def _prime_power_values(count):
    """count rationals prod p^r over the primes up to 13, r in [-60, 60],
    and their exponent lists."""
    rng = random.Random(1)
    exponents = [[rng.randint(-60, 60) for _ in range(6)] for _ in range(count)]
    values = []
    for r in exponents:
        q = Fraction(1)
        for p, e in zip((2, 3, 5, 7, 11, 13), r):
            q *= Fraction(p) ** e
        values.append(str(q))
    return values, exponents


class TestUnipotentClosureCommand:
    def test_shear(self, capsys):
        payload = run_json(
            capsys, "unipotent-closure", "--matrices", json.dumps([[["1", "1"], ["0", "1"]]])
        )
        assert sorted(payload["ideal"]["text"]) == sorted(
            ["x11 - 1", "x21", "x22 - 1", "y - 1"]
        )

    def test_rejects_non_unipotent(self, capsys):
        code, out, err = run(
            capsys, "unipotent-closure", "--matrices", json.dumps([[["2", "0"], ["0", "1"]]])
        )
        assert code == 2

    @pytest.mark.parametrize("trace_zero", [False, True], ids=["trace", "trace-zero"])
    def test_large_non_unipotent_matrix(self, capsys, trace_zero):
        # a seeded 96 x 96 matrix of digits: squaring it unbudgeted took 35 s
        # before the exit 2; a nonzero trace of h - I rejects at once, and
        # with trace zero the charged squarings trip the budget
        rng = random.Random(96)
        matrix = [[rng.randint(-9, 9) for _ in range(96)] for _ in range(96)]
        if trace_zero:
            matrix[0][0] += 96 - sum(matrix[i][i] for i in range(96))
        start = time.perf_counter()
        code, out, err = run(
            capsys, "unipotent-closure", "--matrices", json.dumps([[[str(x) for x in row] for row in matrix]])
        )
        if trace_zero:
            assert code in (2, 3) and time.perf_counter() - start < 10
        else:
            assert (code, err) == (2, "error: matrix is not unipotent\n")
            assert time.perf_counter() - start < 2


class TestBoundsCommand:
    def test_golden_j(self, capsys):
        payload = run_json(
            capsys, "bounds", "--n", "1", "--height", "2", "--gens", "1"
        )
        jsonschema.validate(payload, SCHEMAS["bound_report"])
        assert payload["bounds"]["semisimple_index"] == {"form": "exact", "value": "40320"}
        assert payload["bounds"]["unipotent_degree"]["value"] == "256"
        assert payload["bounds"]["general_index"]["form"] == "tower"
        for name in ("schreier_count", "schreier_height", "lattice_degree", "block_degree", "closure_degree"):
            assert name in payload["bounds"]

    def test_text_format(self, capsys):
        code, out, err = run(capsys, "bounds", "--n", "1", "--height", "2", "--gens", "1")
        assert code == 0
        assert "semisimple_index = 40320" in out
        assert "↑" in out

    @pytest.mark.parametrize("n", [1000, 10**8])
    def test_large_n_finishes(self, capsys, n):
        # the exact Schreier height base 2^(n^3+n^2) n! n has 10^9 bits at
        # n = 1000 and 10^24 at n = 10^8
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", "--n", str(n), "--height", "2", "--gens", "1")
        assert code in (0, 3)
        assert "Traceback" not in err
        assert time.perf_counter() - start < 2


    def test_shared_bounds_built_once(self, capsys, monkeypatch):
        # one report builds the unipotent degree bound and the general index
        # bound once each, and compares towers once; perfbench's tracer
        # counts tower_cmp through the tower module's name
        counts = collections.Counter()

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        for module in (bounds, cli):
            for name in ("unipotent_degree_bound", "_general_index"):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        monkeypatch.setattr(tower, "tower_cmp", counted("tower_cmp", tower.tower_cmp))
        code, out, err = run(capsys, "bounds", "--n", "3", "--height", "2", "--gens", "2", "--format", "json")
        assert code == 0
        assert counts == {"unipotent_degree_bound": 1, "_general_index": 1, "tower_cmp": 1}

    @pytest.mark.parametrize("base", ["1", "0", "-2"])
    def test_log_base_below_two(self, capsys, base):
        code, out, err = run(
            capsys, "bounds", "--n", "1", "--height", "2", "--gens", "1", "--log-base", base
        )
        assert code == 2
        assert "log_base" in err


class TestClosedStdout:
    def test_closed_pipe_exits_quietly(self):
        # a pipe whose reader is gone before the first write, as under `| head`
        import zclosure

        src = os.path.dirname(os.path.dirname(zclosure.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "zclosure.cli", "bounds", "--n", "2", "--height", "5",
                 "--gens", "3", "--format", "json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        stderr = proc.stderr.decode()
        assert proc.returncode == 1, stderr
        assert "Traceback" not in stderr
        assert stderr == ""


class TestChainBoundsCommand:
    def test_n1(self, capsys):
        payload = run_json(capsys, "chain-bounds", "--n", "1")
        assert payload["bounds"]["semisimple"] == {"form": "exact", "value": "40320"}

    def test_field_degree(self, capsys):
        payload = run_json(capsys, "chain-bounds", "--n", "1", "--field-degree", "2")
        import math

        assert payload["bounds"]["semisimple"]["value"] == str(math.factorial(16))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [["bounds", "--n", "2", "--height", "3", "--gens", "2"], ["chain-bounds", "--n", "2"]],
    ids=["bounds", "chain-bounds"],
)
def test_bound_reports_render_only_the_format_asked_for(capsys, monkeypatch, argv, fmt):
    expected = run(capsys, *argv, "--format", fmt)

    def unused(*args):
        raise AssertionError(f"--format {fmt} rendered the other format")

    if fmt == "json":
        monkeypatch.setattr("zclosure.bounds.BoundReport.pretty", unused)
    else:
        monkeypatch.setattr("zclosure.cli.bound_report_to_json", unused)
    assert run(capsys, *argv, "--format", fmt) == expected
    assert expected[0] == 0


class TestSchreierCommand:
    def test_a3(self, capsys, tmp_path):
        path = write(tmp_path, "s3.json", S3)
        payload = run_json(
            capsys, "schreier", "--generators", path, "--index-bound", "2"
        )
        jsonschema.validate(payload, SCHEMAS["schreier"])
        assert payload["count"] == 3

    def test_usage_error(self, capsys):
        code, out, err = run(capsys, "schreier", "--generators", json.dumps(S3))
        assert code == 2

    @pytest.mark.parametrize(
        "limits",
        [["--index-bound", "100000000"], ["--index-bound", "100000000", "--length-cap", "100000000000"]],
        ids=["index-bound", "length-cap"],
    )
    def test_enumeration_stops_when_no_product_is_new(self, capsys, limits):
        # S3 closes at word length 3, so a larger bound or cap changes nothing
        gens = json.dumps(S3)
        _, want, _ = run(capsys, "schreier", "--generators", gens, "--index-bound", "2")
        start = time.perf_counter()
        code, out, err = run(capsys, "schreier", "--generators", gens, *limits)
        assert code == 0, err
        assert time.perf_counter() - start < 2
        assert out == want


    def test_growing_entries_trip_the_size_budget(self, capsys):
        # [[2]] has infinite order: level L adds 2^L and 2^-L, so the
        # product count stays small while the entries grow without bound
        gens = '{"n":1,"generators":[[["2"]]]}'
        start = time.perf_counter()
        code, out, err = run(
            capsys, "schreier", "--generators", gens, "--index-bound", "100000000",
            "--member", "identity",
        )
        assert code == 3, err
        assert "bits" in err
        assert time.perf_counter() - start < 5

    def test_negative_length_cap(self, capsys):
        code, out, err = run(
            capsys, "schreier", "--generators", json.dumps(S3), "--index-bound", "2",
            "--length-cap", "-1",
        )
        assert code == 2
        assert "length cap" in err


class TestTextJsonAgreement:
    def test_same_numbers(self, capsys):
        code, text_out, _ = run(
            capsys, "relations", "--eigenvalues", '["4", "8"]'
        )
        payload = run_json(capsys, "relations", "--eigenvalues", '["4", "8"]')
        assert code == 0
        assert str(payload["basis"]) in text_out
        for line in payload["binomials"]["text"]:
            assert line in text_out


# Malformed and extreme JSON.  Most draws are well-shaped (1x1 or 2x2 grids
# of valid rationals, some with 30-digit numerators or denominators) so the
# engine runs as well as the parser; the rest put nulls, booleans, floats,
# junk strings, zero denominators or wrong shapes where a rational is due.
valid_rationals = st.one_of(
    st.integers(-9, 9),
    st.builds("{}/{}".format, st.integers(-9, 9), st.sampled_from([1, 2, 3, 10**30])),
    st.builds("{}".format, st.integers(-(10**30), 10**30)),
)
json_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from(["", "abc", "1/", "--1", "nan", "1/0", "-3/0", "1e40"]),
)
json_values = st.recursive(
    st.one_of(valid_rationals, json_junk),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(
            st.sampled_from(["n", "generators", "num_vars", "updates", "A", "b"]), inner, max_size=3
        ),
    ),
    max_leaves=8,
)
json_entries = st.one_of(valid_rationals, json_junk)


def mostly(good, bad):
    """good in most draws, bad in the rest."""
    return st.integers(0, 3).flatmap(lambda k: bad if k == 3 else good)


def grids(entries, size):
    return st.lists(st.lists(entries, min_size=size, max_size=size), min_size=size, max_size=size)


json_matrices = mostly(
    st.one_of(grids(valid_rationals, 1), grids(valid_rationals, 2)),
    st.one_of(grids(json_entries, 2), st.lists(st.lists(json_entries, max_size=3), max_size=3), json_values),
)


@st.composite
def json_generators(draw):
    mats = draw(st.lists(json_matrices, min_size=1, max_size=2))
    size = len(mats[0]) if isinstance(mats[0], list) else 0
    n = draw(mostly(st.just(size), st.one_of(st.integers(-1, 3), json_junk)))
    return draw(mostly(st.just({"n": n, "generators": mats}), st.one_of(st.just(mats), json_values)))


@st.composite
def json_programs(draw):
    num_vars = draw(st.integers(1, 2))
    update = st.fixed_dictionaries(
        {
            "A": mostly(grids(valid_rationals, num_vars), json_matrices),
            "b": mostly(st.lists(valid_rationals, min_size=num_vars, max_size=num_vars), json_values),
        }
    )
    updates = draw(st.lists(update, max_size=2))
    n = draw(mostly(st.just(num_vars), st.one_of(st.integers(-1, 3), json_junk)))
    return draw(mostly(st.just({"num_vars": n, "updates": updates}), json_values))


def small(low):
    """Integers from low to 4 as argv strings, or a few out of range."""
    return mostly(st.integers(low, 4), st.integers(-3, 4)).map(str)


cli_argvs = st.one_of(
    st.tuples(
        st.just("closure"),
        st.just("--generators"),
        json_generators().map(json.dumps),
        st.sampled_from(["--degree", "--max-degree"]),
        mostly(st.integers(1, 2), st.integers(-1, 0)).map(str),
    ).map(lambda t: list(t) + (["--auto"] if t[3] == "--max-degree" else [])),
    st.tuples(
        st.just("relations"),
        st.sampled_from(["--eigenvalues", "--matrix"]),
        st.one_of(st.lists(mostly(valid_rationals, json_entries), max_size=3), json_matrices).map(json.dumps),
    ).map(list),
    st.tuples(
        st.just("invariant"),
        st.just("--program"),
        json_programs().map(json.dumps),
        st.just("--degree"),
        # degree 2 with 21-digit update entries already takes seconds
        st.integers(-1, 1).map(str),
    ).map(list),
    st.tuples(
        st.just("bounds"),
        st.just("--n"), small(1),
        st.just("--height"), small(2),
        st.just("--gens"), small(1),
        st.just("--constant"), mostly(st.sampled_from(["1", "1/2", "3"]), st.sampled_from(["0", "-1", "1/0", "abc"])),
        st.just("--log-base"), small(2),
    ).map(list),
    st.tuples(
        st.just("chain-bounds"), st.just("--n"), small(1), st.just("--field-degree"), small(1)
    ).map(list),
)


class TestCliFuzz:
    @settings(max_examples=200, deadline=None)
    @given(cli_argvs, st.sampled_from(["text", "json"]))
    def test_exit_code_contract(self, argv, fmt):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv + ["--format", fmt])
        assert time.perf_counter() - start < 5, argv
        assert code in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert out.getvalue() and not err.getvalue()
        else:
            assert not out.getvalue() and err.getvalue()
