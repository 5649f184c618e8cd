import json
import time

import jsonschema
import pytest

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


class TestInvariantCommand:
    def test_rotation(self, capsys, tmp_path):
        path = write(tmp_path, "rot.json", ROTATION_PROGRAM)
        payload = run_json(capsys, "invariant", "--program", path, "--degree", "2")
        jsonschema.validate(payload["ideal"], SCHEMAS["ideal"])
        assert "x1^2 + x2^2 - x1_0^2 - x2_0^2" in payload["ideal"]["text"]

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


def test_bare_generator_list_is_input_error(capsys):
    code, out, err = run(capsys, "closure", "--generators", '[[["1"]]]', "--degree", "2")
    assert code == 2
    assert err == 'error: generators must be a JSON object with "n" and "generators"\n'


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

    def test_large_prime_entry_hits_factor_budget(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "relations", "--matrix", json.dumps([[str(10**15 + 37)]])
        )
        assert code == 3
        assert time.perf_counter() - start < 2

    def test_many_root_candidates_hit_search_budget(self, capsys):
        # x^2 + c/720720: 2 * 240 * 512 rational-root candidates, none a root
        c = 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47
        start = time.perf_counter()
        code, out, err = run(
            capsys, "relations", "--matrix", json.dumps([["0", f"-{c}/720720"], ["1", "0"]])
        )
        assert code == 3
        assert "budget of 10000 candidates" in err
        assert time.perf_counter() - start < 1


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


class TestChainBoundsCommand:
    def test_n1(self, capsys):
        payload = run_json(capsys, "chain-bounds", "--n", "1")
        assert payload["bounds"]["semisimple"] == {"form": "exact", "value": "40320"}

    def test_field_degree(self, capsys):
        payload = run_json(capsys, "chain-bounds", "--n", "1", "--field-degree", "2")
        import math

        assert payload["bounds"]["semisimple"]["value"] == str(math.factorial(16))


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
