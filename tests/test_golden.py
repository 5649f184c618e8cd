"""CLI outputs against the versioned golden fixtures.

The goldens were produced by the CLI after the underlying values were
cross-checked against independent oracles (hand ideals, interpolation,
mpmath); these tests pin byte-for-byte reproducibility.
"""

import hashlib
import json
from pathlib import Path

import pytest

from zclosure.cli import cli_main

FIXTURES = Path(__file__).parent / "fixtures" / "v1"


def run_json(capsys, *argv):
    code = cli_main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def load(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def test_sl2_closure_golden(capsys):
    got = run_json(
        capsys, "closure", "--generators", str(FIXTURES / "sl2_generators.json"), "--degree", "2"
    )
    assert got == load("sl2_closure_degree2.json")


def test_sl2_closure_deterministic(capsys):
    runs = [
        run_json(
            capsys,
            "closure",
            "--generators",
            str(FIXTURES / "sl2_generators.json"),
            "--degree",
            "2",
        )
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_diag_closure_golden(capsys):
    got = run_json(
        capsys, "closure", "--generators", str(FIXTURES / "diag_generators.json"), "--degree", "2"
    )
    assert got == load("diag_closure_degree2.json")
    assert got["ideal"]["text"] == ["y - 1", "x21", "x12", "x11*x22 - 1"]


def test_rotation_invariant_golden(capsys):
    got = run_json(
        capsys,
        "invariant",
        "--program",
        str(FIXTURES / "rotation_program.json"),
        "--degree",
        "2",
    )
    assert got == load("rotation_invariant_degree2.json")


def test_bounds_golden(capsys):
    got = run_json(capsys, "bounds", "--n", "1", "--height", "2", "--gens", "1")
    assert got == load("bounds_n1_h2_s1.json")


def test_bounds_grid_byte_identical(capsys):
    # sha256 of the --format json stdout of bounds over n = 1..4, h = 2..9,
    # s = 1..4 and chain-bounds over n = 1..4, k = 1..3, recorded before the
    # log bounds moved from Fraction series to integer dyadic endpoints
    expected = load("bounds_grid_sha256.json")
    got = {}
    for argv in expected:
        code = cli_main([*argv.split(), "--format", "json"])
        assert code == 0, argv
        got[argv] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert len(got) == 140
    assert got == expected


def test_benchmark_jobs_byte_identical(capsys):
    # sha256 of the stdout of the 42 seed-1 benchmark jobs (closure,
    # closure --auto, invariant, bounds, chain-bounds) in --format json and
    # --format text; the fixture holds their argv lists
    expected = load("benchmark_jobs_sha256.json")
    assert len(expected) == 84
    for entry in expected:
        code = cli_main(entry["argv"])
        assert code == 0, entry["argv"]
        got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert got == entry["sha256"], entry["argv"]


def test_cli_examples_byte_identical(capsys):
    # exit code and sha256 of stdout and stderr of closure --degree 1..3 and
    # --auto --max-degree 1..4 on the eight unconjugated benchmark families,
    # invariant on the two rotations and the shear at d = 1..3, and a few
    # unipotent-closure, decompose and relations inputs, in --format json and
    # text; recorded before the span coordinates moved to ascending grevlex.
    # Left out: SL3 --auto --max-degree 4 (over 3 s) and S3 --auto
    # --max-degree 2, which exited 2 before auto_closure read the
    # certificate of its last span (tests/test_closure.py covers it)
    expected = load("cli_examples_sha256.json")
    assert len(expected) == 136
    for entry in expected:
        code = cli_main(entry["argv"])
        out, err = capsys.readouterr()
        got = {
            "argv": entry["argv"],
            "exit_code": code,
            "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
            "stderr_sha256": hashlib.sha256(err.encode()).hexdigest(),
        }
        assert got == entry


def test_relations_golden(capsys):
    got = run_json(capsys, "relations", "--eigenvalues", '["32", "1/2"]')
    assert got == load("relations_32_half.json")


def test_chain_bounds_golden(capsys):
    got = run_json(capsys, "chain-bounds", "--n", "2")
    assert got == load("chain_bounds_n2.json")


def test_schreier_byte_identical(capsys):
    # exit code, sha256 of stdout and the stderr text of schreier on S3, SL2,
    # <[[1/2,1],[0,2]], [[1,0],[1/3,1]]>, -I and [[2]] for each member at
    # index bounds 1..3, one --length-cap run and the [[2]] size-budget exit,
    # in --format json and text; recorded while the enumeration multiplied
    # QMatrix products, before it moved to integer records
    expected = load("schreier_sha256.json")
    assert len(expected) == 94
    for entry in expected:
        code = cli_main(entry["argv"])
        out, err = capsys.readouterr()
        got = {
            "argv": entry["argv"],
            "exit_code": code,
            "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
            "stderr": err,
        }
        assert got == entry


def test_structure_byte_identical(capsys):
    # exit code and sha256 of stdout and stderr of decompose, relations
    # --matrix and unipotent-closure in --format json and text on seeded
    # inputs with n = 1..5: rational matrices, upper-triangular matrices with
    # repeated diagonals, companions with irrational spectra, singular and
    # non-unipotent matrices (exit 2); recorded while char_poly and min_poly
    # still returned arity-1 Poly values
    expected = load("structure_sha256.json")
    assert len(expected) == 898
    for entry in expected:
        code = cli_main(entry["argv"])
        out, err = capsys.readouterr()
        got = {
            "argv": entry["argv"],
            "exit_code": code,
            "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
            "stderr_sha256": hashlib.sha256(err.encode()).hexdigest(),
        }
        assert got == entry
