"""Smoke test of the benchmark harness: one short traced run per workload.

The tracer wraps every function in the engine modules' __all__ and a few
named methods and helpers, so a renamed or removed engine API breaks
``--trace 1`` runs; these runs catch that.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def per_layer_units():
    # loaded by path: on sys.path, perfbench/oracles.py would collide with
    # tests/oracles.py
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct(workload):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    assert list(last["metrics"]) == list(per_layer_units())
