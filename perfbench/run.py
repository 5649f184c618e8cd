#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the zclosure CLI.

    python3 perfbench/run.py --workload closure-span --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the engine is imported from
``src/`` there and nowhere else.  Load is a closed loop with one client in
one process: each job calls ``zclosure.cli.cli_main(argv)`` with
``--format json`` and waits for it.  The seed fixes one job per cell of
the workload (see workloads.py); whole cycles over those jobs run for about
``--seconds`` (a cycle is not started when it would end more than half a
cycle late), and an untraced run makes at least the cycles that leave ten
samples beyond the tail percentile.  Every output is checked by the oracles in
oracles.py.  After the run, wrong answers planted into verified outputs
must all be rejected, or the run is not correct.  Per-layer values are
means per job; the shares are each layer's self time over job time.

A chunk of fixed reference work (reference.py) runs before every job, outside
the job's time.  The times below are scaled by REFERENCE_S over the run's
median chunk time: they are the times on a host that runs a chunk in
REFERENCE_S, so the minutes in which a shared host runs everything a third
slower or faster show much less in them.  The ``record:`` line keeps the
unscaled values and the scale.

With ``--trace 0`` the last line reports the end-to-end metrics:

    job_s.p50    median wall time of one cli_main call, to rendered output
    job_s.tail   the workload's tail percentile (TAIL_PERCENTILE), nearest
                 rank; the run leaves at least ten samples beyond it
    jobs_per_s   verified jobs per second of the loop's wall time less the
                 reference chunks; it includes verification
    ok_ratio     verified jobs / attempted jobs, that is 1 - fail_ratio;
                 a failure is a non-zero exit, an exception or a rejection
    setup_s      median time to import zclosure and zclosure.cli in a fresh
                 interpreter, over several interpreters, scaled like the
                 jobs (on a shared 2-vCPU host, the ten-run median moved by
                 30 % between two sets of runs unscaled, by 10 % scaled)
    peak_rss_mb  peak resident memory of this process (getrusage)

With ``--trace 1`` untraced and traced cycles alternate; the last line
reports the per-layer metrics of tracing.py from the traced cycles, and
``trace.overhead`` is the traced mean cycle time over the untraced one,
minus one.  Which end-to-end metric each layer metric should move:

    span.*, echelon.insert.*          job_s.p50, jobs_per_s on closure-span
    kernel.*, gb.grevlex.*, nf.calls  job_s.*, jobs_per_s on closure-kernel
    gb.elim.*, affine.self_s          job_s.tail on certify-eliminate
    cert.s, member.calls, equal.s,
    fuzz.s, gb.grevlex.repeat_calls   job_s.p50 on certify-eliminate
    bounds.s, tower.cmp.*             jobs_per_s, job_s.p50 on bounds
    io.s, out_bytes                   job_s.p50 on bounds, closure-kernel

Lines before the last one give a readable summary and a ``record:`` line
with the environment (Python version, rational backend, nproc, commit and
a digest of the sources); compare.py reads those lines.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from oracles import Oracle, planted_wrong_answers
from reference import REFERENCE_S, chunk
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics
from workloads import TAIL_PERCENTILE, WORKLOADS, make_jobs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 11
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import zclosure, zclosure.cli; print(time.perf_counter() - t)"
)


def import_engine():
    """zclosure from this checkout's src/; exits with an error when it is not there."""
    if not (SRC / "zclosure" / "__init__.py").is_file():
        sys.exit(f"error: no engine sources at {SRC / 'zclosure'}")
    sys.path.insert(0, str(SRC))
    import zclosure
    import zclosure.cli

    if Path(zclosure.__file__).resolve().parent != SRC / "zclosure":
        sys.exit(f"error: zclosure was imported from {zclosure.__file__}, not {SRC}")
    return zclosure


def environment(zclosure):
    rat = zclosure._rat.RAT
    digest = hashlib.sha256()
    for path in sorted((SRC / "zclosure").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "backend": f"{rat.__module__}.{rat.__name__}",
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def _git_commit():
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup():
    code = SETUP_CODE.format(src=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


class Loop:
    """Closed-loop client: runs jobs one after another and verifies them."""

    def __init__(self, cli):
        self.cli = cli
        self.oracle = Oracle()
        self.examples = {}  # job kind -> (job, verified payload), for the self-test
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.out_bytes = 0
        self.chunk_times = []  # one reference chunk before each job

    def run_cycle(self, jobs, tracer=None):
        """Run each job once; returns their times."""
        times = []
        for job in jobs:
            self.chunk_times.append(chunk())
            if tracer is not None:
                tracer.job = self.attempted
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = perf_counter()
                try:
                    code = self.cli.cli_main(list(job.argv))
                except Exception as exc:  # a traceback is a failed job, not a crash
                    code = f"{type(exc).__name__}: {exc}"
                elapsed = perf_counter() - start
            self.attempted += 1
            times.append(elapsed)
            text = out.getvalue()
            if tracer is not None:
                self.out_bytes += len(text.encode())
            reason = self._verify(job, code, text, err.getvalue())
            if reason is not None:
                self.failed += 1
                self.failures.append(f"{job.label}: {reason}")
        return times

    def _verify(self, job, code, text, err):
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        reason = self.oracle.check(job, payload)
        if reason is None:
            self.examples.setdefault(job.kind, (job, payload))
        return reason

    def self_test(self):
        """(rejected, planted): planted wrong answers the oracle turned down."""
        planted = rejected = 0
        for job, payload in self.examples.values():
            for what, wrong in planted_wrong_answers(job, payload):
                planted += 1
                if self.oracle.check(job, wrong) is not None:
                    rejected += 1
                else:
                    self.failures.append(f"self-test: {job.label}: {what} was accepted")
        return rejected, planted


def min_cycles(workload, jobs_per_cycle):
    """Fewest whole cycles that leave ten samples beyond the tail percentile."""
    p = TAIL_PERCENTILE[workload]
    cycles = 1
    while (n := cycles * jobs_per_cycle) - math.ceil(p * n / 100) < 10:
        cycles += 1
    return cycles


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p * len(sorted_values) / 100) - 1)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    zclosure = import_engine()
    sys.set_int_max_str_digits(0)  # exact bound values run to thousands of digits
    env = environment(zclosure)
    setup_s = measure_setup() if not args.trace else None

    loop = Loop(zclosure.cli)
    tracer = Tracer() if args.trace else None
    jobs = make_jobs(args.workload, args.seed)
    samples = []
    cycle_time = {False: [], True: []}
    least = 2 if args.trace else min_cycles(args.workload, len(jobs))
    cycles = 0
    start = perf_counter()
    # stop where another cycle would end more than half a mean cycle late
    while cycles < least or (perf_counter() - start) * (1 + 0.5 / cycles) < args.seconds:
        cycles += 1
        traced = bool(args.trace) and len(cycle_time[False]) > len(cycle_time[True])
        if traced:
            tracer.install()
        try:
            times = loop.run_cycle(jobs, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        cycle_time[traced].append(sum(times))
        samples.extend(times)
    wall = perf_counter() - start
    rejected, planted = loop.self_test()

    failed = loop.failed
    samples.sort()
    n = len(samples)
    pct = TAIL_PERCENTILE[args.workload]
    slowness = statistics.median(loop.chunk_times) / REFERENCE_S
    if args.trace:
        traced_jobs = len(cycle_time[True]) * len(jobs)
        overhead = statistics.mean(cycle_time[True]) / statistics.mean(cycle_time[False]) - 1
        values = layer_metrics(tracer.spans, traced_jobs, loop.out_bytes, overhead)
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
        raw = {}
    else:
        raw = {
            "job_s.p50": statistics.median(samples),
            "job_s.tail": nearest_rank(samples, pct),
            "jobs_per_s": (loop.attempted - failed) / (wall - sum(loop.chunk_times)),
            "setup_s": setup_s,
        }
        metrics = {
            "job_s.p50": {"value": raw["job_s.p50"] / slowness, "unit": "s"},
            "job_s.tail": {"value": raw["job_s.tail"] / slowness, "unit": "s"},
            "jobs_per_s": {"value": raw["jobs_per_s"] * slowness, "unit": "1/s"},
            "ok_ratio": {"value": (loop.attempted - failed) / loop.attempted, "unit": "ratio"},
            "setup_s": {"value": raw["setup_s"] / slowness, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    correct = not loop.failures and rejected == planted and planted > 0

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(jobs)} jobs x {n // len(jobs)} cycles in {wall:.1f} s "
          f"({sum(samples):.1f} s in jobs, the rest verifying), "
          f"{failed} failed")
    print(f"job_s.tail is p{pct} of {n} samples; self-test rejected {rejected}/{planted} planted wrong answers")
    for failure in loop.failures[:10]:
        print(f"FAIL {failure}")
    print("record: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "tail_percentile": pct, "samples": n,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "unscaled": raw, "slowness": slowness,
    }))
    print(json.dumps({
        "correct": correct, "attempted": loop.attempted, "failed": failed, "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
