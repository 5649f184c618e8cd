"""Seeded job mixes for the four benchmark workloads.

A job is one CLI invocation, given as the argv passed to
``zclosure.cli.cli_main`` plus the facts the oracles need to check its
output.  Every input is built here from the seed; the engine sees only the
argv.  Closure inputs are fixed generator families conjugated by a seeded
matrix.  Conjugation is a linear change of the embedded coordinates, so the
closure of every conjugate has the Hilbert function of the family's known
closure, and one seed-independent oracle holds for every seed.

Each workload is a fixed list of cells (family, degree, conjugator kind).
The seed draws the signs of each conjugator, which changes the input but
not its cost, so runs with different seeds measure the same amount of work.
"""

import json
import random
from fractions import Fraction

from oracles import ONE, identity, mat_inv, mat_mul

__all__ = ["WORKLOADS", "TAIL_PERCENTILE", "Job", "make_jobs"]


# Generator families with their known closures.
FAMILIES = {
    # SL_2(Z) pair: Zariski dense in SL_2.
    "SL2": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]],
    # elementary triple of SL_3(Z): Zariski dense in SL_3.
    "SL3": [
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [1, 0, 1]],
    ],
    # diag(2, 1/2): closure is the one-dimensional torus.
    "TORUS": [[[2, 0], [0, Fraction(1, 2)]]],
    # upper unitriangular 3x3 generators: closure is the Heisenberg group.
    "HEIS": [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]],
    # symmetric group S_3 as permutation matrices (finite).
    "S3": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]]],
    # signed variant: a signed 3-cycle and a transposition (finite, order 48).
    "SS3": [[[0, -1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]]],
    # rotations of order 4 and 6 (finite cyclic).
    "ROT4": [[[0, -1], [1, 0]]],
    "ROT6": [[[1, -1], [1, 0]]],
}

# Rotation updates and the quadratic form each one preserves.
ROTATIONS = {
    "ROT4": ([[0, -1], [1, 0]], [[1, 0], [0, 1]]),
    "ROT6": ([[1, -1], [1, 0]], [[1, Fraction(-1, 2)], [Fraction(-1, 2), 1]]),
}

CONJUGATORS = ("unimodular", "rational", "signed-perm")


def _base(kind, n):
    """The fixed part of a conjugator of the given kind, height at most 2."""
    p = identity(n)
    if kind == "unimodular":
        for i in range(n - 1):
            p[i][i + 1] = ONE
        e = identity(n)
        e[1][0] = ONE
        return mat_mul(p, e)
    if kind == "rational":
        p[0][n - 1] = Fraction(1, 2)
        return p
    if kind == "signed-perm":
        return [p[(i + 1) % n] for i in range(n)]
    raise ValueError(f"unknown conjugator kind {kind!r}")


def _conjugator(kind, n, rng):
    """D B with B the kind's fixed base and D a seeded diagonal sign matrix.

    Conjugating by D only flips signs of matrix entries, which leaves the
    engine's work unchanged, so a job's cost does not depend on the seed.
    """
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[sign * x for x in row] for sign, row in zip(signs, _base(kind, n))]


def _conjugate(family, kind, rng):
    gens = [[[Fraction(x) for x in row] for row in g] for g in FAMILIES[family]]
    p = _conjugator(kind, len(gens[0]), rng)
    p_inv = mat_inv(p)
    return [mat_mul(mat_mul(p, g), p_inv) for g in gens]


def _mat_json(m):
    return [[str(x) for x in row] for row in m]


class Job:
    """One CLI call: argv for cli_main and the oracle's facts about it."""

    __slots__ = ("label", "argv", "kind", "facts")

    def __init__(self, label, argv, kind, facts):
        self.label = label
        self.argv = argv
        self.kind = kind
        self.facts = facts


def _closure_job(family, degree, conj, rng, auto=False):
    gens = _conjugate(family, conj, rng)
    literal = json.dumps({"n": len(gens[0]), "generators": [_mat_json(g) for g in gens]})
    argv = ["closure", "--generators", literal, "--format", "json"]
    if auto:
        argv += ["--auto", "--max-degree", str(degree)]
    else:
        argv += ["--degree", str(degree)]
    label = f"closure{'-auto' if auto else ''} {family} d={degree} {conj}"
    facts = {
        "family": family, "family_gens": FAMILIES[family], "gens": gens,
        "degree": degree, "auto": auto,
    }
    return Job(label, argv, "closure", facts)


def _rotation_job(family, degree, conj, rng):
    """x := A x with A a conjugated rotation; known invariant z^T Q z = z0^T Q z0."""
    a, q = ROTATIONS[family]
    a = [[Fraction(x) for x in row] for row in a]
    q = [[Fraction(x) for x in row] for row in q]
    p = _conjugator(conj, 2, rng)
    a_conj = mat_mul(mat_mul(mat_inv(p), a), p)
    p_t = [list(col) for col in zip(*p)]
    q_conj = mat_mul(mat_mul(p_t, q), p)
    program = {"num_vars": 2, "updates": [{"A": _mat_json(a_conj), "b": ["0", "0"]}]}
    known = {}  # z^T Q z - z0^T Q z0 over variables (z1, z2, z1_0, z2_0)
    for i in range(2):
        for j in range(2):
            for offset, sign in ((0, 1), (2, -1)):
                mono = [0, 0, 0, 0]
                mono[offset + i] += 1
                mono[offset + j] += 1
                key = tuple(mono)
                known[key] = known.get(key, Fraction(0)) + sign * q_conj[i][j]
    known = {mono: c for mono, c in known.items() if c}
    return _invariant_job(f"invariant {family} d={degree} {conj}", program, degree, known)


def _shear_job(degree, step, rng):
    """x := x + y, y := y + beta; after k steps y - y0 = k beta, so
    2 beta (x - x0) - 2 (y - y0) y0 - (y - y0)(y - y0 - beta) vanishes."""
    beta = Fraction(rng.choice((-1, 1)) * step)
    program = {
        "num_vars": 2,
        "updates": [{"A": [["1", "1"], ["0", "1"]], "b": ["0", str(beta)]}],
    }
    # expanded over (x, y, x0, y0); the y y0 terms cancel
    known = {
        (1, 0, 0, 0): 2 * beta,
        (0, 0, 1, 0): -2 * beta,
        (0, 2, 0, 0): Fraction(-1),
        (0, 0, 0, 2): Fraction(1),
        (0, 1, 0, 0): beta,
        (0, 0, 0, 1): -beta,
    }
    return _invariant_job(f"invariant SHEAR d={degree} beta={beta}", program, degree, known)


def _invariant_job(label, program, degree, known):
    argv = ["invariant", "--program", json.dumps(program), "--degree", str(degree), "--format", "json"]
    facts = {"program": program, "degree": degree, "known": known}
    return Job(label, argv, "invariant", facts)


def _bounds_job(n, rng):
    h = rng.randint(2, 9)
    s = rng.randint(1, 4)
    argv = ["bounds", "--n", str(n), "--height", str(h), "--gens", str(s), "--format", "json"]
    return Job(f"bounds n={n} h={h} s={s}", argv, "bounds", {"n": n, "h": h, "s": s})


def _chain_job(n, rng):
    k = rng.randint(1, 3)
    argv = ["chain-bounds", "--n", str(n), "--field-degree", str(k), "--format", "json"]
    return Job(f"chain-bounds n={n} k={k}", argv, "chain-bounds", {"n": n, "k": k})


def _auto_job(family, max_degree, conj, rng):
    return _closure_job(family, max_degree, conj, rng, auto=True)


U, R, P = CONJUGATORS

# Each workload is a list of cells (job maker, its arguments before the rng)
# and keeps the reason it exists next to them.
WORKLOADS = {
    # Span saturation is 90-99 % of the work and the kernel reduces to just
    # {y - 1, det - 1}: sparse rows, fraction-free lifts and mod-p pre-passes
    # show here, and a Gröbner change should not.
    "closure-span": [
        (_closure_job, "SL2", 3, U),
        (_closure_job, "SL2", 3, R),
        (_closure_job, "SL2", 3, P),
        (_closure_job, "SL2", 3, U),
        (_closure_job, "SL2", 3, R),
        (_closure_job, "SL2", 3, P),
        (_closure_job, "SL3", 2, U),
        (_closure_job, "SL3", 2, P),
        (_closure_job, "SL2", 4, P),
    ],
    # Small closures: the span has dimension 4-33 while kernels of 33-280
    # vectors reduce to 4-47 generators, so grevlex Buchberger dominates.
    # The echelon pre-filter shows here, and span changes should not.
    "closure-kernel": [
        (_closure_job, "S3", 2, U),
        (_closure_job, "S3", 2, R),
        (_closure_job, "S3", 2, P),
        (_closure_job, "SS3", 2, P),
        (_closure_job, "ROT4", 4, U),
        (_closure_job, "ROT6", 4, R),
        (_closure_job, "TORUS", 4, U),
        (_closure_job, "HEIS", 2, R),
        (_closure_job, "S3", 3, P),
    ],
    # The Gröbner layer used differently: elimination orders, membership in
    # 2m variables, ideal equality and the random-word fuzz.  A Gröbner change
    # tuned for grevlex kernels would show its cost here.
    "certify-eliminate": [
        (_auto_job, "SL2", 4, R),
        (_auto_job, "TORUS", 4, U),
        (_auto_job, "TORUS", 4, R),
        (_auto_job, "HEIS", 4, U),
        (_auto_job, "ROT4", 4, P),
        (_rotation_job, "ROT4", 2, U),
        (_rotation_job, "ROT6", 2, R),
        (_shear_job, 2, 2),
        (_shear_job, 3, 1),
    ],
    # tower and bounds are about a quarter of the code and no other workload
    # reaches them; the tower_cmp and _lval_add soundness fixes change their
    # cost.
    "bounds": [
        *((_bounds_job, n) for n in (1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4)),
        *((_chain_job, n) for n in (1, 2, 3, 4)),
    ],
}

# Percentile reported as job_s.tail: about the highest one that leaves at
# least ten samples beyond it in a 30 s run (run.py makes enough cycles for
# that).  Every workload has an odd number of cells and each percentile falls
# inside one cell's block of samples, not on the edge between two cells, where
# a small shift would jump to another cell.  On certify-eliminate that cell is
# the rotation invariant at d=2, whose time is mostly one elimination-order
# Groebner run.
TAIL_PERCENTILE = {
    "closure-span": 85,
    "closure-kernel": 72,
    "certify-eliminate": 80,
    "bounds": 90,
}


def make_jobs(workload, seed):
    """The workload's jobs for this seed, one per cell, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = [maker(*args, rng) for maker, *args in WORKLOADS[workload]]
    rng.shuffle(jobs)
    return jobs
