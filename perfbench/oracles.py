"""Output oracles that share no code with the engine.

Everything here is plain ``fractions.Fraction`` arithmetic on the JSON the
CLI prints.  A closure output (reduced basis G of degree-d vanishing
polynomials, span dimension D) is accepted when

* soundness: every element of G vanishes at the (entries, 1/det) point of
  every group element (finite groups, enumerated by brute force) or of
  seeded random words (infinite groups);
* completeness: D equals the Hilbert function of the known closure in
  degree <= d (closed forms, or the exact rank of the evaluation matrix for
  finite groups), and the number of monomials of degree <= d divisible by a
  grevlex leading monomial of G equals C(m + d, d) - D.  Multiples of G with
  distinct leading monomials are independent and, by soundness, vanish on
  the group, so the count shows they span the whole degree-<= d kernel.

An invariant output is accepted when every generator vanishes on simulated
(state, initial state) pairs and the family's known invariant reduces to
zero modulo the output basis.  A bound output is accepted when its exact
values equal the closed forms evaluated with Python integers.
"""

import copy
import math
import random
from fractions import Fraction

__all__ = ["Oracle", "planted_wrong_answers", "ONE", "identity", "mat_mul", "mat_inv"]

ZERO = Fraction(0)
ONE = Fraction(1)


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum((a[i][t] * b[t][j] for t in range(k)), ZERO) for j in range(m)] for i in range(n)]


def mat_inv(a):
    n = len(a)
    rows = [[Fraction(x) for x in row] + identity(n)[i] for i, row in enumerate(a)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            raise ValueError("singular matrix")
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def det(a):
    n = len(a)
    rows = [[Fraction(x) for x in row] for row in a]
    out = ONE
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            return ZERO
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            out = -out
        out *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return out


def gl_point(g):
    return [x for row in g for x in row] + [ONE / det(g)]


def parse_poly(terms):
    return {tuple(t["exps"]): Fraction(t["coeff"]) for t in terms}


def evaluate(poly, point):
    total = ZERO
    for mono, c in poly.items():
        v = c
        for x, e in zip(point, mono):
            if e:
                v *= x**e
        total += v
    return total


def grevlex_key(mono):
    return (sum(mono), tuple(-e for e in reversed(mono)))


def leading(poly):
    return max(poly, key=grevlex_key)


def monomials(m, d):
    """All exponent tuples in m variables of total degree <= d."""
    out = [()]
    for _ in range(m):
        out = [mono + (e,) for mono in out for e in range(d + 1 - sum(mono))]
    return out


def rank(rows):
    rows = [list(r) for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def lift(point, d):
    return [evaluate({mono: ONE}, point) for mono in monomials(len(point), d)]


def enumerate_group(gens, cap=1000):
    """Every element of a finite group, by closing {I} under the generators."""
    key = lambda g: tuple(x for row in g for x in row)
    start = identity(len(gens[0]))
    seen = {key(start): start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                h = mat_mul(w, g)
                if key(h) not in seen:
                    seen[key(h)] = h
                    nxt.append(h)
                    if len(seen) > cap:
                        raise ValueError("group larger than the enumeration cap")
        frontier = nxt
    return list(seen.values())


def random_words(gens, rng, count=8, max_len=6):
    letters = list(gens) + [mat_inv(g) for g in gens]
    out = []
    for _ in range(count):
        w = identity(len(gens[0]))
        for _ in range(rng.randint(1, max_len)):
            w = mat_mul(w, rng.choice(letters))
        out.append(w)
    return out


def normal_form(f, basis):
    """Remainder of f on division by basis in grevlex."""
    divisors = [(leading(g), g) for g in basis if g]
    p = dict(f)
    rem = {}
    while p:
        m = max(p, key=grevlex_key)
        c = p.pop(m)
        for lm, g in divisors:
            if all(a <= b for a, b in zip(lm, m)):
                q = tuple(b - a for a, b in zip(lm, m))
                factor = c / g[lm]
                for gm, gc in g.items():
                    if gm != lm:
                        t = tuple(x + y for x, y in zip(q, gm))
                        s = p.get(t, ZERO) - factor * gc
                        if s:
                            p[t] = s
                        else:
                            p.pop(t, None)
                break
        else:
            rem[m] = c
    return rem


FINITE = ("S3", "SS3", "ROT4", "ROT6")


def hilbert_closed_form(family, d):
    """dim of degree-<= d functions on the known closure of an infinite family."""
    if family == "SL2":
        return math.comb(4 + d, 4) - math.comb(2 + d, 4)
    if family == "SL3":
        return math.comb(9 + d, 9) - math.comb(6 + d, 9)
    if family == "TORUS":
        return 2 * d + 1
    if family == "HEIS":
        return math.comb(3 + d, 3)
    raise ValueError(f"no closed form for {family}")


class Oracle:
    """Checks job outputs; caches group data per job so repeats stay cheap."""

    def __init__(self):
        self._points = {}
        self._dims = {}

    def check(self, job, payload):
        """None when the output is correct, else the reason it is not."""
        try:
            return getattr(self, "_check_" + job.kind.replace("-", "_"))(job, payload)
        except (KeyError, TypeError, ValueError, ZeroDivisionError, IndexError) as err:
            return f"malformed output: {type(err).__name__}: {err}"

    # closure ------------------------------------------------------------

    def _group_points(self, job):
        if job not in self._points:
            facts = job.facts
            if facts["family"] in FINITE:
                elements = enumerate_group(facts["gens"])
            else:
                elements = random_words(facts["gens"], random.Random(job.label))
            self._points[job] = [gl_point(g) for g in elements]
        return self._points[job]

    def _expected_dim(self, job, d):
        """Conjugation changes coordinates linearly, so the unconjugated
        family has the same Hilbert function."""
        family = job.facts["family"]
        if family not in FINITE:
            return hilbert_closed_form(family, d)
        if (family, d) not in self._dims:
            gens = [[[Fraction(x) for x in row] for row in g] for g in job.facts["family_gens"]]
            points = [gl_point(g) for g in enumerate_group(gens)]
            self._dims[family, d] = rank([lift(p, d) for p in points])
        return self._dims[family, d]

    def _check_closure(self, job, payload):
        facts = job.facts
        n = len(facts["gens"][0])
        m = n * n + 1
        d = payload["degree"]
        if payload["n"] != n:
            return f"n is {payload['n']}, expected {n}"
        if facts["auto"] and not 1 <= d <= facts["degree"]:
            return f"auto degree {d} outside 1..{facts['degree']}"
        if not facts["auto"] and d != facts["degree"]:
            return f"degree is {d}, expected {facts['degree']}"
        if payload["certified"] not in ("heuristic-stable", "degree-complete"):
            return f"unknown certification {payload['certified']!r}"
        expected = self._expected_dim(job, d)
        if payload["span_dimension"] != expected:
            return f"span dimension {payload['span_dimension']}, expected {expected}"
        if payload["witness"]["count"] != expected:
            return f"{payload['witness']['count']} witnesses for a span of {expected}"
        ideal = payload["ideal"]
        if ideal["arity"] != m:
            return f"ideal arity {ideal['arity']}, expected {m}"
        basis = [parse_poly(t) for t in ideal["generators"]]
        for point in self._group_points(job):
            for i, g in enumerate(basis):
                if evaluate(g, point):
                    return f"generator {i} does not vanish on the group"
        lms = [leading(g) for g in basis if g]
        covered = sum(
            1
            for mono in monomials(m, d)
            if any(all(a <= b for a, b in zip(lm, mono)) for lm in lms)
        )
        want = math.comb(m + d, d) - expected
        if covered != want:
            return f"basis leading monomials cover {covered} monomials of degree <= {d}, expected {want}"
        return None

    # invariant ----------------------------------------------------------

    def _simulated_pairs(self, job):
        if job not in self._points:
            program = job.facts["program"]
            n = program["num_vars"]
            updates = [
                ([[Fraction(x) for x in row] for row in u["A"]], [Fraction(x) for x in u["b"]])
                for u in program["updates"]
            ]
            rng = random.Random(job.label)
            pairs = []
            for _ in range(4):
                x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                x = list(x0)
                for _ in range(6):
                    a, b = rng.choice(updates)
                    x = [sum((a[i][j] * x[j] for j in range(n)), ZERO) + b[i] for i in range(n)]
                    pairs.append(x + x0)
            self._points[job] = pairs
        return self._points[job]

    def _check_invariant(self, job, payload):
        n = job.facts["program"]["num_vars"]
        if payload["num_vars"] != n or payload["degree"] != job.facts["degree"]:
            return "num_vars or degree does not echo the input"
        if payload["ideal"]["arity"] != 2 * n:
            return f"ideal arity {payload['ideal']['arity']}, expected {2 * n}"
        basis = [parse_poly(t) for t in payload["ideal"]["generators"]]
        for point in self._simulated_pairs(job):
            for i, g in enumerate(basis):
                if evaluate(g, point):
                    return f"generator {i} fails on a simulated run"
        if normal_form(job.facts["known"], basis):
            return "the known invariant is not in the output ideal"
        return None

    # bounds -------------------------------------------------------------

    def _check_bounds(self, job, payload):
        n, h, s = job.facts["n"], job.facts["h"], job.facts["s"]
        if payload["params"] != {"n": n, "h": h, "s": s, "c": "1"}:
            return f"params {payload['params']} do not echo the input"
        bounds = payload["bounds"]
        names = {
            "semisimple_index", "unipotent_degree", "general_index", "finite_subgroup_order",
            "schreier_count", "schreier_height", "lattice_degree", "block_degree", "closure_degree",
        }
        if set(bounds) != names:
            return f"bound names {sorted(bounds)}"
        exact = {
            "semisimple_index": math.factorial(2 * (n * n + 1) ** 2),
            "finite_subgroup_order": math.factorial(2 * n),
        }
        return _check_bound_records(bounds, exact, n)

    def _check_chain_bounds(self, job, payload):
        n, k = job.facts["n"], job.facts["k"]
        if payload["params"] != {"n": n, "field_degree": k}:
            return f"params {payload['params']} do not echo the input"
        bounds = payload["bounds"]
        if set(bounds) != {"semisimple", "general", "quotient_dimension", "unipotent_degree"}:
            return f"bound names {sorted(bounds)}"
        exact = {"semisimple": n * n * math.factorial(2 * (n * n + 1) ** 2 * k)}
        return _check_bound_records(bounds, exact, n)


def _check_bound_records(bounds, exact, n):
    for name, rec in bounds.items():
        if rec["form"] == "exact":
            if Fraction(rec["value"]) <= 0:
                return f"{name} is not positive"
        elif rec["form"] != "tower" or not rec["pretty"] or "kind" not in rec["expr"]:
            return f"{name} is neither an exact value nor a tower"
    for name, value in exact.items():
        rec = bounds[name]
        if rec["form"] != "exact" or Fraction(rec["value"]) != value:
            return f"{name} differs from its closed form"
    # (n^3 + 1)^(2^(3 n^2)), exact while small and a power node after that
    rec = bounds["unipotent_degree"]
    base, exp = n**3 + 1, 2 ** (3 * n * n)
    if rec["form"] == "exact":
        if exp > 1 << 16 or Fraction(rec["value"]) != base**exp:
            return "unipotent_degree differs from its closed form"
    else:
        expr = rec["expr"]
        if (
            expr["kind"] != "pow"
            or expr["base"] != {"kind": "exact", "value": str(base)}
            or expr["exp"] != {"kind": "exact", "value": str(exp)}
        ):
            return "unipotent_degree is not the power (n^3+1)^(2^(3n^2))"
    return None


def planted_wrong_answers(job, payload):
    """Wrong variants of a correct output, each of which the oracle must reject.

    Invariant outputs get no dropped generator: their oracle checks
    soundness and one known member, not that the basis is complete.
    """
    out = []
    if job.kind == "closure":
        # the first generator has the least leading monomial, so its degree
        # is at most d and without it the basis covers one monomial fewer
        dropped = copy.deepcopy(payload)
        del dropped["ideal"]["generators"][0]
        out.append(("dropped generator", dropped))
        off = copy.deepcopy(payload)
        off["span_dimension"] += 1
        out.append(("span dimension off by one", off))
    if job.kind in ("closure", "invariant"):
        perturbed = copy.deepcopy(payload)
        first = perturbed["ideal"]["generators"][0][0]
        first["coeff"] = str(Fraction(first["coeff"]) + 1)
        out.append(("perturbed coefficient", perturbed))
    else:
        exact = next(name for name, rec in payload["bounds"].items() if rec["form"] == "exact")
        perturbed = copy.deepcopy(payload)
        perturbed["bounds"][exact]["value"] = str(Fraction(perturbed["bounds"][exact]["value"]) + 1)
        out.append(("perturbed bound value", perturbed))
        dropped = copy.deepcopy(payload)
        del dropped["bounds"][exact]
        out.append(("dropped bound", dropped))
    return out
