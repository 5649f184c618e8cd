"""Independent computations the tests check the engine against.

None of these is engine code: each recomputes what the engine computes
another way (power products instead of the engine's integer lift, a dense
lift operator, a substitution by the inverse matrix, interpolation on the
enumerated elements of a finite group), or drives the engine's answers from
outside (random words, random program runs, the elimination input of an
invariant).  The Fraction leveled intervals are the exception: a frozen
copy of the tower comparison's older code, which its int endpoints must
equal exactly.  The wire-format readers and writers at the end serve only the
tests: the CLI reads rationals, matrices, generator sets and affine
programs, never polynomials, towers or reports.
"""

import math
import re
from fractions import Fraction

from zclosure.affine import affine_to_generators
from zclosure.bounds import BoundReport
from zclosure.closure import gl_embed, invariants_up_to_degree, monomial_basis
from zclosure.jsonio import matrix_to_json, rat_from_str, rat_to_str
from zclosure.linalg import QMatrix
from zclosure.poly import GREVLEX, Ideal, Poly
from zclosure.structure import PolyMatrix
from zclosure.tower import tower_add, tower_exact, tower_fact, tower_mul, tower_pow
from zclosure._rat import ONE, ZERO, height, rat


def monomial_lift(coords, d):
    """All monomials of degree <= d at the point, in monomial_basis order.

    Each monomial is its own power product of the coordinates.
    """
    out = []
    for mono in monomial_basis(len(coords), d):
        value = ONE
        for c, e in zip(coords, mono):
            if e:
                value *= c**e
        out.append(value)
    return out


def lift_operator(g: QMatrix, d: int) -> QMatrix:
    """Dense matrix L with monomial_lift(gl_embed(g h), d) = L monomial_lift(gl_embed(h), d).

    The coordinates of g h are linear forms in those of h: the entries of g
    times the generic matrix, then y / det g.  Row r holds the coefficients
    of the r-th monomial in those forms.
    """
    m = g.rows * g.rows + 1
    product = PolyMatrix.constant(g, m) * PolyMatrix.generic(g.rows, m)
    forms = [*product.entries, Poly.variable(m - 1, m) * (ONE / g.det())]
    basis = monomial_basis(m, d)
    index = {mono: i for i, mono in enumerate(basis)}
    size = len(basis)
    entries = [ZERO] * (size * size)
    for r, mono in enumerate(basis):
        row = Poly.const(m, 1)
        for form, e in zip(forms, mono):
            if e:
                row = row * form**e
        for term, c in row.terms.items():
            entries[r * size + index[term]] = c
    return QMatrix(size, size, entries)


def random_words_vanish(result, generators, rng, count=200, max_len=12):
    """Every kernel vector of the result's span vanishes on the lifts of
    count random words of length at most max_len; exact."""
    kernel = result.span.kernel_vectors()
    if not kernel:
        return True
    d = result.degree_used
    for _ in range(count):
        length = rng.randint(0, max_len)
        word = QMatrix.identity(generators.n)
        for _ in range(length):
            word = word * rng.choice(generators.with_inverses)
        lift = monomial_lift(gl_embed(word), d)
        for vec in kernel:
            total = ZERO
            for a, b in zip(vec, lift):
                if a:
                    total += a * b
            if total:
                return False
    return True


def substitute_linear(ideal, a_matrix):
    """Ideal of the image of V(ideal) under x -> A x: each generator f becomes f(A^{-1} x)."""
    inv = a_matrix.inverse()
    m = ideal.arity
    mapping = {}
    for i in range(m):
        terms = {}
        for j in range(m):
            if inv[i, j]:
                mono = [0] * m
                mono[j] = 1
                terms[tuple(mono)] = inv[i, j]
        mapping[i] = Poly(m, terms)
    return Ideal(m, [g.subs(mapping) for g in ideal.generators])


def run_program(program, start, steps, rng):
    """The states of one run of steps random updates from start, start first."""
    state = [rat(x) for x in start]
    trail = [tuple(state)]
    for _ in range(steps):
        a, b = program.updates[rng.randrange(len(program.updates))]
        state = [
            sum((a[i, j] * state[j] for j in range(program.num_vars)), ZERO) + b[i]
            for i in range(program.num_vars)
        ]
        trail.append(tuple(state))
    return trail


def invariant_elimination_generators(program, d):
    """(generators, k): what strongest_invariant(program, d) eliminates the
    first k variables from, written out term by term.

    The variables are the k = (n+1)² + 1 coordinates of the homogenized
    matrix M (row by row, then y), the current state x and the initial
    state x0.  The generators are the degree-d closure ideal's, padded into
    the larger ring, and for each i the action equation
    x_i − M[i][n] − Σ_j M[i][j]·x0_j.
    """
    n = program.num_vars
    k = (n + 1) ** 2 + 1
    total = k + 2 * n
    closure = invariants_up_to_degree(affine_to_generators(program), d)
    gens = [f.map_variables(total, range(k)) for f in closure.ideal.generators]

    def mono(*variables):
        exps = [0] * total
        for v in variables:
            exps[v] = 1
        return tuple(exps)

    for i in range(n):
        terms = {mono(k + i): 1, mono(i * (n + 1) + n): -1}
        terms.update({mono(i * (n + 1) + j, k + n + j): -1 for j in range(n)})
        gens.append(Poly(total, terms))
    return gens, k


def perm_matrix(p):
    """The permutation matrix with a 1 at (p[j], j) for every column j."""
    n = len(p)
    return QMatrix(n, n, [ONE if p[j] == i else ZERO for i in range(n) for j in range(n)])


def enumerate_group(gens, n, cap):
    """Every element of the finite group the n x n gens generate, identity first.

    Breadth-first over products with the generators and their inverses;
    fails once the group has cap elements or more.
    """
    seen = {QMatrix.identity(n).entries: QMatrix.identity(n)}
    frontier = [QMatrix.identity(n)]
    while frontier:
        nxt = []
        for w in frontier:
            for g in list(gens) + [m.inverse() for m in gens]:
                p = w * g
                if p.entries not in seen:
                    assert len(seen) < cap, "group larger than expected"
                    seen[p.entries] = p
                    nxt.append(p)
        frontier = nxt
    return list(seen.values())


def buchberger_moller(points):
    """Reduced grevlex basis and standard monomials of the ideal of a finite point set.

    Dense Buchberger-Möller interpolation (Möller & Buchberger 1982, "The
    construction of multivariate polynomials with preassigned zeros",
    EUROCAM, LNCS 144): monomials are taken in ascending grevlex order,
    skipping multiples of leading monomials found so far.  Each one's value
    vector on the points is reduced against those of the standard monomials
    before it; a zero remainder gives a basis element with that leading
    monomial, a nonzero one a new standard monomial.  Basis elements are
    monic, sorted by ascending leading monomial, as poly.groebner returns
    them.
    """
    m = len(points[0])
    rows = []  # (pivot, value vector with 1 at pivot, polynomial taking those values)
    basis, standard = [], []
    candidates = {(0,) * m}
    while candidates:
        t = min(candidates, key=GREVLEX.key)
        candidates.discard(t)
        if any(all(a <= b for a, b in zip(g.leading(GREVLEX)[0], t)) for g in basis):
            continue
        values = []
        for point in points:
            v = ONE
            for x, e in zip(point, t):
                if e:
                    v *= x**e
            values.append(v)
        poly = {t: ONE}
        for pivot, row, combo in rows:
            c = values[pivot]
            if c:
                values = [a - c * b for a, b in zip(values, row)]
                for mono, b in combo.items():
                    poly[mono] = poly.get(mono, ZERO) - c * b
        if not any(values):
            basis.append(Poly(m, poly))
            continue
        pivot = next(i for i, v in enumerate(values) if v)
        inv = ONE / values[pivot]
        rows.append((pivot, [v * inv for v in values], {k: c * inv for k, c in poly.items()}))
        standard.append(t)
        for i in range(m):
            candidates.add(t[:i] + (t[i] + 1,) + t[i + 1 :])
    return basis, standard


def matrix_height(m: QMatrix) -> int:
    """Max entry height; 1 for an empty matrix."""
    if not m.entries:
        return 1
    return max(height(e) for e in m.entries)


# ---------------------------------------------------------------------------
# Leveled log intervals on Fraction endpoints: a frozen copy of the tower
# comparison layer as it ran before its endpoints became ints, with its own
# log2 bounds.  fraction_lval(t) is (k, lo, hi) with lo <= log2^k(t) <= hi.

_COMPARE_BITS = 128
_GUARD_BITS = 20
_FIT_CAP = Fraction(2) ** 256
_NEG_SENTINEL = -(Fraction(2) ** 300)
_LOG2_INV_LN2 = Fraction(17, 32)


def _round_down(x, bits):
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


def _round_up(x, bits):
    return Fraction(-((-x.numerator << bits) // x.denominator), 1 << bits)


def _atanh_fixed(num, den, p):
    t = (num << p) // den
    num2, den2 = num * num, den * den
    total = k = 0
    while t:
        total += t // (2 * k + 1)
        t = t * num2 // den2
        k += 1
    return total, total + 2 * k + 2


def _ln2_fixed(p):
    lo, hi = _atanh_fixed(1, 3, p)
    return 2 * lo, 2 * hi


def _ln2_bounds(bits):
    lo, hi = _ln2_fixed(bits + _GUARD_BITS)
    return Fraction(lo >> _GUARD_BITS, 1 << bits), Fraction(-(-hi >> _GUARD_BITS), 1 << bits)


def _log2_bounds(q):
    """Fraction bounds of log2(q) at _COMPARE_BITS bits; exact on powers of two."""
    q = Fraction(q)
    a, b = q.numerator, q.denominator
    e = a.bit_length() - b.bit_length()
    a, b = (a, b << e) if e >= 0 else (a << -e, b)
    if a < b:
        e, a = e - 1, a << 1
    if a == b:
        return Fraction(e), Fraction(e)
    p = _COMPARE_BITS + _GUARD_BITS
    m, rest = divmod(a << p, b)
    one = 1 << p
    m_lo, m_hi = _atanh_fixed(m - one, m + one, p)
    m_lo, m_hi = 2 * m_lo, 2 * m_hi + (1 if rest else 0)
    ln2_lo, ln2_hi = _ln2_fixed(p)
    lo = (e << p) + (m_lo << p) // ln2_hi
    hi = (e << p) - (-(m_hi << p) // ln2_lo)
    bits = 1 << _COMPARE_BITS
    return Fraction(lo >> _GUARD_BITS, bits), Fraction(-(-hi >> _GUARD_BITS), bits)


def fraction_lval(t):
    """The leveled interval of a tower node, or None where the comparison
    gives up."""
    try:
        return _lval_inner(t, 0)
    except (OverflowError, ValueError):
        return None


def fraction_cmp_intervals(a, b):
    """-1 or 1 when the leveled intervals of a and b separate, else None."""
    la, lb = fraction_lval(a), fraction_lval(b)
    if la is None or lb is None:
        return None
    la, lb = _common_level(la, lb)
    if la[2] < lb[1]:
        return -1
    if lb[2] < la[1]:
        return 1
    return None


def _lift(lv):
    k, lo, hi = lv
    if lo <= 0:
        return (k + 1, _NEG_SENTINEL, _log2_bounds(hi)[1] if hi > 0 else _NEG_SENTINEL)
    return (k + 1, _log2_bounds(lo)[0], _log2_bounds(hi)[1])


def _normalize(lv):
    k, lo, hi = lv
    while hi > _FIT_CAP:
        k, lo, hi = _lift((k, lo, hi))
    lo = _round_down(lo, _COMPARE_BITS) if lo > _NEG_SENTINEL else lo
    return (k, lo, _round_up(hi, _COMPARE_BITS))


def _lval_inner(t, depth):
    if depth > 12:
        raise ValueError("tower too deep for interval comparison")
    if t.is_exact:
        return _normalize((0, t.value, t.value))
    if t.kind == "pow":
        lb = _lval_inner(t.base, depth + 1)
        le = _lval_inner(t.exp, depth + 1)
        return _shift_up(_lval_mul(le, _log_of_lval(lb)))
    if t.kind == "factorial":
        la = _lval_inner(t.arg, depth + 1)
        log_a = _log_of_lval(la)
        if log_a[0] == 0:
            log2e_hi = 1 / _ln2_bounds(_COMPARE_BITS)[0]
            low_mult = (0, log_a[1] - log2e_hi, log_a[2] - log2e_hi)
            if low_mult[1] <= 0:
                raise ValueError("factorial of a small symbolic argument")
        else:
            low_mult = (log_a[0], log_a[1] - 1, log_a[2])
        low, high = _common_level(_lval_mul(la, low_mult), _lval_mul(la, log_a))
        return _shift_up((low[0], low[1], high[2]))
    if t.kind == "mul":
        parts = [_log_of_lval(_lval_inner(f, depth + 1)) for f in t.factors]
        if t.coeff != 1:
            parts.append((0, *_log2_bounds(t.coeff)))
    else:
        parts = [_lval_inner(x, depth + 1) for x in t.terms]
        if t.const:
            parts.append((0, t.const, t.const))
    total = parts[0]
    for p in parts[1:]:
        total = _lval_add(total, p)
    return _shift_up(total) if t.kind == "mul" else total


def _log_of_lval(lv):
    k, lo, hi = lv
    if k >= 1:
        return (k - 1, lo, hi)
    if lo <= 0:
        raise ValueError("log of a non-positive interval")
    return _normalize((0, _log2_bounds(lo)[0], _log2_bounds(hi)[1]))


def _shift_up(lv):
    k, lo, hi = lv
    return (k + 1, lo, hi)


def _common_level(u, v):
    while u[0] < v[0]:
        u = _lift(u)
    while v[0] < u[0]:
        v = _lift(v)
    return u, v


def _lval_add(u, v):
    u, v = _common_level(u, v)
    k = u[0]
    if k == 0:
        return _normalize((0, u[1] + v[1], u[2] + v[2]))
    big, small = (u, v) if u[1] >= v[1] else (v, u)
    lo = big[1]
    if lo >= 0 and small[2] <= lo - 1:
        return (k, lo, big[2] + _dominated_margin(k, lo, lo - small[2]))
    return (k, lo, max(u[2], v[2]) + 1)


def _dominated_margin(k, lo, gap):
    cap = _COMPARE_BITS + 8
    x, g = min(lo, cap), min(gap, cap)
    log_margin = 0
    for _ in range(k - 1):
        log_margin += _LOG2_INV_LN2 - x
        x = min(Fraction(2) ** math.floor(x), cap)
        g = min(x * (1 - Fraction(1, 1 << math.floor(g))), cap)
    log_margin += min(0, _LOG2_INV_LN2 - g)
    return Fraction(2) ** max(min(math.ceil(log_margin), 0), -_COMPARE_BITS)


def _lval_mul(u, v):
    if u[0] == 0 and v[0] == 0:
        cands = [u[1] * v[1], u[1] * v[2], u[2] * v[1], u[2] * v[2]]
        return _normalize((0, min(cands), max(cands)))
    return _shift_up(_lval_add(_log_of_lval(u), _log_of_lval(v)))


def generators_to_json(gens):
    return {"n": gens.n, "generators": [matrix_to_json(g) for g in gens.gens]}


def poly_from_json(terms, arity: int) -> Poly:
    return Poly(
        arity, {tuple(t["exps"]): rat_from_str(t["coeff"]) for t in terms}
    )


def ideal_from_json(obj) -> Ideal:
    arity = obj["arity"]
    return Ideal(arity, [poly_from_json(t, arity) for t in obj["generators"]])


_TERM_RE = re.compile(r"^(?P<coeff>-?\d+(?:/\d+)?)?(?:\*?(?P<body>[A-Za-z]\w*(?:\^\d+)?(?:\*[A-Za-z]\w*(?:\^\d+)?)*))?$")


def poly_from_text(text: str, names) -> Poly:
    """The polynomial of a jsonio.poly_to_text rendering."""
    index = {name: i for i, name in enumerate(names)}
    arity = len(names)
    text = text.strip()
    if text == "0":
        return Poly.zero(arity)
    # normalize into signed terms
    text = text.replace("- ", "+ -").replace("+ ", "+ ")
    chunks = [c.strip() for c in text.split("+") if c.strip()]
    terms = {}
    for chunk in chunks:
        neg = chunk.startswith("-")
        if neg:
            chunk = chunk[1:].strip()
        m = _TERM_RE.match(chunk.replace(" ", ""))
        if not m or (m.group("coeff") is None and m.group("body") is None):
            raise ValueError(f"cannot parse term {chunk!r}")
        coeff = rat(m.group("coeff")) if m.group("coeff") else rat(1)
        if neg:
            coeff = -coeff
        mono = [0] * arity
        body = m.group("body")
        if body:
            for factor in body.split("*"):
                if "^" in factor:
                    name, exp = factor.split("^")
                    mono[index[name]] += int(exp)
                else:
                    mono[index[factor]] += 1
        key = tuple(mono)
        terms[key] = terms.get(key, rat(0)) + coeff
    return Poly(arity, terms)


def tower_from_json(obj):
    """The tower of a node record, built by the tower constructors: the
    result is canonical, and exact parts collapse."""
    kind = obj["kind"]
    if kind == "exact":
        return tower_exact(Fraction(obj["value"]))
    if kind == "pow":
        return tower_pow(tower_from_json(obj["base"]), tower_from_json(obj["exp"]))
    if kind == "factorial":
        return tower_fact(tower_from_json(obj["arg"]))
    if kind == "mul":
        return tower_mul(Fraction(obj["coeff"]), *map(tower_from_json, obj["factors"]))
    if kind == "add":
        return tower_add(Fraction(obj["const"]), *map(tower_from_json, obj["terms"]))
    raise ValueError(f"unknown tower node kind {kind!r}")


def bound_report_from_json(obj) -> BoundReport:
    bounds = {}
    for name, rec in obj["bounds"].items():
        if rec["form"] == "exact":
            bounds[name] = tower_exact(Fraction(rec["value"]))
        else:
            bounds[name] = tower_from_json(rec["expr"])
    return BoundReport(obj["params"], bounds)


def affine_program_to_json(program):
    return {
        "num_vars": program.num_vars,
        "updates": [
            {"A": matrix_to_json(a), "b": [rat_to_str(x) for x in b]}
            for a, b in program.updates
        ],
    }
