"""The span saturation against a frozen copy of the former one: a BFS that
lifts and inserts every product it meets, repeats included, into an echelon
that clears the denominators of every vector.  Words, pivots, row tails and
denominators and the Hilbert function must all be equal."""

import random
from collections import deque
from math import comb, gcd, lcm

import pytest

from zclosure import linalg
from zclosure.errors import ResourceLimit
from zclosure.closure import (
    GeneratorSet,
    LiftedBasis,
    _int_element,
    _scaled_lift,
    lifted_span,
)
from zclosure.linalg import EchelonBasis, QMatrix
from zclosure._rat import ONE, rat


# --- frozen reference: the span before the set of tried records and the
# all-integer path of the echelon


class ReferenceEchelon:
    """The former EchelonBasis insertion, rows as (pivot, tail, den)."""

    def __init__(self, length):
        self.length = length
        self.pivots = []
        self._tails = []
        self._dens = []

    def _remainder(self, vector):
        s = lcm(*[x.denominator for x in vector])
        if s == 1:
            v = list(map(int, vector))
        else:
            v = [int(x.numerator) * (s // int(x.denominator)) for x in vector]
        hits = [
            (p, tail, den, v[p])
            for p, tail, den in zip(self.pivots, self._tails, self._dens)
            if v[p]
        ]
        scale = lcm(*[den // gcd(den, f) for _, _, den, f in hits])
        if scale != 1:
            v = [x * scale for x in v]
        for p, tail, den, f in hits:
            c = f * scale // den
            v[p] = 0
            for j, b in tail.items():
                v[j] -= c * b
        return v, s * scale

    def insert(self, vector):
        v, s = self._remainder(vector)
        if not any(v):
            return False
        new = {j: x for j, x in enumerate(v) if x}
        pivot, lead = next(iter(new.items()))
        content = gcd(*new.values())
        if lead < 0:
            content = -content
        den = lead // content
        del new[pivot]
        if content != 1:
            new = {j: x // content for j, x in new.items()}
        for k, tail in enumerate(self._tails):
            a = tail.pop(pivot, None)
            if a is None:
                continue
            if den != 1:
                for j in tail:
                    tail[j] *= den
            for j, b in new.items():
                x = tail.get(j, 0) - a * b
                if x:
                    tail[j] = x
                else:
                    tail.pop(j, None)
            dk = self._dens[k] * den
            if dk != 1:
                g = gcd(dk, *tail.values())
                if g != 1:
                    dk //= g
                    for j in tail:
                        tail[j] //= g
            self._dens[k] = dk
        self.pivots.append(pivot)
        self._tails.append(new)
        self._dens.append(den)
        return rat(lead, s)


def reference_int_product(g, w, n):
    gh, gd, ga, gb = g
    wh, wd, wa, wb = w
    h = [sum(gh[i * n + k] * wh[k * n + j] for k in range(n)) for i in range(n) for j in range(n)]
    den = gd * wd
    c = gcd(den, *h)
    a, b = ga * wa, gb * wb
    e = gcd(a, b)
    return tuple([x // c for x in h]), den // c, a // e, b // e


def reference_lifted_span(generators, d):
    """(words, echelon, number of insertions) of the former BFS."""
    n = generators.n
    m = n * n + 1
    gens = [_int_element(g, ONE / g.det()) for g in generators.with_inverses]
    echelon = ReferenceEchelon(comb(m + d, d))
    identity = _int_element(QMatrix.identity(n), ONE)
    echelon.insert(_scaled_lift(identity, d))
    inserts = 1
    elements = [identity]
    words = [()]
    queue = deque((0, gi) for gi in range(len(gens)))
    while queue:
        vi, gi = queue.popleft()
        h = reference_int_product(gens[gi], elements[vi], n)
        inserts += 1
        if echelon.insert(_scaled_lift(h, d)):
            elements.append(h)
            words.append(words[vi] + (gi,))
            queue.extend((len(elements) - 1, gj) for gj in range(len(gens)))
    return words, echelon, inserts


# --- inputs: the benchmark's generator families, each conjugated by a seeded
# matrix of three kinds


FAMILIES = {
    "SL2": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]],
    "TORUS": [[[2, 0], [0, rat(1, 2)]]],
    "ROT4": [[[0, -1], [1, 0]]],
    "ROT6": [[[1, -1], [1, 0]]],
    "SL3": [
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [1, 0, 1]],
    ],
    "HEIS": [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]],
    "S3": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]]],
    "SS3": [[[0, -1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]]],
}

ORDERS = {"S3": 6, "SS3": 48, "ROT4": 4}


def qm(rows):
    return QMatrix.from_rows([[rat(e) for e in r] for r in rows])


def conjugator(kind, n, rng):
    """A seeded sign diagonal times a fixed base of the kind."""
    if kind == "unimodular":
        base = qm([[int(j in (i, i + 1)) for j in range(n)] for i in range(n)])
        base = base * qm([[int(i == j or (i, j) == (1, 0)) for j in range(n)] for i in range(n)])
    elif kind == "rational":
        base = qm([[rat(1, 2) if (i, j) == (0, n - 1) else int(i == j) for j in range(n)] for i in range(n)])
    else:
        base = qm([[int(j == (i + 1) % n) for j in range(n)] for i in range(n)])
    return QMatrix.diagonal([rat(rng.choice((-1, 1))) for _ in range(n)]) * base


def conjugated(family, kind, seed):
    gens = [qm(g) for g in FAMILIES[family]]
    p = conjugator(kind, gens[0].rows, random.Random(seed))
    p_inv = p.inverse()
    return GeneratorSet([p * g * p_inv for g in gens])


def degrees(family):
    return (1, 2, 3, 4) if len(FAMILIES[family][0]) == 2 or family in ("HEIS", "S3") else (1, 2, 3)


CASES = [
    (family, kind, d, seed)
    for seed, kind in enumerate(("unimodular", "rational", "signed-perm"))
    for family in FAMILIES
    for d in degrees(family)
]


@pytest.mark.parametrize(
    "family,kind,d,seed", CASES, ids=[f"{f}-{k}-{d}" for f, k, d, _ in CASES]
)
def test_span_equals_frozen_reference(family, kind, d, seed):
    generators = conjugated(family, kind, seed)
    span = lifted_span(generators, d)
    words, echelon, _ = reference_lifted_span(generators, d)
    assert span.words == words
    assert span.echelon.pivots == echelon.pivots
    assert span.echelon._tails == echelon._tails
    assert span.echelon._dens == echelon._dens
    reference = LiftedBasis(d, span.m, words, echelon)
    assert span.hilbert_function == reference.hilbert_function


@pytest.mark.parametrize("family,d", [("S3", 3), ("SS3", 4), ("ROT4", 4)])
@pytest.mark.parametrize("kind", ["unimodular", "rational", "signed-perm"])
def test_finite_group_costs_at_most_its_order_in_insertions(family, d, kind, monkeypatch):
    # each distinct element is tried once; the former BFS tried every
    # element once per generator and inverse
    generators = conjugated(family, kind, 0)
    calls = []
    real = EchelonBasis.insert

    def counting(self, vector):
        calls.append(1)
        return real(self, vector)

    monkeypatch.setattr(EchelonBasis, "insert", counting)
    span = lifted_span(generators, d)
    assert span.dimension == ORDERS[family]
    assert len(calls) <= ORDERS[family]
    assert reference_lifted_span(generators, d)[2] > ORDERS[family]


def test_all_integer_vectors_reduce_like_rational_ones():
    # the all-int path gives the remainder, pivot entry and rows of the
    # same vectors handed in as rationals
    rng = random.Random(3)
    ints, rats = EchelonBasis(6), EchelonBasis(6)
    for _ in range(12):
        v = [rng.choice((0, 0, 1, -2, 7, 10**20)) for _ in range(6)]
        assert ints.reduce(v) == rats.reduce([rat(x) for x in v])
        assert ints.insert(v) == rats.insert([rat(x) for x in v])
        assert ints.insert(list(v)) is False
    assert ints.pivots == rats.pivots and ints.rows == rats.rows


def test_insert_leaves_the_vector_unchanged():
    echelon = EchelonBasis(3)
    echelon.insert([1, 2, 3])
    v = [2, 5, 7]
    assert echelon.insert(v)
    assert v == [2, 5, 7]


def test_work_budget_message(monkeypatch):
    # e_0 and e_1 + 2 e_2 are charged the rows stored before them, 0 bits;
    # then the rows store a one-entry tail over den 1, so e_2 is charged
    # 1 bit for its reduction and 1 for its back-substitution, which stops
    # before any row changes
    monkeypatch.setattr(linalg, "ECHELON_WORK_BITS", 1)
    echelon = EchelonBasis(3)
    echelon.insert([1, 0, 0])
    echelon.insert([0, 1, 2])
    rows = echelon.rows
    with pytest.raises(ResourceLimit) as err:
        echelon.insert([0, 0, 1])
    assert str(err.value) == "echelon form exceeded its work budget of 1 bits"
    assert echelon.rows == rows and echelon.pivots == [0, 1]


@pytest.mark.parametrize("family,kind,d", [("SL2", "rational", 4), ("SS3", "unimodular", 3)])
def test_charged_size_is_the_stored_rows_size(family, kind, d):
    # the O(1) charge reads a running total that back-substitution keeps
    echelon = lifted_span(conjugated(family, kind, 0), d).echelon
    assert echelon._size == sum(
        len(tail) * den.bit_length() for tail, den in zip(echelon._tails, echelon._dens)
    )
