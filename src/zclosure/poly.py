"""Multivariate polynomials over the rationals.

Monomials are exponent tuples, polynomials are dicts mapping monomials to
nonzero coefficients; the univariate polynomials of the structure theory are
coefficient lists in structure.py instead.  Gröbner bases use Buchberger's
algorithm with the sugar selection strategy (Giovini, Mora, Niesi, Robbiano
& Traverso, "One sugar cube, please", ISSAC 1991: the pair of least sugar
first, ties by lcm in the monomial order, then by index) and both classical
pair-pruning criteria, then reduce in one pass by ascending leading
monomial; MAX_S_PAIRS caps the number of treated S-pairs and MAX_GB_DEGREE
the total degree of S-pairs and of intermediate polynomials in division.

Division keeps its pending terms in a heap, largest first (Monagan & Pearce,
CASC 2007), and skips the entries of terms that cancelled.  Each divisor's
leading monomial carries a short divisibility mask, one bit per variable
that occurs in it (Singular's short exponent vectors): lm can divide m only
when mask(lm) & ~mask(m) == 0, and two leading monomials are coprime exactly
when their masks share no bit.

Division and Buchberger run fraction-free on Python ints (as Bareiss
elimination does, Math. Comp. 22, 1968): each divisor is the primitive
integer multiple of its polynomial, a dividend's denominators are cleared
once, and a step scales the dividend instead of dividing by the leading
coefficient.  Rationals come back only at the end: normal_form returns the
remainder over the multiplier it tracked, and groebner makes its reduced
basis monic.  Only scalar multiples change, so every step takes the same
term, divisor and S-pair as division over the rationals.
"""

import heapq
from math import gcd, lcm as _lcm
from operator import add, le, neg, sub

from .errors import ResourceLimit
from ._rat import ZERO, ONE, rat

__all__ = [
    "MonomialOrder",
    "GREVLEX",
    "LEX",
    "elimination_order",
    "Poly",
    "Ideal",
    "normal_form",
    "groebner",
    "eliminate",
    "ideal_member",
    "ideal_equal",
]


def _grevlex_key(mono):
    return (sum(mono), *map(neg, reversed(mono)))


def _grevlex_reverse_key(mono):
    return (-sum(mono),) + mono[::-1]


class MonomialOrder:
    """Total, multiplicative, well-founded order on exponent tuples.

    kind is "grevlex", "lex", or "elim"; an elimination order compares the
    first ``block`` exponents (grevlex) before the rest, so eliminating the
    first k variables means keeping basis elements with zero key head.
    """

    __slots__ = ("kind", "block", "key", "reverse_key")

    def __init__(self, kind, block=0):
        if kind == "grevlex":
            key = _grevlex_key
            reverse_key = _grevlex_reverse_key
        elif kind == "lex":
            key = tuple

            def reverse_key(mono):
                return tuple(map(neg, mono))
        elif kind == "elim":
            # the head's keys all have length block + 1, so the flat tuples
            # compare the first block before the rest
            def key(mono):
                return _grevlex_key(mono[:block]) + _grevlex_key(mono[block:])

            def reverse_key(mono):
                return _grevlex_reverse_key(mono[:block]) + _grevlex_reverse_key(mono[block:])
        else:
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.block = block
        self.key = key  # sort key of a monomial, bound once per order
        # sorts in the reverse order of key: a heap on it pops the largest first
        self.reverse_key = reverse_key

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.block == other.block
        )

    def __hash__(self):
        return hash((self.kind, self.block))

    def __repr__(self):
        if self.kind == "elim":
            return f"MonomialOrder('elim', {self.block})"
        return f"MonomialOrder({self.kind!r})"


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def elimination_order(k):
    return MonomialOrder("elim", k)


def _mono_mul(a, b):
    return tuple(map(add, a, b))


def _mask(mono):
    """Divisibility mask of a monomial: bit i is set when variable i occurs."""
    mask = 0
    for i, e in enumerate(mono):
        if e:
            mask |= 1 << i
    return mask


class Poly:
    """Polynomial in a fixed number of variables; zero coefficients never stored."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        self.arity = arity
        clean = {}
        if terms:
            for mono, c in terms.items():
                c = rat(c)
                if c:
                    if len(mono) != arity:
                        raise ValueError("monomial arity mismatch")
                    clean[tuple(mono)] = c
        self.terms = clean

    @classmethod
    def zero(cls, arity):
        return cls(arity)

    @classmethod
    def const(cls, arity, c):
        return cls(arity, {(0,) * arity: rat(c)})

    @classmethod
    def variable(cls, i, arity):
        mono = [0] * arity
        mono[i] = 1
        return cls(arity, {tuple(mono): ONE})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def total_degree(self):
        return max((sum(m) for m in self.terms), default=0)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return self._wrap(out)

    def __sub__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, ZERO) - c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return self._wrap(out)

    def __radd__(self, other):
        return self.__add__(other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return self._wrap({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = rat(other)
            if not c:
                return Poly(self.arity)
            return self._wrap({m: c * v for m, v in self.terms.items()})
        if other.arity != self.arity:
            raise ValueError("arity mismatch")
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, ZERO) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return self._wrap(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(self.arity, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.arity != self.arity:
                raise ValueError("arity mismatch")
            return other
        return Poly.const(self.arity, other)

    def _wrap(self, terms):
        p = Poly.__new__(Poly)
        p.arity = self.arity
        p.terms = terms
        return p

    def leading(self, order):
        """(monomial, coefficient) of the leading term; None for zero."""
        if not self.terms:
            return None
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def monic(self, order):
        lead = self.leading(order)
        if lead is None:
            return self
        _, c = lead
        if c == 1:
            return self
        inv = ONE / c
        return self._wrap({m: v * inv for m, v in self.terms.items()})

    def evaluate(self, point):
        """Exact value at a rational point (sequence of length arity)."""
        point = [rat(x) for x in point]
        total = ZERO
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v *= x**e
            total += v
        return total

    def map_variables(self, arity, var_map):
        """The same polynomial in arity variables, old variable i renamed
        var_map[i]; var_map (a sequence or a dict) must be injective."""
        out = {}
        for mono, c in self.terms.items():
            new = [0] * arity
            for i, e in enumerate(mono):
                if e:
                    new[var_map[i]] = e
            out[tuple(new)] = c
        return Poly(arity, out)

    def subs(self, mapping):
        """Substitute polynomials for variables; unmapped variables persist.

        mapping: dict var index -> Poly (all of the same target arity).
        """
        target = None
        for p in mapping.values():
            target = p.arity
            break
        if target is None:
            return self
        if not self.terms:
            return Poly(target)
        cache = {}

        def var_power(i, e):
            if (i, e) not in cache:
                cache[(i, e)] = (mapping[i] if i in mapping else Poly.variable(i, target)) ** e
            return cache[(i, e)]

        total = Poly(target)
        for m, c in self.terms.items():
            prod = Poly.const(target, c)
            for i, e in enumerate(m):
                if e:
                    prod = prod * var_power(i, e)
            total = total + prod
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: GREVLEX.key(mc[0]), reverse=True)

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                f"v{i}^{e}" if e > 1 else f"v{i}" for i, e in enumerate(m) if e
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"


# Buchberger and division raise ResourceLimit past these
MAX_S_PAIRS = 50_000
MAX_GB_DEGREE = 60


def normal_form(f, basis, order=GREVLEX):
    """Remainder of f under multivariate division by basis (full tail reduction);
    ResourceLimit when a reduction step passes degree MAX_GB_DEGREE."""
    p, s = _clear(f.terms)
    remainder, mu = _reduce(p, _heads(basis, order), order)
    s *= mu
    return f._wrap({m: rat(c, s) for m, c in remainder.items()})


def _heads(polys, order):
    """The nonzero polys as divisors, by _head of their primitive integer multiples."""
    key = order.key
    heads = []
    for g in polys:
        if g:
            terms = _primitive(_clear(g.terms)[0])
            heads.append(_head(max(terms, key=key), terms))
    return heads


def _clear(terms):
    """(integer terms, s): s > 0 is the lcm of the denominators, the integer
    terms are s times the rational ones."""
    s = _lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (s // c.denominator) for m, c in terms.items()}, s


def _primitive(terms):
    """The integer terms over their content."""
    g = gcd(*terms.values())
    if g == 1:
        return terms
    return {m: c // g for m, c in terms.items()}


def _head(lm, terms):
    """The integer polynomial terms, leading monomial lm, as a divisor:
    (lm, mask of lm, total degree, leading coefficient, the other terms)."""
    tail = tuple((m, c) for m, c in terms.items() if m != lm)
    return lm, _mask(lm), max(map(sum, terms)), terms[lm], tail


def _reduce(p, heads, order):
    """Fraction-free division of the integer terms p (consumed) by heads.

    Returns (remainder, mu): the remainder's terms in descending order, so its
    first key is its leading monomial, and mu ≠ 0 with mu·p ≡ remainder modulo
    the heads.  A step on the term c·x^m by the head L·x^lm + tail sets
    p ← (L/g)·p − (c/g)·x^(m−lm)·tail with g = gcd(L, c), scaling the
    remainder too; it picks the same term and divisor as division over the
    rationals would, and the remainder over mu is the rational remainder.

    The pending terms are keys of p; the heap holds (reverse key, monomial)
    for each, so it pops the largest first.  A term that cancels leaves its
    entry behind, and a term created again is pushed again; an entry whose
    term is not in p is stale and is skipped.
    """
    reverse_key = order.reverse_key
    heap = [(reverse_key(m), m) for m in p]
    heapq.heapify(heap)
    remainder = {}
    mu = 1
    while heap:
        m = heapq.heappop(heap)[1]
        c = p.pop(m, None)
        if c is None:
            continue
        mask = _mask(m)
        for lm, lmask, degree, lc, tail in heads:
            if not lmask & ~mask and all(map(le, lm, m)):
                break
        else:
            remainder[m] = c
            continue
        q = tuple(map(sub, m, lm))
        if sum(q) + degree > MAX_GB_DEGREE:
            raise ResourceLimit(
                f"intermediate degree exceeded {MAX_GB_DEGREE} during division"
            )
        if lc != 1:
            g = gcd(lc, c)
            a = lc // g
            c //= g
            if a != 1:
                mu *= a
                for t in p:
                    p[t] *= a
                for t in remainder:
                    remainder[t] *= a
        for gm, gc in tail:
            t = tuple(map(add, q, gm))
            old = p.get(t)
            if old is None:
                p[t] = -c * gc
                heapq.heappush(heap, (reverse_key(t), t))
            else:
                s = old - c * gc
                if s:
                    p[t] = s
                else:
                    del p[t]
    return remainder, mu


def _s_poly(head_f, head_g, lcm):
    """The integer S-polynomial of two heads: (L_g/g)·lcm/lm(f)·f − (L_f/g)·lcm/lm(g)·g
    with g = gcd(L_f, L_g); the leading terms cancel, so only the tails enter."""
    (fm, _, _, f_lc, f_tail), (gm, _, _, g_lc, g_tail) = head_f, head_g
    g = gcd(f_lc, g_lc)
    a, b = g_lc // g, f_lc // g
    q = tuple(map(sub, lcm, fm))
    out = {tuple(map(add, q, m)): a * c for m, c in f_tail}
    q = tuple(map(sub, lcm, gm))
    for m, c in g_tail:
        t = tuple(map(add, q, m))
        s = out.get(t, 0) - b * c
        if s:
            out[t] = s
        else:
            out.pop(t, None)
    return out


def groebner(generators, order=GREVLEX):
    """Reduced Gröbner basis of the given generators under order.

    Deterministic: sugar selection strategy (S-pairs by ascending sugar,
    ties by lcm in the order, then by index), coprime and chain pair
    pruning, then one reducing, monic pass in (and output sorted by)
    ascending leading monomial.  Raises ResourceLimit past MAX_S_PAIRS pairs
    or an S-pair above MAX_GB_DEGREE.

    The sugar of an input is its total degree, of an S-pair the degree of
    its lcm plus the larger excess of its two elements (sugar less the
    degree of the leading monomial), and a remainder keeps its pair's.  It
    stands in for the degree the computation would have if the input were
    homogenized, so under an elimination order the pairs still come
    roughly by degree; for homogeneous input under grevlex it is the lcm's
    degree and the schedule is the normal strategy's.

    Every basis element is kept as a primitive integer polynomial, a rational
    multiple of the one division over the rationals would give, so each step
    takes the same pair, term and divisor; only the final pass makes the
    elements monic over the rationals.
    """
    basis = [g for g in generators if g]
    if not basis:
        return []
    arity = basis[0].arity
    if any(g.arity != arity for g in basis):
        raise ValueError("generators must share arity")
    if any(g.total_degree() == 0 for g in basis):
        return [Poly.const(arity, 1)]

    key = order.key
    heads = _heads(basis, order)
    partners = [set() for _ in heads]  # partners[i]: k with the pair {i, k} popped
    # excess[i]: sugar of element i minus the degree of its leading monomial;
    # an input's sugar is its total degree
    excess = [degree - sum(lm) for lm, _, degree, _, _ in heads]
    heap = []  # (sugar, key of the lcm, i, j, lcm) per pair, i > j
    treated = 0

    def push(i, j):
        lcm = tuple(map(max, heads[i][0], heads[j][0]))
        heapq.heappush(heap, (sum(lcm) + max(excess[i], excess[j]), key(lcm), i, j, lcm))

    for i in range(len(heads)):
        for j in range(i):
            push(i, j)

    while heap:
        sugar, _, i, j, lcm = heapq.heappop(heap)
        partners[i].add(j)  # each pair is pushed once
        partners[j].add(i)
        mask_i, mask_j = heads[i][1], heads[j][1]
        if not mask_i & mask_j:
            continue  # coprime leading monomials reduce to zero
        # chain criterion: some k, its pairs with i and with j both popped,
        # whose leading monomial divides the lcm
        mask = mask_i | mask_j
        if any(
            not heads[k][1] & ~mask and all(map(le, heads[k][0], lcm))
            for k in partners[i] & partners[j]
        ):
            continue
        treated += 1
        if treated > MAX_S_PAIRS:
            raise ResourceLimit(f"S-pair budget {MAX_S_PAIRS} exceeded")
        if sum(lcm) > MAX_GB_DEGREE:
            raise ResourceLimit(
                f"S-pair degree {sum(lcm)} exceeds budget {MAX_GB_DEGREE}"
            )
        r = _reduce(_s_poly(heads[i], heads[j], lcm), heads, order)[0]
        if r:
            lm = next(iter(r))
            heads.append(_head(lm, _primitive(r)))
            partners.append(set())
            excess.append(sugar - sum(lm))  # the remainder keeps its pair's sugar
            new = len(heads) - 1
            for k in range(new):
                push(new, k)

    # the reduced basis in one pass by ascending leading monomial: a head
    # that a kept leading monomial divides is redundant (of equal ones the
    # stable sort keeps the first), and a divisor of a monomial is never
    # larger than it, so only the kept heads can act on the others' terms
    reduced = []
    out = []
    for lm, mask, _, lc, tail in sorted(heads, key=lambda h: key(h[0])):
        if not any(
            not kmask & ~mask and all(map(le, km, lm)) for km, kmask, _, _, _ in reduced
        ):
            r = _reduce({lm: lc, **dict(tail)}, reduced, order)[0]
            reduced.append(_head(lm, _primitive(r)))
            lc = r[lm]
            g = Poly.__new__(Poly)
            g.arity = arity
            g.terms = {m: rat(c, lc) for m, c in r.items()}
            out.append(g)
    return out


class Ideal:
    """Ideal given by generators, with cached reduced Gröbner bases per order."""

    __slots__ = ("arity", "generators", "_gb", "_heads")

    def __init__(self, arity, generators=()):
        self.arity = arity
        gens = []
        for g in generators:
            if not isinstance(g, Poly):
                raise TypeError("generators must be Poly")
            if g.arity != arity:
                raise ValueError("generator arity mismatch")
            if g:
                gens.append(g)
        self.generators = tuple(gens)
        self._gb = {}
        self._heads = {}  # order -> the divisor heads of _gb[order]

    @classmethod
    def with_grevlex_basis(cls, arity, basis):
        """The ideal of basis, which the caller knows is its reduced grevlex
        basis, given in ascending leading-monomial order as groebner returns it.

        The basis seeds the GREVLEX cache as given, so groebner(GREVLEX) runs
        no Buchberger.
        """
        ideal = cls(arity, basis)
        ideal._gb[GREVLEX] = ideal.generators
        return ideal

    def groebner(self, order=GREVLEX):
        if order not in self._gb:
            self._gb[order] = tuple(groebner(self.generators, order))
        return list(self._gb[order])

    def _divisors(self, order):
        """The reduced basis under order as divisors, built once."""
        if order not in self._heads:
            self._heads[order] = _heads(self.groebner(order), order)
        return self._heads[order]

    def is_zero(self):
        return not self.generators

    def __repr__(self):
        return f"Ideal(arity={self.arity}, {len(self.generators)} generators)"


def eliminate(ideal, drop_first_k):
    """Generators of ideal ∩ K[x_{k+1}, ..] as an Ideal in arity - k variables.

    The kept elements of the reduced elimination-order basis are the reduced
    grevlex basis of the result (the order restricts to grevlex on the kept
    variables, with the same monic scaling and sort order), so they seed the
    result's GREVLEX cache.
    """
    k = drop_first_k
    if not 0 <= k < ideal.arity:
        raise ValueError("must keep at least one variable")
    if k == 0:
        return Ideal(ideal.arity, ideal.generators)
    gb = ideal.groebner(elimination_order(k))
    kept = []
    for g in gb:
        if all(not any(m[:k]) for m in g.terms):
            kept.append(Poly(ideal.arity - k, {m[k:]: c for m, c in g.terms.items()}))
    return Ideal.with_grevlex_basis(ideal.arity - k, kept)


def ideal_member(f, ideal):
    if f.arity != ideal.arity:
        raise ValueError("arity mismatch")
    if not f:
        return True
    p = _clear(f.terms)[0]
    return not _reduce(p, ideal._divisors(GREVLEX), GREVLEX)[0]


def ideal_equal(a, b):
    if a.arity != b.arity:
        raise ValueError("arity mismatch")
    if a.generators == b.generators:
        return True
    return a.groebner(GREVLEX) == b.groebner(GREVLEX)
