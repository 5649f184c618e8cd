"""Multivariate polynomials over the rationals.

Monomials are exponent tuples, polynomials are dicts mapping monomials to
nonzero coefficients.  Gröbner bases use Buchberger's algorithm with the
normal selection strategy and both classical pair-pruning criteria, then
reduce in one pass by ascending leading monomial; MAX_S_PAIRS caps the
number of treated S-pairs and MAX_GB_DEGREE the total degree of S-pairs
and of intermediate polynomials in division.

Division keeps its pending terms in a heap, largest first (Monagan & Pearce,
CASC 2007), and skips the entries of terms that cancelled.  Each divisor's
leading monomial carries a short divisibility mask, one bit per variable
that occurs in it (Singular's short exponent vectors): lm can divide m only
when mask(lm) & ~mask(m) == 0, and two leading monomials are coprime exactly
when their masks share no bit.
"""

import heapq
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
    "uni_divmod",
    "uni_gcd",
    "derivative",
]


def _grevlex_key(mono):
    return (sum(mono), tuple(map(neg, reversed(mono))))


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
            def key(mono):
                return (_grevlex_key(mono[:block]), _grevlex_key(mono[block:]))

            def reverse_key(mono):
                # the head's keys all have length block + 1, so the flat
                # tuple compares the head first, as key does
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
    return _divide(f, [_head(*g.leading(order), g) for g in basis if g], order)


def _head(lm, lc, g):
    """g as a divisor: (lm, mask of lm, total degree of g, the other terms
    of g over the leading coefficient lc, g)."""
    tail = tuple((m, c / lc) for m, c in g.terms.items() if m != lm)
    return lm, _mask(lm), g.total_degree(), tail, g


def _divide(f, heads, order):
    """normal_form against heads built by _head.

    The pending terms are keys of p; the heap holds (reverse key, monomial)
    for each, so it pops the largest first.  A term that cancels leaves its
    entry behind, and a term created again is pushed again; an entry whose
    term is not in p is stale and is skipped.
    """
    reverse_key = order.reverse_key
    p = dict(f.terms)
    heap = [(reverse_key(m), m) for m in p]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = p.pop(m, None)
        if c is None:
            continue
        mask = _mask(m)
        for lm, lmask, degree, tail, _ in heads:
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
    out = Poly.__new__(Poly)
    out.arity = f.arity
    out.terms = remainder
    return out


def _s_poly(head_f, head_g, lcm):
    """lcm/lm(f)·f/lc(f) − lcm/lm(g)·g/lc(g) from the tails of two heads."""
    (fm, _, _, f_tail, _), (gm, _, _, g_tail, _) = head_f, head_g
    q = tuple(map(sub, lcm, fm))
    out = {tuple(map(add, q, m)): c for m, c in f_tail}
    q = tuple(map(sub, lcm, gm))
    for m, c in g_tail:
        t = tuple(map(add, q, m))
        s = out.get(t, ZERO) - c
        if s:
            out[t] = s
        else:
            out.pop(t, None)
    f = Poly.__new__(Poly)
    f.arity = len(lcm)
    f.terms = out
    return f


def groebner(generators, order=GREVLEX):
    """Reduced Gröbner basis of the given generators under order.

    Deterministic: normal selection strategy (S-pairs by ascending lcm, ties
    by index), coprime and chain pair pruning, then one reducing, monic pass
    in (and output sorted by) ascending leading monomial.  Raises
    ResourceLimit past MAX_S_PAIRS pairs or an S-pair above MAX_GB_DEGREE.
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
    heads = [_head(*g.leading(order), g) for g in basis]
    heap = []  # (key of the lcm, i, j, lcm) per pair, i > j
    done = set()
    treated = 0

    def push(i, j):
        lcm = tuple(map(max, heads[i][0], heads[j][0]))
        heapq.heappush(heap, (key(lcm), i, j, lcm))

    for i in range(len(heads)):
        for j in range(i):
            push(i, j)

    def chain_skip(i, j, lcm, mask):
        for k, (lm, lmask, _, _, _) in enumerate(heads):
            if lmask & ~mask or k == i or k == j:
                continue
            if all(map(le, lm, lcm)):
                a = (max(i, k), min(i, k))
                b = (max(j, k), min(j, k))
                if a in done and b in done:
                    return True
        return False

    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        done.add((i, j))  # each pair is pushed once; done serves chain_skip
        mask_i, mask_j = heads[i][1], heads[j][1]
        if not mask_i & mask_j:
            continue  # coprime leading monomials reduce to zero
        if chain_skip(i, j, lcm, mask_i | mask_j):
            continue
        treated += 1
        if treated > MAX_S_PAIRS:
            raise ResourceLimit(f"S-pair budget {MAX_S_PAIRS} exceeded")
        if sum(lcm) > MAX_GB_DEGREE:
            raise ResourceLimit(
                f"S-pair degree {sum(lcm)} exceeds budget {MAX_GB_DEGREE}"
            )
        r = _divide(_s_poly(heads[i], heads[j], lcm), heads, order)
        if r:
            heads.append(_head(*r.leading(order), r))
            new = len(heads) - 1
            for k in range(new):
                push(new, k)

    # the reduced basis in one pass by ascending leading monomial: a head
    # that a kept leading monomial divides is redundant (of equal ones the
    # stable sort keeps the first), and a divisor of a monomial is never
    # larger than it, so only the kept heads can act on the others' terms
    reduced = []
    for lm, mask, _, _, g in sorted(heads, key=lambda h: key(h[0])):
        if not any(
            not kmask & ~mask and all(map(le, km, lm)) for km, kmask, _, _, _ in reduced
        ):
            reduced.append(_head(lm, ONE, _divide(g, reduced, order).monic(order)))
    return [g for _, _, _, _, g in reduced]


class Ideal:
    """Ideal given by generators, with cached reduced Gröbner bases per order."""

    __slots__ = ("arity", "generators", "_gb")

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
    return not normal_form(f, ideal.groebner(GREVLEX), GREVLEX)


def ideal_equal(a, b):
    if a.arity != b.arity:
        raise ValueError("arity mismatch")
    if a.generators == b.generators:
        return True
    return a.groebner(GREVLEX) == b.groebner(GREVLEX)


# ---------------------------------------------------------------------------
# univariate helpers (arity-1 Poly)


def _uni_coeffs(p):
    d = p.total_degree()
    out = [ZERO] * (d + 1)
    for (e,), c in p.terms.items():
        out[e] = c
    return out


def uni_from_coeffs(coeffs):
    return Poly(1, {(i,): c for i, c in enumerate(coeffs) if c})


def uni_divmod(f, g):
    """Quotient and remainder for univariate f, g with g != 0."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    fc, gc = _uni_coeffs(f), _uni_coeffs(g)
    dg = len(gc) - 1
    lead = gc[-1]
    q = [ZERO] * max(0, len(fc) - dg)
    r = list(fc)
    while len(r) - 1 >= dg and any(r):
        while r and not r[-1]:
            r.pop()
        if len(r) - 1 < dg:
            break
        k = len(r) - 1 - dg
        factor = r[-1] / lead
        q[k] = factor
        for i, c in enumerate(gc):
            r[k + i] -= factor * c
    return uni_from_coeffs(q), uni_from_coeffs(r)


def uni_gcd(f, g):
    """Monic gcd of univariate polynomials."""
    a, b = f, g
    while b:
        a, b = b, uni_divmod(a, b)[1]
    if not a:
        return a
    lead = a.terms[max(a.terms)]
    return a * (ONE / lead)


def derivative(f, var=0):
    out = {}
    for m, c in f.terms.items():
        e = m[var]
        if e:
            m2 = list(m)
            m2[var] = e - 1
            out[tuple(m2)] = c * e
    return Poly(f.arity, out)
