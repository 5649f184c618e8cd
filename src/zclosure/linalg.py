"""Exact linear algebra over the rationals and integer lattice kernels.

Matrices are immutable and dense, entries are reduced fractions, and every
operation is exact.  One incremental echelon form, EchelonBasis, whose rows
are stored sparsely as integer numerators over one denominator each, serves
the span fixed point, rref, rank, kernels, inverses and determinants; its
arithmetic is on Python ints only, under the work budget ECHELON_WORK_BITS,
and it hands out RAT values.  row_hnf serves integer kernels, under the work
budget HNF_WORK_BITS.
"""

from math import gcd, lcm

from .errors import ResourceLimit, SingularMatrix
from ._rat import ZERO, ONE, rat, height

__all__ = [
    "QMatrix",
    "EchelonBasis",
    "height",
    "row_hnf",
    "integer_kernel",
    "HNF_WORK_BITS",
    "ECHELON_WORK_BITS",
]

# row_hnf charges each row update the row width times the bit lengths of its
# quotient and of the pivot row's largest entry, and stops past this total.
# The relation lattice of 100 rationals over six primes charges 4.6·10^8;
# on 400 of them the budget trips after about two seconds.
HNF_WORK_BITS = 2 * 10**9

# EchelonBasis charges every reduction of a vector, and every back-substitution
# of a new row, the size of its stored rows: the sum of len(tail) times the
# bit length of den over the rows.  It stops past this total.  The largest
# echelon of the test suite charges 1.6·10^7 (SS3 conjugated, d = 5); the SL2
# span charges 2.2·10^7 at d = 6 and 2.6·10^8 at d = 7; the degree-3 span of
# two random 3x3 integer matrices, whose rows grow to thousands of bits,
# charges about 3·10^8 per second and stops after about two seconds.
ECHELON_WORK_BITS = 5 * 10**8


class QMatrix:
    """Immutable rational matrix, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(rat(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def diagonal(cls, diag):
        diag = list(diag)
        n = len(diag)
        return cls(n, n, [diag[i] if i == j else ZERO for i in range(n) for j in range(n)])

    @classmethod
    def column(cls, entries):
        entries = list(entries)
        return cls(len(entries), 1, entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        rows = [[str(self[i, j]) for j in range(self.cols)] for i in range(self.rows)]
        return "QMatrix(" + "; ".join(" ".join(r) for r in rows) + ")"

    @property
    def is_square(self):
        return self.rows == self.cols

    def is_identity(self):
        return self.is_square and self == QMatrix.identity(self.rows)

    def is_zero(self):
        return all(not e for e in self.entries)

    def __add__(self, other):
        self._same_shape(other)
        return QMatrix(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_shape(other)
        return QMatrix(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return QMatrix(self.rows, self.cols, [-a for a in self.entries])

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def scale(self, c):
        c = rat(c)
        return QMatrix(self.rows, self.cols, [c * a for a in self.entries])

    def __mul__(self, other):
        if not isinstance(other, QMatrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = []
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for j in range(m):
                s = ZERO
                for t in range(k):
                    av = arow[t]
                    if av:
                        s += av * b[t * m + j]
                out.append(s)
        return QMatrix(n, m, out)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, e):
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        if e < 0:
            return self.inverse() ** (-e)
        result = QMatrix.identity(self.rows)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def trace(self):
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        s = ZERO
        for i in range(self.rows):
            s += self[i, i]
        return s

    def det(self):
        """Signed product of the rows' pivot entries in an EchelonBasis.

        Each row's remainder is the row less earlier rows and is zero at the
        earlier pivots: taken in pivot order, the columns are triangular.
        """
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        echelon = EchelonBasis(self.cols)
        det = ONE
        for i in range(self.rows):
            lead = echelon.insert(self.row(i))
            if not lead:
                return ZERO
            det *= lead
        pivots = echelon.pivots
        inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1 :])
        return -det if inversions % 2 else det

    def inverse(self):
        """Exact inverse; raises SingularMatrix when det = 0.

        The rref of [A | I] is [I | A^-1] exactly when A is invertible.
        """
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = [list(self.row(i)) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        red, pivots = QMatrix.from_rows(aug).rref()
        if pivots != list(range(n)):
            raise SingularMatrix("matrix is singular")
        return QMatrix.from_rows([red.row(i)[n:] for i in range(n)])

    def _echelon(self):
        echelon = EchelonBasis(self.cols)
        for i in range(self.rows):
            echelon.insert(self.row(i))
        return echelon

    def rref(self):
        """Reduced row echelon form and its pivot columns."""
        pivots, rows = self._echelon().rref_rows()
        rows += [[ZERO] * self.cols] * (self.rows - len(rows))
        return QMatrix(self.rows, self.cols, [e for r in rows for e in r]), pivots

    def rank(self):
        return len(self._echelon())

    def kernel_basis(self):
        """Basis of the right null space, as column vectors.

        The basis comes from the rref free-variable parametrization, so it is
        deterministic; the count is cols - rank.
        """
        return [QMatrix.column(v) for v in self._echelon().kernel()]


def row_hnf(rows):
    """Row Hermite normal form of an integer row list (zero rows dropped).

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), and the row space (as a lattice) is unchanged: only
    unimodular row operations are used.  Raises ResourceLimit when the row
    updates charge more than HNF_WORK_BITS.
    """
    m = [list(r) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    work = 0

    def subtract(i, q):
        """m[i] -= q * m[r], charged against the work budget."""
        nonlocal work
        work += ncols * (q.bit_length() + pivot_bits)
        if work > HNF_WORK_BITS:
            raise ResourceLimit(f"Hermite normal form exceeded its work budget of {HNF_WORK_BITS} bits")
        m[i] = [a - q * b for a, b in zip(m[i], m[r])]

    r = 0
    for c in range(ncols):
        # chase the column to a single nonzero at row r via gcd steps
        while True:
            live = [i for i in range(r, len(m)) if m[i][c]]
            if not live:
                break
            best = min(live, key=lambda i: (abs(m[i][c]), i))
            m[r], m[best] = m[best], m[r]
            pivot_bits = max(a.bit_length() for a in m[r])
            done = True
            for i in range(r + 1, len(m)):
                if m[i][c]:
                    subtract(i, m[i][c] // m[r][c])
                    if m[i][c]:
                        done = False
            if done:
                break
        if r < len(m) and m[r][c]:
            if m[r][c] < 0:
                m[r] = [-a for a in m[r]]
            pivot_bits = max(a.bit_length() for a in m[r])
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    subtract(i, q)
            r += 1
            if r == len(m):
                break
    return [row for row in m[:r]]


def integer_kernel(rows):
    """Basis rows of {k in Z^c : row . k = 0 for every row}, for a nonempty
    list of integer rows of length c.

    The HNF of [rows^T | I] keeps the unimodular transform in its right
    block; its rows with a vanishing left block are the HNF of the kernel
    lattice, so the basis is saturated (every integer kernel vector is an
    integer combination).
    """
    n, c = len(rows), len(rows[0])
    aug = [[row[j] for row in rows] + [1 if t == j else 0 for t in range(c)] for j in range(c)]
    return [row[n:] for row in row_hnf(aug) if not any(row[:n])]


class EchelonBasis:
    """Incremental echelon form over the rationals, with sparse integer rows.

    Feeds the span fixed point: vectors are inserted one at a time; an
    insertion reports whether the vector enlarged the span.  A row's pivot
    is its first nonzero column, so every row is zero at the columns before
    its pivot and at the other pivots.  Stored rows are normalized to pivot
    1 and fully reduced against each other.

    Each row is kept fraction-free as its tail, a dict {column: int} of the
    numerators of its nonzero entries off the pivot, over a positive
    denominator den with gcd(den, tail) = 1: the row is e_pivot + tail / den.
    The pivot entry is 1 and not stored, and no stored numerator is zero, so
    reduction touches only stored nonzeros.  Inserted and reduced vectors
    may hold ints or rationals; their denominators are cleared once on entry
    (an all-int vector is copied as it is) and all further arithmetic is on
    ints (fraction-free elimination in the spirit of Bareiss 1968).  Each
    reduction of a vector and each back-substitution of a new row is first
    charged the size of the stored rows, kept as a running total, and
    ResourceLimit is raised past ECHELON_WORK_BITS before any row changes.
    rows, rref_rows, kernel and reduce return RAT values, built on access;
    rows is in insertion order.  Each kernel vector is one at its free
    column and nonzero elsewhere only at earlier pivot columns.
    """

    __slots__ = ("length", "pivots", "_tails", "_dens", "_pivot_of", "_size", "_work")

    def __init__(self, length):
        self.length = length
        self.pivots = []
        self._tails = []
        self._dens = []
        self._pivot_of = {}
        self._size = 0  # sum of len(tail) * den.bit_length() over the rows
        self._work = 0

    def _charge(self):
        """Charge one pass over the stored rows against ECHELON_WORK_BITS."""
        self._work += self._size
        if self._work > ECHELON_WORK_BITS:
            raise ResourceLimit(f"echelon form exceeded its work budget of {ECHELON_WORK_BITS} bits")

    def __len__(self):
        return len(self._tails)

    @property
    def rows(self):
        return [self._dense(i) for i in range(len(self._tails))]

    def _dense(self, i):
        row = [ZERO] * self.length
        row[self.pivots[i]] = ONE
        den = self._dens[i]
        for j, b in self._tails[i].items():
            row[j] = rat(b, den)
        return row

    def _remainder(self, vector):
        """Integers r and a positive int s: vector minus its projection on the rows is r / s.

        Rows are zero at every other row's pivot, so the multiple of row i to
        subtract is the vector's own entry at pivot i; one common scale, the
        lcm of the reduced row denominators that occur, keeps every step on
        ints.
        """
        self._charge()
        # star-arguments come from lists: CPython builds a tuple from an
        # iterator at a guessed size and shrinks it, and shrunk tuples stay
        # on its free lists until a full collection, which raises peak memory
        if set(map(type, vector)) == {int}:
            v, s = list(vector), 1
        else:
            s = lcm(*[x.denominator for x in vector])
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

    def reduce(self, vector):
        """Remainder of vector against the current rows (new list)."""
        v, s = self._remainder(vector)
        return [rat(x, s) for x in v]

    def insert(self, vector):
        """Insert a vector: False when it is in the span, else the nonzero
        pivot entry of its remainder against the rows before it."""
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
        # row k becomes row k - (a / den_k) * new row, in lowest terms
        self._charge()
        size = self._size
        for k, tail in enumerate(self._tails):
            a = tail.pop(pivot, None)
            if a is None:
                continue
            size -= (len(tail) + 1) * self._dens[k].bit_length()
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
            size += len(tail) * dk.bit_length()
        self._size = size + len(new) * den.bit_length()
        self._pivot_of[pivot] = len(self._tails)
        self.pivots.append(pivot)
        self._tails.append(new)
        self._dens.append(den)
        return rat(lead, s)

    def contains(self, vector):
        return not any(self._remainder(vector)[0])

    def rref_rows(self):
        """Pivot columns in ascending order and the rref rows they belong to."""
        pivots = sorted(self._pivot_of)
        return pivots, [self._dense(self._pivot_of[p]) for p in pivots]

    def kernel(self):
        """Basis of {c : c . v = 0 for every v in the span}, as lists.

        The free-variable parametrization of the reduced rows, one vector per
        free column in column order; it equals QMatrix.kernel_basis of the
        inserted rows.
        """
        basis = {c: [ZERO] * self.length for c in range(self.length) if c not in self._pivot_of}
        for pc, tail, den in zip(self.pivots, self._tails, self._dens):
            for fc, b in tail.items():
                basis[fc][pc] = rat(-b, den)
        for fc, v in basis.items():
            v[fc] = ONE
        return list(basis.values())

    def kernel_at(self, free_columns):
        """The kernel vectors of the given free (non-pivot) columns, sparse.

        One dict {column: RAT} per column, in the given order, with keys
        ascending: 1 at the free column fc, and -b / den at the pivot of
        every row whose tail holds b at fc.  It is the vector kernel()
        returns for fc, without its zeros, and builds no other vector.
        """
        out = []
        for fc in free_columns:
            vec = {fc: ONE}
            for pc, tail, den in zip(self.pivots, self._tails, self._dens):
                b = tail.get(fc)
                if b:
                    vec[pc] = rat(-b, den)
            out.append(dict(sorted(vec.items())))
        return out
