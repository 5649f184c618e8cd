"""Affine programs and their strongest polynomial invariants.

A single-location loop with a nondeterministic choice among invertible
affine updates x := A x + b reduces to a matrix group: each update
homogenizes to the (n+1)x(n+1) block matrix [[A, b], [0, 1]], and the
reachable configurations are exactly the group the homogenized updates
generate.  The invariant ideal is the closure ideal specialized to a
symbolic start state: n fresh variables for the initial vector are
adjoined, the matrix action equations are added, and the matrix
coordinates are eliminated.
"""

from .closure import GeneratorSet, invariants_up_to_degree
from .errors import NonInvertibleUpdate, SingularMatrix
from .linalg import QMatrix
from .poly import Ideal, Poly, eliminate
from .structure import PolyMatrix
from ._rat import ONE, ZERO, rat

__all__ = ["AffineProgram", "affine_to_generators", "strongest_invariant"]


class AffineProgram:
    """num_vars state variables, updates as (A, b) pairs with A invertible."""

    __slots__ = ("num_vars", "updates")

    def __init__(self, num_vars, updates):
        self.num_vars = num_vars
        fixed = []
        for index, (a, b) in enumerate(updates):
            if not isinstance(a, QMatrix):
                a = QMatrix.from_rows(a)
            b = [rat(x) for x in b]
            if a.rows != num_vars or a.cols != num_vars or len(b) != num_vars:
                raise ValueError(f"update {index} has inconsistent shape")
            fixed.append((a, tuple(b)))
        if not fixed:
            raise ValueError("need at least one update")
        self.updates = tuple(fixed)

    def __repr__(self):
        return f"AffineProgram(num_vars={self.num_vars}, {len(self.updates)} updates)"


def homogenize(a: QMatrix, b) -> QMatrix:
    """[[A, b], [0, 1]]: applying it to (state, 1) gives (A state + b, 1)."""
    n = a.rows
    rows = [list(a.row(i)) + [b[i]] for i in range(n)]
    rows.append([ZERO] * n + [ONE])
    return QMatrix.from_rows(rows)


def affine_to_generators(program: AffineProgram) -> GeneratorSet:
    """The homogenized updates; GeneratorSet takes each determinant, which is
    det A, so a singular update is found again only on that error."""
    try:
        return GeneratorSet([homogenize(a, b) for a, b in program.updates])
    except SingularMatrix:
        index = next(i for i, (a, _) in enumerate(program.updates) if not a.det())
        raise NonInvertibleUpdate(
            index,
            f"update {index} is not invertible; non-invertible updates need a "
            "semigroup closure, which is outside the group engine",
        ) from None


def strongest_invariant(program: AffineProgram, d: int) -> Ideal:
    """Polynomials of degree <= d holding along every execution.

    The result lives in 2 num_vars variables: current state first, then the
    adjoined symbolic initial state.  Every generator vanishes whenever the
    current state is reachable from the initial one.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    n = program.num_vars
    generators = affine_to_generators(program)
    closure = invariants_up_to_degree(generators, d)
    k = (n + 1) * (n + 1) + 1  # matrix coordinates to eliminate
    total = k + 2 * n  # plus current state and initial state
    gens = [f.map_variables(total, range(k)) for f in closure.ideal.generators]
    # current state = upper part of M (initial, 1): x_i - M_in - sum_j M_ij x0_j
    matrix = PolyMatrix.generic(n + 1, total)
    for i in range(n):
        eq = Poly.variable(k + i, total) - matrix[i, n]
        for j in range(n):
            eq = eq - matrix[i, j] * Poly.variable(k + n + j, total)
        gens.append(eq)
    return eliminate(Ideal(total, gens), k)

