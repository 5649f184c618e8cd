"""Exact Zariski closures of finitely generated rational matrix groups.

The library computes degree-bounded vanishing ideals of matrix groups,
structural decompositions (Jordan-Chevalley, unipotent logarithms,
eigenvalue relation lattices), exact values for the degree-bound formulas
the theory provides, and strongest polynomial invariants of affine
programs.  Everything runs over exact rational arithmetic.
"""

from .errors import (
    ZClosureError,
    SingularMatrix,
    NotUnipotent,
    NotSemisimple,
    UnsupportedEigenvalues,
    NonInvertibleUpdate,
    ResourceLimit,
    NoStabilization,
)
from ._rat import rat, height
from .linalg import QMatrix, integer_kernel
from .poly import Poly, Ideal, groebner, eliminate, ideal_member, ideal_equal
from .structure import jordan_chevalley, nilpotent_log, one_parameter
from .relations import rational_relation_lattice, lattice_to_binomial_ideal
from .closure import (
    GeneratorSet,
    gl_embed,
    invariants_up_to_degree,
    auto_closure,
    closure_cyclic_semisimple,
    closure_unipotent_product,
    schreier_generators,
)
from .affine import AffineProgram, strongest_invariant
from .bounds import closure_degree_bound, chain_bounds

__all__ = [
    "ZClosureError",
    "SingularMatrix",
    "NotUnipotent",
    "NotSemisimple",
    "UnsupportedEigenvalues",
    "NonInvertibleUpdate",
    "ResourceLimit",
    "NoStabilization",
    "rat",
    "height",
    "QMatrix",
    "integer_kernel",
    "Poly",
    "Ideal",
    "groebner",
    "eliminate",
    "ideal_member",
    "ideal_equal",
    "jordan_chevalley",
    "nilpotent_log",
    "one_parameter",
    "rational_relation_lattice",
    "lattice_to_binomial_ideal",
    "GeneratorSet",
    "gl_embed",
    "invariants_up_to_degree",
    "auto_closure",
    "closure_cyclic_semisimple",
    "closure_unipotent_product",
    "schreier_generators",
    "AffineProgram",
    "strongest_invariant",
    "closure_degree_bound",
    "chain_bounds",
]
