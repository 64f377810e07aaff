"""Sets of n distinct perfect squares whose sum, after removing any
one member, is again a perfect square.

Two constructions are provided: seed a short solution family and grow
it with a norm-preserving linear transform until all entries are
distinct (method 1), or assign two-squares chain products to the
entries and solve the resulting quadratic conditions exactly
(method 2).  Everything is exact integer and rational arithmetic, and
every produced system carries certificates checkable by
verify.validate_system.
"""

from .exactmath import DomainError, isqrt
from .seeds import SquareSystem, seed_n5_simple
from .evolve import (coefficients, distinctify, generate_method1,
                     reduce_chain, transform)
from .derive import (ASSIGN_N5, derive_n5, derive_n6, derive_n7, derive_n8,
                     discriminant, fermat_square, pipeline_n5, pipeline_n6,
                     pipeline_n7, pipeline_n8, residual)
from .verify import validate_chain, validate_system
from .catalog import cross_check, eval_family, get_family, list_families

__version__ = "0.1.0"

__all__ = [
    "DomainError", "isqrt",
    "SquareSystem", "seed_n5_simple",
    "coefficients", "distinctify", "generate_method1", "reduce_chain",
    "transform",
    "ASSIGN_N5", "derive_n5", "derive_n6", "derive_n7", "derive_n8",
    "discriminant", "fermat_square", "pipeline_n5", "pipeline_n6",
    "pipeline_n7", "pipeline_n8", "residual",
    "validate_chain", "validate_system",
    "cross_check", "eval_family", "get_family", "list_families",
    "__version__",
]
