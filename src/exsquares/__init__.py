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

from .exactmath import (DomainError, is_perfect_square, isqrt,
                        rational_sqrt, sqrt_exact, vec_gcd)
from .identities import (chain4, chain4_norm, chain8, chain8_norm,
                         compose, pair_norm, phi, psi)
from .polyfield import (HomogPoly, Poly, RatFunc, dehomogenize,
                        homog_eval, homogenize, poly_gcd, poly_sqrt)
from .seeds import (ChainSolution, DegenerateParameterError, SquareSystem,
                    lemma3_general, lemma3_special, seed_n5_simple,
                    seed_n6)
from .evolve import (DistinctifyError, FlipSchedule, NotAnImageError,
                     TransformCoefficients, coefficients, distinctify,
                     flip, generate_method1, inverse_transform,
                     method1_seed, reduce_chain, transform)
from .derive import (ASSIGN_N5, ASSIGN_N6, ASSIGN_N7, ASSIGN_N8,
                     ChainAssignment, DegenerateFormError,
                     IdenticallySquareError, NoFermatRootError,
                     NoRationalRootError, QuadraticForm,
                     UnsupportedQuarticError, assignment_pairs,
                     derive_n5, derive_n6, derive_n7, derive_n8,
                     discriminant, fermat_square, normalize_projective,
                     pipeline_n5, pipeline_n6, pipeline_n7, pipeline_n8,
                     residual, solve_quadratic, vieta_second_root)
from .verify import (Report, Violation, chain_from_system,
                     system_from_chain, validate_chain, validate_system)
from .catalog import (CrossCheckReport, FamilyRecord, UnknownFamilyError,
                      cross_check, eval_family, get_family,
                      list_families)

__version__ = "0.1.0"

__all__ = [
    "DomainError", "is_perfect_square", "isqrt", "rational_sqrt",
    "sqrt_exact", "vec_gcd",
    "chain4", "chain4_norm", "chain8", "chain8_norm", "compose",
    "pair_norm", "phi", "psi",
    "HomogPoly", "Poly", "RatFunc", "dehomogenize", "homog_eval",
    "homogenize", "poly_gcd", "poly_sqrt",
    "ChainSolution", "DegenerateParameterError", "SquareSystem",
    "lemma3_general", "lemma3_special", "seed_n5_simple", "seed_n6",
    "DistinctifyError", "FlipSchedule", "NotAnImageError",
    "TransformCoefficients", "coefficients", "distinctify", "flip",
    "generate_method1", "inverse_transform", "method1_seed",
    "reduce_chain", "transform",
    "ASSIGN_N5", "ASSIGN_N6", "ASSIGN_N7", "ASSIGN_N8",
    "ChainAssignment", "DegenerateFormError", "IdenticallySquareError",
    "NoFermatRootError", "NoRationalRootError", "QuadraticForm",
    "UnsupportedQuarticError", "assignment_pairs", "derive_n5",
    "derive_n6", "derive_n7", "derive_n8", "discriminant",
    "fermat_square", "normalize_projective", "pipeline_n5",
    "pipeline_n6", "pipeline_n7", "pipeline_n8", "residual",
    "solve_quadratic", "vieta_second_root",
    "Report", "Violation", "chain_from_system", "system_from_chain",
    "validate_chain", "validate_system",
    "CrossCheckReport", "FamilyRecord", "UnknownFamilyError",
    "cross_check", "eval_family", "get_family", "list_families",
    "__version__",
]
