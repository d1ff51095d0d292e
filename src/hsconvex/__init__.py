"""Bounds for harmonically s-convex functions, verified by quadrature.

The package computes the harmonic Hermite-Hadamard chain and five
Ostrowski-type bounds built from Beta/2F1 coefficient functions, and ships
the machinery to verify every closed form and inequality instance against
an independent adaptive-quadrature oracle.
"""

from .errors import DomainError, NumericError
from .numeric import (FunctionSpec, Interval, QuadResult, derivative,
                      get_function, integrate, weighted_mean)
from .specfn import beta, hyp2f1
from .convexity import (ConvexityReport, check_am_hm, check_convexity,
                        harmonic_combination, proposition_implications)
from .bounds import (classic_ostrowski_rhs, hh_harmonic_bounds,
                     hh_s_convex_bounds, lambda5, lambda_value, ostrowski_lhs,
                     ostrowski_rhs)
from .verify import (bound_row, lambda_consistency_rows, lemma_residual,
                     matrix_summary, min_corollary_gap, run_ostrowski_matrix,
                     verify_theorem)

__version__ = "0.1.0"

__all__ = [
    "ConvexityReport", "DomainError", "FunctionSpec",
    "Interval", "NumericError", "QuadResult", "beta", "bound_row",
    "check_am_hm", "check_convexity", "classic_ostrowski_rhs", "derivative",
    "get_function", "harmonic_combination", "hh_harmonic_bounds",
    "hh_s_convex_bounds", "hyp2f1", "integrate", "lambda5",
    "lambda_consistency_rows", "lambda_value", "lemma_residual",
    "matrix_summary", "min_corollary_gap", "ostrowski_lhs", "ostrowski_rhs",
    "proposition_implications", "run_ostrowski_matrix", "verify_theorem",
    "weighted_mean",
]
