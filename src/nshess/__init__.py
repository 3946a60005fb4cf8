"""Derivative-free differentiation for black-box functions.

Estimates gradients and Hessians of a scalar function from point
evaluations alone, organizes those evaluations on folded sample grids so a
full Hessian and an interpolating quadratic cost the minimal
``(n+1)(n+2)/2`` distinct points, and pairs every estimate with a
worst-case error bound built from Lipschitz certificates. Composition
rules assemble Hessian estimates of products, quotients and powers of
functions from per-factor estimates, again with matching bounds.
"""

from .approx import (
    GradientResult,
    HessianResult,
    delta_f,
    nested_set_hessian,
    simplex_gradient,
)
from .bounds import BoundInputs, error_bound_canonical, error_bound_gsg, error_bound_nsh
from .cache import EvaluationCache
from .calculus import (
    CalcMode,
    RuleBoundInputs,
    RuleFunctionData,
    RuleGeometry,
    calculus_error_bound,
    gradient_constant,
    hessian_constant,
    model_gradient_constant,
    power_hessian,
    product_hessian,
    quadratic_model_gradient,
    quotient_hessian,
)
from .exceptions import (
    CollapsedGridError,
    EvaluationError,
    NotPoisedError,
    RankDeficientError,
)
from .linalg import frobenius_norm, pseudoinverse, rank, spectral_norm
from .quadmodel import QuadraticModel, interpolate_general, interpolate_minimal
from .registry import CompositeFunction, TestFunction, make_function, registry_names
from .sets import (
    DirectionSet,
    MinimalityResult,
    PointSet,
    build_uk,
    canonical_set,
    count_distinct,
    dedup_tolerance,
    is_minimal_nshc,
    is_poised_quadratic,
    minimal_point_count,
    nshc_points,
    quadratic_basis_matrix,
)
from .study import (
    Check,
    ConvergenceReport,
    StudyConfig,
    StudyError,
    StudyRow,
    VerificationReport,
    approximate_once,
    run_study,
    verify_examples,
)

__version__ = "0.1.0"

__all__ = [
    "BoundInputs",
    "CalcMode",
    "Check",
    "CollapsedGridError",
    "CompositeFunction",
    "ConvergenceReport",
    "DirectionSet",
    "EvaluationCache",
    "EvaluationError",
    "GradientResult",
    "HessianResult",
    "MinimalityResult",
    "NotPoisedError",
    "PointSet",
    "QuadraticModel",
    "RankDeficientError",
    "RuleBoundInputs",
    "RuleFunctionData",
    "RuleGeometry",
    "StudyConfig",
    "StudyError",
    "StudyRow",
    "TestFunction",
    "VerificationReport",
    "approximate_once",
    "build_uk",
    "calculus_error_bound",
    "canonical_set",
    "count_distinct",
    "dedup_tolerance",
    "delta_f",
    "error_bound_canonical",
    "error_bound_gsg",
    "error_bound_nsh",
    "frobenius_norm",
    "gradient_constant",
    "hessian_constant",
    "interpolate_general",
    "interpolate_minimal",
    "is_minimal_nshc",
    "is_poised_quadratic",
    "make_function",
    "minimal_point_count",
    "model_gradient_constant",
    "nested_set_hessian",
    "nshc_points",
    "power_hessian",
    "product_hessian",
    "pseudoinverse",
    "quadratic_basis_matrix",
    "quadratic_model_gradient",
    "quotient_hessian",
    "rank",
    "registry_names",
    "run_study",
    "simplex_gradient",
    "spectral_norm",
    "verify_examples",
]
