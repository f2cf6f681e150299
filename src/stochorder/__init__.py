"""Stochastic order, likelihood ratio order, TP2 and Kuiper projection toolkit.

Everything operates on finite-support distributions; each verdict can be
cross-checked against a brute-force oracle, and all order comparisons run on
cross-multiplied masses so no division is ever performed.
"""

from .distributions import (
    BivariateDist,
    Interval,
    UnivariateDist,
    load_bivariate,
    load_univariate,
)
from .errors import (
    DomainError,
    InvalidDistributionError,
    PreconditionError,
    StochOrderError,
)
from .estimation import (
    BracketReport,
    QuantileCurve,
    UniformConvergenceReport,
    bracket_check,
    empirical,
    quantile_curve,
    sample,
    uniform_convergence_check,
)
from .isotonic import (
    IsotonicDensity,
    maximal_isotonic_density,
    minimal_isotonic_density,
)
from .kuiper import (
    GridSignedMeasure,
    ProjectionResult,
    kuiper_norm,
    refine_grid,
    signed_difference,
    tp2_project,
)
from .orders import OrderVerdict, check_lr, check_st, truncate
from .roc import OdcCurve, RocCurve, odc_curve, odc_is_convex, roc_curve, roc_is_concave
from .tp2 import (
    Boundaries,
    ConditionalDensity,
    Kernel,
    boundaries,
    check_st_condition,
    check_tp2,
    conditional_density,
    kernel_east,
    kernel_new,
    kernel_west,
)

__version__ = "0.1.0"

__all__ = [
    "BivariateDist",
    "Boundaries",
    "BracketReport",
    "ConditionalDensity",
    "DomainError",
    "GridSignedMeasure",
    "Interval",
    "InvalidDistributionError",
    "IsotonicDensity",
    "Kernel",
    "OdcCurve",
    "OrderVerdict",
    "PreconditionError",
    "ProjectionResult",
    "QuantileCurve",
    "RocCurve",
    "StochOrderError",
    "UniformConvergenceReport",
    "UnivariateDist",
    "boundaries",
    "bracket_check",
    "check_lr",
    "check_st",
    "check_st_condition",
    "check_tp2",
    "conditional_density",
    "empirical",
    "kernel_east",
    "kernel_new",
    "kernel_west",
    "kuiper_norm",
    "load_bivariate",
    "load_univariate",
    "maximal_isotonic_density",
    "minimal_isotonic_density",
    "odc_curve",
    "odc_is_convex",
    "quantile_curve",
    "refine_grid",
    "roc_curve",
    "roc_is_concave",
    "sample",
    "signed_difference",
    "tp2_project",
    "truncate",
    "uniform_convergence_check",
]
