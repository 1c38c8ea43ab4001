"""Solvers and benchmarks for monotone variational inequalities with
Holder-continuous Jacobians: fixed, adaptive, and universal extra-Newton
methods, third-order variants, an extragradient baseline, and the gap
certificates that verify them.
"""

from .core import (
    Ball,
    Box,
    FeasibleSet,
    MonotoneCheck,
    Operator,
    SolverConfig,
    WholeSpace,
    as_point,
    check_monotone,
    estimate_holder_constant,
    holder_ratio_max,
)
from .errors import (
    ConfigError,
    DegenerateRegularization,
    EvaluationError,
    HolderVIError,
    LineSearchExhausted,
    RateFitError,
    SubproblemFailure,
    UnboundedGapError,
    UnsupportedOrder,
)
from .linesearch import LineSearchOutcome, SearchMode, search
from .metrics import (
    GapCertificate,
    Verdict,
    c_nu_constant,
    c_p_nu,
    fit_rate_slope,
    gap_upper_bound,
    grid_gap_max,
    theorem_bound_report,
)
from .model import LinearModel, RegularizedModel, build_linear_model, remainder_bound
from .problems import (
    ProblemInstance,
    default_start,
    make_bilinear,
    make_piecewise,
    make_power,
    make_quartic_saddle,
    parse_problem,
    problem_families,
)
from .solvers import (
    RunResult,
    ergodic_average,
    k_for_accuracy,
    run_extragradient,
    run_nu_aren,
    run_nu_ren,
    run_uren,
)
from .subproblem import gamma_of, natural_residual, prox_step, solve_model_vi
from .tensor import make_tensor_model, run_nu_aret, run_uret

__version__ = "0.1.0"

__all__ = [
    "Ball", "Box", "FeasibleSet", "MonotoneCheck", "Operator", "SolverConfig",
    "WholeSpace", "as_point", "check_monotone", "estimate_holder_constant",
    "holder_ratio_max", "ConfigError", "DegenerateRegularization",
    "EvaluationError", "HolderVIError", "LineSearchExhausted", "RateFitError",
    "SubproblemFailure", "UnboundedGapError", "UnsupportedOrder",
    "LineSearchOutcome", "SearchMode", "search",
    "GapCertificate", "Verdict", "c_nu_constant", "fit_rate_slope",
    "gap_upper_bound", "grid_gap_max", "theorem_bound_report", "LinearModel",
    "RegularizedModel", "build_linear_model", "remainder_bound",
    "ProblemInstance", "default_start", "make_bilinear", "make_piecewise",
    "make_power", "make_quartic_saddle", "parse_problem", "problem_families",
    "RunResult", "ergodic_average", "k_for_accuracy", "run_extragradient",
    "run_nu_aren", "run_nu_ren", "run_uren", "gamma_of", "natural_residual",
    "prox_step", "solve_model_vi", "c_p_nu", "make_tensor_model",
    "run_nu_aret", "run_uret", "__version__",
]
