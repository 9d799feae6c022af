"""Radial self-similar profiles of the fast diffusion equation.

Solves the singular radial equation

    (n-1)/m * Delta v^m + alpha*v + beta*x.grad(v) = 0,  v(0) = eta,

checks the proven invariants along the computed solution, measures the
log-corrected and power decay limits, follows the m -> 0 singular limit to
the log-diffusion equation, and residual-checks the self-similar space-time
solutions built from the profile.
"""

__version__ = "0.1.0"

from .errors import (
    EndpointExponentError,
    HypothesisViolation,
    OutOfRange,
    PositivityLoss,
    ProfileError,
    RegimeMismatch,
    StepUnderflow,
)
from .model import (
    DerivedConstants,
    HypothesisReport,
    Parameters,
    Regime,
    check_hypotheses,
    classify_regime,
    derived,
)
from .series import SeriesExpansion, eval_series, expand_at_origin, series_residual
from .integrate import (
    LogProfile,
    Profile,
    Solution,
    SolveConfig,
    handoff_to_log,
    integrate_log,
    integrate_r,
    solve_profile,
)
from .invariants import (
    InvariantEntry,
    InvariantReport,
    check_flux_identity,
    check_pointwise,
    check_q_identity,
    check_slope_bounds,
    run_all_checks,
)
from .decay import (
    DecayEstimate,
    DecayKind,
    estimate_log_decay,
    estimate_power_decay,
    expected_log_constant,
    require_decay_inputs,
)
from .loglimit import (
    ConvergenceReport,
    DoubleLimitReport,
    double_limit_check,
    limit_convergence,
    log_chart_of_log_equation,
    solve_log_equation,
)
from .selfsim import ResidualStats, SelfSimilarSolution, build_selfsimilar, pde_residual

__all__ = [
    "__version__",
    "ProfileError",
    "PositivityLoss",
    "StepUnderflow",
    "HypothesisViolation",
    "EndpointExponentError",
    "RegimeMismatch",
    "OutOfRange",
    "Parameters",
    "DerivedConstants",
    "HypothesisReport",
    "Regime",
    "classify_regime",
    "check_hypotheses",
    "derived",
    "SeriesExpansion",
    "expand_at_origin",
    "eval_series",
    "series_residual",
    "Profile",
    "LogProfile",
    "Solution",
    "SolveConfig",
    "integrate_r",
    "integrate_log",
    "handoff_to_log",
    "solve_profile",
    "InvariantEntry",
    "InvariantReport",
    "check_pointwise",
    "check_slope_bounds",
    "check_flux_identity",
    "check_q_identity",
    "run_all_checks",
    "DecayEstimate",
    "DecayKind",
    "estimate_log_decay",
    "estimate_power_decay",
    "require_decay_inputs",
    "expected_log_constant",
    "ConvergenceReport",
    "DoubleLimitReport",
    "solve_log_equation",
    "log_chart_of_log_equation",
    "limit_convergence",
    "double_limit_check",
    "SelfSimilarSolution",
    "ResidualStats",
    "build_selfsimilar",
    "pde_residual",
]
