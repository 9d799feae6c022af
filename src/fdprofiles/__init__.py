"""Radial self-similar profiles of the fast diffusion equation.

Solves the singular radial equation

    (n-1)/m * Delta v^m + alpha*v + beta*x.grad(v) = 0,  v(0) = eta,

checks the proven invariants along the computed solution, measures the
log-corrected and power decay limits, follows the m -> 0 singular limit to
the log-diffusion equation, and residual-checks the self-similar space-time
solutions built from the profile.

The namespace is lazy (PEP 562): a public name imports its submodule on
first access, so ``import fdprofiles`` loads none of them. The value is read
from the submodule on every access and never stored here, so a patched
submodule attribute is what the package serves.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SUBMODULE = {
    name: module
    for module, names in {
        "errors": ("ProfileError", "PositivityLoss", "StepUnderflow", "HypothesisViolation",
                   "EndpointExponentError", "RegimeMismatch", "OutOfRange"),
        "model": ("Parameters", "DerivedConstants", "HypothesisReport", "Regime",
                  "classify_regime", "check_hypotheses", "derived"),
        "series": ("SeriesExpansion", "expand_at_origin", "eval_series", "series_residual"),
        "integrate": ("Profile", "LogProfile", "Solution", "SolveConfig", "integrate_r",
                      "integrate_log", "handoff_to_log", "solve_profile"),
        "invariants": ("InvariantEntry", "InvariantReport", "check_pointwise", "check_slope_bounds",
                       "check_flux_identity", "check_q_identity", "run_all_checks"),
        "decay": ("DecayEstimate", "DecayKind", "estimate_log_decay", "estimate_power_decay",
                  "require_decay_inputs", "expected_log_constant"),
        "loglimit": ("ConvergenceReport", "DoubleLimitReport", "solve_log_equation",
                     "log_chart_of_log_equation", "limit_convergence", "double_limit_check"),
        "selfsim": ("SelfSimilarSolution", "ResidualStats", "build_selfsimilar", "pde_residual"),
    }.items()
    for name in names
}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return list(__all__)
