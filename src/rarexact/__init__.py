"""Exact design and inference for two-arm response-adaptive trials with
binary outcomes: exact operating characteristics of adaptive allocation
policies under asymptotic and exact Wald-type tests, and constrained-MDP
optimization of allocation policies under type-I-error and
patient-benefit constraints.

Each exported name loads on first use: ``from rarexact import
DbcdNeyman, simulate_terminals`` imports the policies and the Monte Carlo
module, not the exact tests or the CMDP solver (PEP 562)."""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "cmdp": (
        "AltUniform", "AuditReport", "CmdpResult", "CmdpSpec", "NullUniform", "PointNull",
        "Rectangle", "audit_policy", "default_rectangles", "lagrangian_backward",
        "measure_log_weights", "solve_cmdp",
    ),
    "engine": (
        "PathWeightTable", "TerminalFunctional", "forward_g", "layer_log_likelihood",
    ),
    "exact_tests": (
        "BoschlooRule", "ConditionalRule", "RegionCertificate", "UnconditionalRule",
        "boschloo_rule", "boschloo_statistic", "certify_region", "conditional_rule",
        "unconditional_rule",
    ),
    "montecarlo": (
        "RateEstimate", "randomization_rejection_rate", "randomization_rejection_rates",
        "randomization_test", "simulate_terminals",
    ),
    "numerics": ("log_binom", "logsumexp_fixed", "normal_quantile"),
    "operating": (
        "AsymptoticRule", "OcProfile", "null_diagonal", "patient_benefit", "power_curves",
        "profile", "rejection_rate",
    ),
    "policies": (
        "BayesianRar", "DbcdNeyman", "EqualAllocation", "Policy", "PolicyTable",
        "TemperedDbcdNeyman", "neyman_target",
    ),
    "states": ("Layer", "TrialState", "layer"),
    "wald": ("layer_wald_statistics", "wald_statistics"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
