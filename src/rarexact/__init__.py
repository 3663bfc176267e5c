"""Exact design and inference for two-arm response-adaptive trials with
binary outcomes: exact operating characteristics of adaptive allocation
policies under asymptotic and exact Wald-type tests, and constrained-MDP
optimization of allocation policies under type-I-error and
patient-benefit constraints."""

__version__ = "0.1.0"

from .cmdp import (
    AltUniform,
    AuditReport,
    CmdpResult,
    CmdpSpec,
    NullUniform,
    PointNull,
    Rectangle,
    audit_policy,
    default_rectangles,
    lagrangian_backward,
    measure_log_weights,
    solve_cmdp,
)
from .engine import (
    PathWeightTable,
    TerminalFunctional,
    equal_allocation_g,
    forward_g,
    layer_log_likelihood,
)
from .exact_tests import (
    BoschlooRule,
    ConditionalRule,
    RegionCertificate,
    UnconditionalRule,
    bernstein_tail_sup,
    boschloo_rule,
    boschloo_statistic,
    certify_region,
    conditional_rule,
    unconditional_rule,
)
from .montecarlo import (
    RateEstimate,
    RngSeed,
    TrialHistory,
    permuted_block_sequence,
    randomization_rejection_rate,
    randomization_test,
    simulate_terminals,
    simulate_trial,
)
from .numerics import log_binom, logsumexp_fixed, normal_quantile
from .operating import (
    AsymptoticRule,
    OcProfile,
    null_diagonal,
    patient_benefit,
    power_curves,
    profile,
    rejection_rate,
)
from .policies import (
    BayesianRar,
    DbcdNeyman,
    EqualAllocation,
    Policy,
    PolicyTable,
    TablePolicy,
    TemperedDbcdNeyman,
    neyman_target,
)
from .states import Layer, TrialState, layer
from .wald import layer_wald_statistics, wald_statistics
