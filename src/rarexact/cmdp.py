"""Constrained-MDP design of allocation policies: maximize Bayesian
average power of the embedded asymptotic Wald test subject to average,
pointwise, and (optionally) patient-benefit constraints.

The Lagrangian is maximized by a backward recursion over the state
layers, one :meth:`~rarexact.states.Transition.pull` per layer (outcome
likelihoods live entirely in the terminal reward, so both outcome branches
carry weight one), and the multipliers follow a projected subgradient with
a ``1/sqrt(k)`` step schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc

from .engine import (
    PathWeightTable, _burn_in_table, forward_g, layer_log_likelihood, log_likelihood_weight,
)
from .numerics import check_alpha, gammaln_table, log_beta, logsumexp_fixed
from .policies import PolicyTable, TablePolicy
from .states import Layer, Transition, TrialState, layer as make_layer
from .wald import asymptotic_reject_array, layer_wald_statistics


# ---------------------------------------------------------------------------
# measures over the terminal layer


@dataclass(frozen=True)
class AltUniform:
    """Independent uniform priors on both arms (alternative average)."""


@dataclass(frozen=True)
class NullUniform:
    """Uniform prior on the common null success rate."""


@dataclass(frozen=True)
class PointNull:
    theta0: float


@dataclass(frozen=True)
class Rectangle:
    """Uniform prior over a product of per-arm intervals with disjoint
    interiors, so one arm is superior everywhere on the rectangle."""

    l_c: float
    u_c: float
    l_d: float
    u_d: float

    def __post_init__(self):
        if not (0 <= self.l_c < self.u_c <= 1 and 0 <= self.l_d < self.u_d <= 1):
            raise ValueError("degenerate rectangle")
        if max(self.l_c, self.l_d) < min(self.u_c, self.u_d):
            raise ValueError("rectangle intervals must have disjoint interiors")

    @property
    def superior_arm(self) -> str:
        return "C" if self.l_c + self.u_c > self.l_d + self.u_d else "D"


SECTION4_INTERVALS = ((0.0, 0.05), (0.05, 0.1), (0.1, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0))


def default_rectangles() -> tuple[Rectangle, ...]:
    """All ordered pairs of distinct intervals from the standard list."""
    out = []
    for ic in SECTION4_INTERVALS:
        for idv in SECTION4_INTERVALS:
            if ic != idv:
                out.append(Rectangle(ic[0], ic[1], idv[0], idv[1]))
    return tuple(out)


def _stable_beta_cdf_diff(a, b, lo: float, hi: float) -> np.ndarray:
    """``I_hi(a,b) - I_lo(a,b)`` computed from whichever tail cancels less."""
    d1 = betainc(a, b, hi) - betainc(a, b, lo)
    d2 = betainc(b, a, 1.0 - lo) - betainc(b, a, 1.0 - hi)
    return np.maximum(np.maximum(d1, d2), 0.0)


def measure_log_weights(lay: Layer, measure) -> np.ndarray:
    """Log of the parameter-integrated outcome likelihood per state."""
    s_c, s_d, n_c, n_d = lay.arrays()
    g = gammaln_table(2 * lay.t + 8)

    def lbeta(a, b):
        return g[a] + g[b] - g[a + b]

    if isinstance(measure, AltUniform):
        return lbeta(s_c + 1, n_c - s_c + 1) + lbeta(s_d + 1, n_d - s_d + 1)
    if isinstance(measure, NullUniform):
        s = s_c + s_d
        return lbeta(s + 1, lay.t - s + 1)
    if isinstance(measure, PointNull):
        return layer_log_likelihood(lay, (measure.theta0, measure.theta0))
    if isinstance(measure, Rectangle):
        out = np.zeros(lay.size)
        for (s_a, n_a, lo, hi) in (
            (s_c, n_c, measure.l_c, measure.u_c),
            (s_d, n_d, measure.l_d, measure.u_d),
        ):
            a = (s_a + 1).astype(np.float64)
            b = (n_a - s_a + 1).astype(np.float64)
            diff = _stable_beta_cdf_diff(a, b, lo, hi)
            with np.errstate(divide="ignore"):
                out += np.log(diff) - np.log(hi - lo) + lbeta(s_a + 1, n_a - s_a + 1)
        return out
    raise TypeError(f"unknown measure {measure!r}")


def measure_log_weight(x: TrialState, measure) -> float:
    """Scalar :func:`measure_log_weights` for a single terminal state."""
    f_c, f_d = x.n_c - x.s_c, x.n_d - x.s_d
    if isinstance(measure, AltUniform):
        return float(log_beta(x.s_c + 1, f_c + 1) + log_beta(x.s_d + 1, f_d + 1))
    if isinstance(measure, NullUniform):
        return float(log_beta(x.successes + 1, x.epoch - x.successes + 1))
    if isinstance(measure, PointNull):
        return log_likelihood_weight(x, (measure.theta0, measure.theta0))
    if isinstance(measure, Rectangle):
        total = 0.0
        for (s_a, n_a, lo, hi) in (
            (x.s_c, x.n_c, measure.l_c, measure.u_c),
            (x.s_d, x.n_d, measure.l_d, measure.u_d),
        ):
            a, b = float(s_a + 1), float(n_a - s_a + 1)
            diff = float(_stable_beta_cdf_diff(np.float64(a), np.float64(b), lo, hi))
            total += np.log(diff) - np.log(hi - lo) + float(log_beta(a, b))
        return float(total)
    raise TypeError(f"unknown measure {measure!r}")


# ---------------------------------------------------------------------------
# specification and audit


@dataclass(frozen=True)
class CmdpSpec:
    """Problem data: horizon, action set, embedded test level, constraint
    measures with bounds, and dual-solver settings."""

    n: int
    burn_in: int
    p: float = 0.95
    alpha: float = 0.05
    alpha_avg: float = 0.045
    alpha_point: float = 0.05
    null_grid: tuple = tuple(i / 20 for i in range(21))
    rectangles: tuple = ()
    benefit_floor: float = 0.5
    max_iters: int = 400
    eta0: float = 1.0
    solver: str = "subgradient"   # or "cutting-plane" (LP master over the cuts)
    step_rule: str = "sqrt"       # "sqrt": eta0/sqrt(k); "adagrad": per-coordinate
    tol: float = 5e-4
    settle: int = 0   # extra feasible iterates to examine before stopping
    multiplier_cap: float = 1e5   # box bound for the LP master
    margin: float = 0.0           # internal bound tightening for the dual loop

    def __post_init__(self):
        if not 0.5 <= self.p <= 1.0:
            raise ValueError("p must lie in [0.5, 1]")
        check_alpha(self.alpha)
        check_alpha(self.alpha_avg, "alpha_avg", bound=True)
        check_alpha(self.alpha_point, "alpha_point", bound=True)
        if self.alpha_point > self.alpha:
            raise ValueError("pointwise bound must not exceed the test level")
        if self.n < 2 * self.burn_in:
            raise ValueError("horizon shorter than the burn-in")

    def constraint_names(self) -> list[str]:
        names = ["avg"]
        names += [f"point:{t0:g}" for t0 in self.null_grid]
        names += [f"rect:{i}" for i in range(len(self.rectangles))]
        return names


@dataclass
class AuditReport:
    """Exact constraint values of a concrete policy table."""

    objective: float
    avg_type_i: float
    pointwise: dict
    benefits: dict

    def violations(self, spec: CmdpSpec) -> dict:
        v = {"avg": self.avg_type_i - spec.alpha_avg}
        for t0, val in self.pointwise.items():
            v[f"point:{t0:g}"] = val - spec.alpha_point
        for i, bene in self.benefits.items():
            v[f"rect:{i}"] = spec.benefit_floor - bene
        return v

    def max_violation(self, spec: CmdpSpec) -> float:
        return max(self.violations(spec).values())

    def is_feasible(self, spec: CmdpSpec) -> bool:
        return self.max_violation(spec) <= spec.tol


@dataclass
class DualState:
    """Multipliers and the per-iteration trace of the dual solver."""

    multipliers: dict
    history: list = field(default_factory=list)


@dataclass
class CmdpResult:
    table: PolicyTable
    audit: AuditReport
    dual: DualState
    feasible: bool
    iterations: int
    balanced_audit: AuditReport


# ---------------------------------------------------------------------------
# backward recursion


def _uniform_table(spec: CmdpSpec) -> PolicyTable:
    codes = []
    for t in range(spec.n):
        fill = PolicyTable.BURN_IN_CODE if t < 2 * spec.burn_in else 1
        codes.append(np.full(make_layer(t, spec.burn_in, spec.n).size, fill, dtype=np.int8))
    return PolicyTable(spec.n, spec.burn_in, spec.p, tuple(codes))


def lagrangian_backward(reward: np.ndarray, spec: CmdpSpec) -> tuple[PolicyTable, float]:
    """Maximize the expected terminal reward over the restricted action set
    by backward recursion; ties prefer 1/2, then the low action."""
    n, b = spec.n, spec.burn_in
    lo, hi = 1.0 - spec.p, spec.p
    terminal = make_layer(n, b, n)
    if reward.shape != (terminal.size,):
        raise ValueError("reward does not match the terminal layer")
    if not np.all(np.isfinite(reward)):
        raise ValueError("terminal reward must be finite on the layer")

    codes: list[np.ndarray | None] = [None] * n
    v = np.asarray(reward, dtype=np.float64)
    for t in range(n - 1, 2 * b - 1, -1):
        wc, wd = Transition(t, b).pull(v)
        v_lo = lo * wc + (1.0 - lo) * wd
        v_hi = hi * wc + (1.0 - hi) * wd
        v_mid = 0.5 * (wc + wd)
        v = np.maximum(np.maximum(v_lo, v_hi), v_mid)
        codes[t] = np.where(v_mid == v, 1, np.where(v_lo == v, 0, 2)).astype(np.int8)
    for t in range(min(2 * b, n)):
        codes[t] = np.full(make_layer(t, b, n).size, PolicyTable.BURN_IN_CODE, dtype=np.int8)

    value = float(np.sum(np.exp(_burn_in_table(b)) * v))
    return PolicyTable(n, b, spec.p, tuple(codes)), value


def evaluate_backward(table: PolicyTable, reward: np.ndarray, spec: CmdpSpec) -> float:
    """Value of a fixed policy table for a terminal reward (no maximization);
    equals the forward-weighted terminal sum by construction."""
    n, b = spec.n, spec.burn_in
    v = np.asarray(reward, dtype=np.float64)
    for t in range(n - 1, 2 * b - 1, -1):
        wc, wd = Transition(t, b).pull(v)
        q = table.probs_for_epoch(t)
        v = q * wc + (1.0 - q) * wd
    return float(np.sum(np.exp(_burn_in_table(b)) * v))


# ---------------------------------------------------------------------------
# audit and dual solver


def _weighted_total(table: PathWeightTable, log_f: np.ndarray, log_w: np.ndarray) -> float:
    return float(np.exp(logsumexp_fixed(table.log_g + log_f + log_w)))


class _AuditContext:
    """Caches the terminal layer structure and measure weights so repeated
    audits inside the dual loop cost one forward sweep plus dot products."""

    def __init__(self, spec: CmdpSpec):
        self.spec = spec
        self.lay = make_layer(spec.n, spec.burn_in, spec.n)
        rej = asymptotic_reject_array(layer_wald_statistics(self.lay), spec.alpha)
        with np.errstate(divide="ignore"):
            self.log_rej = np.where(rej, 0.0, -np.inf)
        self.rej = rej.astype(np.float64)
        self.alt_lw = measure_log_weights(self.lay, AltUniform())
        self.null_lw = measure_log_weights(self.lay, NullUniform())
        self.point_lws = {
            t0: measure_log_weights(self.lay, PointNull(t0)) for t0 in spec.null_grid
        }
        _, _, n_c, n_d = self.lay.arrays()
        self.rect_lws = {}
        self.rect_log_frac = {}
        for i, rect in enumerate(spec.rectangles):
            self.rect_lws[i] = measure_log_weights(self.lay, rect)
            frac = (n_c if rect.superior_arm == "C" else n_d) / spec.n
            with np.errstate(divide="ignore"):
                self.rect_log_frac[i] = np.log(frac)

    def audit(self, gt: PathWeightTable) -> AuditReport:
        objective = _weighted_total(gt, self.log_rej, self.alt_lw)
        avg_t1 = _weighted_total(gt, self.log_rej, self.null_lw)
        pointwise = {
            t0: _weighted_total(gt, self.log_rej, lw)
            for t0, lw in self.point_lws.items()
        }
        benefits = {
            i: _weighted_total(gt, self.rect_log_frac[i], self.rect_lws[i])
            for i in self.rect_lws
        }
        return AuditReport(objective, avg_t1, pointwise, benefits)

    def constraint_integrands(self) -> dict:
        """Per-state terminal integrands aligned with the constraint names;
        each g-expectation is the constraint value with sign arranged as
        `value <= bound`."""
        out = {"avg": self.rej * np.exp(self.null_lw)}
        for t0, lw in self.point_lws.items():
            out[f"point:{t0:g}"] = self.rej * np.exp(lw)
        for i, lw in self.rect_lws.items():
            with np.errstate(invalid="ignore"):
                frac = np.exp(self.rect_log_frac[i])
            out[f"rect:{i}"] = -frac * np.exp(lw)
        return out


def audit_policy(table: PolicyTable, spec: CmdpSpec) -> AuditReport:
    """Exact objective and constraint values of a policy table under the
    embedded asymptotic Wald test."""
    policy = TablePolicy(n=spec.n, burn_in=spec.burn_in, table=table)
    return _AuditContext(spec).audit(forward_g(policy))


def _kelley_master(cuts: list[tuple[float, np.ndarray]], cap: float) -> np.ndarray | None:
    """Next multipliers from the LP master: minimize over the box the
    maximum of the affine dual under-estimators collected so far."""
    from scipy.optimize import linprog

    m = cuts[0][1].size
    a_ub = np.empty((len(cuts), m + 1))
    b_ub = np.empty(len(cuts))
    for j, (obj, viol) in enumerate(cuts):
        a_ub[j, :m] = -viol
        a_ub[j, m] = -1.0
        b_ub[j] = -obj
    c = np.zeros(m + 1)
    c[m] = 1.0
    bounds = [(0.0, cap)] * m + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        return None
    return res.x[:m]


def _bounds(spec: CmdpSpec) -> dict:
    out = {"avg": spec.alpha_avg}
    for t0 in spec.null_grid:
        out[f"point:{t0:g}"] = spec.alpha_point
    for i in range(len(spec.rectangles)):
        out[f"rect:{i}"] = -spec.benefit_floor
    return out


def solve_cmdp(spec: CmdpSpec) -> CmdpResult:
    """Projected-subgradient dual solver around the backward recursion.

    Each iteration maximizes the current Lagrangian exactly, audits the
    maximizer, and steps the multipliers along the constraint violations
    with step ``eta0 / sqrt(k)``.  Returns the best feasible iterate by
    objective, or the least-violating iterate flagged infeasible.

    The balanced (all-1/2) policy is audited up front for reference; it
    need not be feasible (under the standard configuration it is not),
    so infeasibility is only declared when no iterate meets the bounds.
    """
    ctx = _AuditContext(spec)
    balanced_audit = ctx.audit(
        forward_g(TablePolicy(n=spec.n, burn_in=spec.burn_in, table=_uniform_table(spec)))
    )
    base = ctx.rej * np.exp(ctx.alt_lw)
    integrands = ctx.constraint_integrands()
    bounds = _bounds(spec)
    names = spec.constraint_names()

    lam = {name: 0.0 for name in names}
    grad_sq = {name: 0.0 for name in names}
    cuts: list[tuple[float, np.ndarray]] = []
    dual = DualState(multipliers=lam)
    best_strict = None    # violations <= 0: preferred when attainable
    best_tol = None       # violations within the feasibility tolerance
    least_violating = None
    feasible_seen = 0

    for k in range(1, spec.max_iters + 1):
        reward = base.copy()
        for name in names:
            if lam[name] != 0.0:
                reward -= lam[name] * integrands[name]
        table, value = lagrangian_backward(reward, spec)
        gt = forward_g(TablePolicy(n=spec.n, burn_in=spec.burn_in, table=table))
        audit = ctx.audit(gt)
        violations = audit.violations(spec)
        worst = max(violations.values())
        dual_value = value + sum(lam[nm] * bounds[nm] for nm in names)
        dual.history.append(
            {"iteration": k, "objective": audit.objective,
             "max_violation": worst, "dual_value": dual_value,
             "multipliers": dict(lam)}
        )
        if least_violating is None or worst < least_violating[0]:
            least_violating = (worst, table, audit)
        if worst <= 0.0 and (best_strict is None or audit.objective > best_strict[0]):
            best_strict = (audit.objective, table, audit)
        if worst <= spec.tol:
            if best_tol is None or audit.objective > best_tol[0]:
                best_tol = (audit.objective, table, audit)
            feasible_seen += 1
            if feasible_seen > spec.settle:
                break
        # the dual loop chases bounds tightened by the margin, so iterate
        # oscillation lands on the feasible side of the true bounds
        tightened = {nm: violations[nm] + spec.margin for nm in names}
        if spec.solver == "cutting-plane":
            cuts.append((audit.objective, np.array([tightened[nm] for nm in names])))
            new_lam = _kelley_master(cuts, spec.multiplier_cap)
            if new_lam is not None:
                lam.update(zip(names, new_lam))
        elif spec.step_rule == "adagrad":
            for name in names:
                grad_sq[name] += tightened[name] ** 2
                if grad_sq[name] > 0.0:
                    step = spec.eta0 / np.sqrt(grad_sq[name])
                    lam[name] = max(0.0, lam[name] + step * tightened[name])
        else:
            eta = spec.eta0 / np.sqrt(k)
            for name in names:
                lam[name] = max(0.0, lam[name] + eta * tightened[name])

    best = best_strict if best_strict is not None else best_tol
    if best is not None:
        _, table, audit = best
        return CmdpResult(table, audit, dual, True, len(dual.history), balanced_audit)
    _, table, audit = least_violating
    return CmdpResult(table, audit, dual, False, len(dual.history), balanced_audit)
