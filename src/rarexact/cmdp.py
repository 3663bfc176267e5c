"""Constrained-MDP design of allocation policies: maximize Bayesian
average power of the embedded asymptotic Wald test subject to average,
pointwise, and (optionally) patient-benefit constraints.

The Lagrangian is maximized by a backward recursion over the state
layers, one :meth:`~rarexact.states.Transition.pull` per layer (outcome
likelihoods live entirely in the terminal reward, so both outcome branches
carry weight one), and the multipliers follow a projected subgradient with
per-coordinate AdaGrad steps until a duality-gap certificate or the
iteration limit stops the loop (:func:`solve_cmdp`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy.special import betainc

from .engine import PathWeightTable, _burn_in_table, forward_g, layer_log_likelihood
from .numerics import check_alpha, gammaln_table, logsumexp_fixed
from .policies import PolicyTable, TablePolicy
from .states import Layer, Transition, layer as make_layer
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
    """Log of the outcome likelihood of every state of a layer, integrated
    over the prior ``measure`` on ``(theta_C, theta_D)``."""
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


# ---------------------------------------------------------------------------
# specification and audit


@dataclass(frozen=True)
class CmdpSpec:
    """Problem data: horizon, action set, embedded test level, and the
    constraint measures with their bounds (see :meth:`constraints`).

    The dual solver runs at most ``max_iters`` iterations.  ``tol`` is a
    fixed constant, not a setting: it is both the slack the solver
    accepts on the bounds when no iterate meets them exactly and the
    duality gap at which it stops early (see :func:`solve_cmdp`)."""

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
    tol: ClassVar[float] = 5e-4

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
        if self.max_iters < 1:
            raise ValueError(f"max_iters = {self.max_iters!r} is not a positive count")
        names = [name for name, _, _ in self.constraints()]
        if len(set(names)) < len(names):
            raise ValueError(f"null_grid {self.null_grid!r} repeats a point (to 6 digits)")

    def constraints(self) -> tuple:
        """The constraint set in its one fixed order, as ``(name, measure,
        bound)``: the average type-I error under :class:`NullUniform`, the
        type-I error at each null point, and the patient benefit on each
        rectangle.  Each reads ``value <= bound``, so a benefit and its
        floor enter negated."""
        out = [("avg", NullUniform(), self.alpha_avg)]
        out += [(f"point:{t0:g}", PointNull(t0), self.alpha_point) for t0 in self.null_grid]
        out += [(f"rect:{i}", r, -self.benefit_floor) for i, r in enumerate(self.rectangles)]
        return tuple(out)


@dataclass
class AuditReport:
    """Exact objective and constraint values of a concrete policy table.

    ``values`` holds the constraint values in :meth:`CmdpSpec.constraints`
    order and sign; ``avg_type_i``, ``pointwise`` (by null point) and
    ``benefits`` (by rectangle index) report the same numbers by kind."""

    objective: float
    avg_type_i: float
    pointwise: dict
    benefits: dict
    values: tuple

    def violations(self, spec: CmdpSpec) -> np.ndarray:
        """``value - bound`` per constraint, in constraint order."""
        return np.array(self.values) - np.array([bound for _, _, bound in spec.constraints()])

    def max_violation(self, spec: CmdpSpec) -> float:
        return float(self.violations(spec).max())


@dataclass
class DualState:
    """Final multipliers (by constraint name) and the per-iteration trace
    of the dual solver."""

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
    """Caches the terminal layer structure and the per-constraint terminal
    terms so repeated audits inside the dual loop cost one forward sweep
    plus dot products."""

    def __init__(self, spec: CmdpSpec):
        self.constraints = spec.constraints()
        self.lay = make_layer(spec.n, spec.burn_in, spec.n)
        rej = asymptotic_reject_array(layer_wald_statistics(self.lay), spec.alpha)
        with np.errstate(divide="ignore"):
            self.log_rej = np.where(rej, 0.0, -np.inf)
        self.rej = rej.astype(np.float64)
        self.alt_lw = measure_log_weights(self.lay, AltUniform())
        _, _, n_c, n_d = self.lay.arrays()
        # per constraint (log f, log w, sign): its value is sign * E_g[f w],
        # f the rejection indicator, or for a benefit the superior arm's share
        self.terms = []
        for _, measure, _ in self.constraints:
            log_f, sign = self.log_rej, 1.0
            if isinstance(measure, Rectangle):
                with np.errstate(divide="ignore"):
                    log_f = np.log((n_c if measure.superior_arm == "C" else n_d) / spec.n)
                sign = -1.0
            self.terms.append((log_f, measure_log_weights(self.lay, measure), sign))
        self.point_lws = {
            measure.theta0: log_w
            for (_, measure, _), (_, log_w, _) in zip(self.constraints, self.terms)
            if isinstance(measure, PointNull)
        }

    def audit(self, gt: PathWeightTable) -> AuditReport:
        objective = _weighted_total(gt, self.log_rej, self.alt_lw)
        values = tuple(sign * _weighted_total(gt, log_f, log_w) for log_f, log_w, sign in self.terms)
        pointwise, benefits = {}, {}
        for (_, measure, _), value in zip(self.constraints, values):
            if isinstance(measure, PointNull):
                pointwise[measure.theta0] = value
            elif isinstance(measure, Rectangle):
                benefits[len(benefits)] = -value
        return AuditReport(objective, values[0], pointwise, benefits, values)

    def integrands(self) -> list[np.ndarray]:
        """Per constraint, the linear-domain terminal integrand whose
        g-expectation is the constraint value."""
        return [sign * np.exp(log_f) * np.exp(log_w) for log_f, log_w, sign in self.terms]


def audit_policy(table: PolicyTable, spec: CmdpSpec) -> AuditReport:
    """Exact objective and constraint values of a policy table under the
    embedded asymptotic Wald test."""
    policy = TablePolicy(n=spec.n, burn_in=spec.burn_in, table=table)
    return _AuditContext(spec).audit(forward_g(policy))


def solve_cmdp(spec: CmdpSpec) -> CmdpResult:
    """Projected-subgradient dual solver around the backward recursion.

    Each iteration maximizes the Lagrangian at the current multipliers
    exactly (:func:`lagrangian_backward`), audits the maximizer with a
    forward sweep, and takes a per-coordinate AdaGrad step along the
    constraint violations ``v``:
    ``lam_j <- max(0, lam_j + v_j / sqrt(sum of v_j**2 so far))``.
    The Lagrangian maximum plus ``lam . bounds`` is a dual value, an upper
    bound on the objective of every feasible design; the loop stops once
    the best strictly feasible objective is within ``tol`` of the least
    dual value so far, and otherwise after ``max_iters`` iterations.

    Returns the strictly feasible iterate with the largest objective; if
    there is none, the iterate within ``tol`` of the bounds with the
    largest objective; if there is none either, the least-violating
    iterate, flagged infeasible.  The balanced (all-1/2) policy is audited
    up front for reference; it need not be feasible (under the standard
    configuration it is not).
    """
    ctx = _AuditContext(spec)
    balanced_audit = ctx.audit(
        forward_g(TablePolicy(n=spec.n, burn_in=spec.burn_in, table=_uniform_table(spec)))
    )
    base = ctx.rej * np.exp(ctx.alt_lw)
    integrands = ctx.integrands()
    names = [name for name, _, _ in ctx.constraints]
    bounds = np.array([bound for _, _, bound in ctx.constraints])

    lam = np.zeros(len(names))
    grad_sq = np.zeros(len(names))
    history = []
    min_dual = np.inf
    best_strict = None    # (objective, table, audit) with violations <= 0
    best_tol = None       # the same within the tolerance
    least_violating = None

    for k in range(1, spec.max_iters + 1):
        reward = base.copy()
        for lam_j, f_j in zip(lam, integrands):
            if lam_j != 0.0:
                reward -= lam_j * f_j
        table, value = lagrangian_backward(reward, spec)
        audit = ctx.audit(forward_g(TablePolicy(n=spec.n, burn_in=spec.burn_in, table=table)))
        v = audit.violations(spec)
        worst = float(v.max())
        dual_value = value + float(lam @ bounds)
        min_dual = min(min_dual, dual_value)
        history.append(
            {"iteration": k, "objective": audit.objective,
             "max_violation": worst, "dual_value": dual_value,
             "multipliers": dict(zip(names, lam.tolist()))}
        )
        if least_violating is None or worst < least_violating[0]:
            least_violating = (worst, table, audit)
        if worst <= 0.0 and (best_strict is None or audit.objective > best_strict[0]):
            best_strict = (audit.objective, table, audit)
        if worst <= spec.tol and (best_tol is None or audit.objective > best_tol[0]):
            best_tol = (audit.objective, table, audit)
        if best_strict is not None and best_strict[0] >= min_dual - spec.tol:
            break
        grad_sq += v * v
        step = np.divide(v, np.sqrt(grad_sq), out=np.zeros_like(v), where=grad_sq > 0.0)
        lam = np.maximum(0.0, lam + step)

    dual = DualState(dict(zip(names, lam.tolist())), history)
    best = best_strict or best_tol
    feasible = best is not None
    _, table, audit = best if feasible else least_violating
    return CmdpResult(table, audit, dual, feasible, len(history), balanced_audit)
