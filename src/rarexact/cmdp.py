"""Constrained-MDP design of allocation policies: maximize Bayesian
average power of the embedded asymptotic Wald test subject to average,
pointwise, and (optionally) patient-benefit constraints.

The Lagrangian is maximized by a backward recursion over the state
layers, one :meth:`~rarexact.states.Transition.pull` per layer (outcome
likelihoods live entirely in the terminal reward, so both outcome branches
carry weight one).  Its maximizer is a
:class:`~rarexact.policies.PolicyTable` holding, for each adaptive epoch
``2b .. n - 1``, the control probability ``1 - p``, ``1/2`` or ``p`` of
every state.  The multipliers follow a projected subgradient with
per-coordinate AdaGrad steps until a duality-gap certificate or the
iteration limit stops the loop (:func:`solve_cmdp`).

The objective and the constraints are expectations under priors on
``(theta_C, theta_D)``.  Within a block of the terminal layer a prior's
outcome weight is a product of per-arm kernel rows, so one set of
per-block tables serves both uses: the reward contracts them over the
priors, the audit over the block's states (:class:`_AuditContext`).

The solve holds its transitions, one per layer, for the whole loop: each
is used by every backward recursion and every forward audit sweep, so
from its second use on it gathers through its index plan instead of
looping over blocks (:class:`~rarexact.states.Transition`), with the same
bits.  The plans are freed with the transitions when the solve returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .engine import PathWeightTable, _block_table, _sweep, forward_g
from .numerics import binomial_log_terms, check_alpha, gammaln_table
from .policies import PolicyTable, check_action_bound, check_burn_in
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


def _binomial_tails(x: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``(U, L)`` with ``U[m, j] = P(Bin(m, x) >= j)`` and
    ``L[m, j] = P(Bin(m, x) < j)`` for ``m, j`` in ``[0, size)``.  Each
    tail is a cumulative sum of positive pmf terms from its own end, so
    both are accurate in relative terms however small."""
    m = np.arange(size)[:, None]
    k = np.arange(size)[None, :]
    g = gammaln_table(size + 1)
    inside = k <= m
    m_k = np.where(inside, m - k, 0)
    ln_s, ln_f = binomial_log_terms(x, size - 1)
    pmf = np.where(inside, np.exp(g[m + 1] - g[k + 1] - g[m_k + 1] + ln_s + ln_f[m_k]), 0.0)
    upper = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
    lower = np.zeros_like(pmf)
    np.cumsum(pmf[:, :-1], axis=1, out=lower[:, 1:])
    return upper, lower


def _interval_masses(lo: float, hi: float, size: int) -> np.ndarray:
    """``M[n, s] = P(lo < X < hi)`` for ``X ~ Beta(s + 1, n - s + 1)`` and
    ``0 <= s <= n < size``.

    For integer parameters the Beta cdf is a binomial tail,
    ``I_x(s + 1, n - s + 1) = P(Bin(n + 1, x) >= s + 1)``, so the mass is
    a difference of upper tails, or equally of lower tails.  The upper
    tails are taken where ``P_hi(X >= s + 1) <= 1/2`` and the lower ones
    elsewhere, so the larger term of the difference is never a rounded
    ``1 - tiny``."""
    u_lo, l_lo = (t[1:, 1:] for t in _binomial_tails(lo, size + 1))
    u_hi, l_hi = (t[1:, 1:] for t in _binomial_tails(hi, size + 1))
    return np.maximum(np.where(u_hi <= 0.5, u_hi - u_lo, l_lo - l_hi), 0.0)


def _arm_kernel(prior, size: int) -> tuple[np.ndarray, np.ndarray]:
    """One arm's kernel table over group sizes ``m < size``: ``rows[m, s]``,
    ``s <= m``, is the prior mean of ``theta**s * (1 - theta)**(m - s)``
    over the row's largest one, whose log is ``log_scales[m]``.  The prior
    is a point ``theta0`` or the uniform one on an interval ``(lo, hi)``
    (the mass of :func:`_interval_masses` times the Beta function over the
    length); ``None`` gives unit rows."""
    if prior is None:
        return np.ones((size, size)), np.zeros(size)
    m, s = np.ogrid[:size, :size]
    k = np.minimum(s, m)    # s, clipped to the row
    if isinstance(prior, tuple):
        g = gammaln_table(size + 2)
        beta = np.exp(g[k + 1] + g[m - k + 1] - g[m + 2])
        w = _interval_masses(*prior, size) * beta / (prior[1] - prior[0])
    else:
        ln_t, ln_1t = binomial_log_terms(prior, size - 1)
        w = np.exp(ln_t[k] + ln_1t[m - k])
    w = np.where(s <= m, w, 0.0)
    top = w.max(axis=1)
    return w / top[:, None], np.log(top)


def _arm_priors(measure) -> tuple:
    """The control and the developmental prior of ``measure``, as
    :func:`_arm_kernel` takes them.  The null prior's weight ``B(S + 1, n -
    S + 1)`` does not factor, so it gets unit rows (see
    :class:`_AuditContext`)."""
    if isinstance(measure, Rectangle):
        return (measure.l_c, measure.u_c), (measure.l_d, measure.u_d)
    if isinstance(measure, PointNull):
        return measure.theta0, measure.theta0
    if isinstance(measure, AltUniform):
        return (0.0, 1.0), (0.0, 1.0)
    if isinstance(measure, NullUniform):
        return None, None
    raise TypeError(f"unknown measure {measure!r}")


def measure_log_weights(lay: Layer, measure) -> np.ndarray:
    """Log of the outcome likelihood of every state of a layer, integrated
    over the prior ``measure`` on ``(theta_C, theta_D)``: gathered from its
    kernel tables, or ``ln B(S + 1, t - S + 1)`` for the null prior, block
    by block."""
    if isinstance(measure, NullUniform):
        g = gammaln_table(lay.t + 3)
        return lay.tabulate(lambda s_c, s_d, n_c, n_d:
                            g[s_c + s_d + 1] + g[lay.t - s_c - s_d + 1] - g[lay.t + 2])
    (rows_c, log_c), (rows_d, log_d) = (_arm_kernel(p, lay.t + 1) for p in _arm_priors(measure))
    with np.errstate(divide="ignore"):
        return lay.tabulate(lambda s_c, s_d, n_c, n_d:
                            np.log(rows_c[n_c, s_c] * rows_d[n_d, s_d]) + (log_c[n_c] + log_d[n_d]))


# ---------------------------------------------------------------------------
# specification and audit


@dataclass(frozen=True)
class CmdpSpec:
    """Problem data: horizon, action set, embedded test level, and the
    constraint measures with their bounds (see :meth:`constraints`).

    The dual solver runs at most ``max_iters`` iterations.  ``tol`` is a
    fixed constant, not a setting: the duality gap at which it stops
    early (see :func:`solve_cmdp`)."""

    n: int
    burn_in: int
    p: float = 0.95
    alpha: float = 0.05
    alpha_avg: float = 0.045
    alpha_point: float = 0.05
    null_grid: tuple = tuple(i / 20 for i in range(21))
    rectangles: tuple = ()
    max_iters: int = 400
    benefit_floor: ClassVar[float] = 0.5
    tol: ClassVar[float] = 5e-4

    def __post_init__(self):
        check_action_bound(self.p)
        check_alpha(self.alpha)
        check_alpha(self.alpha_avg, "alpha_avg", bound=True)
        check_alpha(self.alpha_point, "alpha_point", bound=True)
        if self.alpha_point > self.alpha:
            raise ValueError("pointwise bound must not exceed the test level")
        check_burn_in(self.n, self.burn_in)
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


# ---------------------------------------------------------------------------
# backward recursion


def lagrangian_backward(reward: np.ndarray, spec: CmdpSpec) -> tuple[PolicyTable, float]:
    """Maximize the expected terminal reward over the restricted action set
    by backward recursion; ties prefer 1/2, then the low action.  Returns
    the maximizing table, whose control probabilities at epochs ``2b .. n
    - 1`` are each ``1 - p``, ``1/2`` or ``p``, and its value."""
    b = spec.burn_in
    return _backward(reward, spec, (Transition(t, b) for t in range(spec.n - 1, 2 * b - 1, -1)))


def _backward(reward: np.ndarray, spec: CmdpSpec, steps) -> tuple[PolicyTable, float]:
    """:func:`lagrangian_backward` over ``steps``, the transitions from
    epoch ``n - 1`` down to ``2b`` in order; :func:`solve_cmdp` passes the
    ones it holds."""
    n, b = spec.n, spec.burn_in
    lo, hi = 1.0 - spec.p, spec.p
    terminal = make_layer(n, b, n)
    if reward.shape != (terminal.size,):
        raise ValueError("reward does not match the terminal layer")
    if not np.all(np.isfinite(reward)):
        raise ValueError("terminal reward must be finite on the layer")

    probs: list[np.ndarray | None] = [None] * (n - 2 * b)
    high_low = np.array([hi, lo])   # taken at False and True
    v = np.asarray(reward, dtype=np.float64)
    for step in steps:
        wc, wd = step.pull(v)
        v_lo = lo * wc + (1.0 - lo) * wd
        v_hi = hi * wc + (1.0 - hi) * wd
        v_mid = wc + wd
        v_mid *= 0.5
        v = np.maximum(v_lo, v_hi)
        np.maximum(v, v_mid, out=v)
        # p where the low action is short of the best, then 1/2 wins ties
        q = probs[step.src.t - 2 * b] = high_low.take(v_lo == v)
        q[v_mid == v] = 0.5

    value = float(np.sum(np.exp(_block_table(b, b)) * v))
    return PolicyTable(n, b, spec.p, tuple(probs)), value


# ---------------------------------------------------------------------------
# audit and dual solver


class _AuditContext:
    """One problem's objective (point 0) and constraints (point ``1 + j``,
    in :meth:`CmdpSpec.constraints` order and sign) as per-block tables of
    ``O(K n**2)`` numbers.  In block ``(n_c, n_d)`` a point's outcome
    weight is a product of kernel rows (:func:`_arm_kernel`): ``U_c`` holds
    every point's control rows, ``W`` its developmental rows times its row
    scales and factor, split into the points that weight the rejection
    indicator and the rectangles, which weight one by minus the superior
    arm's share ``n_a / n``, as :func:`~rarexact.operating.profile` takes
    the benefit.  The null prior's weight does not factor: its point reads
    the dense column ``rej * B(S + 1, n - S + 1)``.  The reward contracts
    the tables over the points, the audit over the states."""

    def __init__(self, spec: CmdpSpec):
        self.constraints = spec.constraints()
        self.layer = lay = make_layer(spec.n, spec.burn_in, spec.n)
        rej = asymptotic_reject_array(layer_wald_statistics(lay), spec.alpha).astype(np.float64)
        self.null_column = rej * np.exp(measure_log_weights(lay, NullUniform()))
        measures = [AltUniform()] + [m for _, m, _ in self.constraints]
        priors = [_arm_priors(m) for m in measures]
        unique = list(dict.fromkeys(p for pair in priors for p in pair))
        kernels = [_arm_kernel(p, spec.n + 1) for p in unique]
        rows, logs = (np.stack(k, axis=1) for k in zip(*kernels))    # (size, unique, ...)
        pick_c, pick_d = (np.array([unique.index(p[arm]) for p in priors]) for arm in (0, 1))
        rect = np.array([isinstance(m, Rectangle) for m in measures])
        self._null = np.array([isinstance(m, NullUniform) for m in measures])
        arm = np.array([isinstance(m, Rectangle) and m.superior_arm == "D" for m in measures],
                       dtype=np.intp)
        split = np.array([~rect & ~self._null, rect])[:, :, None]
        self._blocks = []
        for n_c, n_d, sl in lay.blocks():
            u_c, u_d = rows[n_c, pick_c, :n_c + 1], rows[n_d, pick_d, :n_d + 1]
            factors = np.where(rect, -np.array([n_c, n_d])[arm] / spec.n, 1.0)
            scales = np.exp(logs[n_c, pick_c] + logs[n_d, pick_d]) * factors
            self._blocks.append((sl, u_c, split * scales[:, None] * u_d,
                                 rej[sl].reshape(n_c + 1, n_d + 1)))

    def reward(self, lam: np.ndarray) -> np.ndarray:
        """The objective's integrand minus ``lam`` times the constraints'.
        With ``c = (1, -lam)``, a block's is ``rej * (U_c.T @ diag(c) @
        W_rej) + U_c.T @ diag(c) @ W_rect``; the null column is added
        last."""
        c = np.concatenate(([1.0], -lam))[:, None]
        out = np.empty(self.layer.size)
        for sl, u_c, w, rej in self._blocks:
            x = u_c.T @ (c * w)
            out[sl] = (x[0] * rej + x[1]).ravel()
        return out + c[self._null].sum() * self.null_column

    def audit(self, gt: PathWeightTable) -> AuditReport:
        """Every point's expectation under ``gt``: per reachable block, with
        ``g`` the path weights over their largest one, ``U_c @ [g * rej |
        g]`` times ``W``, summed and times that largest weight; the null
        point adds its column's sum against the path weights."""
        totals = np.zeros(self._null.size)
        for sl, u_c, w, rej in self._blocks:
            scale = gt.log_g[sl].max()
            if scale == -np.inf:
                continue
            g = np.exp(gt.log_g[sl] - scale).reshape(rej.shape)
            x = (u_c @ np.hstack((g * rej, g))).reshape(-1, 2, rej.shape[1])
            totals += np.einsum("pkj,kpj->p", x, w) * np.exp(scale)
        # not a BLAS dot, whose reduction OpenBLAS splits over its threads
        top = gt.log_g.max()
        totals[self._null] += (self.null_column * np.exp(gt.log_g - top)).sum() * np.exp(top)
        values = tuple(totals[1:].tolist())
        measures = [m for _, m, _ in self.constraints]
        pointwise = {m.theta0: v for m, v in zip(measures, values) if isinstance(m, PointNull)}
        benefits = dict(enumerate(-v for m, v in zip(measures, values) if isinstance(m, Rectangle)))
        return AuditReport(float(totals[0]), values[0], pointwise, benefits, values)


def audit_policy(table: PolicyTable, spec: CmdpSpec) -> AuditReport:
    """Exact objective and constraint values of a policy table under the
    embedded asymptotic Wald test."""
    if (table.n, table.burn_in) != (spec.n, spec.burn_in):
        raise ValueError("table horizon/burn-in mismatch")
    # the sweep first, before freeing the context's stacks raises glibc's mmap threshold
    gt = forward_g(table)
    return _AuditContext(spec).audit(gt)


def solve_cmdp(spec: CmdpSpec) -> CmdpResult:
    """Projected-subgradient dual solver around the backward recursion.

    Each iteration maximizes the Lagrangian at the current multipliers
    exactly (:func:`lagrangian_backward`), audits the maximizer with a
    forward sweep, and takes a per-coordinate AdaGrad step along the
    constraint violations ``v``:
    ``lam_j <- max(0, lam_j + v_j / sqrt(sum of v_j**2 so far))``.
    The Lagrangian maximum plus ``lam . bounds`` is a dual value, an upper
    bound on the objective of every feasible design; the loop stops once
    the best feasible objective is within ``tol`` of the least dual value
    so far, and otherwise after ``max_iters`` iterations.

    Returns the feasible iterate with the largest objective, or, if no
    iterate meets every bound, the least-violating one.  One running best
    holds it: each iterate is ranked by ``(feasible, objective if feasible
    else -worst violation)`` and replaces the best only on a strictly
    greater rank, so the first of tied iterates is kept.  ``feasible``
    means ``audit.max_violation(spec) <= 0``.  The reward is the
    objective's integrand minus ``lam`` times the constraints', and the
    constraint values are the constraints' expectations under the
    maximizer, both from the same kernel tables (:class:`_AuditContext`).
    """
    ctx = _AuditContext(spec)
    # held for the whole loop: from its second use a transition gathers
    steps = [Transition(t, spec.burn_in) for t in range(2 * spec.burn_in, spec.n)]
    names = [name for name, _, _ in ctx.constraints]
    bounds = np.array([bound for _, _, bound in ctx.constraints])

    lam = np.zeros(len(names))
    grad_sq = np.zeros(len(names))
    history = []
    min_dual = np.inf
    best = None    # (rank, table, audit)

    for k in range(1, spec.max_iters + 1):
        table, value = _backward(ctx.reward(lam), spec, reversed(steps))
        audit = ctx.audit(_sweep(table, steps))
        v = audit.violations(spec)
        worst = float(v.max())
        dual_value = value + float(lam @ bounds)
        min_dual = min(min_dual, dual_value)
        history.append(
            {"iteration": k, "objective": audit.objective,
             "max_violation": worst, "dual_value": dual_value,
             "multipliers": dict(zip(names, lam.tolist()))}
        )
        rank = (worst <= 0.0, audit.objective if worst <= 0.0 else -worst)
        if best is None or rank > best[0]:
            best = (rank, table, audit)
        # not held, unless it is the best, while the next recursion runs
        del table
        feasible, objective = best[0]
        if feasible and objective >= min_dual - spec.tol:
            break
        grad_sq += v * v
        step = np.divide(v, np.sqrt(grad_sq), out=np.zeros_like(v), where=grad_sq > 0.0)
        lam = np.maximum(0.0, lam + step)

    dual = DualState(dict(zip(names, lam.tolist())), history)
    (feasible, _), table, audit = best
    return CmdpResult(table, audit, dual, feasible, len(history))
