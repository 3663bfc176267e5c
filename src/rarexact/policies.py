"""Allocation policies: the probability of assigning the next participant
to the control arm, computed for every state of an epoch layer at once.

Every policy is defined for epochs ``t >= 2b``; the first ``2b``
participants are always allocated by the canonical alternating burn-in,
which the engine and simulator handle directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import gammaln_table
from .states import Layer, TrialState, layer as make_layer

# Allocation probabilities are kept away from 0 and 1 so no state becomes
# absorbing and every log weight stays finite.
DBCD_CLIP = (0.01, 0.99)


def neyman_target(theta_c, theta_d):
    """Allocation proportion to control that minimizes the variance of the
    difference-in-means estimate (proportional to per-arm standard
    deviations); elementwise over arrays of rates."""
    if not np.all((0.0 < theta_c) & (theta_c < 1.0) & (0.0 < theta_d) & (theta_d < 1.0)):
        raise ValueError("neyman_target requires rates strictly inside (0, 1)")
    sc = np.sqrt(theta_c * (1.0 - theta_c))
    sd = np.sqrt(theta_d * (1.0 - theta_d))
    return sc / (sc + sd)


def _shrunk_estimates(s_c, s_d, n_c, n_d):
    """Per-arm success-rate estimates shrunk half a success toward 1/2,
    keeping them strictly inside (0, 1) so the targeting map is defined."""
    tc = (s_c + 0.5) / (n_c + 1.0)
    td = (s_d + 0.5) / (n_d + 1.0)
    return tc, td


def _dbcd_alloc(rho, r, gamma):
    """Biased-coin allocation function steering the realized proportion
    ``r`` toward the target ``rho``."""
    w1 = rho * (rho / r) ** gamma
    w0 = (1.0 - rho) * ((1.0 - rho) / (1.0 - r)) ** gamma
    return w1 / (w1 + w0)


@dataclass(frozen=True)
class Policy:
    """Base class; concrete policies implement :meth:`layer_control_probs`,
    and :meth:`control_prob` reads one state's entry of it."""

    n: int
    burn_in: int

    is_symmetric = False

    def control_prob(self, state: TrialState) -> float:
        """Allocation probability of one state past the burn-in and before
        the horizon."""
        if state.epoch < 2 * self.burn_in:
            raise ValueError("states inside the burn-in are allocated canonically")
        if state.epoch >= self.n:
            raise ValueError(f"epoch {state.epoch} allocates no one: the horizon is {self.n}")
        lay = make_layer(state.epoch, self.burn_in, self.n)
        return float(self.layer_control_probs(lay)[lay.index(state)])

    def layer_control_probs(self, lay: Layer) -> np.ndarray:
        """Allocation probabilities for every state of ``lay`` in canonical
        order; only called for epochs ``2b <= t < n``."""
        raise NotImplementedError

    def layer_log_probs(self, lay: Layer) -> tuple[np.ndarray, np.ndarray]:
        """``(log q, log(1 - q))`` per state; subclasses override when the
        tails need more accuracy than ``log(q)`` provides."""
        q = self.layer_control_probs(lay)
        with np.errstate(divide="ignore"):
            return np.log(q), np.log1p(-q)

    def descriptor(self) -> dict:
        return {"kind": type(self).__name__, "n": self.n, "burn_in": self.burn_in}


@dataclass(frozen=True)
class EqualAllocation(Policy):
    """Fixed 50/50 design; the engine uses its closed-form terminal weights,
    so the per-state probability is only a sentinel."""

    is_symmetric = True

    def layer_control_probs(self, lay: Layer) -> np.ndarray:
        return np.full(lay.size, 0.5)


@dataclass(frozen=True)
class DbcdNeyman(Policy):
    """Doubly adaptive biased coin targeting the Neyman proportion.

    The coin steers the realized control proportion, so it needs both
    arms non-empty: the burn-in must be at least one per arm."""

    gamma: float = 2.0

    is_symmetric = True

    def __post_init__(self):
        if self.burn_in < 1:
            raise ValueError(f"DBCD needs a burn-in of at least 1 per arm, not {self.burn_in}")

    def layer_control_probs(self, lay: Layer) -> np.ndarray:
        s_c, s_d, n_c, n_d = lay.arrays()
        tc, td = _shrunk_estimates(s_c, s_d, n_c, n_d)
        rho = neyman_target(tc, td)
        q = _dbcd_alloc(rho, n_c / lay.t, self.gamma)
        return np.clip(q, *DBCD_CLIP)

    def descriptor(self) -> dict:
        return dict(super().descriptor(), gamma=self.gamma)


@dataclass(frozen=True)
class TemperedDbcdNeyman(DbcdNeyman):
    """DBCD Neyman allocation tempered to never favor the arm currently
    estimated inferior: outside the agreeing branches the target is 1/2."""

    is_symmetric = True

    def layer_control_probs(self, lay: Layer) -> np.ndarray:
        q = super().layer_control_probs(lay)
        s_c, s_d, n_c, n_d = lay.arrays()
        tc, td = _shrunk_estimates(s_c, s_d, n_c, n_d)
        keep = ((q > 0.5) & (tc > td)) | ((q < 0.5) & (td > tc))
        return np.where(keep, q, 0.5)


@dataclass(frozen=True)
class BayesianRar(Policy):
    """Power-tuned posterior probability that control is the better arm,
    under independent uniform priors.

    The tuning exponent is ``u / (2n)`` with ``u`` the one-based index of
    the participant being allocated (the state epoch plus one).

    :meth:`layer_log_probs` works block by block.  In the ``(n_c, n_d)``
    block, ``P(s_c, s_d) = P(theta_C > theta_D | state)`` starts from the
    closed form ``P(0, s_d) = B(a2, b2 + n_c + 1) / B(a2, b2)``, with
    ``a2 = s_d + 1`` and ``b2 = n_d - s_d + 1``, and moves one control
    failure to a success at a time by the exact two-term recurrence
    ``P(k + 1, s_d) = (P(k, s_d) + step_a(k, s_d)) + step_b(k, s_d)``.
    Row 0 and the increments ``step_a``, ``step_b`` of every ``k``, in
    alternate rows, form one ``(2 n_c + 1, n_d + 1)`` array, and one
    ``cumsum`` down its columns gives ``P`` in its even rows.  ``cumsum``
    adds in sequence along the axis, so each even row is formed by the very
    additions of the recurrence, in its order, and the design is
    bit-stable.
    """

    def _exponent(self, epoch: int) -> float:
        return (epoch + 1) / (2.0 * self.n)

    is_symmetric = True

    def layer_log_probs(self, lay: Layer) -> tuple[np.ndarray, np.ndarray]:
        g = gammaln_table(2 * lay.t + 8)
        e = self._exponent(lay.t)

        def lbeta(a, b):
            return g[a] + g[b] - g[a + b]

        log_q = np.empty(lay.size)
        log_1q = np.empty(lay.size)
        for n_c, n_d, sl in lay.blocks():
            a2 = np.arange(1, n_d + 2)          # s_d + 1, along a row
            b2 = n_d + 2 - a2                   # n_d - s_d + 1
            lb2 = lbeta(a2, b2)
            k = np.arange(n_c)[:, None]         # s_c = k -> k + 1, down a column
            inc = np.empty((2 * n_c + 1, n_d + 1))
            inc[0] = np.exp(lbeta(a2, b2 + n_c + 1) - lb2)
            a1, b1 = k + 1, n_c - k + 1
            inc[1::2] = np.exp(lbeta(a1 + a2, b1 + b2) - np.log(a1) - lbeta(a1, b1) - lb2)
            a1, b1 = k + 2, n_c - k
            inc[2::2] = np.exp(lbeta(a1 + a2, b1 + b2) - np.log(b1) - lbeta(a1, b1) - lb2)
            p = np.cumsum(inc, axis=0)[::2].ravel()
            np.clip(p, 0.0, 1.0, out=p)
            with np.errstate(divide="ignore"):
                a = e * np.log(p)
                c = e * np.log1p(-p)
            m = np.logaddexp(a, c)
            log_q[sl] = a - m
            log_1q[sl] = c - m
        return log_q, log_1q

    def layer_control_probs(self, lay: Layer) -> np.ndarray:
        return np.exp(self.layer_log_probs(lay)[0])


@dataclass(frozen=True)
class PolicyTable:
    """Dense per-layer action codes of an optimized design.

    Codes: ``0 -> 1 - p``, ``1 -> 1/2``, ``2 -> p``; layers before the end
    of the burn-in carry the sentinel ``-1``.
    """

    n: int
    burn_in: int
    p: float
    codes: tuple = field(repr=False)  # one int8 array per epoch 0 .. n-1

    BURN_IN_CODE = -1

    def __post_init__(self):
        if not 0.5 <= self.p <= 1.0:
            raise ValueError("maximum randomized allocation rate must lie in [0.5, 1]")
        if len(self.codes) != self.n:
            raise ValueError("need one code array per epoch 0 .. n-1")

    @property
    def action_probs(self) -> np.ndarray:
        return np.array([1.0 - self.p, 0.5, self.p])

    def probs_for_epoch(self, t: int) -> np.ndarray:
        """Control-allocation probabilities for every state of layer ``t``."""
        codes = self.codes[t]
        if np.any(codes == self.BURN_IN_CODE):
            raise ValueError(f"epoch {t} is inside the burn-in")
        return self.action_probs[codes]

    def __eq__(self, other):
        if not isinstance(other, PolicyTable):
            return NotImplemented
        return (
            (self.n, self.burn_in, self.p) == (other.n, other.burn_in, other.p)
            and all(np.array_equal(a, b) for a, b in zip(self.codes, other.codes))
        )


@dataclass(frozen=True)
class TablePolicy(Policy):
    """Policy backed by a :class:`PolicyTable` lookup."""

    table: PolicyTable = None

    def __post_init__(self):
        if self.table is None:
            raise ValueError("TablePolicy requires a table")
        if (self.n, self.burn_in) != (self.table.n, self.table.burn_in):
            raise ValueError("table horizon/burn-in mismatch")

    def layer_control_probs(self, lay: Layer) -> np.ndarray:
        if lay.b != self.burn_in:
            raise ValueError("layer burn-in does not match the table")
        return self.table.probs_for_epoch(lay.t)

    def descriptor(self) -> dict:
        return dict(super().descriptor(), p=self.table.p)
