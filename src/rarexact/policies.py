"""Allocation policies: the probabilities of assigning the next participant
to the control arm and to the developmental arm, computed for every state
of an epoch layer at once.  A policy writes them into two arrays its
caller owns (:meth:`Policy.fill_arm_probs`), so the forward sweep reuses
the same buffers on every layer; :meth:`Policy.layer_arm_probs` allocates
the pair and fills it.  Every policy serves the same linear pair ``(q, 1 -
q)``: a built-in design computes it from each state's counts, and a CMDP
policy table (:class:`PolicyTable`) copies the control probabilities it
stores for each adaptive epoch.

Every trial starts with its policy's :attr:`Policy.permuted_blocks`: the
balanced burn-in of ``2b`` participants, and for equal allocation every
block to the horizon.  The exact sweeps need only their counts; the
simulated trials, and the randomization test, draw their arrangements.

Every policy computes on the calling thread: none starts a thread or
reads the CPU count, so no result depends on either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numerics import gammaln_table
from .states import Layer, TrialState, layer as make_layer

# Allocation probabilities are kept away from 0 and 1 so no state becomes
# absorbing and every log weight stays finite.
DBCD_CLIP = (0.01, 0.99)
# how far from one the two arm probabilities of a state may sum
ARM_SUM_TOL = 1e-12
# equal allocation's block length after the burn-in
EA_BLOCK = 10


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


def _check_arm_probs(q: np.ndarray, q1: np.ndarray, t: int, scratch: np.ndarray) -> None:
    """Raise ``ValueError`` naming epoch ``t`` unless ``q`` and ``q1`` are
    probabilities in ``[0, 1]`` (so not NaN) that sum to one per state;
    the sum is formed in ``scratch``, of the same size."""
    lo = np.minimum(q.min(), q1.min())
    hi = np.maximum(q.max(), q1.max())
    s = np.add(q, q1, out=scratch)
    s -= 1.0
    gap = max(s.max(), -s.min())    # NaN in s makes it NaN, which fails
    if not (lo >= 0.0 and hi <= 1.0 and gap <= ARM_SUM_TOL):
        raise ValueError(
            f"policy probabilities at epoch {t} are not a pair (q, 1 - q) in [0, 1]"
        )


def check_burn_in(n: int, burn_in: int) -> None:
    """Refuse a burn-in per arm that does not fit the horizon."""
    if not 0 <= 2 * burn_in <= n:
        raise ValueError(f"burn-in of {burn_in} per arm does not fit the horizon {n}")


def check_action_bound(p: float) -> None:
    """Refuse a maximum allocation rate outside ``[0.5, 1]``, or NaN."""
    if not 0.5 <= p <= 1.0:
        raise ValueError(f"maximum allocation rate p = {p!r} is not in [0.5, 1]")


def _block_plan(n: int, burn_in: int, block: int) -> tuple[int, ...]:
    """Block lengths: one balanced burn-in block, then full blocks, then a
    balanced trailing prefix."""
    lengths = (2 * burn_in,) if burn_in else ()
    rest = n - 2 * burn_in
    lengths += (block,) * (rest // block)
    if rest % block:
        lengths += (rest % block,)
    return lengths


@dataclass(frozen=True)
class Policy:
    """Base class; adaptive policies implement :meth:`fill_arm_probs`,
    :meth:`layer_arm_probs` returns the pair in new arrays, and
    :meth:`control_prob` reads one state's entry of its control side."""

    n: int
    burn_in: int

    is_symmetric = False

    def __post_init__(self):
        check_burn_in(self.n, self.burn_in)

    @property
    def permuted_blocks(self) -> tuple[int, ...]:
        """Lengths ``L`` of the permuted balanced blocks (``ceil(L / 2)``
        controls each) that start every trial: ``(2b,)``, none at ``b = 0``."""
        return (2 * self.burn_in,) if self.burn_in else ()

    def control_prob(self, state: TrialState) -> float:
        """Allocation probability of one state past the burn-in and before
        the horizon."""
        if state.epoch >= self.n:
            raise ValueError(f"epoch {state.epoch} allocates no one: the horizon is {self.n}")
        lay = make_layer(state.epoch, self.burn_in, self.n)
        return float(self.layer_arm_probs(lay)[0][lay.index(state)])

    def fill_arm_probs(self, lay: Layer, q: np.ndarray, q1: np.ndarray) -> None:
        """Write into ``q`` and ``q1``, contiguous float64 arrays of
        ``lay.size`` entries owned by the caller, the probabilities of
        allocating the next participant to control and to the
        developmental arm, for every state of ``lay`` in canonical order;
        they sum to one per state.  Only called for epochs ``2b <= t <
        n``.  The arrays hold no input: the forward sweep passes the same
        buffers on every layer, and its push then overwrites them."""
        raise NotImplementedError(f"{type(self).__name__} implements no fill_arm_probs")

    def layer_arm_probs(self, lay: Layer) -> tuple[np.ndarray, np.ndarray]:
        """``(q, q1)`` of :meth:`fill_arm_probs` in two new arrays."""
        q = np.empty(lay.size)
        q1 = np.empty(lay.size)
        self.fill_arm_probs(lay, q, q1)
        return q, q1

    def descriptor(self) -> dict:
        return {"kind": type(self).__name__, "n": self.n, "burn_in": self.burn_in}


@dataclass(frozen=True)
class EqualAllocation(Policy):
    """Fixed 50/50 design in permuted balanced blocks up to the horizon, so
    ``ceil(n / 2)`` controls and no per-state probabilities."""

    @property
    def permuted_blocks(self) -> tuple[int, ...]:
        return _block_plan(self.n, self.burn_in, EA_BLOCK)


@dataclass(frozen=True)
class DbcdNeyman(Policy):
    """Doubly adaptive biased coin targeting the Neyman proportion.

    The coin steers the realized control proportion, so it needs both
    arms non-empty: the burn-in must be at least one per arm."""

    gamma: float = 2.0

    is_symmetric = True

    def __post_init__(self):
        super().__post_init__()
        if self.burn_in < 1:
            raise ValueError(f"DBCD needs a burn-in of at least 1 per arm, not {self.burn_in}")
        if not 0.0 <= self.gamma < np.inf:     # NaN fails too
            raise ValueError(f"gamma = {self.gamma!r} must be finite and nonnegative")

    def fill_arm_probs(self, lay: Layer, q: np.ndarray, q1: np.ndarray) -> None:
        s_c, s_d, n_c, n_d = lay.arrays()
        tc, td = _shrunk_estimates(s_c, s_d, n_c, n_d)
        rho = neyman_target(tc, td)
        np.clip(_dbcd_alloc(rho, n_c / lay.t, self.gamma), *DBCD_CLIP, out=q)
        np.subtract(1.0, q, out=q1)

    def descriptor(self) -> dict:
        return dict(super().descriptor(), gamma=self.gamma)


@dataclass(frozen=True)
class TemperedDbcdNeyman(DbcdNeyman):
    """DBCD Neyman allocation tempered to never favor the arm currently
    estimated inferior: outside the agreeing branches the target is 1/2."""

    def fill_arm_probs(self, lay: Layer, q: np.ndarray, q1: np.ndarray) -> None:
        super().fill_arm_probs(lay, q, q1)
        s_c, s_d, n_c, n_d = lay.arrays()
        tc, td = _shrunk_estimates(s_c, s_d, n_c, n_d)
        keep = ((q > 0.5) & (tc > td)) | ((q < 0.5) & (td > tc))
        np.copyto(q, 0.5, where=~keep)
        np.subtract(1.0, q, out=q1)


# The BRAR tail runs on contiguous runs of a layer of at least this many
# states, each as soon as its blocks are built: one pass over a whole
# layer would allocate a layer-sized temporary for the sum on every
# layer.  Read by nothing but BayesianRar.fill_arm_probs; no option sets
# it.
_TAIL_RUN = 1 << 14


@lru_cache(maxsize=8)
def _lbeta_rows(capacity: int) -> tuple:
    """``rows[n][j] = lbeta(j + 1, n + 1 - j)`` for ``j = 0 .. n`` and every
    ``n < capacity``; read-only, one table per power-of-two capacity."""
    g = gammaln_table(capacity + 2)
    rows = []
    for n in range(capacity):
        row = g[1:n + 2] + g[n + 1:0:-1] - g[n + 2]
        row.setflags(write=False)
        rows.append(row)
    return tuple(rows)


def _arm_tail(p: np.ndarray, c: np.ndarray, e: float) -> None:
    """Turn the posterior ``P`` held in ``p`` into the allocation pair, in
    place: ``p`` becomes ``q = P**e / s`` and ``c`` becomes ``q1 = (1 -
    P)**e / s``, with ``s = P**e + (1 - P)**e``.  For ``P >= 1/2`` the
    difference ``1 - P`` is exact (Sterbenz); below, it is rounded once,
    to within half an ulp.  One of ``P`` and ``1 - P`` is at least
    ``1/2``, so ``s`` is too.  Elementwise, so any split of a layer into
    runs gives the same bits."""
    np.clip(p, 0.0, 1.0, out=p)
    np.subtract(1.0, p, out=c)
    np.power(p, e, out=p)
    np.power(c, e, out=c)
    s = p + c
    p /= s
    c /= s


@dataclass(frozen=True)
class BayesianRar(Policy):
    """Power-tuned posterior probability that control is the better arm,
    under independent uniform priors.

    The tuning exponent is ``u / (2n)`` with ``u`` the one-based index of
    the participant being allocated (the state epoch plus one).

    The posterior ``P`` is computed block by block.  In the ``(n_c, n_d)``
    block, ``P(s_c, s_d) = P(theta_C > theta_D | state)`` starts from the
    closed form ``P(0, s_d) = B(a2, b2 + n_c + 1) / B(a2, b2)``, with
    ``a2 = s_d + 1`` and ``b2 = n_d - s_d + 1``, and moves one control
    failure to a success at a time by the exact two-term recurrence
    ``P(k + 1, s_d) = (P(k, s_d) + step_a(k, s_d)) + step_b(k, s_d)``.
    Row 0 and the increments ``step_a``, ``step_b`` of every ``k``, in
    alternate rows, form one ``(2 n_c + 1, n_d + 1)`` array, and one
    in-place ``add.accumulate`` down its columns gives ``P`` in its even
    rows.  It adds in sequence along the axis, like ``cumsum``, so each
    even row is formed by the very additions of the recurrence, in its
    order, and the design is bit-stable.  For the exponent ``e`` the
    allocation pair is ``(P**e, (1 - P)**e)`` divided by its sum
    (:func:`_arm_tail`).

    Every ``lbeta`` is read from tables with slices, without an integer
    gather.  ``lbeta(j + 1, n + 1 - j)`` depends on ``n`` alone; its rows
    for ``n = n_c`` (``lbeta(a1, b1)`` down a column) and ``n = n_d``
    (``lb2 = lbeta(a2, b2)`` along a row) come from one read-only table
    per power-of-two capacity (:func:`_lbeta_rows`).  In a step ``a1 + b1
    = n_c + 2`` and ``a2 + b2 = n_d + 2``, so ``lbeta(a1 + a2, b1 + b2)``
    depends on ``m = a1 + a2 - 2`` alone: it is ``h[m] = g[m + 2] + g[t +
    2 - m] - g[t + 4]`` for ``m = 0 .. t``.  One Hankel view ``hank[i, j]
    = h[i + j]`` of ``h`` (padded, never read past ``i + j = t``) is taken
    per layer, and block ``(n_c, n_d)`` reads ``hank[:n_c + 1, :n_d + 1]``.
    The first subtraction of ``step_a``, ``h[k + s_d] - ln(k + 1)``, does
    not depend on the block either, so it is formed once per layer as
    ``da = hank[:t] - ln(1 .. t)``.  The row-0 numerator ``lbeta(a2, b2 +
    n_c + 1)`` is ``r[s_d] = g[s_d + 1] + g[t + 2 - s_d] - g[t + 3]``, the
    same in every block.  Each step is ``((h - ln a1) - lbeta(a1, b1)) -
    lb2`` (``ln b1`` in ``step_b``), and each ``lbeta`` is ``(g[a] + g[b])
    - g[a + b]``: the operands and their order are those of the
    recurrence, so the result is bit for bit that of a per-state
    evaluation.  The tail from ``P`` to the pair runs in ``_TAIL_RUN``
    pieces (:func:`_arm_tail`).
    """

    def _exponent(self, epoch: int) -> float:
        return (epoch + 1) / (2.0 * self.n)

    is_symmetric = True

    def fill_arm_probs(self, lay: Layer, q: np.ndarray, q1: np.ndarray) -> None:
        t = lay.t
        g = gammaln_table(2 * t + 8)
        e = self._exponent(t)
        lbeta_rows = _lbeta_rows(1 << t.bit_length())

        h = np.zeros(2 * t + 1)
        np.subtract(g[2:t + 3] + g[t + 2:1:-1], g[t + 4], out=h[:t + 1])
        hank = sliding_window_view(h, t + 1)    # hank[i, j] = h[i + j]
        r = g[1:t + 2] + g[t + 2:1:-1] - g[t + 3]
        log_k = np.log(np.arange(1, t + 1))     # ln 1 .. ln t
        da = hank[:t] - log_k[:, None]          # step_a's h[k + s_d] - ln(k + 1)
        lo = 0
        for n_c, n_d, start, stop in lay.spans:
            lb1 = lbeta_rows[n_c][:, None]      # lbeta(k + 1, n_c + 1 - k) down a column
            inc = np.empty((2 * n_c + 1, n_d + 1))
            inc[0] = r[:n_d + 1]
            # step_a: a1 = k + 1, b1 = n_c - k + 1
            np.subtract(da[:n_c, :n_d + 1], lb1[:-1], out=inc[1::2])
            # step_b: a1 = k + 2, b1 = n_c - k
            step = inc[2::2]
            np.subtract(hank[1:n_c + 1, :n_d + 1], log_k[:n_c][::-1, None], out=step)
            np.subtract(step, lb1[1:], out=step)
            # every row's last operand is lb2 = lbeta(a2, b2) along the row
            np.subtract(inc, lbeta_rows[n_d], out=inc)
            np.exp(inc, out=inc)
            np.add.accumulate(inc, axis=0, out=inc)
            # q holds P until its tail has run
            np.copyto(q[start:stop].reshape(n_c + 1, n_d + 1), inc[::2])
            if stop - lo >= _TAIL_RUN:
                _arm_tail(q[lo:stop], q1[lo:stop], e)
                lo = stop
        _arm_tail(q[lo:], q1[lo:], e)


@dataclass(frozen=True)
class PolicyTable(Policy):
    """An optimized design as dense per-layer control probabilities.

    ``probs[t - 2b]`` holds the control probability ``q`` of every state of
    epoch ``t`` in canonical order, for epochs ``2b .. n - 1``; the
    developmental one is ``1 - q``.  Each lies in ``[1 - p, p]``, the
    CMDP's action constraint.  The solver writes only ``1 - p``, ``1/2``
    and ``p``, for which ``1 - q`` is exact (Sterbenz, ``p >= 1/2``).  The
    arrays are checked once, when the table is made, and stay read-only.
    """

    p: float
    probs: tuple = field(repr=False)  # one float64 array per epoch 2b .. n-1

    def __post_init__(self):
        super().__post_init__()
        check_action_bound(self.p)
        b, lo = self.burn_in, 1.0 - self.p
        if len(self.probs) != self.n - 2 * b:
            raise ValueError(f"need one probability array per epoch {2 * b} .. {self.n - 1}")
        for t, q in enumerate(self.probs, 2 * b):
            size = make_layer(t, b, self.n).size
            if not (isinstance(q, np.ndarray) and q.dtype == np.float64 and q.shape == (size,)):
                raise ValueError(f"epoch {t} needs {size} float64 probabilities")
            # NaN fails both comparisons
            if not (lo <= q.min() and q.max() <= self.p):
                raise ValueError(f"epoch {t} holds a probability outside [1 - p, p]")
            q.setflags(write=False)     # validated: they stay so

    def fill_arm_probs(self, lay: Layer, q: np.ndarray, q1: np.ndarray) -> None:
        if lay.b != self.burn_in or lay.t >= self.n:
            raise ValueError(f"{lay!r} is not a layer of the table's epochs 2b .. n - 1")
        np.copyto(q, self.probs[lay.t - 2 * self.burn_in])
        np.subtract(1.0, q, out=q1)

    def descriptor(self) -> dict:
        return dict(super().descriptor(), p=self.p)

    def __eq__(self, other):
        if not isinstance(other, PolicyTable):
            return NotImplemented
        return (
            (self.n, self.burn_in, self.p) == (other.n, other.burn_in, other.p)
            and all(np.array_equal(a, b) for a, b in zip(self.probs, other.probs))
        )

    def __hash__(self):
        # equal tables agree on these; the generated hash would hash arrays
        return hash((self.n, self.burn_in, self.p))
