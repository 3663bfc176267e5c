"""Trial simulation and the exact randomization-based Wald test.  Trials
are rows: arms (0 is control) and outcomes of ``m`` trials are two ``(m,
n)`` int8 arrays, which :func:`simulate_trials` returns and
:func:`randomization_test` takes.

All randomness comes from one counter-based generator per run, keyed by
its master seed, so results are bit-reproducible for a fixed seed on any
worker partition.  The run's sequence is split by counter range: with
``B = ceil(2n / 4)`` Philox blocks of four words per trial, trial ``i``
reads words ``[4Bi, 4Bi + 2n)``, its first ``n`` words allocation keys
and the next ``n`` outcome draws.

Every trial, simulated or tested, is one mechanism: its design's permuted
balanced blocks (:attr:`~rarexact.policies.Policy.permuted_blocks`: the
burn-in of an adaptive policy, every block of equal allocation), whose
keys become arrangements by sorting, then one policy-randomized epoch per
participant left.
Trials are stepped together, many rows at a time: each row carries its
counts ``(s_c, s_d, n_c)``, and at each epoch its allocation probability
is the control side ``q`` of the policy's
:meth:`~rarexact.policies.Policy.layer_arm_probs`, read at the row's
state by :meth:`~rarexact.states.Layer.indices`; the developmental share
is ``1 - q``.  Each entry point fills and checks the ``q`` array of every
such epoch once and passes them down; the layers they were filled on are
dropped, and the index of a state is computed from a fresh layer, which
holds no arrays.  Every row depends only on its own words, so results do
not depend on how the trials are chunked.

The randomization test draws nothing: a dynamic program gives its exact
p-values, all rows sharing those arrays.  Its rejection rate simulates a
batch of trials at once, stable-sorts it by total successes and runs the
DP on ``DP_TRIALS`` slices of that order, so chunk mates share a narrow
``(n_c, s_c)`` grid.  Each terminal state's ``|T|`` is read from one
table over the terminal layer, built once per call and shared by every
``theta`` of :func:`randomization_rejection_rates`; the chunks of one
batch slice their state indices from one set of per-epoch grids.  Every entry point
refuses a ``theta`` that is NaN or outside ``[0, 1]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import check_alpha, theta_array
from .policies import Policy, _check_arm_probs
from .states import Layer, layer as make_layer
from .wald import wald_statistics

GENERATOR_ID = "philox4x64-numpy-counter-blocks"
# Trials whose randomization p-values the DP computes together, taken in
# the order of their total successes: at n = 50 each holds at most 39 x 45
# states, and only the success counts up to the chunk's largest are kept;
# at most 0.45 MB per array a chunk.
DP_TRIALS = 32
# Trials simulate_terminals steps together, and randomization_rejection_rates
# simulates before it tests them: 20,000 rows of 2n uniforms is 16 MB at
# n = 50.
SIM_BATCH = 20_000


def make_rng(seed: int) -> np.random.Generator:
    """The run's generator: Philox keyed by ``seed`` modulo 2**64, at
    counter 0."""
    return np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, 0], dtype=np.uint64)))


def _stream_uniforms(seed: int, start: int, m: int, count: int) -> np.ndarray:
    """The ``count`` uniforms of trials ``start .. start + m - 1`` as an
    ``(m, count)`` view; trial ``i`` owns the ``B = ceil(count / 4)``
    Philox blocks from block ``iB`` of ``make_rng(seed)``'s sequence.

    Philox is counter-based, so one generator moved to block ``start * B``
    fills every row in one call; its 256-bit counter does not wrap.
    """
    blocks = -(-count // 4)
    rng = make_rng(seed)
    rng.bit_generator.advance(start * blocks)
    return rng.random((m, 4 * blocks))[:, :count]


def _terminal_counts(arms: np.ndarray, y_c: np.ndarray, y_d: np.ndarray):
    """``(s_c, s_d, n_c)`` of trials laid out along the last axis, where a
    participant responds ``y_c`` on control and ``y_d`` on the other arm."""
    is_c = arms == 0
    return (y_c & is_c).sum(axis=-1), (y_d & ~is_c).sum(axis=-1), is_c.sum(axis=-1)


def _arms_from_keys(keys: np.ndarray, lengths) -> np.ndarray:
    """Turn per-position uniform keys into permuted balanced blocks; sorting
    the keys inside each block yields a uniformly random arrangement, in
    which the key of sort index ``k`` takes arm ``k % 2``."""
    arms = np.empty(keys.shape, dtype=np.int8)
    pos = 0
    for length in lengths:
        order = np.argsort(keys[..., pos:pos + length], axis=-1, kind="stable")
        arms[..., pos:pos + length] = order % 2
        pos += length
    return arms


def _epoch_probs(policy: Policy) -> list:
    """``q`` of :meth:`~rarexact.policies.Policy.layer_arm_probs` at each
    epoch from the end of the policy's permuted blocks to ``n - 1``, each
    filled on a layer that is then dropped and checked, with ``q1`` as
    scratch, to be a pair in ``[0, 1]``; none for equal allocation."""
    b, out = policy.burn_in, []
    for t in range(sum(policy.permuted_blocks), policy.n):
        q, q1 = policy.layer_arm_probs(make_layer(t, b))
        _check_arm_probs(q, q1, t, q1)
        out.append(q)
    return out


def _terminal_abs_wald(policy: Policy) -> np.ndarray:
    """``|T|`` of every terminal state, NaN where an arm is empty, built
    block by block."""
    def abs_wald(s_c, s_d, n_c, n_d):
        return np.abs(wald_statistics(s_c, s_d, n_c, n_d)) if n_c and n_d else np.nan

    return make_layer(policy.n, policy.burn_in, policy.n).tabulate(abs_wald)


def _grid_indices(lay: Layer, lo: int, rows: int, cols: int) -> np.ndarray:
    """Indices in ``lay`` of ``(n_c, s_c, s_d = -s_c)`` over ``n_c = lo ..
    lo + rows - 1`` and ``s_c = 0 .. cols - 1``, as a ``(rows, cols)``
    array; adding ``S_t`` gives those of ``s_d = S_t - s_c``."""
    s_c = np.arange(cols)
    return lay.indices(s_c, -s_c, np.arange(lo, lo + rows)[:, None])


def _dp_grids(policy: Policy, top: int) -> list[np.ndarray]:
    """The index grids of :func:`_chunk_p_values`, one per epoch ``t`` from
    the end ``pos`` of its blocks up to the terminal ``n``: the
    :func:`_grid_indices` of layer ``t`` over the DP's ``t - pos + 1``
    rows ``n_c = lo ..`` and ``min(t, top) + 1`` columns, the widest any
    chunk of rows with at most ``top`` successes reaches.  Every chunk
    slices its own column count from them.  O(n**3) int64 entries in all:
    about 19 MB at ``n = 200``, ``b = 6``, ``top = n``."""
    blocks = policy.permuted_blocks
    lo, pos = sum((length + 1) // 2 for length in blocks), sum(blocks)
    return [_grid_indices(make_layer(t, policy.burn_in), lo, t - pos + 1, min(t, top) + 1)
            for t in range(pos, policy.n + 1)]


def _allocate(policy: Policy, keys: np.ndarray, y_c: np.ndarray, y_d: np.ndarray,
              probs: list):
    """Arms and terminal ``(s_c, s_d, n_c)`` of trials given as ``(m, n)``
    rows of allocation ``keys``; participant ``t`` responds ``y_c[:, t]``
    on control and ``y_d[:, t]`` otherwise.  The keys of the first ``pos``
    participants become the policy's permuted balanced blocks; each later
    one goes to control where its key is below ``probs[t - pos]`` (see
    :func:`_epoch_probs`) at its row's state."""
    n, b = policy.n, policy.burn_in
    blocks = policy.permuted_blocks
    pos = sum(blocks)
    # epoch-major arms and copies of the inputs: each epoch reads and
    # writes contiguous rows
    arms = np.empty((n, keys.shape[0]), dtype=np.int8)
    arms[:pos] = _arms_from_keys(keys[:, :pos], blocks).T
    keys, y_c, y_d = (np.ascontiguousarray(a.T) for a in (keys, y_c, y_d))
    s_c, s_d, n_c = _terminal_counts(arms[:pos].T, y_c[:pos].T, y_d[:pos].T)
    for t in range(pos, n):
        is_c = keys[t] < probs[t - pos][make_layer(t, b).indices(s_c, s_d, n_c)]
        arms[t] = ~is_c
        n_c += is_c
        s_c += is_c & y_c[t]
        s_d += ~is_c & y_d[t]
    return arms.T, (s_c, s_d, n_c)


def _simulate_batch(policy: Policy, theta, u: np.ndarray, probs: list):
    """Step the trials whose rows of ``u`` hold ``n`` allocation keys, then
    ``n`` outcome draws; returns arms, outcomes and terminal counts."""
    n, (tc, td) = policy.n, theta
    y_c, y_d = u[:, n:] < tc, u[:, n:] < td
    arms, counts = _allocate(policy, u[:, :n], y_c, y_d, probs)
    return arms, np.where(arms == 0, y_c, y_d).astype(np.int8), counts


def simulate_trials_at(policy: Policy, thetas, seed: int, start: int, count: int) -> list:
    """Trials ``start .. start + count - 1`` of the run keyed by ``seed`` at
    each ``theta`` of ``thetas``, stepped together: the design's permuted
    balanced blocks, then policy-randomized arms, with Bernoulli outcomes;
    the mechanism :func:`randomization_test` re-randomizes.  Returns one ``(arms, outcomes)`` pair per
    ``theta``, two ``(count, n)`` int8 arrays with one trial per row.
    Each trial reads only its own words of the run's sequence, so it does
    not depend on ``start`` or ``count``; every ``theta`` reads the same
    words and the allocation probabilities, computed once."""
    for name, value in (("start", start), ("count", count)):
        if value < 0:
            raise ValueError(f"{name} = {value!r} must be nonnegative")
    thetas = theta_array(thetas)
    u = _stream_uniforms(seed, start, count, 2 * policy.n)
    probs = _epoch_probs(policy)
    return [_simulate_batch(policy, theta, u, probs)[:2] for theta in thetas]


def simulate_trials(policy: Policy, theta, seed: int, start: int, count: int):
    """:func:`simulate_trials_at` at the one point ``theta``."""
    return simulate_trials_at(policy, [theta], seed, start, count)[0]


def simulate_terminals(policy: Policy, theta, sims: int, seed: int):
    """Terminal states of trials ``0 .. sims - 1`` of the run keyed by
    ``seed``, the same as :func:`simulate_trials` gives them, stepped
    ``SIM_BATCH`` at a time; returns ``(s_c, s_d, n_c)`` arrays."""
    if sims < 0:
        raise ValueError(f"sims = {sims!r} must be nonnegative")
    n, ((tc, td),) = policy.n, theta_array([theta])
    probs = _epoch_probs(policy)
    out = np.empty((3, sims), dtype=np.int64)
    for start in range(0, sims, SIM_BATCH):
        stop = min(start + SIM_BATCH, sims)
        u = _stream_uniforms(seed, start, stop - start, 2 * n)
        draws = u[:, n:]
        _, out[:, start:stop] = _allocate(policy, u[:, :n], draws < tc, draws < td, probs)
    return tuple(out)


def _chunk_p_values(policy: Policy, arms: np.ndarray, outcomes: np.ndarray,
                    probs: list, abs_t: np.ndarray, grids: list) -> np.ndarray:
    """Exact randomization p-values of ``(m, n)`` rows of observed arms and
    outcomes, stepped together (see :func:`_randomization_p_values`).
    Given the outcomes, the successes ``S_t`` before epoch ``t`` are known,
    so the allocation is a Markov chain on ``(n_c, s_c)``, ``s_d = S_t -
    s_c``.  Its law is an ``(m, K, J)`` array over ``n_c = lo .. lo + K -
    1`` and ``s_c = 0 .. J - 1``, where ``J - 1`` is at most the rows'
    largest ``S_t``, since ``s_c <= S_t``; states off the layer hold no
    mass.  Each permuted balanced block (the burn-in, all of equal
    allocation) of ``L`` with ``c = ceil(L / 2)`` controls adds ``c`` to
    ``n_c`` and a ``Hypergeom(L, S_block, c)`` count to ``s_c``; each later
    epoch keeps ``1 - q`` of a state's mass and moves ``q`` of it to
    ``(n_c + 1, s_c + y_t)``, with ``q`` from :func:`_epoch_probs`'s
    ``probs``, the law simulated trials draw from.  Each terminal
    state's ``|T|`` is read from ``abs_t``, the table of
    :func:`_terminal_abs_wald`, and the states' indices from ``grids``,
    those of :func:`_dp_grids`.  The work is elementwise per row and the
    final sum runs in a fixed order, so rows do not affect each other."""
    n, m = policy.n, outcomes.shape[0]
    s_c, s_d, n_c = _terminal_counts(arms, outcomes, outcomes)
    t_obs = np.abs(wald_statistics(s_c, s_d, n_c, n - n_c))
    succ = np.zeros((m, n + 1), dtype=np.int64)
    np.cumsum(outcomes, axis=1, out=succ[:, 1:])
    reach = succ.max(axis=0) + 1
    rows_m = np.arange(m)

    w, lo, pos = np.ones((m, 1, 1)), 0, 0
    for length in policy.permuted_blocks:
        c = (length + 1) // 2
        hyper = np.array([[math.comb(s, k) * math.comb(length - s, c - k) / math.comb(length, c)
                           for k in range(c + 1)] for s in range(length + 1)])
        hyper = hyper[succ[:, pos + length] - succ[:, pos]]
        out = np.zeros(w.shape[:2] + (w.shape[2] + c,))
        for k in range(c + 1):
            out[:, :, k:k + w.shape[2]] += w * hyper[:, k, None, None]
        w, lo, pos = out, lo + c, pos + length
    for t in range(pos, n):
        w = w[:, :, :reach[t]]
        rows, cols = w.shape[1:]
        # s_d = S_t - s_c enters the index linearly; off-layer states hold
        # no mass, and their indices stay in the layer
        q = probs[t - pos].take(grids[t - pos][:, :cols] + succ[:, t, None, None])
        out = np.zeros((m, rows + 1, cols + 1))
        np.multiply(w, 1.0 - q, out=out[:, :rows, :cols])
        w *= q
        # the control mass moves to (n_c + 1, s_c + y_t): view out[:, 1:]
        # as (m, 2, rows, cols), its column shifts 0 and 1 side by side, and
        # add each row's mass at the shift of its own outcome
        step = out.strides
        shifted = np.ndarray((m, 2, rows, cols), buffer=out, offset=step[1],
                             strides=(step[0], step[2], step[1], step[2]))
        shifted[rows_m, outcomes[:, t]] += w
        w = out

    w = w[:, :, :reach[n]]
    rows, cols = w.shape[1:]
    if lo < 1 or lo + rows > n:
        raise ValueError("Wald statistic requires both group sizes positive")
    extreme = abs_t.take(grids[n - pos][:, :cols] + succ[:, n, None, None])
    mass = np.where(extreme >= t_obs[:, None, None], w, 0.0)
    # summed one n_c, then one s_c at a time: the columns above a row's own
    # S_n add exact zeros, so its p-value does not depend on the width
    # its chunk mates set
    p = np.zeros(m)
    for column in sum(mass.transpose(1, 0, 2)).T:
        p += column
    return p


def _randomization_p_values(policy: Policy, arms: np.ndarray, outcomes: np.ndarray,
                            probs: list, abs_t: np.ndarray) -> np.ndarray:
    """Exact randomization p-values of ``(m, n)`` rows of observed arms and
    outcomes (see :func:`randomization_test`), in row order.  The rows are
    stepped ``DP_TRIALS`` at a time in the stable order of their total
    successes, so chunk mates share a narrow ``(n_c, s_c)`` grid; a row's
    p-value does not depend on its chunk mates.  The chunks slice their
    index grids from one set, built here for the rows' largest total
    successes (:func:`_dp_grids`)."""
    totals = outcomes.sum(axis=1)
    order = np.argsort(totals, kind="stable")
    grids = _dp_grids(policy, int(totals.max(initial=0)))
    p = np.empty(order.size)
    for start in range(0, order.size, DP_TRIALS):
        rows = order[start:start + DP_TRIALS]
        p[rows] = _chunk_p_values(policy, arms[rows], outcomes[rows], probs, abs_t, grids)
    return p


def randomization_test(arms, outcomes, policy: Policy, alpha: float):
    """Exact two-sided randomization test of each trial given as a row of
    ``(m, n)`` arrays of 0/1 ``arms`` (0 is control) and ``outcomes``;
    returns ``(reject, p)``, two arrays of length ``m``.  With a row's
    outcome sequence fixed in participant order, ``p = P(|T| >= |t_obs|)``
    over every allocation the design could have made, under the law
    :func:`simulate_trials` draws from: ``q`` to control, else ``1 - q``.
    Ties count fully, so p = 1 when all allocations tie (say, all outcomes
    zero), P(p <= alpha) <= alpha given the outcomes, and designs with
    heavy ties, such as permuted-block equal allocation, are conservative.
    An adaptive policy needs a burn-in of at least one per arm, or some
    Wald statistic is undefined.  All rows share one ``q`` per epoch and
    one ``|T|`` table; no row's p-value depends on the others.
    """
    check_alpha(alpha)
    arms, outcomes = np.asarray(arms), np.asarray(outcomes)
    if arms.ndim != 2 or arms.shape != outcomes.shape or arms.shape[1] != policy.n:
        raise ValueError(f"arms {arms.shape} and outcomes {outcomes.shape} are not both "
                         f"(m, {policy.n}) rows of trials")
    if not (np.isin(arms, (0, 1)).all() and np.isin(outcomes, (0, 1)).all()):
        raise ValueError("arms and outcomes must hold 0 or 1")
    arms, outcomes = arms.astype(np.int8), outcomes.astype(np.int8)
    p = _randomization_p_values(policy, arms, outcomes, _epoch_probs(policy),
                                _terminal_abs_wald(policy))
    return p <= alpha, p


@dataclass(frozen=True)
class RateEstimate:
    """A rejection rate, its master seed and the generator recorded in outputs."""

    estimate: float
    half_width: float
    sims: int
    seed: int
    generator: str = GENERATOR_ID


def randomization_rejection_rates(policy: Policy, thetas, sims: int, alpha: float,
                                  seed: int) -> list[RateEstimate]:
    """Rejection rate of the exact randomization test at each ``theta`` of
    ``thetas``, over trials ``0 .. sims - 1`` of the run keyed by ``seed``,
    with a normal-approximation 95% half-width.  Each trial reads its own
    words of the run's sequence: it is the trial :func:`simulate_trials`
    gives.  The trials are simulated
    ``SIM_BATCH`` at a time and tested in ``DP_TRIALS`` chunks of the batch
    sorted by total successes (see :func:`_randomization_p_values`).  Each
    batch's words are drawn once for every ``theta``, and every ``theta``
    shares one set of allocation probabilities and one terminal ``|T|``
    table."""
    check_alpha(alpha)
    if sims < 100:
        raise ValueError("need at least 100 simulations")
    thetas = theta_array(thetas)
    probs, abs_t = _epoch_probs(policy), _terminal_abs_wald(policy)
    rejections = np.zeros(len(thetas), dtype=np.int64)
    for start in range(0, sims, SIM_BATCH):
        u = _stream_uniforms(seed, start, min(SIM_BATCH, sims - start), 2 * policy.n)
        for i, theta in enumerate(thetas):
            arms, outcomes, _ = _simulate_batch(policy, theta, u, probs)
            p = _randomization_p_values(policy, arms, outcomes, probs, abs_t)
            rejections[i] += np.count_nonzero(p <= alpha)
    est = rejections / sims
    half = 1.96 * np.sqrt(est * (1.0 - est) / sims)
    return [RateEstimate(float(e), float(h), sims, seed) for e, h in zip(est, half)]


def randomization_rejection_rate(policy: Policy, theta, sims: int, alpha: float,
                                 seed: int) -> RateEstimate:
    """:func:`randomization_rejection_rates` at the one point ``theta``."""
    return randomization_rejection_rates(policy, [theta], sims, alpha, seed)[0]
