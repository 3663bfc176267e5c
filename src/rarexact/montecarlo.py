"""Trial simulation and the randomization-based Wald test.

All randomness comes from counter-based generators keyed by a master
seed and a stream index, so results are bit-reproducible for a fixed
seed on any worker partition.  Trial ``i`` of a run reads stream ``i``:
its first ``n`` draws are allocation keys and the next ``n`` are outcome
draws; in :func:`randomization_rejection_rate` the stream goes on with
the ``reps * n`` keys of that trial's re-randomizations, one row of
``n`` per re-randomization.  Permuted-block allocations turn their keys
into arrangements by sorting.

Trials are stepped together, many rows at a time, along the edges of
:class:`~rarexact.states.Transition`, like the exact sweeps; allocation
probabilities are the control side ``q`` of the policy's
:meth:`~rarexact.policies.Policy.layer_arm_probs`, looked up per layer
by :meth:`~rarexact.states.Layer.indices`.  Every row depends only on its
own stream, so results do not depend on how the trials are chunked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import check_alpha
from .policies import EqualAllocation, Policy
from .states import TrialState, layer as make_layer
from .wald import wald_statistics

GENERATOR_ID = "philox4x64-numpy"
EA_BLOCK = 10
# Re-randomized rows stepped together by randomization_rejection_rate:
# about ten trials at reps = 1000, a working set of a few MB.  Chunks of
# 25 or 50 trials measured slower.
RERANDOMIZED_ROWS = 10_000


@dataclass(frozen=True)
class RngSeed:
    """Master seed plus the generator identity recorded in outputs."""

    seed: int
    generator: str = GENERATOR_ID


def _key(seed: int, stream: int) -> np.ndarray:
    return np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_key(seed, stream)))


def _stream_uniforms(seed: int, start: int, m: int, count: int) -> np.ndarray:
    """The first ``count`` uniforms of streams ``start .. start + m - 1`` as
    an ``(m, count)`` array; row ``i`` equals
    ``make_rng(seed, start + i).random(count)`` bit for bit.

    Philox is counter-based: a stream is its key and a zero counter.  So
    one generator is re-keyed per stream rather than a new ``Philox``
    built, whose constructor draws OS entropy even when given a key.
    """
    rng = make_rng(seed, start)
    bits = rng.bit_generator
    # a fresh state: counter 0, empty buffer (buffer_pos 4, has_uint32 0)
    state = bits.state
    keys = np.repeat(_key(seed, start)[None, :], m, axis=0)
    keys[:, 1] += np.arange(m, dtype=np.uint64)  # wraps modulo 2**64 like the stream
    out = np.empty((m, count))
    for i in range(m):
        state["state"]["key"] = keys[i]
        bits.state = state
        rng.random(out=out[i])
    return out


@dataclass
class TrialHistory:
    """Realized allocations and outcomes; arm 0 is control."""

    arms: np.ndarray = field(repr=False)
    outcomes: np.ndarray = field(repr=False)
    burn_in: int = 0

    @property
    def n(self) -> int:
        return self.arms.size

    def terminal_state(self) -> TrialState:
        s_c, s_d, n_c = map(int, _terminal_counts(self.arms, self.outcomes, self.outcomes))
        return TrialState(s_c, s_d, n_c, self.n - n_c)

    def control_proportion_path(self) -> np.ndarray:
        """Running proportion of participants allocated to control."""
        return np.cumsum(self.arms == 0) / np.arange(1, self.n + 1)


def _terminal_counts(arms: np.ndarray, y_c: np.ndarray, y_d: np.ndarray):
    """``(s_c, s_d, n_c)`` of trials laid out along the last axis, where a
    participant responds ``y_c`` on control and ``y_d`` on the other arm."""
    is_c = arms == 0
    return (y_c & is_c).sum(axis=-1), (y_d & ~is_c).sum(axis=-1), is_c.sum(axis=-1)


def _balanced_pattern(length: int) -> np.ndarray:
    """Alternating balanced arm pattern of a block before permutation."""
    out = np.empty(length, dtype=np.int8)
    out[0::2] = 0
    out[1::2] = 1
    return out


def _block_plan(n: int, burn_in: int, block: int) -> list[int]:
    """Block lengths: one balanced burn-in block, then full blocks, then a
    balanced trailing prefix."""
    lengths = []
    if burn_in:
        lengths.append(2 * burn_in)
    rest = n - 2 * burn_in
    lengths += [block] * (rest // block)
    if rest % block:
        lengths.append(rest % block)
    return lengths


def _arms_from_keys(keys: np.ndarray, lengths: list[int]) -> np.ndarray:
    """Turn per-position uniform keys into permuted balanced blocks; sorting
    the keys inside each block yields a uniformly random arrangement."""
    arms = np.empty(keys.shape, dtype=np.int8)
    pos = 0
    for length in lengths:
        pattern = _balanced_pattern(length)
        seg = keys[..., pos:pos + length]
        order = np.argsort(seg, axis=-1, kind="stable")
        arms[..., pos:pos + length] = pattern[order]
        pos += length
    return arms


class _EpochLookup:
    """Vectorized per-epoch allocation probabilities for a policy: the
    layer and the control side ``q`` of its
    :meth:`~rarexact.policies.Policy.layer_arm_probs`, kept once per
    epoch."""

    def __init__(self, policy: Policy):
        self.policy = policy
        self._cache: dict[int, tuple] = {}

    def lookup(self, t: int, s_c, s_d, n_c) -> np.ndarray:
        entry = self._cache.get(t)
        if entry is None:
            lay = make_layer(t, self.policy.burn_in, self.policy.n)
            entry = self._cache[t] = (lay, self.policy.layer_arm_probs(lay)[0])
        lay, probs = entry
        return probs[lay.indices(s_c, s_d, n_c)]


def _allocate(policy: Policy, keys: np.ndarray, y_c: np.ndarray, y_d: np.ndarray,
              lookup: _EpochLookup, burn_in_blocks: bool):
    """Arms and terminal ``(s_c, s_d, n_c)`` of trials laid out along the
    last axis, driven by the allocation ``keys``; participant ``t``
    responds ``y_c[..., t]`` on control and ``y_d[..., t]`` otherwise (the
    responses broadcast against the keys).  The burn-in is one permuted
    balanced block, or the canonical alternation; permuted-block equal
    allocation uses its block plan throughout."""
    n, b = policy.n, policy.burn_in
    if isinstance(policy, EqualAllocation):
        arms = _arms_from_keys(keys, _block_plan(n, b, EA_BLOCK))
        return arms, _terminal_counts(arms, y_c, y_d)

    # epoch-major arms: each epoch writes one contiguous row
    arms = np.empty((n,) + keys.shape[:-1], dtype=np.int8)
    if burn_in_blocks and b:
        arms[:2 * b] = np.moveaxis(_arms_from_keys(keys[..., :2 * b], [2 * b]), -1, 0)
    else:
        arms[:2 * b] = _balanced_pattern(2 * b).reshape((2 * b,) + (1,) * (keys.ndim - 1))
    s_c = np.zeros(keys.shape[:-1], dtype=np.int64)
    s_d = np.zeros_like(s_c)
    n_c = np.zeros_like(s_c)
    for t in range(n):
        if t < 2 * b:
            is_c = arms[t] == 0
        else:
            is_c = keys[..., t] < lookup.lookup(t, s_c, s_d, n_c)
            arms[t] = ~is_c
        n_c += is_c
        s_c += is_c & y_c[..., t]
        s_d += ~is_c & y_d[..., t]
    arms = np.moveaxis(arms, 0, -1)
    return arms, (s_c, s_d, n_c)


def _simulate_batch(policy: Policy, theta, u: np.ndarray, lookup: _EpochLookup,
                    burn_in_blocks: bool = False):
    """Step the trials whose rows of ``u`` hold ``n`` allocation keys, then
    ``n`` outcome draws; returns arms, outcomes and terminal counts."""
    n = policy.n
    tc, td = theta
    y_c = u[:, n:2 * n] < tc
    y_d = u[:, n:2 * n] < td
    arms, counts = _allocate(policy, u[:, :n], y_c, y_d, lookup, burn_in_blocks)
    outcomes = np.where(arms == 0, y_c, y_d).astype(np.int8)
    return arms, outcomes, counts


def simulate_trials(policy: Policy, theta, seed: int, start: int,
                    count: int) -> list[TrialHistory]:
    """Trials on streams ``start .. start + count - 1``, stepped together:
    alternating burn-in (permuted blocks for equal allocation), then
    policy-randomized arms and Bernoulli outcomes.  Each trial reads only
    its own stream, so it does not depend on ``start`` or ``count``."""
    u = _stream_uniforms(seed, start, count, 2 * policy.n)
    arms, outcomes, _ = _simulate_batch(policy, theta, u, _EpochLookup(policy))
    return [TrialHistory(a, y, policy.burn_in) for a, y in zip(arms, outcomes)]


def simulate_terminals(policy: Policy, theta, sims: int, seed: int, batch: int = 20_000):
    """Terminal states of ``sims`` independent trials, one substream per
    trial; returns ``(s_c, s_d, n_c)`` arrays."""
    lookup = _EpochLookup(policy)
    out = np.empty((3, sims), dtype=np.int64)
    for start in range(0, sims, batch):
        stop = min(start + batch, sims)
        u = _stream_uniforms(seed, start, stop - start, 2 * policy.n)
        _, _, counts = _simulate_batch(policy, theta, u, lookup)
        out[:, start:stop] = counts
    return tuple(out)


def _rerandomized_p_values(policy: Policy, arms: np.ndarray, outcomes: np.ndarray,
                           keys: np.ndarray, lookup: _EpochLookup) -> np.ndarray:
    """Randomization p-values of ``m`` observed trials, given as ``(m, n)``
    rows of arms and outcomes: the outcomes stay fixed in participant
    order while the allocation is re-run with the key rows ``keys``
    ``(m, reps, n)``.  The burn-in is one permuted balanced block."""
    n, reps = policy.n, keys.shape[1]
    s_c, s_d, n_c = _terminal_counts(arms, outcomes, outcomes)
    t_obs = np.abs(wald_statistics(s_c, s_d, n_c, n - n_c))
    y = outcomes[:, None, :]
    _, (s_c, s_d, n_c) = _allocate(policy, keys, y, y, lookup, burn_in_blocks=True)
    stats = np.abs(wald_statistics(s_c, s_d, n_c, n - n_c))
    hits = np.count_nonzero(stats >= t_obs[:, None], axis=1)
    return (1 + hits) / (reps + 1.0)


def randomization_test(observed: TrialHistory, policy: Policy, reps: int,
                       alpha: float, seed: int, stream: int = 0):
    """Two-sided randomization test: hold the outcome sequence fixed in
    participant order, re-run the allocation mechanism, and compare the
    observed Wald statistic against the re-randomization distribution.

    The p-value is the Monte Carlo estimate of P(|T| >= |t_obs|) with the
    observed trial counted as one of the draws::

        p = (1 + #{r : |T_r| >= |t_obs|}) / (reps + 1)

    so p lies in [1/(reps+1), 1], and p = 1 when every re-randomized
    statistic ties the observed one (for instance when all outcomes are
    zero).  Under exchangeability P(p <= alpha) <= alpha for every reps
    (Phipson & Smyth 2010).  Ties count fully, which makes the test
    conservative under designs with heavy statistic ties, such as
    permuted-block equal allocation, but never anti-conservative.

    The burn-in is re-randomized as one permuted balanced block, matching
    the reference simulation protocol.  The keys are the first
    ``reps * n`` draws of stream ``stream``.
    """
    check_alpha(alpha)
    if reps < 100:
        raise ValueError("need at least 100 re-randomizations")
    n = policy.n
    keys = _stream_uniforms(seed, stream, 1, reps * n).reshape(1, reps, n)
    p = float(_rerandomized_p_values(
        policy, observed.arms[None, :], observed.outcomes[None, :], keys, _EpochLookup(policy)
    )[0])
    return p <= alpha, p


@dataclass(frozen=True)
class RateEstimate:
    estimate: float
    half_width: float
    sims: int
    reps: int
    seed: RngSeed


def randomization_rejection_rate(policy: Policy, theta, sims: int, reps: int,
                                 alpha: float, seed: int) -> RateEstimate:
    """Rejection rate of the randomization test over independent simulated
    trials, with a normal-approximation 95% half-width.  The observed
    trials use the same burn-in mechanism as the re-randomizations.

    Trial ``i`` reads stream ``i``: ``2n`` trial draws, then its
    ``reps * n`` re-randomization keys.  Trials are stepped in chunks of
    about ``RERANDOMIZED_ROWS`` re-randomized rows."""
    check_alpha(alpha)
    if sims < 100 or reps < 100:
        raise ValueError("need at least 100 simulations and re-randomizations")
    n = policy.n
    lookup = _EpochLookup(policy)
    chunk = max(1, RERANDOMIZED_ROWS // reps)
    rejections = 0
    for start in range(0, sims, chunk):
        m = min(chunk, sims - start)
        u = _stream_uniforms(seed, start, m, (2 + reps) * n)
        arms, outcomes, _ = _simulate_batch(policy, theta, u[:, :2 * n], lookup,
                                            burn_in_blocks=True)
        keys = u[:, 2 * n:].reshape(m, reps, n)
        p = _rerandomized_p_values(policy, arms, outcomes, keys, lookup)
        rejections += int(np.count_nonzero(p <= alpha))
    est = rejections / sims
    half = 1.96 * np.sqrt(est * (1.0 - est) / sims)
    return RateEstimate(est, float(half), sims, reps, RngSeed(seed))
