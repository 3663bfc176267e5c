"""Trial simulation and the randomization-based Wald test.

All randomness comes from counter-based generators keyed by a master
seed and a stream index, so results are bit-reproducible for a fixed
seed on any worker partition.  Within one stream the first ``n`` draws
are allocation keys and the next ``n`` are outcome draws; permuted-block
allocations turn their keys into arrangements by sorting.  A trial moves
along the edges of :class:`~rarexact.states.Transition`, like the exact
sweeps; its allocation probabilities are looked up per layer by
:meth:`~rarexact.states.Layer.indices`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import check_alpha
from .policies import EqualAllocation, Policy
from .states import TrialState, layer as make_layer
from .wald import wald_statistics

GENERATOR_ID = "philox4x64-numpy"
DEFAULT_EA_BLOCK = 10


@dataclass(frozen=True)
class RngSeed:
    """Master seed plus the generator identity recorded in outputs."""

    seed: int
    generator: str = GENERATOR_ID


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
        s_c, s_d, n_c = map(int, _terminal_counts(self.arms, self.outcomes))
        return TrialState(s_c, s_d, n_c, self.n - n_c)

    def control_proportion_path(self) -> np.ndarray:
        """Running proportion of participants allocated to control."""
        return np.cumsum(self.arms == 0) / np.arange(1, self.n + 1)


def _terminal_counts(arms: np.ndarray, outcomes: np.ndarray):
    """``(s_c, s_d, n_c)`` of trials laid out along the last axis."""
    is_c = arms == 0
    return (outcomes & is_c).sum(axis=-1), (outcomes & ~is_c).sum(axis=-1), is_c.sum(axis=-1)


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


def permuted_block_sequence(n: int, block: int, seed_or_rng) -> np.ndarray:
    """Arm sequence from a permuted block design: each full block holds
    exactly half of each arm in uniformly random order; a trailing partial
    block is a uniformly drawn balanced prefix."""
    if block % 2 != 0:
        raise ValueError("block size must be even")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else make_rng(seed_or_rng)
    keys = rng.random(n)
    return _arms_from_keys(keys, _block_plan(n, 0, block))


class _EpochLookup:
    """Vectorized per-epoch allocation probabilities for a policy: the
    layer and its control probabilities, kept once per epoch."""

    def __init__(self, policy: Policy):
        self.policy = policy
        self._cache: dict[int, tuple] = {}

    def lookup(self, t: int, s_c, s_d, n_c) -> np.ndarray:
        entry = self._cache.get(t)
        if entry is None:
            lay = make_layer(t, self.policy.burn_in, self.policy.n)
            entry = self._cache[t] = (lay, self.policy.layer_control_probs(lay))
        lay, probs = entry
        return probs[lay.indices(s_c, s_d, n_c)]


def _burn_in_arms(alloc_keys: np.ndarray, b: int, blocks: bool) -> np.ndarray:
    """Arms for the first ``2b`` participants: one permuted balanced block,
    or the canonical alternation."""
    m = alloc_keys.shape[0]
    if b == 0:
        return np.empty((m, 0), dtype=np.int8)
    if blocks:
        return _arms_from_keys(alloc_keys[:, : 2 * b], [2 * b])
    return np.tile(_balanced_pattern(2 * b), (m, 1))


def _simulate_batch(policy: Policy, theta, alloc_keys: np.ndarray,
                    outcome_keys: np.ndarray, lookup: _EpochLookup,
                    ea_block: int = DEFAULT_EA_BLOCK,
                    burn_in_blocks: bool = False):
    """Step a batch of trials; returns per-trial arms and outcomes."""
    n, b = policy.n, policy.burn_in
    m = alloc_keys.shape[0]
    tc, td = theta
    arms = np.empty((m, n), dtype=np.int8)
    if isinstance(policy, EqualAllocation):
        arms[:] = _arms_from_keys(alloc_keys, _block_plan(n, b, ea_block))
        outcomes = np.where(
            arms == 0, outcome_keys < tc, outcome_keys < td
        ).astype(np.int8)
        return arms, outcomes

    burn_in = _burn_in_arms(alloc_keys, b, burn_in_blocks)
    s_c = np.zeros(m, dtype=np.int64)
    s_d = np.zeros(m, dtype=np.int64)
    n_c = np.zeros(m, dtype=np.int64)
    outcomes = np.empty((m, n), dtype=np.int8)
    for t in range(n):
        if t < 2 * b:
            arm = burn_in[:, t]
        else:
            q = lookup.lookup(t, s_c, s_d, n_c)
            arm = (alloc_keys[:, t] >= q).astype(np.int8)
        y = np.where(arm == 0, outcome_keys[:, t] < tc, outcome_keys[:, t] < td)
        arms[:, t] = arm
        outcomes[:, t] = y
        is_c = arm == 0
        n_c += is_c
        s_c += is_c & y
        s_d += (~is_c) & y
    return arms, outcomes


def _one_trial(policy: Policy, theta, rng: np.random.Generator, lookup: _EpochLookup,
               ea_block: int, burn_in_blocks: bool = False) -> TrialHistory:
    """One trial from the next ``2n`` draws of ``rng``."""
    u = rng.random(2 * policy.n)[None, :]
    arms, outcomes = _simulate_batch(
        policy, theta, u[:, :policy.n], u[:, policy.n:], lookup, ea_block, burn_in_blocks
    )
    return TrialHistory(arms[0], outcomes[0], policy.burn_in)


def simulate_trial(policy: Policy, theta, seed: int, stream: int = 0,
                   ea_block: int = DEFAULT_EA_BLOCK) -> TrialHistory:
    """Simulate one trial: alternating burn-in (permuted blocks for equal
    allocation), then policy-randomized arms and Bernoulli outcomes."""
    return _one_trial(policy, theta, make_rng(seed, stream), _EpochLookup(policy), ea_block)


def simulate_terminals(policy: Policy, theta, sims: int, seed: int,
                       ea_block: int = DEFAULT_EA_BLOCK,
                       batch: int = 20_000):
    """Terminal states of ``sims`` independent trials, one substream per
    trial; returns ``(s_c, s_d, n_c)`` arrays."""
    n = policy.n
    lookup = _EpochLookup(policy)
    out = np.empty((3, sims), dtype=np.int64)
    for start in range(0, sims, batch):
        stop = min(start + batch, sims)
        m = stop - start
        u = np.empty((m, 2 * n))
        for i in range(m):
            u[i] = make_rng(seed, start + i).random(2 * n)
        arms, outcomes = _simulate_batch(
            policy, theta, u[:, :n], u[:, n:], lookup, ea_block
        )
        out[:, start:stop] = _terminal_counts(arms, outcomes)
    return tuple(out)


def _rerandomized_stats(policy: Policy, outcomes: np.ndarray, reps: int,
                        rng: np.random.Generator, lookup: _EpochLookup,
                        ea_block: int, burn_in_blocks: bool) -> np.ndarray:
    """Wald statistics of ``reps`` re-randomized allocations over a fixed
    outcome sequence (outcomes attach to participant positions)."""
    n, b = policy.n, policy.burn_in
    keys = rng.random((reps, n))
    if isinstance(policy, EqualAllocation):
        arms = _arms_from_keys(keys, _block_plan(n, b, ea_block))
        s_c, s_d, n_c = _terminal_counts(arms, outcomes)
        return wald_statistics(s_c, s_d, n_c, n - n_c)

    burn_in = _burn_in_arms(keys, b, burn_in_blocks)
    s_c = np.zeros(reps, dtype=np.int64)
    s_d = np.zeros(reps, dtype=np.int64)
    n_c = np.zeros(reps, dtype=np.int64)
    for t in range(n):
        if t < 2 * b:
            arm = burn_in[:, t]
        else:
            q = lookup.lookup(t, s_c, s_d, n_c)
            arm = (keys[:, t] >= q).astype(np.int8)
        y = outcomes[t]
        is_c = arm == 0
        n_c += is_c
        if y:
            s_c += is_c
            s_d += ~is_c
    return wald_statistics(s_c, s_d, n_c, n - n_c)


def randomization_test(observed: TrialHistory, policy: Policy, reps: int,
                       alpha: float, seed: int, stream: int = 0,
                       rng: np.random.Generator | None = None,
                       lookup: _EpochLookup | None = None,
                       ea_block: int = DEFAULT_EA_BLOCK,
                       burn_in_blocks: bool = True):
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

    The burn-in is re-randomized as one permuted balanced block by default,
    matching the reference simulation protocol.
    """
    check_alpha(alpha)
    if reps < 100:
        raise ValueError("need at least 100 re-randomizations")
    rng = rng if rng is not None else make_rng(seed, stream)
    lookup = lookup if lookup is not None else _EpochLookup(policy)
    s_c, s_d, n_c = _terminal_counts(observed.arms[None, :], observed.outcomes)
    t_obs = np.abs(wald_statistics(s_c, s_d, n_c, observed.n - n_c))
    stats = np.abs(_rerandomized_stats(
        policy, observed.outcomes, reps, rng, lookup, ea_block, burn_in_blocks
    ))
    p = (1 + np.count_nonzero(stats >= t_obs)) / (reps + 1.0)
    return p <= alpha, float(p)


@dataclass(frozen=True)
class RateEstimate:
    estimate: float
    half_width: float
    sims: int
    reps: int
    seed: RngSeed


def randomization_rejection_rate(policy: Policy, theta, sims: int, reps: int,
                                 alpha: float, seed: int,
                                 ea_block: int = DEFAULT_EA_BLOCK,
                                 burn_in_blocks: bool = True) -> RateEstimate:
    """Rejection rate of the randomization test over independent simulated
    trials, with a normal-approximation 95% half-width.  The observed
    trials use the same burn-in mechanism as the re-randomizations."""
    check_alpha(alpha)
    if sims < 100 or reps < 100:
        raise ValueError("need at least 100 simulations and re-randomizations")
    lookup = _EpochLookup(policy)
    rejections = 0
    for i in range(sims):
        rng = make_rng(seed, i)
        observed = _one_trial(policy, theta, rng, lookup, ea_block, burn_in_blocks)
        reject, _ = randomization_test(
            observed, policy, reps, alpha, seed, rng=rng, lookup=lookup,
            ea_block=ea_block, burn_in_blocks=burn_in_blocks,
        )
        rejections += bool(reject)
    est = rejections / sims
    half = 1.96 * np.sqrt(est * (1.0 - est) / sims)
    return RateEstimate(est, float(half), sims, reps, RngSeed(seed))
