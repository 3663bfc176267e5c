import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from rarexact import (
    BayesianRar,
    DbcdNeyman,
    EqualAllocation,
    PolicyTable,
    TemperedDbcdNeyman,
    TrialState,
    forward_g,
    layer,
    randomization_rejection_rate,
    randomization_rejection_rates,
    randomization_test,
    simulate_terminals,
)
from rarexact import montecarlo
from rarexact.montecarlo import (
    _epoch_probs,
    _randomization_p_values,
    _simulate_batch,
    _stream_uniforms,
    _terminal_abs_wald,
    make_rng,
    simulate_trials,
    simulate_trials_at,
)

from rarexact.policies import Policy

from oracles import (
    allocation_paths_enum,
    permuted_block_sequence,
    random_codes,
    randomization_p_value_enum,
    randomization_p_values_ref,
    simulate_trial,
    simulate_trial_ref,
    table_from_codes,
    terminal_state_ref,
)


def _random_table(n, b, p, seed):
    """A ``PolicyTable`` with uniformly drawn actions."""
    return table_from_codes(n, b, p, random_codes(n, b, np.random.default_rng(seed)))


class _NanCoin(Policy):
    """Fills NaN allocation probabilities."""

    def fill_arm_probs(self, lay, q, q1):
        q.fill(np.nan)
        q1.fill(np.nan)


def test_simulate_certain_outcomes():
    arms, outcomes = simulate_trial(BayesianRar(12, 2), (1.0, 1.0), seed=1)
    assert np.all(outcomes == 1)
    st = terminal_state_ref(arms, outcomes)
    assert st.successes == 12
    # the burn-in is one permuted balanced block
    assert sorted(arms[:4].tolist()) == [0, 0, 1, 1]


def test_simulate_equal_allocation_balance():
    pol = EqualAllocation(50, 6)
    for seed in range(5):
        st = terminal_state_ref(*simulate_trial(pol, (0.4, 0.7), seed=seed))
        assert st.n_c == st.n_d == 25


def test_permuted_blocks():
    arms = permuted_block_sequence(10, 10, seed_or_rng=3)
    assert (arms == 0).sum() == 5
    arms = permuted_block_sequence(40, 10, seed_or_rng=4)
    for k in range(1, 5):
        assert (arms[: 10 * k] == 0).sum() == 5 * k
    # trailing partial block stays balanced
    arms = permuted_block_sequence(17, 10, seed_or_rng=5)
    assert (arms[10:] == 0).sum() in (3, 4)
    with pytest.raises(ValueError):
        permuted_block_sequence(10, 7, seed_or_rng=0)


def test_permuted_block_arrangements_uniform():
    # all 6 balanced arrangements of a block of 4 appear uniformly
    counts = {}
    rng = make_rng(123)
    for _ in range(20_000):
        key = tuple(permuted_block_sequence(4, 4, seed_or_rng=rng))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    res = chisquare(list(counts.values()))
    assert res.pvalue > 0.001


@pytest.mark.parametrize("policy", [
    DbcdNeyman(6, 2), BayesianRar(6, 2), _random_table(6, 2, 0.9, seed=2),
], ids=repr)
def test_simulated_trials_are_the_trials_the_randomization_test_assumes(policy, monkeypatch):
    # the test re-randomizes the burn-in as one permuted balanced block:
    # simulated burn-ins take all C(4, 2) arrangements uniformly
    arms, _ = simulate_trials(policy, (0.3, 0.6), 5, 0, 6000)
    counts = {}
    for row in arms[:, :4].tolist():
        counts[tuple(row)] = counts.get(tuple(row), 0) + 1
    assert len(counts) == math.comb(4, 2)
    assert chisquare(list(counts.values())).pvalue > 0.001
    # and the rate tests the very trials simulate_trials gives
    tested = []
    p_values = montecarlo._randomization_p_values
    monkeypatch.setattr(montecarlo, "_randomization_p_values",
                        lambda pol, a, y, *rest: tested.append((a, y)) or p_values(pol, a, y, *rest))
    monkeypatch.setattr(montecarlo, "SIM_BATCH", 60)
    thetas = [(0.3, 0.6), (0.5, 0.5)]
    randomization_rejection_rates(policy, thetas, 120, 0.05, 11)
    for k, (arms, outcomes) in enumerate(simulate_trials_at(policy, thetas, 11, 0, 120)):
        # batches outer, thetas inner
        got = [tested[2 * batch + k] for batch in range(2)]
        assert np.array_equal(np.concatenate([a for a, _ in got]), arms)
        assert np.array_equal(np.concatenate([y for _, y in got]), outcomes)


@pytest.mark.parametrize("entry", [
    lambda pol: simulate_trials(pol, (0.5, 0.5), 1, 0, 5),
    lambda pol: simulate_terminals(pol, (0.5, 0.5), 5, 1),
    lambda pol: randomization_rejection_rates(pol, [(0.5, 0.5)], 100, 0.05, 1),
    lambda pol: randomization_test(np.zeros((1, 10)), np.zeros((1, 10)), pol, 0.05),
], ids=["simulate_trials", "simulate_terminals", "rates", "test"])
def test_allocation_probabilities_that_are_no_pair_are_refused(entry):
    # NaN probabilities, which no key is below
    with pytest.raises(ValueError, match=r"probabilities at epoch \d+ are not a pair"):
        entry(_NanCoin(10, 1))


def test_trial_numbers_must_be_nonnegative():
    policy = DbcdNeyman(10, 1)
    for start, count, name in [(-3, 2, "start"), (0, -1, "count")]:
        with pytest.raises(ValueError, match=f"{name} = -"):
            simulate_trials_at(policy, [(0.5, 0.5)], 1, start, count)


def test_simulate_terminals_refuses_a_negative_number_of_trials_by_name():
    policy = DbcdNeyman(10, 1)
    with pytest.raises(ValueError, match="sims = -1 must be nonnegative"):
        simulate_terminals(policy, (0.5, 0.5), -1, 1)
    for counts in simulate_terminals(policy, (0.5, 0.5), 0, 1):
        assert counts.shape == (0,) and counts.dtype == np.int64


def test_block_arms_are_the_alternating_pattern_at_the_key_ranks():
    # the arm at each position of a block is that of 0, 1, 0, ... at the
    # sort index of its key
    lengths = EqualAllocation(23, 2).permuted_blocks
    keys = make_rng(3).random((1000, 23))
    arms = montecarlo._arms_from_keys(keys, lengths)
    assert arms.dtype == np.int8
    pos = 0
    for length in lengths:
        pattern = np.resize(np.array([0, 1], dtype=np.int8), length)
        order = np.argsort(keys[:, pos:pos + length], axis=1, kind="stable")
        assert np.array_equal(arms[:, pos:pos + length], pattern[order])
        pos += length


def test_reproducibility_and_substreams():
    pol = DbcdNeyman(20, 2)
    a = np.stack(simulate_trial(pol, (0.4, 0.6), seed=17, stream=5))
    b = np.stack(simulate_trial(pol, (0.4, 0.6), seed=17, stream=5))
    assert np.array_equal(a, b)
    c = np.stack(simulate_trial(pol, (0.4, 0.6), seed=17, stream=6))
    assert not np.array_equal(a, c)
    # batch simulation's per-trial substreams match the one-trial path
    s_c, s_d, n_c = simulate_terminals(pol, (0.4, 0.6), sims=8, seed=17)
    for i in range(8):
        st = terminal_state_ref(*simulate_trial(pol, (0.4, 0.6), seed=17, stream=i))
        assert (st.s_c, st.s_d, st.n_c) == (s_c[i], s_d[i], n_c[i])


@pytest.mark.parametrize("seed, start, m, count", [
    (3, 0, 5, 7),                   # odd count
    (-11, 17, 4, 102),              # negative seed; count not a multiple of 4
    (2**70 + 5, 2**64 - 2, 3, 13),  # counters from 4 * (2**64 - 2) carry into word 1
])
def test_stream_uniforms_match_fresh_generators(seed, start, m, count):
    # trial i owns B = ceil(count / 4) Philox blocks from block i * B of
    # the run's one sequence, read here from generators built apart
    u = _stream_uniforms(seed, start, m, count)
    assert u.shape == (m, count)
    blocks = -(-count // 4)
    if start + m < 100:
        words = make_rng(seed).random(4 * blocks * (start + m)).reshape(start + m, 4 * blocks)
        assert np.array_equal(u, words[start:, :count])
    key = np.array([seed % 2**64, 0], dtype=np.uint64)
    for i in range(m):
        rng = np.random.Generator(np.random.Philox(key=key, counter=(start + i) * blocks))
        assert np.array_equal(u[i], rng.random(count))


@pytest.mark.parametrize("policy", [
    DbcdNeyman(14, 2), TemperedDbcdNeyman(13, 1), BayesianRar(12, 2), EqualAllocation(23, 2),
])
def test_batched_trials_match_per_trial_loop(policy):
    arms, outcomes = simulate_trials(policy, (0.3, 0.7), seed=8, start=5, count=40)
    assert arms.shape == outcomes.shape == (40, policy.n)
    assert arms.dtype == outcomes.dtype == np.int8
    for i in range(40):
        ref_arms, ref_outcomes = simulate_trial_ref(policy, (0.3, 0.7), seed=8, stream=5 + i)
        assert np.array_equal(arms[i], ref_arms) and np.array_equal(outcomes[i], ref_outcomes)
        assert ref_arms.dtype == ref_outcomes.dtype == np.int8


@pytest.mark.parametrize("policy", [DbcdNeyman(14, 2), BayesianRar(12, 2), EqualAllocation(12, 1)])
def test_trials_at_a_theta_list_share_one_lookup_and_match_one_point_calls(policy, monkeypatch):
    built = []
    monkeypatch.setattr(montecarlo, "_epoch_probs", lambda pol: built.append(pol) or _epoch_probs(pol))
    thetas = [(0.3, 0.7), (0.0, 1.0), (0.5, 0.5)]
    trials = simulate_trials_at(policy, thetas, 4, 2, 30)
    assert len(built) == 1 and len(trials) == len(thetas)
    for theta, (arms, outcomes) in zip(thetas, trials):
        want_arms, want_outcomes = simulate_trials(policy, theta, 4, 2, 30)
        assert np.array_equal(arms, want_arms) and np.array_equal(outcomes, want_outcomes)
        assert arms.dtype == outcomes.dtype == np.int8


@pytest.mark.parametrize("theta", [(math.nan, 0.5), (0.3, 2.0), (-0.2, 0.7)])
@pytest.mark.parametrize("entry", [
    lambda pol, theta: simulate_trials(pol, theta, 1, 0, 5),
    lambda pol, theta: simulate_terminals(pol, theta, 5, 1),
    lambda pol, theta: randomization_rejection_rates(pol, [(0.5, 0.5), theta], 100, 0.05, 1),
    lambda pol, theta: randomization_rejection_rate(pol, theta, 100, 0.05, 1),
    lambda pol, theta: simulate_trials_at(pol, [(0.5, 0.5), theta], 1, 0, 5),
], ids=["simulate_trials", "simulate_terminals", "rates", "rate", "trials_at"])
def test_theta_outside_the_unit_square_is_refused(entry, theta):
    with pytest.raises(ValueError, match=r"theta point \d .* is not in \[0, 1\]"):
        entry(DbcdNeyman(10, 1), theta)


def test_batch_chunking_invariance(monkeypatch):
    pol = BayesianRar(10, 1)
    monkeypatch.setattr(montecarlo, "SIM_BATCH", 7)
    a = simulate_terminals(pol, (0.3, 0.7), sims=50, seed=3)
    monkeypatch.setattr(montecarlo, "SIM_BATCH", 50)
    b = simulate_terminals(pol, (0.3, 0.7), sims=50, seed=3)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_empirical_frequencies_match_exact_distribution():
    pol = BayesianRar(10, 1)
    table = forward_g(pol)
    sims = 40_000
    s_c, s_d, n_c = simulate_terminals(pol, (0.5, 0.5), sims=sims, seed=77)
    lay = table.layer
    idx = lay.offsets[n_c - lay.n_c_min] + s_c * (10 - n_c + 1) + s_d
    counts = np.bincount(idx, minlength=lay.size)
    probs = np.exp(table.log_g - 10 * np.log(2.0))
    # pool cells with small expectation for a valid chi-square
    order = np.argsort(-probs)
    pooled_counts, pooled_probs = [], []
    acc_c = acc_p = 0.0
    for i in order:
        acc_c += counts[i]
        acc_p += probs[i]
        if acc_p * sims >= 10:
            pooled_counts.append(acc_c)
            pooled_probs.append(acc_p)
            acc_c = acc_p = 0.0
    pooled_counts[-1] += acc_c
    pooled_probs[-1] += acc_p
    expected = np.asarray(pooled_probs)
    expected = expected / expected.sum() * sims
    res = chisquare(pooled_counts, expected)
    assert res.pvalue > 0.001


def test_randomization_test_degenerate_outcomes():
    pol = EqualAllocation(20, 2)
    arms, outcomes = simulate_trials(pol, (0.0, 0.0), 5, 0, 1)
    assert np.all(outcomes == 0)
    reject, p = randomization_test(arms, outcomes, pol, alpha=0.05)
    assert p.tolist() == [1.0] and reject.tolist() == [False]


@pytest.mark.parametrize("policy_cls", [EqualAllocation, DbcdNeyman])
def test_randomization_test_smallest_p_value(policy_cls):
    # with theta = (0, 1) the observed |T| is infinite; an allocation ties
    # it only by reproducing (or mirroring) the observed arms, so p is the
    # probability of those arms, and not below it
    pol = policy_cls(12, 2)
    arms, outcomes = simulate_trial(pol, (0.0, 1.0), seed=5)
    (reject,), (p,) = randomization_test(arms[None], outcomes[None], pol, alpha=0.05)
    paths = dict(allocation_paths_enum(pol, outcomes))
    assert paths[tuple(arms.tolist())] <= p < 0.05 and reject
    assert p == pytest.approx(randomization_p_value_enum(pol, arms, outcomes), rel=0.0, abs=1e-14)


@pytest.mark.parametrize("policy", [
    DbcdNeyman(12, 2), EqualAllocation(12, 2), EqualAllocation(11, 0), EqualAllocation(12, 1),
    TemperedDbcdNeyman(10, 1), BayesianRar(10, 1), _random_table(10, 1, 0.9, seed=3),
])
def test_randomization_test_matches_reference(policy):
    # simulated trials, tested; the enumeration sums the probabilities of
    # every arrangement and arm sequence
    arms, outcomes = simulate_trials(policy, (0.2, 0.7), 4, 0, 6)
    reject, p = randomization_test(arms, outcomes, policy, alpha=0.1)
    assert np.array_equal(reject, p <= 0.1) and reject.dtype == bool
    for a, y, p_row in zip(arms, outcomes, p):
        assert p_row == pytest.approx(randomization_p_value_enum(policy, a, y),
                                      rel=0.0, abs=1e-14)


@pytest.mark.parametrize("policy", [DbcdNeyman(12, 2), EqualAllocation(12, 1)], ids=repr)
def test_randomization_test_takes_rows_of_trials(policy):
    # m rows at once give the bits of m one-row calls and of the DP itself,
    # for arms and outcomes of any integer or bool dtype
    arms, outcomes = simulate_trials(policy, (0.3, 0.7), 6, 0, 40)
    reject, p = randomization_test(arms, outcomes, policy, alpha=0.2)
    assert p.shape == reject.shape == (40,)
    assert np.array_equal(p, _randomization_p_values(policy, arms, outcomes, _epoch_probs(policy),
                                                     _terminal_abs_wald(policy)))
    for i in range(40):
        r_i, p_i = randomization_test(arms[i:i + 1], outcomes[i:i + 1], policy, alpha=0.2)
        assert (r_i.tolist(), p_i.tolist()) == ([reject[i]], [p[i]])
    _, p_wide = randomization_test(arms.astype(np.int64), outcomes.astype(bool), policy, 0.2)
    assert np.array_equal(p_wide, p)
    # rows of another length, 1-D trials, mismatched shapes and entries
    # other than 0/1 are refused
    bad_entries = arms.copy()
    bad_entries[3, 5] = 2
    for bad_arms, bad_outcomes in [
        (arms[:, :-1], outcomes[:, :-1]), (arms[0], outcomes[0]), (arms[:5], outcomes[:4]),
        (bad_entries, outcomes), (arms, outcomes * 0.5), (arms, np.where(outcomes, np.nan, 0)),
    ]:
        with pytest.raises(ValueError, match="rows of trials|0 or 1"):
            randomization_test(bad_arms, bad_outcomes, policy, alpha=0.2)


ORACLE_POLICIES = [
    EqualAllocation(11, 0), EqualAllocation(12, 1), DbcdNeyman(16, 2), TemperedDbcdNeyman(14, 1),
    BayesianRar(14, 2), _random_table(14, 1, 0.9, seed=5),
]


@pytest.mark.parametrize("policy", ORACLE_POLICIES, ids=repr)
def test_sorted_chunks_and_terminal_table_match_the_chunk_oracle(policy, monkeypatch):
    # the sorted DP_TRIALS chunks, the terminal |T| table and the shifted
    # add give the p-values of the unsorted chunk DP bit for bit, in any
    # trial order
    monkeypatch.setattr(montecarlo, "DP_TRIALS", 5)
    probs, abs_t = _epoch_probs(policy), _terminal_abs_wald(policy)
    u = _stream_uniforms(9, 0, 120, 2 * policy.n)
    order = np.random.default_rng(1).permutation(120)
    for theta in ((0.3, 0.3), (0.2, 0.8)):
        arms, outcomes, _ = _simulate_batch(policy, theta, u, probs)
        ref = randomization_p_values_ref(policy, arms, outcomes)
        assert np.array_equal(_randomization_p_values(policy, arms, outcomes, probs, abs_t), ref)
        shuffled = _randomization_p_values(policy, arms[order], outcomes[order], probs, abs_t)
        assert np.array_equal(shuffled, ref[order])


@pytest.mark.parametrize("policy", ORACLE_POLICIES, ids=repr)
def test_rejection_rates_count_the_chunk_oracle_rejections(policy, monkeypatch):
    # one rate per theta over one set of shared arrays; each counts the trials
    # whose oracle p-value is at most alpha, for every seed, whatever the
    # simulation batch
    thetas, sims, alpha = [(0.3, 0.3), (0.2, 0.8)], 100, 0.1
    monkeypatch.setattr(montecarlo, "SIM_BATCH", 37)
    for seed in (0, 7, -3):
        rates = randomization_rejection_rates(policy, thetas, sims, alpha, seed)
        for theta, rate in zip(thetas, rates):
            u = _stream_uniforms(seed, 0, sims, 2 * policy.n)
            arms, outcomes, _ = _simulate_batch(policy, theta, u, _epoch_probs(policy))
            p = randomization_p_values_ref(policy, arms, outcomes)
            assert rate.estimate == np.count_nonzero(p <= alpha) / sims
            assert rate == randomization_rejection_rate(policy, theta, sims, alpha, seed)


def test_rejection_rate_keeps_the_allocation_probabilities_and_no_layer_arrays():
    # the run keeps q alone of every epoch 2b .. n - 1, 8 B a state; the
    # layers they were filled on, with their per-state arrays, and the DP's
    # index grids are not held for the run
    policy = DbcdNeyman(60, 2)
    states = sum(layer(t, 2).size for t in range(4, 60))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        randomization_rejection_rates(policy, [(0.3, 0.3), (0.3, 0.6)], 100, 0.05, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 20 * states


def test_adaptive_design_without_burn_in_has_no_randomization_test():
    # with no burn-in some allocation leaves an arm empty, where the Wald
    # statistic is undefined; the |T| table holds NaN there and is not read
    pol = BayesianRar(8, 0)
    arms, outcomes = simulate_trials(pol, (0.4, 0.6), 3, 0, 1)
    assert 0 < np.count_nonzero(arms == 0) < pol.n
    with pytest.raises(ValueError, match="both group sizes positive"):
        randomization_test(arms, outcomes, pol, alpha=0.05)


def test_randomization_grid_indexes_inside_each_layer():
    # the p-value recursion reads q at every (n_c, s_c) of its grid, n_c in
    # b .. t - b and s_c in 0 .. t - b, with s_d = S_t - s_c for any S_t in
    # 0 .. t; states off the layer hold no mass but must index inside it
    for b in range(7):
        for t in range(max(2 * b, 1), 80):
            lay = layer(t, b)
            n_c = np.arange(b, t - b + 1)[:, None, None]
            s_c = np.arange(t - b + 1)[None, :, None]
            idx = lay.indices(s_c, np.arange(t + 1) - s_c, n_c)
            assert 0 <= idx.min() and idx.max() < lay.size


@st.composite
def _designs(draw):
    kind = draw(st.sampled_from(
        [EqualAllocation, DbcdNeyman, TemperedDbcdNeyman, BayesianRar, PolicyTable]))
    # an adaptive design needs both arms non-empty for the Wald statistic
    b = draw(st.integers(0 if kind is EqualAllocation else 1, 3))
    n = draw(st.integers(max(2 * b, 2), 12 if kind is EqualAllocation else 10))
    if kind is PolicyTable:
        p = draw(st.sampled_from([0.5, 0.8, 0.95, 1.0]))
        return _random_table(n, b, p, draw(st.integers(0, 2**32 - 1)))
    return kind(n, b)


@settings(max_examples=60, deadline=None)
@given(policy=_designs(), data=st.data())
def test_exact_randomization_test_keeps_its_level(policy, data):
    # given the outcomes, P(p <= alpha) over the design's allocations, each
    # enumerated with its probability, is at most alpha
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=policy.n, max_size=policy.n)),
                 dtype=np.int8)
    paths = allocation_paths_enum(policy, y)
    arms = np.array([a for a, _ in paths], dtype=np.int8)
    probs = np.array([prob for _, prob in paths])
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
    p = _randomization_p_values(policy, arms, np.tile(y, (len(paths), 1)), _epoch_probs(policy),
                                _terminal_abs_wald(policy))
    for alpha in (0.01, 0.05, 0.1, 0.2, 0.5):
        assert math.fsum(probs[p <= alpha]) <= alpha + 1e-12


def test_randomization_ratetest_reproducible():
    pol = DbcdNeyman(16, 2)
    a = randomization_rejection_rate(pol, (0.4, 0.8), sims=120, alpha=0.05, seed=42)
    b = randomization_rejection_rate(pol, (0.4, 0.8), sims=120, alpha=0.05, seed=42)
    assert a == b
    assert a.half_width == pytest.approx(
        1.96 * np.sqrt(a.estimate * (1 - a.estimate) / 120), abs=1e-12
    )


# 100 is the fewest trials the rate accepts, 1000 the CLI's default
@pytest.mark.parametrize("sims", [100, 1000])
@pytest.mark.parametrize("policy", [
    DbcdNeyman(12, 2), TemperedDbcdNeyman(12, 2), BayesianRar(10, 1), EqualAllocation(12, 1),
])
def test_chunked_rejection_rate_matches_per_trial_loop(policy, sims, monkeypatch):
    theta, alpha, seed = (0.2, 0.8), 0.2, -3
    probs, abs_t = _epoch_probs(policy), _terminal_abs_wald(policy)
    u = _stream_uniforms(seed, 0, sims, 2 * policy.n)
    arms, outcomes, _ = _simulate_batch(policy, theta, u, probs)
    # the observed trials are those stepped one at a time from their streams
    for i in range(0, sims, 9):
        ref_arms, ref_outcomes = simulate_trial_ref(policy, theta, seed, i)
        assert np.array_equal(arms[i], ref_arms) and np.array_equal(outcomes[i], ref_outcomes)
    # p-values bit for bit the same in chunks of 1, 7 and all trials
    p = _randomization_p_values(policy, arms, outcomes, probs, abs_t)
    for chunk in (1, 7):
        parts = [_randomization_p_values(policy, arms[i:i + chunk], outcomes[i:i + chunk],
                                         probs, abs_t)
                 for i in range(0, sims, chunk)]
        assert np.array_equal(np.concatenate(parts), p)
    rates = {randomization_rejection_rate(policy, theta, sims, alpha=alpha, seed=seed)}
    for chunk in (7, sims):
        monkeypatch.setattr(montecarlo, "DP_TRIALS", chunk)
        rates.add(randomization_rejection_rate(policy, theta, sims, alpha=alpha, seed=seed))
    (rate,) = rates
    assert rate.estimate == np.count_nonzero(p <= alpha) / sims
    assert 0 < rate.estimate < 1


def test_randomization_null_within_ci():
    # the exact test keeps its level, conservatively for permuted blocks
    # (about 0.017 over 20,000 trials), so the estimate may sit anywhere
    # below alpha but not more than 4 standard errors above it
    pol = EqualAllocation(20, 2)
    alpha, sims = 0.05, 400
    est = randomization_rejection_rate(pol, (0.4, 0.4), sims=sims, alpha=alpha, seed=2024)
    assert est.estimate <= alpha + 4 * math.sqrt(alpha * (1 - alpha) / sims)


def test_exchangeability_of_rerandomized_statistics():
    # under the null the observed statistic is exchangeable with those of
    # the design's other allocations: its exact p-value is about uniform
    pol = DbcdNeyman(20, 2)
    _, pvals = randomization_test(*simulate_trials(pol, (0.5, 0.5), 99, 0, 300), pol, alpha=0.05)
    # coarse uniformity check on quartiles
    qs = np.quantile(pvals, [0.25, 0.5, 0.75])
    assert np.all(np.abs(qs - [0.25, 0.5, 0.75]) < 0.12)
