import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarexact import (
    BayesianRar,
    DbcdNeyman,
    EqualAllocation,
    TemperedDbcdNeyman,
    TrialState,
    forward_g,
    layer,
    simulate_terminals,
)
from rarexact.engine import LN2, TerminalFunctional, _sweep, layer_log_likelihood
from rarexact.policies import Policy, PolicyTable
from rarexact.states import Layer, Transition

from oracles import (
    block_values_ref,
    code_gather_policy_ref,
    enumerate_path_weights,
    equal_allocation_log_g_ref,
    expectation_ref,
    forward_g_alloc_ref,
    forward_g_log_ref,
    layer_log_likelihood_ref,
    log_likelihood_weight,
    random_codes,
    swap_permutation,
    table_from_codes,
)


class ConstantCoin(Policy):
    """Fixed allocation probability; handy for hand-checkable path sums."""

    def __init__(self, n, b, q):
        super().__init__(n, b)
        object.__setattr__(self, "q", q)

    def control_prob(self, state):
        return self.q

    def fill_arm_probs(self, lay, q, q1):
        q.fill(self.q)
        q1.fill(1.0 - self.q)


def _table_as_dict(table):
    lay = table.layer
    out = {}
    for i in range(lay.size):
        st = lay.state(i)
        out[(st.s_c, st.s_d, st.n_c, st.n_d)] = math.exp(table.log_g[i])
    return out


def test_forward_constant_coin_single_step():
    table = forward_g(ConstantCoin(1, 0, 0.3))
    got = _table_as_dict(table)
    assert got[(1, 0, 1, 0)] == pytest.approx(0.3, abs=1e-15)
    assert got[(0, 0, 1, 0)] == pytest.approx(0.3, abs=1e-15)
    assert got[(0, 1, 0, 1)] == pytest.approx(0.7, abs=1e-15)
    assert got[(0, 0, 0, 1)] == pytest.approx(0.7, abs=1e-15)


def test_forward_pure_burn_in_is_binomial():
    table = forward_g(BayesianRar(12, 6))
    lay = table.layer
    assert lay.n_c_min == lay.n_c_max == 6
    for i in range(lay.size):
        st = lay.state(i)
        expected = math.comb(6, st.s_c) * math.comb(6, st.s_d)
        assert math.exp(table.log_g[i]) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "policy",
    [
        ConstantCoin(6, 0, 0.37),
        BayesianRar(6, 1),
        DbcdNeyman(6, 1, gamma=2.0),
        BayesianRar(8, 2),
    ],
)
def test_forward_matches_history_enumeration(policy):
    ref = enumerate_path_weights(
        lambda s: policy.control_prob(TrialState(*s)), policy.n, policy.burn_in
    )
    got = _table_as_dict(forward_g(policy))
    for state, g in ref.items():
        assert got[state] == pytest.approx(g, rel=1e-10)
    for state, g in got.items():
        if g > 0:
            assert state in ref


def test_normalization_at_fair_coin():
    assert forward_g(BayesianRar(20, 2)).normalization_error() < 1e-9


def test_symmetric_policy_yields_exactly_symmetric_table():
    table = forward_g(BayesianRar(15, 1))
    perm = swap_permutation(table.layer)
    assert np.array_equal(table.log_g, table.log_g[perm])


def test_equal_allocation_examples():
    table = forward_g(EqualAllocation(2, 0))
    got = _table_as_dict(table)
    assert got[(0, 0, 1, 1)] == pytest.approx(1.0)
    assert got[(1, 1, 1, 1)] == pytest.approx(1.0)
    # off-balance states carry no weight
    assert got[(0, 0, 2, 0)] == 0.0
    # at an odd horizon all weight sits on ceil(n / 2) controls, the n_c
    # of every simulated trial
    for n, b in [(7, 0), (9, 1), (23, 2)]:
        policy = EqualAllocation(n, b)
        table = forward_g(policy)
        live = np.zeros(table.layer.size, dtype=bool)
        live[table.layer.block_slice((n + 1) // 2)] = True
        assert np.array_equal(np.isfinite(table.log_g), live)
        assert table.normalization_error() <= 1e-12
        _, _, n_c = simulate_terminals(policy, (0.4, 0.7), 200, seed=1)
        assert np.all(n_c == (n + 1) // 2)


def test_equal_allocation_matches_the_closed_form():
    # the sweep starts from its one block and takes no step: its log
    # weights make one round trip through the fair-coin probabilities
    for n in range(1, 81):
        for b in (0, 1, 3, 6):
            if 2 * b > n:
                continue
            got = forward_g(EqualAllocation(n, b)).log_g
            want = equal_allocation_log_g_ref(n, b)
            assert np.array_equal(np.isfinite(got), np.isfinite(want))
            live = np.isfinite(want)
            assert np.all(np.abs(got[live] - want[live]) <= 1e-15 * np.abs(want[live]))


def test_equal_allocation_matches_permuted_history_counts():
    n = 6
    table = forward_g(EqualAllocation(n, 0))
    got = _table_as_dict(table)
    for (s_c, s_d, n_c, n_d), g in got.items():
        if n_c == n // 2:
            assert g == pytest.approx(math.comb(n // 2, s_c) * math.comb(n // 2, s_d), rel=1e-12)
        else:
            assert g == 0.0


def test_forward_dispatches_equal_allocation():
    table = forward_g(EqualAllocation(4, 1))
    assert table.meta["kind"] == "EqualAllocation"
    got = _table_as_dict(table)
    assert got[(2, 2, 2, 2)] == pytest.approx(1.0)


def test_log_likelihood_weight_conventions():
    full = TrialState(2, 3, 2, 3)
    assert log_likelihood_weight(full, (1.0, 1.0)) == 0.0
    some_failure = TrialState(1, 3, 2, 3)
    assert log_likelihood_weight(some_failure, (1.0, 1.0)) == -np.inf
    any_state = TrialState(1, 2, 3, 4)
    assert log_likelihood_weight(any_state, (0.5, 0.5)) == pytest.approx(-7 * math.log(2))


def test_layer_log_likelihood_matches_scalar():
    lay = layer(7, 1)
    for theta in [(0.3, 0.6), (0.0, 1.0), (1.0, 0.5)]:
        vec = layer_log_likelihood(lay, theta)
        for i in range(0, lay.size, 2):
            assert vec[i] == pytest.approx(
                log_likelihood_weight(lay.state(i), theta), abs=1e-12
            ) or (vec[i] == log_likelihood_weight(lay.state(i), theta))


def test_layer_log_likelihood_matches_the_log_of_one_minus_theta_form():
    # failures now enter through log1p(-theta) where the old form took
    # log(1 - theta); on the n = 50 terminal layer they agree to 2e-15
    # relative on the null grid, each arm at each point, and exactly at
    # theta in {0, 1}
    lay = layer(50, 6)
    grid = np.arange(21) / 20
    for theta in itertools.product(grid, grid):
        got = layer_log_likelihood(lay, theta)
        want = layer_log_likelihood_ref(lay, theta)
        assert np.array_equal(got == 0, want == 0)
        assert np.array_equal(np.isneginf(got), np.isneginf(want))
        live = np.isfinite(want)
        assert np.all(np.abs(got[live] - want[live]) <= 2e-15 * np.abs(want[live]))
    for theta in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]:
        got = layer_log_likelihood(lay, theta)
        assert np.array_equal(got, layer_log_likelihood_ref(lay, theta))
        assert set(np.unique(got)) == {0.0, -np.inf}


def test_oc_value_total_probability():
    for policy in (BayesianRar(8, 1), DbcdNeyman(8, 1)):
        table = forward_g(policy)
        ones = np.ones(table.layer.size)
        for theta in [(0.5, 0.5), (0.2, 0.9), (0.0, 1.0)]:
            assert TerminalFunctional(ones, table).value(theta) == pytest.approx(1.0, abs=1e-10)


def test_oc_value_equal_allocation_binomial():
    table = forward_g(EqualAllocation(2, 1))
    s = table.successes()
    assert TerminalFunctional((s == 1).astype(float), table).value((0.5, 0.5)) == pytest.approx(0.5, abs=1e-12)
    assert TerminalFunctional((s == 2).astype(float), table).value((1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_oc_value_matches_brute_force():
    policy = BayesianRar(7, 1)
    table = forward_g(policy)
    ref = enumerate_path_weights(
        lambda s: policy.control_prob(TrialState(*s)), policy.n, policy.burn_in
    )
    s_c, s_d, n_c, n_d = table.layer.arrays()
    f = (s_c + s_d).astype(float)
    for theta in [(0.5, 0.5), (0.2, 0.8), (0.9, 0.4)]:
        want = expectation_ref(ref, lambda st: st[0] + st[1], theta)
        assert TerminalFunctional(f, table).value(theta) == pytest.approx(want, rel=1e-10)


def test_terminal_functional_handles_signed_functions():
    table = forward_g(EqualAllocation(4, 1))
    s_c, s_d, _, _ = table.layer.arrays()
    f = (s_c - s_d).astype(float)
    fn = TerminalFunctional(f, table)
    # symmetric design: expected success difference vanishes under the null
    assert fn.value((0.4, 0.4)) == pytest.approx(0.0, abs=1e-12)
    got = fn.value((0.9, 0.2))
    assert got == pytest.approx(2 * 0.9 - 2 * 0.2, abs=1e-10)


def test_forward_rejects_bad_policy_probabilities():
    class Bad(ConstantCoin):
        def fill_arm_probs(self, lay, q, q1):
            q.fill(1.5)
            q1.fill(np.nan)

    with pytest.raises(ValueError):
        forward_g(Bad(3, 0, 1.5))

    class NanFailureArm(ConstantCoin):
        def fill_arm_probs(self, lay, q, q1):
            q.fill(self.q)
            q1.fill(np.nan)

    class ArmsNotComplementary(ConstantCoin):
        # q = 1 - q = 0.3: both arms in [0, 1] but summing to 0.6
        def fill_arm_probs(self, lay, q, q1):
            q.fill(self.q)
            q1.fill(self.q)

    for bad in (NanFailureArm(5, 1, 0.3), ArmsNotComplementary(5, 1, 0.3)):
        with pytest.raises(ValueError, match="epoch 2"):
            forward_g(bad)


def test_sweep_checks_user_policies_per_layer_and_tables_once(monkeypatch):
    # a PolicyTable's probabilities were validated by __post_init__; every
    # other policy is checked on every swept layer
    import rarexact.engine as engine

    checked = []
    real = engine._check_arm_probs

    def spy(q, q1, t, scratch):
        checked.append(t)
        real(q, q1, t, scratch)

    monkeypatch.setattr(engine, "_check_arm_probs", spy)
    n, b = 8, 1
    codes = [np.arange(layer(t, b).size) % 3 for t in range(2 * b, n)]
    forward_g(table_from_codes(n, b, 0.9, codes))
    assert checked == []
    forward_g(DbcdNeyman(n, b))
    assert checked == list(range(2 * b, n))


def test_policy_implementing_no_fill_method_fails_loudly():
    class NoFill(Policy):
        pass

    class OnlyReturnsArrays(Policy):
        # the pair returned from layer_arm_probs, with no fill_arm_probs
        def layer_arm_probs(self, lay):
            return np.full(lay.size, 0.5), np.full(lay.size, 0.5)

    with pytest.raises(NotImplementedError, match="NoFill implements no fill_arm_probs"):
        forward_g(NoFill(4, 1))
    with pytest.raises(NotImplementedError, match="NoFill implements no fill_arm_probs"):
        NoFill(4, 1).layer_arm_probs(layer(2, 1))
    with pytest.raises(NotImplementedError, match="OnlyReturnsArrays implements no fill_arm_probs"):
        forward_g(OnlyReturnsArrays(4, 1))


@pytest.mark.parametrize("policy", [
    pytest.param(DbcdNeyman(30, 2), id="dbcd-30-2"),
    pytest.param(TemperedDbcdNeyman(30, 2), id="tempered-30-2"),
    pytest.param(ConstantCoin(30, 2, 0.37), id="constant-coin-30-2"),
    pytest.param(ConstantCoin(12, 0, 1e-300), id="constant-coin-underflow"),
])
def test_sweep_matches_the_allocating_sweep_bit_for_bit(policy):
    assert np.array_equal(forward_g(policy).log_g, forward_g_alloc_ref(policy).log_g)


def _random_table(n, b, p, seed):
    return table_from_codes(n, b, p, random_codes(n, b, np.random.default_rng(seed)))


@pytest.mark.parametrize("p", [0.5, 0.75, 0.95, 1.0])
@pytest.mark.parametrize("n, b", [(9, 0), (20, 2), (40, 6)])
def test_float_table_sweeps_like_the_code_gather_bit_for_bit(n, b, p):
    # q1 = 1 - q of the stored float is the gather's reversed triple, bit
    # for bit, since 1 - (1 - p) == p for p in [1/2, 1]
    for seed in range(3):
        codes = random_codes(n, b, np.random.default_rng(seed))
        got = forward_g(table_from_codes(n, b, p, codes)).log_g
        assert np.array_equal(got, forward_g(code_gather_policy_ref(n, b, p, codes)).log_g)


def test_table_sweep_matches_the_allocating_sweep_through_fresh_and_held_transitions():
    # forward_g makes fresh transitions (the block loop); the CMDP solve
    # holds them, so its first sweep loops over blocks, its second builds
    # the gather plans and later ones reuse them
    table = _random_table(40, 2, 0.9, seed=11)
    want = forward_g_alloc_ref(table).log_g
    assert np.array_equal(forward_g(table).log_g, want)
    steps = [Transition(t, 2) for t in range(4, 40)]
    for _ in range(3):
        assert np.array_equal(_sweep(table, steps).log_g, want)
    assert all(step._parents is not None for step in steps)


def test_sweep_peak_memory_stays_within_six_terminal_layers():
    # the sweep holds four arrays of the terminal layer's size; per-layer
    # temporaries would add about two more at the largest layers.  The
    # swap average reads the mirror blocks in place, so nothing else of
    # the terminal layer's size is built.
    import tracemalloc

    policy = BayesianRar(100, 6)
    terminal = layer(100, 6)
    tracemalloc.start()
    try:
        forward_g(policy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * terminal.size * np.dtype(np.float64).itemsize


def test_sweep_builds_no_per_state_arrays_of_the_terminal_layer(monkeypatch):
    # the swap average works block by block, so the sweep builds no
    # layer's (s_c, s_d, n_c, n_d) arrays, the terminal layer's included
    built = []
    arrays = Layer.arrays
    monkeypatch.setattr(Layer, "arrays", lambda lay: built.append(lay.t) or arrays(lay))
    forward_g(BayesianRar(40, 3))
    assert built == []


@st.composite
def _symmetric_designs(draw):
    # DBCD is undefined on an empty arm, so its burn-in is at least one;
    # equal allocation is swap-invariant at an even horizon alone
    cls = draw(st.sampled_from([BayesianRar, DbcdNeyman, TemperedDbcdNeyman, EqualAllocation]))
    b = draw(st.integers(0 if cls in (BayesianRar, EqualAllocation) else 1, 3))
    n = draw(st.integers(max(2 * b, 1), 40))
    if cls is EqualAllocation:
        n += n % 2
    return cls(n, b)


@settings(max_examples=60, deadline=None)
@given(policy=_symmetric_designs())
def test_sweep_is_normalized_and_exactly_swap_invariant(policy):
    table = forward_g(policy)
    assert table.normalization_error() <= 1e-12
    perm = swap_permutation(table.layer)
    assert np.array_equal(table.log_g[perm], table.log_g)


def _oracle_log2_p(ref):
    """Base-2 log of each terminal state's fair-coin path probability
    ``g * 2**-n`` under the log-domain oracle table ``ref``."""
    return ref.log_g / LN2 - ref.n


@st.composite
def _sweep_designs(draw):
    kind = draw(st.sampled_from([BayesianRar, DbcdNeyman, TemperedDbcdNeyman, PolicyTable]))
    b = draw(st.integers(1 if kind in (DbcdNeyman, TemperedDbcdNeyman) else 0, 4))
    n = draw(st.integers(max(2 * b, 1), 60))
    if kind is not PolicyTable:
        return kind(n, b)
    # an arm of probability 2**-52 drives some states below the subnormals
    p = draw(st.floats(0.5, 1.0) | st.just(1.0 - 2.0**-52))
    return _random_table(n, b, p, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=40, deadline=None)
@given(policy=_sweep_designs(), thetas=st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=4))
def test_linear_sweep_matches_log_domain_oracle(policy, thetas):
    table = forward_g(policy)
    ref = forward_g_log_ref(policy)
    log2_p = _oracle_log2_p(ref)
    dropped = table.log_g == -np.inf
    # no mass where the oracle has none
    assert np.all(dropped[ref.log_g == -np.inf])
    # underflow moves at most 2**-1075 of probability per rounding: two
    # products per swept state and one halving per terminal state
    if np.any(dropped):
        swept = sum(layer(t, policy.burn_in).size for t in range(2 * policy.burn_in, policy.n))
        lost = np.logaddexp2.reduce(log2_p[dropped])
        assert lost <= np.log2(2 * swept + table.layer.size) - 1075
    big = log2_p >= -1000
    tol = 1e-13 * np.maximum(1.0, np.abs(ref.log_g[big]))
    assert np.all(np.abs(table.log_g[big] - ref.log_g[big]) <= tol)

    s_c, s_d, n_c, _ = table.layer.arrays()
    f = np.column_stack([np.ones(table.layer.size), n_c / policy.n, s_c > s_d])
    points = list(thetas) + [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    got = TerminalFunctional(f, table).values(points)
    want = TerminalFunctional(f, ref).values(points)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("policy", [BayesianRar(30, 2), DbcdNeyman(25, 1)], ids=["brar", "dbcd"])
def test_block_values_match_per_block_kernels_bit_for_bit(policy):
    # each block slices its kernels from the grid's s ln(theta) and
    # s ln(1 - theta) tables; the oracle builds them per block, and the
    # grid holds both ends of [0, 1] on each arm
    table = forward_g(policy)
    s_c, s_d, n_c, _ = table.layer.arrays()
    f = np.column_stack([np.ones(table.layer.size), n_c / policy.n, s_c > s_d])
    ends = [0.0, 1.0, 1e-300, 0.5, 0.3, 1.0 - 2.0**-52]
    points = [(a, c) for a in ends for c in ends]
    for fn in (TerminalFunctional(f, table), TerminalFunctional(f[:, 1], table)):
        got = fn.block_values(points)
        assert np.array_equal(got, block_values_ref(fn, points))


def test_underflow_drops_only_negligible_states():
    # a control arm of probability 1e-300 sends every state with two or
    # more controls below the smallest subnormal
    policy = ConstantCoin(12, 0, 1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = forward_g(policy)
    log2_p = _oracle_log2_p(forward_g_log_ref(policy))
    dropped = table.log_g == -np.inf
    assert np.any(dropped)
    assert np.all(log2_p[dropped] < -1074)
    assert table.normalization_error() <= 1e-12
