import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarexact import (
    BayesianRar,
    DbcdNeyman,
    EqualAllocation,
    TemperedDbcdNeyman,
    TrialState,
    equal_allocation_g,
    forward_g,
    layer,
)
from rarexact.engine import TerminalFunctional, layer_log_likelihood
from rarexact.policies import Policy

from oracles import enumerate_path_weights, expectation_ref, log_likelihood_weight


class ConstantCoin(Policy):
    """Fixed allocation probability; handy for hand-checkable path sums."""

    def __init__(self, n, b, q):
        super().__init__(n, b)
        object.__setattr__(self, "q", q)

    def control_prob(self, state):
        return self.q

    def layer_control_probs(self, lay):
        return np.full(lay.size, self.q)


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
    perm = table.layer.swap_permutation()
    assert np.array_equal(table.log_g, table.log_g[perm])


def test_equal_allocation_examples():
    table = equal_allocation_g(2)
    got = _table_as_dict(table)
    assert got[(0, 0, 1, 1)] == pytest.approx(1.0)
    assert got[(1, 1, 1, 1)] == pytest.approx(1.0)
    # off-balance states carry no weight
    assert got[(0, 0, 2, 0)] == 0.0
    with pytest.raises(ValueError):
        equal_allocation_g(5)


def test_equal_allocation_matches_permuted_history_counts():
    n = 6
    table = equal_allocation_g(n)
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


def test_oc_value_total_probability():
    for policy in (BayesianRar(8, 1), DbcdNeyman(8, 1)):
        table = forward_g(policy)
        ones = np.ones(table.layer.size)
        for theta in [(0.5, 0.5), (0.2, 0.9), (0.0, 1.0)]:
            assert TerminalFunctional(ones, table).value(theta) == pytest.approx(1.0, abs=1e-10)


def test_oc_value_equal_allocation_binomial():
    table = equal_allocation_g(2, b=1)
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
    table = equal_allocation_g(4, b=1)
    s_c, s_d, _, _ = table.layer.arrays()
    f = (s_c - s_d).astype(float)
    fn = TerminalFunctional(f, table)
    # symmetric design: expected success difference vanishes under the null
    assert fn.value((0.4, 0.4)) == pytest.approx(0.0, abs=1e-12)
    got = fn.value((0.9, 0.2))
    assert got == pytest.approx(2 * 0.9 - 2 * 0.2, abs=1e-10)


def test_forward_rejects_bad_policy_probabilities():
    class Bad(ConstantCoin):
        def layer_control_probs(self, lay):
            return np.full(lay.size, 1.5)

        def layer_log_probs(self, lay):
            q = self.layer_control_probs(lay)
            return np.log(q), np.log1p(-q + 0j).real * np.nan

    with pytest.raises(ValueError):
        forward_g(Bad(3, 0, 1.5))


@st.composite
def _symmetric_designs(draw):
    # DBCD is undefined on an empty arm, so its burn-in is at least one;
    # equal allocation needs an even horizon
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
    perm = table.layer.swap_permutation()
    assert np.array_equal(table.log_g[perm], table.log_g)
