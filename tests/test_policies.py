import numpy as np
import pytest

from rarexact import (
    BayesianRar,
    DbcdNeyman,
    EqualAllocation,
    PolicyTable,
    TablePolicy,
    TemperedDbcdNeyman,
    TrialState,
    layer,
    neyman_target,
)
from oracles import posterior_log_probs_ref as _posterior_log_probs, prob_beta_greater


def test_neyman_target_symmetry_and_paper_values():
    for th in (0.1, 0.3, 0.5, 0.9):
        assert neyman_target(th, th) == pytest.approx(0.5, abs=1e-15)
    assert round(neyman_target(0.5, 0.52), 2) == 0.50
    assert round(neyman_target(0.97, 0.99), 2) == 0.63
    with pytest.raises(ValueError):
        neyman_target(0.0, 0.5)


def _dbcd_reference(state, gamma, n):
    # straight-line reimplementation of the targeting map
    tc = (state.s_c + 0.5) / (state.n_c + 1.0)
    td = (state.s_d + 0.5) / (state.n_d + 1.0)
    rho = (tc * (1 - tc)) ** 0.5 / ((tc * (1 - tc)) ** 0.5 + (td * (1 - td)) ** 0.5)
    r = state.n_c / state.epoch
    num = rho * (rho / r) ** gamma
    den = num + (1 - rho) * ((1 - rho) / (1 - r)) ** gamma
    return min(max(num / den, 0.01), 0.99)


def test_dbcd_matches_reference_implementation():
    pol = DbcdNeyman(12, 1, gamma=2.0)
    for st in [TrialState(3, 3, 6, 6), TrialState(1, 4, 5, 7), TrialState(0, 0, 2, 10)]:
        assert pol.control_prob(st) == pytest.approx(_dbcd_reference(st, 2.0, 12), abs=1e-12)


def test_dbcd_fixed_points():
    # at the target proportion the coin is unbiased toward it
    pol = DbcdNeyman(20, 1, gamma=2.0)
    st = TrialState(5, 5, 10, 10)   # symmetric estimates => rho = 1/2 = r
    assert pol.control_prob(st) == pytest.approx(0.5, abs=1e-12)
    # gamma = 0 reproduces the plain target regardless of imbalance
    pol0 = DbcdNeyman(20, 1, gamma=0.0)
    st = TrialState(2, 7, 6, 14)
    tc, td = 2.5 / 7, 7.5 / 15
    assert pol0.control_prob(st) == pytest.approx(neyman_target(tc, td), abs=1e-12)


def test_dbcd_requires_a_burn_in():
    # the coin steers the realized proportion, undefined with an empty arm
    for cls in (DbcdNeyman, TemperedDbcdNeyman):
        with pytest.raises(ValueError):
            cls(10, 0)


def test_dbcd_monotone_in_target():
    # allocation probability grows with the target for a fixed imbalance
    gamma = 2.0
    r = 0.4
    qs = []
    for rho in np.linspace(0.05, 0.95, 31):
        num = rho * (rho / r) ** gamma
        den = num + (1 - rho) * ((1 - rho) / (1 - r)) ** gamma
        qs.append(num / den)
    assert np.all(np.diff(qs) > 0)


def test_tempered_branches():
    pol = TemperedDbcdNeyman(20, 1, gamma=2.0)
    base = DbcdNeyman(20, 1, gamma=2.0)
    # control better estimated AND higher variance: the coin favors control
    st = TrialState(6, 1, 10, 10)
    assert base.control_prob(st) > 0.5
    assert pol.control_prob(st) == base.control_prob(st)
    # coin favors control (higher variance) while control is estimated
    # worse: temper to 1/2
    st2 = TrialState(4, 10, 10, 10)
    assert base.control_prob(st2) > 0.5
    assert pol.control_prob(st2) == 0.5
    # equal estimates always temper to 1/2
    st3 = TrialState(4, 4, 10, 10)
    assert pol.control_prob(st3) == 0.5


def test_brar_example_and_edges():
    # the tuning exponent counts the participant being allocated: the third
    # participant of a four-person trial sees e = 3/8
    pol = BayesianRar(4, 0)
    p = prob_beta_greater(2, 1, 1, 2)
    # P(Beta(2,1) > Beta(1,2)) = int_0^1 2x (2x - x^2) dx = 4/3 - 1/2 = 5/6
    assert p == pytest.approx(5 / 6, abs=1e-15)
    e = 3 / 8
    expected = p**e / (p**e + (1 - p) ** e)
    assert pol.control_prob(TrialState(1, 0, 1, 1)) == pytest.approx(expected, abs=1e-12)
    # with p = 5/6 the odds are 5, so expected = 1 / (1 + 5^(-3/8)) = 0.6464656...
    assert expected == pytest.approx(1 / (1 + 5 ** (-3 / 8)), abs=1e-6)
    # empty history: the posterior is symmetric, so the coin is fair
    assert pol.control_prob(TrialState(0, 0, 0, 0)) == pytest.approx(0.5, abs=1e-15)
    # equal evidence: posterior probability one half
    assert BayesianRar(20, 1).control_prob(TrialState(3, 3, 7, 7)) == pytest.approx(0.5, abs=1e-12)


def test_posterior_grid_matches_scalar():
    for t, b in [(6, 1), (9, 2), (13, 1)]:
        lay = layer(t, b)
        lp, _ = _posterior_log_probs(lay)
        s_c, s_d, n_c, n_d = lay.arrays()
        for i in range(lay.size):
            exact = prob_beta_greater(
                int(s_c[i]) + 1, int(n_c[i] - s_c[i]) + 1,
                int(s_d[i]) + 1, int(n_d[i] - s_d[i]) + 1,
            )
            assert np.exp(lp[i]) == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("n, b", [(30, 0), (31, 1), (40, 3), (60, 2)])
def test_brar_block_posterior_is_bit_identical_to_success_major_loop(n, b):
    # every layer, so b = 0 and the n_c = 0 blocks of early layers are covered
    pol = BayesianRar(n, b)
    for t in range(2 * b, n):
        lay = layer(t, b)
        log_p, log_s = _posterior_log_probs(lay)
        e = (t + 1) / (2.0 * n)
        a, c = e * log_p, e * log_s
        m = np.logaddexp(a, c)
        log_q, log_1q = pol.layer_log_probs(lay)
        assert np.array_equal(log_q, a - m), (n, b, t)
        assert np.array_equal(log_1q, c - m), (n, b, t)


@pytest.mark.parametrize("policy_cls", [BayesianRar, DbcdNeyman, TemperedDbcdNeyman, EqualAllocation])
def test_swap_antisymmetry_of_allocation(policy_cls):
    n, b = 30, 1
    pol = policy_cls(n, b)
    for t in range(2 * b, n):
        lay = layer(t, b)
        q = pol.layer_control_probs(lay)
        perm = lay.swap_permutation()
        assert np.allclose(q[perm], 1.0 - q, atol=1e-12)


def test_layer_probs_match_scalar_dispatch():
    n, b = 10, 1
    codes = tuple(
        np.full(layer(t, b).size, PolicyTable.BURN_IN_CODE, dtype=np.int8) if t < 2 * b
        else (np.arange(layer(t, b).size) % 3).astype(np.int8)
        for t in range(n)
    )
    table_policy = TablePolicy(n, b, table=PolicyTable(n, b, 0.9, codes))
    for pol in (BayesianRar(n, b), DbcdNeyman(n, b), TemperedDbcdNeyman(n, b),
                EqualAllocation(n, b), table_policy):
        for t in range(2 * b, n):
            lay = layer(t, b)
            q = pol.layer_control_probs(lay)
            for i in range(lay.size):
                assert q[i] == pol.control_prob(lay.state(i))
        for state in (TrialState(0, 0, 0, 0), TrialState(1, 0, 1, 0)):
            with pytest.raises(ValueError):
                pol.control_prob(state)


def test_policy_table_lookup_and_validation():
    n, b, p = 4, 1, 0.95
    codes = []
    for t in range(n):
        size = layer(t, b).size
        fill = PolicyTable.BURN_IN_CODE if t < 2 * b else 1
        codes.append(np.full(size, fill, dtype=np.int8))
    codes[2] = np.array([0, 1, 2, 1], dtype=np.int8)
    table = PolicyTable(n, b, p, tuple(codes))
    pol = TablePolicy(n, b, table=table)
    lay = layer(2, b)
    assert pol.layer_control_probs(lay) == pytest.approx([0.05, 0.5, 0.95, 0.5], abs=1e-12)
    assert pol.control_prob(lay.state(2)) == pytest.approx(0.95)
    with pytest.raises(ValueError):
        table.probs_for_epoch(1)   # burn-in sentinel
    with pytest.raises(ValueError):
        PolicyTable(n, b, 0.3, tuple(codes))
    with pytest.raises(ValueError):
        pol.control_prob(TrialState(0, 0, 1, 0))


def test_equal_allocation_probs_are_sentinel():
    pol = EqualAllocation(10, 1)
    assert pol.control_prob(TrialState(1, 1, 2, 2)) == 0.5
