import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rarexact import (
    BayesianRar,
    DbcdNeyman,
    EqualAllocation,
    PolicyTable,
    TemperedDbcdNeyman,
    TrialState,
    forward_g,
    layer,
    neyman_target,
    policies,
)
from oracles import (
    arm_tail_logaddexp_ref,
    forward_g_alloc_ref,
    posterior_probs_ref,
    prob_beta_greater,
    swap_permutation,
    table_from_codes,
)


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
    pol = DbcdNeyman(13, 1, gamma=2.0)
    for st in [TrialState(3, 3, 6, 6), TrialState(1, 4, 5, 7), TrialState(0, 0, 2, 10)]:
        assert pol.control_prob(st) == pytest.approx(_dbcd_reference(st, 2.0, 12), abs=1e-12)


def test_dbcd_fixed_points():
    # at the target proportion the coin is unbiased toward it
    pol = DbcdNeyman(21, 1, gamma=2.0)
    st = TrialState(5, 5, 10, 10)   # symmetric estimates => rho = 1/2 = r
    assert pol.control_prob(st) == pytest.approx(0.5, abs=1e-12)
    # gamma = 0 reproduces the plain target regardless of imbalance
    pol0 = DbcdNeyman(21, 1, gamma=0.0)
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
    pol = TemperedDbcdNeyman(21, 1, gamma=2.0)
    base = DbcdNeyman(21, 1, gamma=2.0)
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
        p = posterior_probs_ref(lay)
        s_c, s_d, n_c, n_d = lay.arrays()
        for i in range(lay.size):
            exact = prob_beta_greater(
                int(s_c[i]) + 1, int(n_c[i] - s_c[i]) + 1,
                int(s_d[i]) + 1, int(n_d[i] - s_d[i]) + 1,
            )
            assert p[i] == pytest.approx(exact, abs=1e-12)


# every layer of the small horizons, so b = 0 and the n_c = 0 blocks of
# early layers are covered; the first, a middle and the last of n = 150
_BRAR_LAYERS = [
    pytest.param(30, 0, None, id="30-0"),
    pytest.param(31, 1, None, id="31-1"),
    pytest.param(40, 3, None, id="40-3"),
    pytest.param(60, 2, None, id="60-2"),
    pytest.param(150, 6, (12, 80, 149), id="150-6"),
]


@pytest.mark.parametrize("n, b, epochs", _BRAR_LAYERS)
def test_brar_block_posterior_is_bit_identical_to_success_major_loop(n, b, epochs):
    pol = BayesianRar(n, b)
    for t in epochs or range(2 * b, n):
        lay = layer(t, b)
        p = posterior_probs_ref(lay)
        e = (t + 1) / (2.0 * n)
        a, c = p ** e, (1.0 - p) ** e
        q, q1 = pol.layer_arm_probs(lay)
        assert np.array_equal(q, a / (a + c)), (n, b, t)
        assert np.array_equal(q1, c / (a + c)), (n, b, t)


@pytest.mark.parametrize("n, b, epochs", _BRAR_LAYERS)
def test_brar_power_tail_matches_the_logaddexp_tail(n, b, epochs):
    # the power form against the log-space form it replaced, from the same
    # P; the largest difference over all 21.5M states of (150, 6) is 1.0e-14
    pol = BayesianRar(n, b)
    for t in epochs or range(2 * b, n):
        lay = layer(t, b)
        want = arm_tail_logaddexp_ref(posterior_probs_ref(lay), (t + 1) / (2.0 * n))
        for got, ref in zip(pol.layer_arm_probs(lay), want, strict=True):
            assert np.all(np.abs(got - ref) <= 4e-14 * ref), (n, b, t)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the BRAR tail (1 - p)**e forms 1 - P as 1 - p, "
                          "which loses the small tail; take 1 - P from the mirrored block")
def test_brar_small_tail_matches_exact_oracle():
    # epoch 60 of n = 150, (s_c, n_c, s_d, n_d) = (14, 14, 0, 46): 1 - P is
    # 15 * 14! * 47! / 62! = 1.07e-14, summed directly by the oracle
    e = 61 / 300
    p, s = prob_beta_greater(15, 1, 1, 47), prob_beta_greater(1, 47, 15, 1)
    exact = s**e / (p**e + s**e)
    assert exact == pytest.approx(1.4423e-3, rel=1e-4)
    lay = layer(60, 6)
    q1 = BayesianRar(150, 6).layer_arm_probs(lay)[1]
    assert q1[lay.index(TrialState(14, 0, 14, 46))] == pytest.approx(exact, rel=1e-12)


def _brar_outputs():
    pol = BayesianRar(150, 6)
    probs = [a for t in (12, 80, 149) for a in pol.layer_arm_probs(layer(t, 6))]
    sweeps = [forward_g(BayesianRar(n, b)).log_g for n, b in ((60, 2), (40, 0))]
    return probs + sweeps


@pytest.fixture(scope="module")
def brar_default_outputs():
    return _brar_outputs()


# (workers, _TAIL_RUN): threads that call the policy at once (0: the
# test's own thread alone), and runs of one state up to the default
_TAIL_SETTINGS = [(0, 1 << 14), (1, 1 << 14), (2, 1 << 14), (3, 64), (2, 1)]


def _on_threads(fn, workers):
    """``fn()`` on the calling thread, or once on each of ``workers``
    threads started together, handing the GIL over often."""
    if workers == 0:
        return [fn()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(fn) for _ in range(workers)]
            return [f.result() for f in futures]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers, run", _TAIL_SETTINGS)
def test_brar_outputs_do_not_depend_on_tail_workers_or_runs(monkeypatch, brar_default_outputs,
                                                            workers, run):
    # the tail is elementwise and runs on its caller's thread: any split of
    # a layer into runs, on any number of threads at once, gives the bits
    # of the default
    monkeypatch.setattr(policies, "_TAIL_RUN", run)
    for outputs in _on_threads(_brar_outputs, workers):
        for got, want in zip(outputs, brar_default_outputs, strict=True):
            assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def brar_allocating_sweeps():
    return [forward_g_alloc_ref(BayesianRar(n, b)).log_g for n, b in ((40, 3), (60, 2))]


@pytest.mark.parametrize("workers, run", _TAIL_SETTINGS)
def test_brar_sweep_matches_the_allocating_sweep_bit_for_bit(monkeypatch, brar_allocating_sweeps,
                                                             workers, run):
    # the block build and the tail write into the sweep's held buffers, run
    # by run, on any number of threads at once; the oracle allocates fresh
    # arrays per layer
    monkeypatch.setattr(policies, "_TAIL_RUN", run)
    sweeps = lambda: [forward_g(BayesianRar(n, b)).log_g for n, b in ((40, 3), (60, 2))]
    for got in _on_threads(sweeps, workers):
        for (n, b), g, want in zip(((40, 3), (60, 2)), got, brar_allocating_sweeps, strict=True):
            assert np.array_equal(g, want), (n, b)


def test_brar_sweep_starts_no_thread():
    before = threading.active_count()
    forward_g(BayesianRar(60, 2))
    assert threading.active_count() == before


@pytest.mark.parametrize("policy_cls", [BayesianRar, DbcdNeyman, TemperedDbcdNeyman])
def test_swap_antisymmetry_of_allocation(policy_cls):
    n, b = 30, 1
    pol = policy_cls(n, b)
    for t in range(2 * b, n):
        lay = layer(t, b)
        q = pol.layer_arm_probs(lay)[0]
        perm = swap_permutation(lay)
        assert np.allclose(q[perm], 1.0 - q, atol=1e-12)


def test_layer_probs_match_scalar_dispatch():
    n, b = 10, 1
    table_policy = table_from_codes(n, b, 0.9, [np.arange(layer(t, b).size) % 3
                                                 for t in range(2 * b, n)])
    for pol in (BayesianRar(n, b), DbcdNeyman(n, b), TemperedDbcdNeyman(n, b), table_policy):
        for t in range(2 * b, n):
            lay = layer(t, b)
            q = pol.layer_arm_probs(lay)[0]
            for i in range(lay.size):
                assert q[i] == pol.control_prob(lay.state(i))
        for state in (TrialState(0, 0, 0, 0), TrialState(1, 0, 1, 0)):
            with pytest.raises(ValueError):
                pol.control_prob(state)


def test_policy_table_lookup_and_validation():
    n, b, p = 4, 1, 0.95
    probs = [np.array([1.0 - p, 0.5, p, 0.5]), np.full(layer(3, b).size, 0.5)]
    pol = PolicyTable(n, b, p, tuple(probs))
    lay = layer(2, b)
    q, q1 = pol.layer_arm_probs(lay)
    assert q.tolist() == [1.0 - p, 0.5, p, 0.5]
    assert q1.tolist() == [p, 0.5, 1.0 - p, 0.5]
    assert pol.control_prob(lay.state(2)) == 0.95
    with pytest.raises(ValueError, match="burn-in"):
        pol.layer_arm_probs(layer(1, b))
    for other in (layer(n, b), layer(2, 0)):
        with pytest.raises(ValueError, match="not a layer of the table"):
            pol.layer_arm_probs(other)
    with pytest.raises(ValueError):
        PolicyTable(n, b, 0.3, tuple(probs))
    with pytest.raises(ValueError):
        pol.control_prob(TrialState(0, 0, 1, 0))


def test_policy_table_probs_are_read_only():
    # validated once, so the sweep skips its per-layer check: a table's
    # probabilities cannot be changed after it is made
    n, b = 5, 1
    probs = [np.full(layer(t, b).size, 0.5) for t in range(2 * b, n)]
    table = PolicyTable(n, b, 0.9, tuple(probs))
    for arr in (probs[1], table.probs[1]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.7


def test_equal_policy_tables_hash_equal_and_key_a_dict():
    # __eq__ compares the arrays; the hash reads (n, burn_in, p), on which
    # equal tables agree
    n, b, p = 5, 1, 0.9
    probs = [np.full(layer(t, b).size, 0.5) for t in range(2 * b, n)]
    table = PolicyTable(n, b, p, tuple(probs))
    same = PolicyTable(n, b, p, tuple(q.copy() for q in probs))
    other = PolicyTable(n, b, p, tuple(probs[:-1]) + (np.full_like(probs[-1], p),))
    assert same == table and hash(same) == hash(table)
    assert other != table
    designs = {table: "uniform", other: "last epoch high"}
    assert designs[same] == "uniform" and len(designs) == 2
    assert len({table, same, other}) == 2


def test_policy_table_refuses_malformed_probs():
    # one float64 array per epoch 2b .. n - 1, of the layer's size, with
    # every value in [1 - p, p]; NaN is in no interval
    n, b, p = 5, 1, 0.9
    good = [np.full(layer(t, b).size, 0.5) for t in range(2 * b, n)]
    PolicyTable(n, b, p, tuple(good))
    PolicyTable(n, b, p, tuple(np.full_like(q, x) for q, x in zip(good, (1.0 - p, p, 0.7))))
    for t, q in [(3, good[1][:-1]), (4, np.full(good[2].size + 1, 0.5)),
                 (2, good[0].astype(np.float32)), (2, np.ones(good[0].size, dtype=np.int8)),
                 (3, np.full_like(good[1], 0.95)), (4, np.full_like(good[2], 0.05)),
                 (2, np.full_like(good[0], np.nan))]:
        with pytest.raises(ValueError, match=f"epoch {t}"):
            PolicyTable(n, b, p, tuple(good[:t - 2] + [q] + good[t - 1:]))
    for count in (good[:-1], good + [good[-1]], [np.full(1, 0.5), np.full(4, 0.5)] + good):
        with pytest.raises(ValueError, match="one probability array per epoch 2 .. 4"):
            PolicyTable(n, b, p, tuple(count))


def test_control_prob_refuses_the_terminal_epoch():
    # nobody is allocated at t = n: no probability exists there
    n, b = 4, 1
    table_policy = PolicyTable(n, b, 0.95, tuple(
        np.full(layer(t, b).size, 0.5) for t in range(2 * b, n)))
    for pol in (BayesianRar(n, b), table_policy):
        with pytest.raises(ValueError, match="horizon"):
            pol.control_prob(TrialState(1, 1, 2, 2))


def test_equal_allocation_has_no_per_state_probabilities():
    # permuted blocks throughout: no state past the burn-in has a
    # probability of its own to report
    pol = EqualAllocation(10, 1)
    with pytest.raises(NotImplementedError, match="EqualAllocation"):
        pol.control_prob(TrialState(1, 1, 2, 2))
    with pytest.raises(NotImplementedError, match="EqualAllocation"):
        pol.layer_arm_probs(layer(4, 1))


@pytest.mark.parametrize("make", [
    EqualAllocation, BayesianRar, DbcdNeyman, TemperedDbcdNeyman,
    lambda n, b: PolicyTable(n, b, 0.9, ()),
], ids=["equal", "brar", "dbcd", "tempered", "table"])
def test_every_policy_refuses_a_burn_in_that_does_not_fit_the_horizon(make):
    for n, b in [(5, 3), (5, -1)]:
        with pytest.raises(ValueError, match=f"burn-in of {b} per arm does not fit the horizon 5"):
            make(n, b)


@pytest.mark.parametrize("cls", [DbcdNeyman, TemperedDbcdNeyman])
def test_dbcd_refuses_a_coin_exponent_that_is_not_finite_and_nonnegative(cls):
    # refused when the design is made, before any allocation overflows
    for gamma in (-1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="gamma"):
            cls(10, 1, gamma=gamma)


def test_permuted_blocks_are_the_burn_in_or_every_block_of_equal_allocation():
    assert BayesianRar(12, 2).permuted_blocks == (4,)
    assert DbcdNeyman(12, 1).permuted_blocks == (2,)
    assert BayesianRar(12, 0).permuted_blocks == ()
    assert EqualAllocation(23, 2).permuted_blocks == (4, 10, 9)
    assert EqualAllocation(11, 0).permuted_blocks == (10, 1)
    assert EqualAllocation(4, 2).permuted_blocks == (4,)
    pol = EqualAllocation(12, 1)
    with pytest.raises(AttributeError):
        pol.permuted_blocks = (12,)
