import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarexact import (AsymptoticRule, BayesianRar, TrialState, boschloo_rule, conditional_rule,
                      forward_g, layer, profile, randomization_test, unconditional_rule)
from rarexact.cmdp import CmdpSpec, _AuditContext, default_rectangles
from rarexact.montecarlo import simulate_trials
from rarexact.states import Layer, Transition

from oracles import enumerate_layer_states, pull_ref, push_ref, swap_permutation


def test_initial_layer_has_single_state():
    lay = layer(0, 0)
    assert lay.size == 1
    assert lay.state(0) == TrialState(0, 0, 0, 0)


def test_layer_two_no_burn_in_matches_history_enumeration():
    # block sizes 3 + 4 + 3; confirmed against exhaustive history folding
    lay = layer(2, 0)
    assert lay.size == 10
    states = {(s.s_c, s.s_d, s.n_c, s.n_d) for s in map(lay.state, range(lay.size))}
    assert states == enumerate_layer_states(2, 0)


def test_balanced_burn_in_layer_size():
    assert layer(12, 6).size == 49
    assert all(layer(12, 6).state(i).n_c == 6 for i in range(49))


@pytest.mark.parametrize("n,b", [(4, 0), (5, 1), (6, 1), (7, 2), (8, 2)])
def test_layer_states_match_exhaustive_history_enumeration(n, b):
    for t in range(2 * b, n + 1):
        lay = layer(t, b)
        got = {(s.s_c, s.s_d, s.n_c, s.n_d) for s in map(lay.state, range(lay.size))}
        assert got == enumerate_layer_states(t, b)


def test_layer_size_formula():
    for t in range(12, 30):
        b = 3
        lay = layer(t, b)
        assert lay.size == sum((nc + 1) * (t - nc + 1) for nc in range(b, t - b + 1))


def test_index_bijection_up_to_60():
    for t in range(0, 61, 5):
        for b in (0, 1, 6):
            if 2 * b > t:
                continue
            lay = layer(t, b)
            idx = np.arange(lay.size)
            back = np.array([lay.index(lay.state(i)) for i in idx])
            assert np.array_equal(back, idx)


def test_index_examples():
    lay = layer(1, 0)
    assert lay.index(TrialState(0, 0, 1, 0)) == 2
    assert lay.index(TrialState(1, 0, 1, 0)) == 3
    assert lay.index(TrialState(0, 0, 0, 1)) == 0
    # ordering is ascending n_c: the n_c=0 block comes first
    assert lay.state(0) == TrialState(0, 0, 0, 1)


def test_index_rejects_inadmissible():
    lay = layer(4, 2)
    with pytest.raises(ValueError):
        lay.index(TrialState(0, 0, 1, 3))
    with pytest.raises(ValueError):
        layer(5, 2, n=4)
    with pytest.raises(ValueError):
        layer(3, 3, n=4)


def test_arrays_consistent_with_state():
    # the layer at t = 2b holds one block
    for t, b in [(9, 2), (0, 0), (1, 0), (4, 2), (30, 6)]:
        lay = layer(t, b)
        arrays = lay.arrays()
        assert [a.dtype for a in arrays] == [np.int32] * 4
        s_c, s_d, n_c, n_d = arrays
        for i in range(lay.size):
            st = lay.state(i)
            assert (st.s_c, st.s_d, st.n_c, st.n_d) == (s_c[i], s_d[i], n_c[i], n_d[i])


def test_swap_permutation_is_involution():
    lay = layer(10, 2)
    perm = swap_permutation(lay)
    assert np.array_equal(perm[perm], np.arange(lay.size))
    i = lay.index(TrialState(2, 1, 4, 6))
    assert lay.state(perm[i]) == TrialState(1, 2, 6, 4)


def test_layers_are_equal_by_epoch_and_burn_in():
    assert layer(7, 1) == Layer(7, 1)
    assert hash(layer(7, 1)) == hash(Layer(7, 1))
    assert layer(7, 1) != layer(7, 2)


def test_indices_agree_with_index():
    for b in range(4):
        for t in range(2 * b, 21):
            lay = Layer(t, b)
            states = [lay.state(i) for i in range(lay.size)]
            s_c, s_d, n_c = (np.array([getattr(x, f) for x in states]) for f in ("s_c", "s_d", "n_c"))
            expected = [lay.index(x) for x in states]
            assert np.array_equal(lay.indices(s_c, s_d, n_c), expected)
            assert np.array_equal(lay.indices(*lay.arrays()[:3]), np.arange(lay.size))


@pytest.mark.parametrize("t, b", [(0, 1), (3, 2), (7, 4), (11, 6)])
def test_no_layer_exists_inside_the_burn_in(t, b):
    # the sweeps start at epoch 2b and simulation allocates the burn-in by
    # its own pattern, so nothing needs a layer below it
    with pytest.raises(ValueError, match=f"epoch {t} lies inside the burn-in of {b} per arm"):
        Layer(t, b)
    with pytest.raises(ValueError, match="burn-in"):
        layer(t, b, 2 * b)


def test_transition_rejects_burn_in_epochs():
    with pytest.raises(ValueError, match="burn-in"):
        Transition(3, 2)
    step = Transition(4, 2)
    assert (step.src, step.dst) == (Layer(4, 2), Layer(5, 2))


@st.composite
def _transitions(draw):
    b = draw(st.integers(0, 4))
    n = draw(st.integers(2 * b + 1, 2 * b + 14))
    t = draw(st.sampled_from([2 * b, n - 1]) | st.integers(2 * b, n - 1))
    return t, b


@settings(max_examples=80, deadline=None)
@given(tb=_transitions(), seed=st.integers(0, 2**32 - 1))
def test_push_and_pull_are_adjoint(tb, seed):
    # sum over dst of push(g) * v == sum over src of g * (q wc + (1 - q) wd);
    # three uses of one transition: the block loop, then the gather plan
    # as it is built, then as it is reused
    step = Transition(*tb)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        q = rng.uniform(0.01, 0.99, step.src.size)
        g = rng.uniform(0.0, 5.0, step.src.size) * (rng.random(step.src.size) < 0.8)
        v = rng.uniform(0.0, 1.0, step.dst.size)
        with np.errstate(divide="ignore"):
            pushed = step.push(g, q.copy(), 1 - q, np.empty(step.dst.size))
        wc, wd = step.pull(v)
        assert np.sum(pushed * v) == pytest.approx(np.sum(g * (q * wc + (1 - q) * wd)), rel=1e-12)
        assert np.array_equal(pushed, push_ref(step, g, q, 1 - q))
        for got, want in zip((wc, wd), pull_ref(step, v)):
            assert np.array_equal(got, want)


def _weights(rng, size):
    # generic weights in [0, 1), so sums round, a fifth of them zero and a
    # fifth subnormal (below 2**-1022)
    w = rng.uniform(0.0, 1.0, size)
    kind = rng.integers(0, 5, size)
    w[kind == 0] = 0.0
    w[kind == 1] *= 2.0**-1030
    return w


@settings(max_examples=80, deadline=None)
@given(tb=_transitions(), seed=st.integers(0, 2**32 - 1))
def test_push_and_pull_match_the_per_block_oracle_bit_for_bit(tb, seed):
    # the first call of each method runs the block loop, the second builds
    # the gather plan and the third reuses it; push writes every entry of
    # the destination it is given, whatever it held
    step = Transition(*tb)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        w, q, q1 = (_weights(rng, step.src.size) for _ in range(3))
        v = _weights(rng, step.dst.size)
        want = push_ref(step, w, q, q1)
        out = np.full(step.dst.size, np.nan)
        assert step.push(w, q, q1, out) is out
        assert np.array_equal(out, want)
        for got, want in zip(step.pull(v), pull_ref(step, v)):
            assert np.array_equal(got, want)


def _uses(step, rng):
    w, q = (rng.uniform(0.0, 1.0, step.src.size) for _ in range(2))
    v = rng.uniform(0.0, 1.0, step.dst.size)
    return step.push(w, q, 1 - q, np.empty(step.dst.size)), *step.pull(v)


def test_gather_plan_is_built_on_reuse_and_only_within_the_cap():
    rng = np.random.default_rng(7)
    small, large = Transition(30, 6), Transition(70, 6)
    assert large.src.size == 59_354
    for step in (small, large):
        _uses(step, rng)
        assert (step._children, step._parents) == (None, None)
    for step in (small, large):
        _uses(step, rng)
    assert small._children is not None and small._parents is not None
    assert (large._children, large._parents) == (None, None)


@pytest.mark.parametrize("t, b", [(30, 6), (7, 1), (70, 6)])
def test_calls_on_one_transition_return_independent_arrays(t, b):
    step = Transition(t, b)
    rng = np.random.default_rng(3)
    w, q = (rng.uniform(0.0, 1.0, step.src.size) for _ in range(2))
    v = rng.uniform(0.0, 1.0, step.dst.size)
    calls = [(step.push(w, q.copy(), 1 - q, np.empty(step.dst.size)), *step.pull(v))
             for _ in range(3)]
    for out in calls[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(out, calls[0]))
    arrays = [a for out in calls for a in out] + [w, q, v]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


@pytest.mark.parametrize("t, b", [(8, 4), (9, 4), (20, 3), (5, 0), (0, 0)])
def test_offsets_are_read_only_and_follow_the_block_sizes(t, b):
    # t = 2b (a single block), t > 2b, and no burn-in
    lay = Layer(t, b)
    n_c = np.arange(lay.n_c_min, lay.n_c_max + 1)
    expected = np.concatenate(([0], np.cumsum((n_c + 1) * (t - n_c + 1))))
    assert np.array_equal(lay.offsets, expected) and lay.offsets.dtype == expected.dtype
    assert lay.size == expected[-1]
    assert [(sl.start, sl.stop) for _, _, sl in lay.blocks()] == list(
        zip(expected[:-1], expected[1:]))
    assert not lay.offsets.flags.writeable
    with pytest.raises(ValueError):
        lay.offsets[0] = 1


def _same_bits(got, want):
    """Equal dtype, values (NaN where NaN) and, for floats, sign bits."""
    if got.dtype != want.dtype or not np.array_equal(got, want, equal_nan=got.dtype.kind == "f"):
        return False
    return got.dtype.kind != "f" or np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n,b", [(12, 1), (31, 1), (40, 3), (60, 2), (150, 6)])
def test_block_tables_equal_their_per_state_array_forms_bit_for_bit(n, b):
    # every terminal-layer statistic tabulated per block against the same
    # formula on the layer's (s_c, s_d, n_c, n_d) arrays
    from rarexact import PathWeightTable
    from rarexact.cmdp import (AltUniform, NullUniform, PointNull, Rectangle, _arm_kernel,
                               _arm_priors, measure_log_weights)
    from rarexact.engine import layer_log_likelihood
    from rarexact.exact_tests import conditional_masses
    from rarexact.montecarlo import _terminal_abs_wald
    from rarexact.numerics import binomial_log_terms, gammaln_table, log_binom
    from rarexact.wald import layer_wald_statistics, wald_statistics

    lay = layer(n, b)
    s_c, s_d, n_c, n_d = Layer(n, b).arrays()
    assert _same_bits(layer_wald_statistics(lay), wald_statistics(s_c, s_d, n_c, n_d))

    log_g = np.random.default_rng(n).normal(0.0, 30.0, lay.size)
    log_g[::7] = -np.inf
    table = PathWeightTable(lay, log_g)
    s = s_c + s_d
    assert _same_bits(table.successes(), s)
    w, strata = conditional_masses(table)
    assert _same_bits(strata, s)
    assert _same_bits(w, np.exp(log_g - log_binom(n, s)))

    for theta in [(0.3, 0.7), (0.0, 1.0), (1.0, 0.05)]:
        ln_c, ln_1c = binomial_log_terms(theta[0], n)
        ln_d, ln_1d = binomial_log_terms(theta[1], n)
        want = ln_c[s_c] + ln_1c[n_c - s_c] + ln_d[s_d] + ln_1d[n_d - s_d]
        assert _same_bits(layer_log_likelihood(lay, theta), want)

    g = gammaln_table(n + 3)
    want = g[s_c + s_d + 1] + g[n - s_c - s_d + 1] - g[n + 2]
    assert _same_bits(measure_log_weights(lay, NullUniform()), want)
    for measure in [AltUniform(), PointNull(0.3), PointNull(0.0), PointNull(1.0),
                    Rectangle(0.0, 0.05, 0.5, 0.75)]:
        (rows_c, log_c), (rows_d, log_d) = (_arm_kernel(p, n + 1) for p in _arm_priors(measure))
        with np.errstate(divide="ignore"):
            want = np.log(rows_c[n_c, s_c] * rows_d[n_d, s_d]) + (log_c[n_c] + log_d[n_d])
        assert _same_bits(measure_log_weights(lay, measure), want)

    # the Monte Carlo |T| table, also with empty arms (b = 0)
    for burn_in in (b, 0):
        s_c, s_d, n_c, n_d = Layer(n, burn_in).arrays()
        both = (n_c > 0) & (n_d > 0)
        want = np.full(s_c.size, np.nan)
        want[both] = np.abs(wald_statistics(s_c[both], s_d[both], n_c[both], n_d[both]))
        assert _same_bits(_terminal_abs_wald(BayesianRar(n, burn_in)), want)


def _profiles(rule):
    table = forward_g(BayesianRar(16, 1))
    return profile(table, rule(table), [(0.3, 0.3), (0.2, 0.7)])


def _randomization_test():
    policy = BayesianRar(12, 1)
    arms, outcomes = simulate_trials(policy, (0.4, 0.6), 3, 0, 20)
    return randomization_test(arms, outcomes, policy, 0.05)


_EXACT_PATHS = {
    "conditional": lambda: conditional_rule(forward_g(BayesianRar(16, 1)), 0.05),
    "unconditional": lambda: unconditional_rule(forward_g(BayesianRar(16, 1)), 0.05),
    "boschloo": lambda: boschloo_rule(forward_g(BayesianRar(16, 1)), 0.05),
    "profile": lambda: _profiles(lambda table: conditional_rule(table, 0.05)),
    "profile-asymptotic": lambda: _profiles(lambda table: AsymptoticRule(0.05)),
    "randomization": _randomization_test,
    "audit": lambda: _AuditContext(CmdpSpec(n=12, burn_in=1, rectangles=default_rectangles())),
}


@pytest.mark.parametrize("case", list(_EXACT_PATHS))
def test_exact_paths_build_no_per_state_arrays(monkeypatch, case):
    # the terminal-layer statistics are tabulated block by block, so no
    # exact rule, profile, randomization test or CMDP audit builds a
    # layer's (s_c, s_d, n_c, n_d) arrays
    built = []
    arrays = Layer.arrays
    monkeypatch.setattr(Layer, "arrays", lambda lay: built.append(lay.t) or arrays(lay))
    _EXACT_PATHS[case]()
    assert built == []
