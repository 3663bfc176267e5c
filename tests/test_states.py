import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarexact import TrialState, layer
from rarexact.states import Layer, Transition

from oracles import enumerate_layer_states


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
    for t in range(0, n + 1):
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
    lay = layer(9, 2)
    s_c, s_d, n_c, n_d = lay.arrays()
    for i in range(lay.size):
        st = lay.state(i)
        assert (st.s_c, st.s_d, st.n_c, st.n_d) == (s_c[i], s_d[i], n_c[i], n_d[i])


def test_swap_permutation_is_involution():
    lay = layer(10, 2)
    perm = lay.swap_permutation()
    assert np.array_equal(perm[perm], np.arange(lay.size))
    i = lay.index(TrialState(2, 1, 4, 6))
    assert lay.state(perm[i]) == TrialState(1, 2, 6, 4)


def test_layers_are_cached_and_immutable():
    assert layer(7, 1) is layer(7, 1)
    assert Layer(7, 1) == layer(7, 1)


def test_indices_agree_with_index():
    for b in range(4):
        for t in range(21):
            lay = Layer(t, b)
            states = [lay.state(i) for i in range(lay.size)]
            s_c, s_d, n_c = (np.array([getattr(x, f) for x in states]) for f in ("s_c", "s_d", "n_c"))
            expected = [lay.index(x) for x in states]
            assert np.array_equal(lay.indices(s_c, s_d, n_c), expected)
            assert np.array_equal(lay.indices(*lay.arrays()[:3]), np.arange(lay.size))


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
    # sum over dst of push(g) * v == sum over src of g * (q wc + (1 - q) wd)
    step = Transition(*tb)
    rng = np.random.default_rng(seed)
    q = rng.uniform(0.01, 0.99, step.src.size)
    g = rng.uniform(0.0, 5.0, step.src.size) * (rng.random(step.src.size) < 0.8)
    v = rng.uniform(0.0, 1.0, step.dst.size)
    with np.errstate(divide="ignore"):
        pushed = np.exp(step.push(np.log(g), np.log(q), np.log1p(-q)))
    wc, wd = step.pull(v)
    assert np.sum(pushed * v) == pytest.approx(np.sum(g * (q * wc + (1 - q) * wd)), rel=1e-12)
