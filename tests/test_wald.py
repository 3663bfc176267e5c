import math
import tracemalloc

import numpy as np
import pytest

from rarexact import layer, wald_statistics
from rarexact.wald import asymptotic_reject_array, layer_wald_statistics

from oracles import swap_permutation, wald_ref


def test_wald_hand_example():
    # one success of two on control, both successes on developmental
    assert wald_statistics(1, 2, 2, 2) == pytest.approx(
        (1 - 0.5) / math.sqrt(0.25 / 2), abs=1e-12
    )
    assert wald_statistics(1, 2, 2, 2) == pytest.approx(1.414214, abs=1e-6)


def test_wald_boundary_conventions():
    assert wald_statistics(2, 2, 2, 2) == 0.0
    assert wald_statistics(0, 2, 2, 2) == np.inf
    assert wald_statistics(2, 0, 2, 2) == -np.inf
    with pytest.raises(ValueError):
        wald_statistics(0, 0, 0, 2)


def test_layer_statistics_match_scalar():
    lay = layer(12, 1)
    stats = layer_wald_statistics(lay)
    for i in range(lay.size):
        st = lay.state(i)
        assert stats[i] == pytest.approx(wald_ref(st.s_c, st.s_d, st.n_c, st.n_d), abs=1e-12)


def test_layer_statistics_require_burn_in():
    with pytest.raises(ValueError):
        layer_wald_statistics(layer(6, 0))


def test_layer_statistics_allocate_little_beyond_their_table():
    # one formula per block: besides the 8 B a state of the result, only
    # block-sized temporaries, no per-state index arrays
    lay = layer(60, 2)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        layer_wald_statistics(lay)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 2 * 8 * lay.size


@pytest.mark.parametrize("t", [10, 25, 60])
def test_antisymmetry_exact(t):
    lay = layer(t, 1)
    stats = layer_wald_statistics(lay)
    perm = swap_permutation(lay)
    swapped = stats[perm]
    finite = np.isfinite(stats)
    assert np.array_equal(swapped[finite], -stats[finite])
    assert np.array_equal(swapped[~finite], -stats[~finite])


def test_asymptotic_reject():
    assert not asymptotic_reject_array(0.0, 0.04)
    assert asymptotic_reject_array(np.inf, 0.001)
    assert asymptotic_reject_array(1.96, 0.05)      # 1.96 >= 1.959964
    assert not asymptotic_reject_array(1.9599, 0.05)
    assert asymptotic_reject_array(wald_statistics(0, 2, 2, 2), 0.05)


def test_asymptotic_reject_array():
    t = np.array([-np.inf, -1.0, 0.0, 1.96, np.inf])
    got = asymptotic_reject_array(t, 0.05)
    assert got.tolist() == [True, False, False, True, True]
