import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import beta as beta_dist

from rarexact.numerics import (
    log_binom,
    logsumexp_fixed,
    normal_quantile,
)
from oracles import prob_beta_greater


def test_normal_quantile():
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert normal_quantile(0.025) == pytest.approx(-1.959964, abs=1e-6)
    assert normal_quantile(0.975) == pytest.approx(-normal_quantile(0.025), abs=1e-12)
    with pytest.raises(ValueError):
        normal_quantile(0.0)


def _pbg_quadrature(a1, b1, a2, b2):
    # independent oracle: integrate f_X(x) * F_Y(x)
    val, _ = quad(
        lambda x: beta_dist.pdf(x, a1, b1) * beta_dist.cdf(x, a2, b2), 0, 1,
        epsabs=1e-13, epsrel=1e-13, limit=200,
    )
    return val


def test_prob_beta_greater_examples():
    assert prob_beta_greater(1, 1, 1, 1) == pytest.approx(0.5, abs=1e-12)
    assert prob_beta_greater(2, 1, 1, 2) == pytest.approx(5 / 6, abs=1e-12)
    assert prob_beta_greater(2, 1, 1, 2) == pytest.approx(
        _pbg_quadrature(2, 1, 1, 2), abs=1e-9
    )


@pytest.mark.parametrize("a1,b1,a2,b2", [(3, 4, 2, 6), (10, 2, 3, 9), (1, 12, 12, 1), (7, 7, 7, 7)])
def test_prob_beta_greater_against_quadrature(a1, b1, a2, b2):
    assert prob_beta_greater(a1, b1, a2, b2) == pytest.approx(
        _pbg_quadrature(a1, b1, a2, b2), abs=1e-9
    )


@given(
    st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)
)
@settings(max_examples=200, deadline=None)
def test_prob_beta_greater_complement(a1, b1, a2, b2):
    p = prob_beta_greater(a1, b1, a2, b2)
    q = prob_beta_greater(a2, b2, a1, b1)
    assert abs(p + q - 1.0) <= 1e-12
    assert 0.0 <= p <= 1.0


@given(st.integers(1, 40), st.integers(1, 40))
@settings(max_examples=50, deadline=None)
def test_prob_beta_greater_exchangeable(a, b):
    assert prob_beta_greater(a, b, a, b) == pytest.approx(0.5, abs=1e-12)


def test_prob_beta_greater_rejects_bad_parameters():
    with pytest.raises(ValueError):
        prob_beta_greater(0, 1, 1, 1)
    with pytest.raises(ValueError):
        prob_beta_greater(1.5, 1, 1, 1)


def test_logsumexp_fixed_order_stability():
    rng = np.random.default_rng(7)
    vals = rng.normal(size=100_000) * 30.0
    ref = logsumexp_fixed(vals)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(vals.size)
        got = logsumexp_fixed(vals[perm])
        assert got == pytest.approx(ref, rel=1e-9)


def test_logsumexp_fixed_handles_empty_and_degenerate():
    assert logsumexp_fixed(np.array([])) == -np.inf
    assert logsumexp_fixed(np.array([-np.inf, -np.inf])) == -np.inf
    assert logsumexp_fixed(np.array([3.0])) == pytest.approx(3.0)


def test_log_binom_matches_math_comb():
    for n in (0, 1, 7, 30):
        for k in range(n + 1):
            assert log_binom(n, k) == pytest.approx(math.log(math.comb(n, k)), abs=1e-11)
