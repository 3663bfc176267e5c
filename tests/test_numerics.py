import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gammaln, ndtri
from scipy.stats import beta as beta_dist

from rarexact.numerics import (
    binomial_log_terms,
    gammaln_table,
    log_binom,
    logsumexp_fixed,
    normal_quantile,
)
from rarexact.wald import wald_statistics
from oracles import prob_beta_greater


def test_normal_quantile():
    assert normal_quantile(0.5) == 0.0
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert normal_quantile(0.025) == pytest.approx(-1.959964, abs=1e-6)
    assert normal_quantile(0.975) == pytest.approx(-normal_quantile(0.025), abs=1e-12)
    with pytest.raises(ValueError):
        normal_quantile(0.0)


def test_gammaln_table_is_bit_identical_to_cephes():
    # the BRAR posterior magnifies any one-ulp change in this table into
    # patient-benefit shifts far above the reference bounds
    size = 200_000
    assert np.array_equal(gammaln_table(size), gammaln(np.arange(size, dtype=np.float64)))
    assert gammaln_table(3).tolist() == [math.inf, 0.0, 0.0]


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_normal_quantile_within_ulps_of_ndtri_and_exact():
    p = np.logspace(-12, math.log10(0.5), 2001)
    p = np.concatenate([p, 1.0 - p])
    got = np.array([normal_quantile(float(x)) for x in p])
    # measured: 5 ulp from ndtri, which is itself up to 3 ulp off, and 4
    # from the correctly rounded value (checked on every fifth point, as
    # mpmath's erfinv is slow); the usual test levels are 1-3 ulp off
    assert _ulps(got, ndtri(p)).max() <= 5
    with mpmath.workdps(25):
        exact = np.array([float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(float(x)) - 1))
                          for x in p[::5]])
    assert _ulps(got[::5], exact).max() <= 4
    levels = np.array([0.995, 0.975, 0.95])
    assert _ulps(np.array([normal_quantile(x) for x in levels]), ndtri(levels)).max() <= 3


def test_no_wald_statistic_is_near_a_critical_value():
    # every |T| with n_c + n_d <= 200 is at least 1e-9 from z(alpha) at the
    # usual levels (2.4e-8 measured, at alpha = 0.05), so an ulp-level
    # change of z leaves every asymptotic rejection set unchanged;
    # swapping the arms negates T exactly, so n_c <= n_d suffices
    zs = np.array([normal_quantile(1.0 - a / 2.0) for a in (0.01, 0.05, 0.1)])
    gap = np.inf
    horizon = 200
    for n_c in range(1, horizon // 2 + 1):
        n_d = np.arange(n_c, horizon - n_c + 1)
        nd = np.repeat(n_d, n_d + 1)
        sd = np.arange(nd.size) - np.repeat(np.cumsum(n_d + 1) - (n_d + 1), n_d + 1)
        t = np.abs(wald_statistics(np.arange(n_c + 1)[:, None], sd[None, :], n_c, nd[None, :]))
        gap = min(gap, float(np.min(np.abs(t[..., None] - zs))))
    assert gap > 1e-9


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


def test_binomial_log_terms_failure_log_within_an_ulp_of_mpmath():
    # ln(1 - theta) through log(1 - theta) is 6 ulp off at theta = 0.05:
    # the rounding of 1 - theta is magnified by 1 / theta
    theta = 0.05
    ln_t, ln_1t = binomial_log_terms(theta, 3)
    with mpmath.workprec(200):
        exact = mpmath.log(1 - mpmath.mpf(theta))
        assert abs(mpmath.mpf(ln_1t[1]) - exact) <= np.spacing(abs(float(exact)))
    assert ln_t[0] == ln_1t[0] == 0.0
    assert np.array_equal(ln_1t, np.arange(4) * ln_1t[1])


def test_binomial_log_terms_take_zero_log_zero_as_zero():
    ln_t, ln_1t = binomial_log_terms(np.array([0.0, 1.0]), 2)
    assert np.array_equal(ln_t, [[0.0, -np.inf, -np.inf], [0.0, 0.0, 0.0]])
    assert np.array_equal(ln_1t, [[0.0, 0.0, 0.0], [0.0, -np.inf, -np.inf]])
