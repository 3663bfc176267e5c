from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarexact import (
    AsymptoticRule,
    BayesianRar,
    DbcdNeyman,
    EqualAllocation,
    TerminalFunctional,
    TrialState,
    conditional_rule,
    equal_allocation_g,
    forward_g,
    null_diagonal,
    patient_benefit,
    power_curves,
    profile,
    rejection_rate,
    unconditional_rule,
)

from oracles import enumerate_path_weights, expectation_ref, log_domain_expectation_ref, wald_ref


class _NothingRule:
    kind = "nothing"
    alpha = None

    def reject_table(self, table):
        return np.zeros(table.layer.size, dtype=bool)


def test_rejecting_nothing_gives_zero_everywhere():
    table = equal_allocation_g(10, b=1)
    for theta in [(0.2, 0.2), (0.1, 0.9)]:
        assert rejection_rate(table, _NothingRule(), theta) == 0.0


def test_patient_benefit_conventions():
    table = forward_g(BayesianRar(8, 1))
    assert patient_benefit(table, (0.3, 0.3)) == 0.5
    ea = equal_allocation_g(8, b=1)
    # a deterministic half split stays at one half for any rates
    assert patient_benefit(ea, (0.2, 0.9)) == pytest.approx(0.5, abs=1e-12)
    assert patient_benefit(ea, (0.9, 0.2)) == pytest.approx(0.5, abs=1e-12)


def test_patient_benefit_matches_brute_force():
    pol = BayesianRar(8, 1)
    table = forward_g(pol)
    ref = enumerate_path_weights(lambda s: pol.control_prob(TrialState(*s)), 8, 1)
    for theta in [(0.2, 0.8), (0.8, 0.2), (0.6, 0.35)]:
        superior = 2 if theta[0] > theta[1] else 3   # n_c or n_d index
        want = expectation_ref(ref, lambda st: st[superior] / 8, theta)
        assert patient_benefit(table, theta) == pytest.approx(want, rel=1e-10)


def test_profile_reuse_identity():
    table = forward_g(BayesianRar(12, 1))
    rule = conditional_rule(table, 0.05)
    thetas = [(0.25, 0.25), (0.25, 0.6), (0.7, 0.9)]
    prof = profile(table, rule, thetas)
    for (tc, td), r, pb in zip(prof.thetas, prof.rejection_rates, prof.patient_benefits):
        assert r == pytest.approx(rejection_rate(table, rule, (tc, td)), abs=1e-13)
        assert pb == pytest.approx(patient_benefit(table, (tc, td)), abs=1e-13)


def test_profile_requires_grid():
    table = equal_allocation_g(6, b=1)
    with pytest.raises(ValueError):
        profile(table, AsymptoticRule(0.05), [])


def test_null_profile_of_exact_rule_respects_level():
    table = forward_g(BayesianRar(14, 1))
    rule = unconditional_rule(table, 0.05)
    prof = profile(table, rule, null_diagonal(25))
    assert np.all(prof.rejection_rates <= 0.05 + 1e-9)
    assert np.all(prof.patient_benefits == 0.5)


def test_swap_symmetric_rates():
    table = forward_g(BayesianRar(14, 1))
    rule = unconditional_rule(table, 0.05)
    for tc, td in [(0.2, 0.7), (0.4, 0.9)]:
        a = rejection_rate(table, rule, (tc, td))
        b = rejection_rate(table, rule, (td, tc))
        assert a == pytest.approx(b, rel=1e-10)


def test_grid_constructors():
    diag = null_diagonal(9)
    assert len(diag) == 9
    assert all(a == b for a, b in diag)
    curves = power_curves([0.3, 0.5], step=0.1)
    assert (0.3, 0.3) in curves
    assert all(td >= tc for tc, td in curves)
    assert max(td for _, td in curves) <= 1.0


def test_asymptotic_rule_threshold():
    rule = AsymptoticRule(0.05)
    assert rule.z == pytest.approx(1.959964, abs=1e-6)
    t = np.array([1.9599, 1.9600, -2.5])
    assert rule.reject(t).tolist() == [False, True, True]


BAD_THETAS = [(float("nan"), 0.5), (0.5, float("nan")), (-0.1, 0.5), (0.5, 1.5),
              (float("inf"), 0.2), (-0.0, -1e-300)]


@pytest.mark.parametrize("bad", BAD_THETAS)
def test_evaluators_reject_points_outside_unit_square(bad):
    table = forward_g(BayesianRar(8, 1))
    rule = AsymptoticRule(0.05)
    with pytest.raises(ValueError, match="theta point 0"):
        rejection_rate(table, rule, bad)
    with pytest.raises(ValueError, match="theta point 0"):
        patient_benefit(table, bad)
    with pytest.raises(ValueError, match="theta point 2"):
        profile(table, rule, [(0.2, 0.3), (0.0, 1.0), bad, (0.5, 0.5)])


POLICIES = {
    "DbcdNeyman": DbcdNeyman(30, 3),
    "BayesianRar": BayesianRar(24, 2),
    "EqualAllocation": EqualAllocation(30, 3),
}


@lru_cache(maxsize=None)
def _design(name):
    table = forward_g(POLICIES[name])
    rule = AsymptoticRule(0.05)
    return table, rule, rule.reject_table(table).astype(np.float64)


def _oracle(table, f, theta):
    s_c, s_d, n_c, n_d = table.layer.arrays()
    return log_domain_expectation_ref(f, table.log_g, s_c, s_d, n_c, n_d, theta)


unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
grids = st.lists(st.tuples(unit, unit), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(POLICIES)), thetas=grids)
def test_profile_matches_log_domain_oracle(name, thetas):
    table, rule, reject = _design(name)
    _, _, n_c, n_d = table.layer.arrays()
    prof = profile(table, rule, thetas)
    assert np.all((prof.rejection_rates >= 0.0) & (prof.rejection_rates <= 1.0))
    assert np.all((prof.patient_benefits >= 0.0) & (prof.patient_benefits <= 1.0))
    for (tc, td), rate, benefit in zip(thetas, prof.rejection_rates, prof.patient_benefits):
        want_rate = _oracle(table, reject, (tc, td))
        share = n_c if tc > td else n_d
        want_benefit = 0.5 if tc == td else _oracle(table, share / table.n, (tc, td))
        for got, want in [(rate, want_rate), (rejection_rate(table, rule, (tc, td)), want_rate),
                          (benefit, want_benefit), (patient_benefit(table, (tc, td)), want_benefit)]:
            assert got == pytest.approx(want, abs=1e-13)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(POLICIES)), theta=st.tuples(unit, unit),
       seed=st.integers(0, 2**32 - 1))
def test_signed_functional_matches_log_domain_oracle(name, theta, seed):
    table, _, _ = _design(name)
    f = np.random.default_rng(seed).normal(size=table.layer.size)
    fn = TerminalFunctional(f, table)
    assert fn.value(theta) == pytest.approx(_oracle(table, f, theta), abs=1e-13)
