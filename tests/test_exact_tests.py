import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rarexact import (
    BayesianRar,
    DbcdNeyman,
    EqualAllocation,
    TemperedDbcdNeyman,
    TrialState,
    boschloo_rule,
    boschloo_statistic,
    certify_region,
    conditional_rule,
    forward_g,
    profile,
    unconditional_rule,
)
from rarexact import exact_tests
from rarexact.exact_tests import (
    CERT_TOL,
    _golden_max,
    _grid_basis,
    _grow_prefix,
    _reverse_groups,
    _grid_values,
    _pmf_matrix,
    _poly_value,
    _stratum_tails,
    conditional_masses,
    region_coefficients,
)

from oracles import (
    bernstein_tail_sup,
    boschloo_statistic_ref,
    conditional_rule_ref,
    enumerate_path_weights,
    fisher_two_sided_ref,
    grow_prefix_linear_ref,
    grow_prefix_two_sorts_ref,
    null_sup_dense,
    pmf_matrix_ref,
    stratum_tail_fsum,
    unconditional_rule_ref,
    wald_ref,
)

ALPHA = 0.05


@pytest.fixture(scope="module")
def brar8():
    return forward_g(BayesianRar(8, 1))


@pytest.fixture(scope="module")
def brar8_ref():
    pol = BayesianRar(8, 1)
    return enumerate_path_weights(
        lambda s: pol.control_prob(TrialState(*s)), 8, 1
    )


def _state_tuples(table):
    lay = table.layer
    return [
        (st.s_c, st.s_d, st.n_c, st.n_d)
        for st in (lay.state(i) for i in range(lay.size))
    ]


def test_conditional_mass_sums_to_one_per_stratum(brar8):
    w, s = conditional_masses(brar8)
    sums = np.bincount(s, weights=w, minlength=brar8.n + 1)
    assert sums == pytest.approx(np.ones(brar8.n + 1), abs=1e-12)


def test_conditional_rule_matches_bruteforce(brar8, brar8_ref):
    # closed-form equal allocation: heavy ties, and zero-mass blocks
    # (unbalanced splits) inside strata of positive mass
    ea8 = forward_g(EqualAllocation(8, 1))
    ea8_ref = {st: math.exp(g) for st, g in zip(_state_tuples(ea8), ea8.log_g)}
    for table, weights in ((brar8, brar8_ref), (ea8, ea8_ref)):
        rule = conditional_rule(table, ALPHA)
        ref = conditional_rule_ref(weights, 8, ALPHA)
        for sp, (lo, up) in ref.items():
            if up is None:
                assert rule.upper[sp] == np.inf and not rule.upper_closed[sp]
            else:
                assert rule.upper[sp] == pytest.approx(up, abs=1e-12)
            if lo is None:
                assert rule.lower[sp] == -np.inf and not rule.lower_closed[sp]
            else:
                assert rule.lower[sp] == pytest.approx(lo, abs=1e-12)


def test_conditional_rule_zero_stratum_cannot_reject(brar8):
    rule = conditional_rule(brar8, ALPHA)
    # every state with zero successes shares the degenerate statistic
    assert rule.upper[0] == np.inf and not rule.upper_closed[0]
    assert rule.lower[0] == -np.inf and not rule.lower_closed[0]


def test_conditional_rule_skips_strata_without_mass():
    # every tail of a massless stratum is 0, yet it must reject nothing
    table = forward_g(EqualAllocation(8, 1))
    s = table.successes()
    table = replace(table, log_g=np.where(s == 4, -np.inf, table.log_g))
    rule = conditional_rule(table, ALPHA)
    assert rule.upper[4] == np.inf and not rule.upper_closed[4]
    assert rule.lower[4] == -np.inf and not rule.lower_closed[4]
    assert not rule.reject_table(table)[s == 4].any()
    assert rule.upper_closed.any()     # other strata still reject


def test_conditional_rule_per_stratum_size(brar8):
    rule = conditional_rule(brar8, ALPHA)
    rej = rule.reject_table(brar8)
    w, s = conditional_masses(brar8)
    for sp in range(9):
        mask = s == sp
        assert np.sum(w[mask & rej]) <= ALPHA + 1e-12


def test_bernstein_tail_sup_trivial(brar8):
    nothing = np.zeros(brar8.layer.size, dtype=bool)
    assert bernstein_tail_sup(brar8, nothing) == (0.0, 0.0)
    everything = np.ones(brar8.layer.size, dtype=bool)
    lo, up = bernstein_tail_sup(brar8, everything)
    assert lo == pytest.approx(1.0, abs=1e-10)
    assert up == pytest.approx(1.0, abs=1e-10)


def test_bernstein_tail_sup_brackets_dense_grid():
    table = forward_g(EqualAllocation(6, 1))
    rng = np.random.default_rng(3)
    states = _state_tuples(table)
    weights = {st: math.exp(g) for st, g in zip(states, table.log_g)}
    for _ in range(5):
        mask = rng.random(table.layer.size) < 0.3
        lo, up = bernstein_tail_sup(table, mask)
        chosen = {st for st, m in zip(states, mask) if m}
        dense = null_sup_dense(weights, 6, lambda s: s in chosen, grid=100_001)
        # both grids only lower-bound the supremum, so allow its resolution
        assert lo <= dense + 1e-8
        assert dense <= up + 1e-12
        assert lo <= up + 1e-12


def test_certify_region_decisions():
    coeffs = np.array([0.0, 0.01, 0.02, 0.01, 0.0])
    cert = certify_region(coeffs, 0.025)
    assert cert.accepted and cert.certified_upper <= 0.025 + 1e-10
    cert2 = certify_region(coeffs, 0.004)
    assert not cert2.accepted and cert2.lower_bound > 0.004
    # needs subdivision: max coefficient exceeds the level but the sup does not
    spiky = np.zeros(9)
    spiky[4] = 0.05          # single-stratum mass; poly max is well below 0.05
    cert3 = certify_region(spiky, 0.03)
    assert cert3.accepted
    assert cert3.certified_upper <= 0.03 + 1e-10
    true_max = 0.05 * math.comb(8, 4) * 0.5 ** 8
    assert cert3.lower_bound == pytest.approx(true_max, rel=1e-6)


@settings(max_examples=80, deadline=None)
@given(
    coeffs=st.integers(1, 12).flatmap(
        lambda n: st.lists(st.floats(0.0, 1.0), min_size=n + 1, max_size=n + 1)
    ),
    level=st.floats(0.0, 1.0),
)
@example(coeffs=[0.3] * 12, level=0.03)  # flat maximum: rounding lifts the grid value
def test_certificate_brackets_dense_grid_maximum(coeffs, level):
    c = np.array(coeffs)
    n = c.size - 1
    cert = certify_region(c, level)
    grid = 100_001
    theta = np.linspace(0.0, 1.0, grid)[:, None]
    k = np.arange(n + 1)
    comb = np.array([math.comb(n, j) for j in k], dtype=float)
    dense = float(np.max((comb * theta**k * (1.0 - theta) ** (n - k)) @ c))
    # a grid point lies within h/2 of the maximizer and |p''| <= 2n(n-1)
    # for coefficients in [0, 1], so the grid misses at most n(n-1)h^2/4
    resolution = n * (n - 1) / (4.0 * (grid - 1) ** 2) + 1e-14
    assert cert.certified_upper >= cert.lower_bound
    assert cert.lower_bound <= dense + resolution
    assert dense <= cert.certified_upper + CERT_TOL
    assert cert.accepted == (cert.certified_upper <= level + CERT_TOL)


def _best_grid_bracket(coeffs):
    theta, basis = _grid_basis(coeffs.size - 1)
    j = int(np.argmax(basis @ coeffs))
    return theta[max(j - 1, 0)], theta[min(j + 1, theta.size - 1)]


@pytest.mark.parametrize("policy", [DbcdNeyman(30, 3), BayesianRar(20, 2)])
def test_golden_section_reaches_the_dense_grid_maximum(policy):
    # a real rejection polynomial: the upper tail of the Wald statistic
    table = forward_g(policy)
    coeffs = region_coefficients(table, table.wald_statistics() >= 1.5)
    lo, hi = _best_grid_bracket(coeffs)
    best = _golden_max(lambda th: _poly_value(coeffs, th), lo, hi)
    dense = float(np.max(_pmf_matrix(table.n, np.linspace(lo, hi, 50_001)) @ coeffs))
    assert abs(best - dense) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(coeffs=st.integers(1, 30).flatmap(
    lambda n: st.lists(st.floats(0.0, 1.0), min_size=n + 1, max_size=n + 1)))
@example(coeffs=[0.078125] * 4 + [0.75, 0.078125])  # BLAS and einsum grid values one ulp apart
def test_line_search_bracket_never_inverts(coeffs):
    # a level at the grid maximum always runs the line search
    c = np.array(coeffs)
    grid_max = float(np.max(_grid_values(c)))
    cert = certify_region(c, grid_max)
    assert cert.lower_bound <= cert.certified_upper
    if c.max() > grid_max + CERT_TOL:   # not settled by the coefficient bound
        assert cert.lower_bound >= grid_max or cert.lower_bound == cert.certified_upper


def test_unconditional_rule_matches_bruteforce(brar8, brar8_ref):
    rule = unconditional_rule(brar8, ALPHA)
    lo_ref, up_ref = unconditional_rule_ref(brar8_ref, 8, ALPHA, grid=40_001)
    assert rule.upper == pytest.approx(up_ref, abs=1e-12)
    assert rule.lower == pytest.approx(lo_ref, abs=1e-12)
    assert rule.upper_certificate.certified_upper <= ALPHA / 2 + 1e-10
    assert rule.lower_certificate.certified_upper <= ALPHA / 2 + 1e-10
    assert rule.certificate.certified_upper <= ALPHA + 1e-10


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shared_sort_grows_the_tails_of_two_sorts(brar8, data):
    # keys from a handful of values, signed zeros and infinities, so most
    # states tie; each tail's mass is summed in its sort's order, so the
    # shared order must keep every tie group's order
    w, s = conditional_masses(brar8)
    values = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.5, -np.inf, np.inf])
    keys = np.array(data.draw(st.lists(values, min_size=w.size, max_size=w.size)))
    level = data.draw(st.sampled_from([0.0, 0.01, 0.025, 0.2, 0.5]))
    lo_order = np.argsort(keys, kind="stable")
    up_order = _reverse_groups(lo_order, keys)
    assert np.array_equal(up_order, np.argsort(-keys, kind="stable"))
    (up_last, up_next, up_cert), lo = grow_prefix_two_sorts_ref(keys, w, s, brar8.n, level)
    # the upper tail reads keys, not their negatives, in its order
    want = (None if up_last is None else -up_last, None if up_next is None else -up_next, up_cert), lo
    shared = (_grow_prefix(keys, up_order, w, s, brar8.n, level),
              _grow_prefix(keys, lo_order, w, s, brar8.n, level))
    assert repr(shared) == repr(want)


def test_unconditional_rule_on_second_policy():
    pol = DbcdNeyman(8, 1)
    table = forward_g(pol)
    ref = enumerate_path_weights(lambda s: pol.control_prob(TrialState(*s)), 8, 1)
    rule = unconditional_rule(table, ALPHA)
    lo_ref, up_ref = unconditional_rule_ref(ref, 8, ALPHA, grid=40_001)
    assert rule.upper == pytest.approx(up_ref, abs=1e-12)
    assert rule.lower == pytest.approx(lo_ref, abs=1e-12)


def test_boschloo_statistic_matches_double_loop(brar8, brar8_ref):
    stat = boschloo_statistic(brar8)
    ref = boschloo_statistic_ref(brar8_ref, 8)
    states = _state_tuples(brar8)
    for st, got in zip(states, stat):
        if st in ref:
            assert got == pytest.approx(ref[st], abs=1e-12)


@pytest.mark.parametrize("policy", [BayesianRar(40, 1), DbcdNeyman(40, 2)])
def test_boschloo_statistic_is_relatively_accurate(policy):
    # p-values far below the stratum's total mass keep their own digits;
    # the conditional rule's lower tails come from the same kernel
    table = forward_g(policy)
    t = table.wald_statistics()
    w, s = conditional_masses(table)
    for got, want in (
        (boschloo_statistic(table), stratum_tail_fsum(np.abs(t), w, s)),
        (_stratum_tails(t, w, s, table.n)[1], stratum_tail_fsum(-t, w, s)),
    ):
        pos = want > 0.0
        rel = np.max(np.abs(got[pos] - want[pos]) / want[pos])
        assert rel <= 1e-12, rel


def test_boschloo_statistic_extremes(brar8):
    stat = boschloo_statistic(brar8)
    w, s = conditional_masses(brar8)
    t = np.abs(brar8.wald_statistics())
    # zero-success stratum: all statistics tie at zero, p-value is one
    assert stat[s == 0] == pytest.approx(np.ones(np.sum(s == 0)), abs=1e-12)
    # strict maximum of |T| within a stratum has its own mass as p-value
    for sp in range(1, 8):
        mask = s == sp
        tm = t[mask]
        best = np.flatnonzero(tm == tm.max())
        if best.size == 1:
            i = np.flatnonzero(mask)[best[0]]
            assert stat[i] == pytest.approx(w[i], abs=1e-13)


def test_boschloo_rule_certificate_and_level(brar8):
    rule = boschloo_rule(brar8, ALPHA)
    assert rule.certificate.accepted
    assert rule.certificate.certified_upper <= ALPHA + 1e-10
    rej = rule.reject_table(brar8)
    coeffs = region_coefficients(brar8, rej)
    assert coeffs.max() <= 1.0


def test_boschloo_uniformly_more_powerful_than_conditional(brar8):
    cond = conditional_rule(brar8, ALPHA)
    gb = boschloo_rule(brar8, ALPHA)
    rej_cond = cond.reject_table(brar8)
    rej_gb = gb.reject_table(brar8)
    assert not np.any(rej_cond & ~rej_gb)
    assert gb.threshold >= ALPHA


def test_lemma_inclusion_on_n20_policies():
    for pol in (BayesianRar(20, 1), TemperedDbcdNeyman(20, 1)):
        table = forward_g(pol)
        rej_cond = conditional_rule(table, ALPHA).reject_table(table)
        gb = boschloo_rule(table, ALPHA)
        rej_gb = gb.reject_table(table)
        assert not np.any(rej_cond & ~rej_gb)
        assert gb.threshold >= ALPHA


def test_fisher_equivalence_small_horizons():
    for n in (4, 8, 12):
        table = forward_g(EqualAllocation(n, 1))
        rule = conditional_rule(table, ALPHA)
        rej = rule.reject_table(table)
        lay = table.layer
        for i in range(lay.size):
            st = lay.state(i)
            if st.n_c != n // 2:
                continue
            want = fisher_two_sided_ref(st.s_c, st.s_d, n // 2, ALPHA)
            assert bool(rej[i]) == want, (n, st)


def test_rules_require_burn_in():
    table = forward_g(EqualAllocation(6, 0))
    with pytest.raises(ValueError):
        conditional_rule(table, ALPHA)
    with pytest.raises(ValueError):
        unconditional_rule(table, ALPHA)
    with pytest.raises(ValueError):
        boschloo_statistic(table)


@st.composite
def _small_adaptive_designs(draw):
    cls = draw(st.sampled_from([BayesianRar, DbcdNeyman, TemperedDbcdNeyman]))
    b = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(2 * b, 16))
    return cls(n, b)


@settings(max_examples=60, deadline=None)
@given(policy=_small_adaptive_designs(), alpha=st.sampled_from([0.05, 0.1, 0.2]))
def test_certified_rules_keep_their_level_on_the_null_grid(policy, alpha):
    # exact null size at theta = j / (4n): within the level and within
    # the rule's own certified upper bound
    table = forward_g(policy)
    m = 4 * policy.n
    nulls = [(j / m, j / m) for j in range(m + 1)]
    for build in (conditional_rule, unconditional_rule, boschloo_rule):
        rule = build(table, alpha)
        size = profile(table, rule, nulls).rejection_rates.max()
        assert size <= alpha + 2 * CERT_TOL, (build.__name__, size)
        assert size <= rule.certificate.certified_upper + 1e-15, (build.__name__, size)


@settings(max_examples=100, deadline=None)
@given(policy=_small_adaptive_designs(), level=st.floats(1e-4, 0.5),
       key=st.sampled_from(["t", "-t", "boschloo"]))
def test_grow_prefix_bisection_matches_the_linear_scan(policy, level, key):
    # the largest accepted count over all counts is the one bisection
    # finds only if acceptance is monotone in the prefix
    table = forward_g(policy)
    w, s = conditional_masses(table)
    t = table.wald_statistics()
    keys = {"t": t, "-t": -t, "boschloo": boschloo_statistic(table)}[key]
    got = _grow_prefix(keys, np.argsort(keys, kind="stable"), w, s, table.n, level)
    assert got == grow_prefix_linear_ref(keys, w, s, table.n, level)


def test_grow_prefix_certifies_logarithmically_many_prefixes(monkeypatch):
    table = forward_g(BayesianRar(40, 2))
    w, s = conditional_masses(table)
    t = table.wald_statistics()
    groups = np.unique(t).size
    calls = []
    certify = exact_tests.certify_region
    monkeypatch.setattr(exact_tests, "certify_region",
                        lambda c, level: calls.append(level) or certify(c, level))
    _grow_prefix(t, np.argsort(t, kind="stable"), w, s, table.n, ALPHA / 2)
    # bisection over groups + 1 counts, plus at most one final certification
    assert 0 < len(calls) <= (groups + 1).bit_length() + 1


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 50, 150, 300])
def test_pmf_matrix_is_bit_identical_to_its_own_log_terms(n):
    theta = np.array([0.0, 1.0, 1e-300, 1.0 - 1e-16, 0.3])
    if n:
        theta = np.concatenate([_grid_basis(n)[0], theta])
    assert np.array_equal(_pmf_matrix(n, theta), pmf_matrix_ref(n, theta))


def test_design_digest_is_the_sha256_of_little_endian_log_g():
    import hashlib

    table = forward_g(BayesianRar(12, 1))
    want = hashlib.sha256(table.log_g.astype("<f8").tobytes()).hexdigest()
    assert table.digest() == want
    # one changed bit is another design
    other = table.log_g.copy()
    other[0] = np.nextafter(other[0], np.inf)
    assert replace(table, log_g=other).digest() != want


@pytest.mark.parametrize("build", [conditional_rule, unconditional_rule, boschloo_rule])
def test_rules_refuse_another_design_naming_both_digests(build):
    table = forward_g(DbcdNeyman(20, 2))
    rule = build(table, ALPHA)
    assert rule.design == table.digest()
    other = forward_g(BayesianRar(20, 1))
    with pytest.raises(ValueError, match=f"design {table.digest()[:8]}.*{other.digest()[:8]}"):
        rule.reject_table(other)
    # a design of another horizon keeps the horizon message
    with pytest.raises(ValueError, match="horizon n = 20, the design has n = 22"):
        rule.reject_table(forward_g(DbcdNeyman(22, 2)))
