import math

import numpy as np
import pytest

from rarexact import (
    AltUniform,
    BayesianRar,
    CmdpSpec,
    NullUniform,
    PointNull,
    PolicyTable,
    Rectangle,
    TrialState,
    audit_policy,
    default_rectangles,
    forward_g,
    lagrangian_backward,
    layer,
    measure_log_weights,
    solve_cmdp,
)
from rarexact.cmdp import SECTION4_INTERVALS, _AuditContext, _binomial_tails, _interval_masses

from oracles import (
    DenseAuditContext,
    _uniform_table,
    backward_policy_ref,
    backward_value_ref,
    binomial_tails_ref,
    code_gather_policy_ref,
    enumerate_path_weights,
    evaluate_backward,
    interval_mass_ref,
    lagrangian_backward_ref,
    measure_log_weight,
    policy_value_ref,
    random_codes,
    solve_choice_ref,
    table_from_codes,
    wald_ref,
)


def test_measure_weight_examples():
    assert measure_log_weight(TrialState(0, 0, 0, 0), NullUniform()) == pytest.approx(0.0, abs=1e-14)
    got = measure_log_weight(TrialState(1, 0, 1, 1), AltUniform())
    assert got == pytest.approx(math.log(0.25), abs=1e-12)
    # a full-range interval reduces to the plain prior factor
    full = Rectangle(0.0, 1.0, 0.0, 1.0) if False else None
    r = Rectangle(0.0, 0.5, 0.5, 1.0)
    x = TrialState(1, 1, 2, 2)
    w = measure_log_weight(x, r)
    # direct numerical integration oracle
    from scipy.integrate import dblquad

    def integrand(tc, td):
        return (tc * (1 - tc)) * (td * (1 - td))

    val, _ = dblquad(lambda td, tc: integrand(tc, td), 0, 0.5, 0.5, 1.0)
    val /= 0.5 * 0.5
    assert math.exp(w) == pytest.approx(val, rel=1e-9)


def test_measure_layer_vectorization_matches_scalar():
    lay = layer(6, 1)
    for m in (AltUniform(), NullUniform(), PointNull(0.35), Rectangle(0.1, 0.25, 0.5, 0.75)):
        vec = measure_log_weights(lay, m)
        for i in range(0, lay.size, 3):
            assert vec[i] == pytest.approx(measure_log_weight(lay.state(i), m), abs=1e-10)


def test_rectangle_interval_masses_match_mpmath():
    # every (s, n) with n <= 50 on the Section-4 intervals, down to masses
    # of 4e-67; the larger of the two incomplete-beta differences is off
    # by up to 98 % at masses near 6e-17 on these states
    for lo, hi in SECTION4_INTERVALS:
        got = _interval_masses(lo, hi, 51)
        for n in range(51):
            for s in range(n + 1):
                want = interval_mass_ref(s, n, lo, hi)
                assert abs(got[n, s] - want) <= 1e-12 * want, (lo, hi, s, n)


@pytest.mark.parametrize("size", [1, 2, 52, 152])
def test_binomial_tails_are_bit_identical_to_their_own_log_terms(size):
    for x in (0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0):
        for got, want in zip(_binomial_tails(x, size), binomial_tails_ref(x, size)):
            assert np.array_equal(got, want)


def test_measures_are_probability_measures():
    pol = BayesianRar(10, 1)
    gt = forward_g(pol)
    for m in (AltUniform(), NullUniform(), PointNull(0.4), Rectangle(0.05, 0.1, 0.25, 0.5)):
        total = np.exp(gt.log_g + measure_log_weights(gt.layer, m)).sum()
        assert total == pytest.approx(1.0, abs=1e-10)


def test_rectangle_validation():
    with pytest.raises(ValueError):
        Rectangle(0.2, 0.2, 0.5, 0.6)       # degenerate
    with pytest.raises(ValueError):
        Rectangle(0.1, 0.6, 0.5, 0.9)       # overlapping interiors
    r = Rectangle(0.5, 0.75, 0.1, 0.25)
    assert r.superior_arm == "C"
    assert Rectangle(0.0, 0.05, 0.75, 1.0).superior_arm == "D"


def test_default_rectangles_are_all_ordered_pairs():
    rects = default_rectangles()
    assert len(rects) == 30
    assert len(set(rects)) == 30


def _tiny_spec(**kw):
    defaults = dict(n=6, burn_in=1, p=0.95, max_iters=60)
    defaults.update(kw)
    return CmdpSpec(**defaults)


def test_backward_trivial_rewards():
    spec = _tiny_spec()
    lay = layer(6, 1)
    table, value = lagrangian_backward(np.zeros(lay.size), spec)
    assert value == 0.0
    for q in table.probs:
        assert np.all(q == 0.5)   # ties prefer 1/2
    # a probability-measure reward integrates to one under any policy
    reward = np.exp(measure_log_weights(lay, NullUniform()))
    _, value = lagrangian_backward(reward, spec)
    assert value == pytest.approx(1.0, rel=1e-10)
    uniform = _uniform_table(spec)
    assert evaluate_backward(uniform, reward, spec) == pytest.approx(1.0, rel=1e-10)


def test_backward_optimum_matches_history_tree_oracle():
    spec = _tiny_spec()
    lay = layer(6, 1)
    rng = np.random.default_rng(5)
    for _ in range(3):
        reward = rng.normal(size=lay.size)
        table, value = lagrangian_backward(reward, spec)

        def reward_fn(state):
            return reward[lay.index(TrialState(*state))]

        want = backward_value_ref(reward_fn, 6, 1, (0.05, 0.5, 0.95))
        assert value == pytest.approx(want, rel=1e-11)
        # the returned table attains the optimal value
        attained = evaluate_backward(table, reward, spec)
        assert attained == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("n, b, p", [(12, 1, 0.95), (20, 2, 0.8), (16, 3, 0.5)])
def test_backward_codes_and_values_match_nested_where_with_ties(n, b, p):
    # a reward of three distinct values ties many children (wc == wd, where
    # all three actions are worth the same), a constant reward ties every
    # state, and so does p = 1/2
    spec = CmdpSpec(n=n, burn_in=b, p=p)
    size = layer(n, b).size
    three = np.random.default_rng(n + b).choice([-1.0, 0.0, 2.5], size=size)
    for reward, reached in ((three, {0, 1, 2} if p > 0.5 else {1}), (np.full(size, 0.25), {1})):
        table, value = lagrangian_backward(reward, spec)
        want_codes, want_value = lagrangian_backward_ref(reward, spec)
        assert value == want_value
        triple = np.array([1.0 - p, 0.5, p])
        for t, want in want_codes.items():
            assert table.probs[t - 2 * b].dtype == np.float64
            assert np.array_equal(table.probs[t - 2 * b], triple[want]), t
        assert set(np.unique(np.concatenate(list(want_codes.values())))) == reached


def test_backward_forward_duality():
    for n, b in [(8, 1), (12, 2), (20, 3)]:
        spec = CmdpSpec(n=n, burn_in=b)
        lay = layer(n, b)
        rng = np.random.default_rng(n)
        reward = rng.normal(size=lay.size)
        table, _ = lagrangian_backward(reward, spec)
        value = evaluate_backward(table, reward, spec)
        gt = forward_g(table)
        forward_value = float(np.sum(np.exp(gt.log_g) * reward))
        assert value == pytest.approx(forward_value, rel=1e-8)


def test_fixed_policy_value_matches_history_tree():
    spec = _tiny_spec()
    lay = layer(6, 1)
    rng = np.random.default_rng(11)
    reward = rng.normal(size=lay.size)
    table = table_from_codes(6, 1, 0.95, random_codes(6, 1, rng))

    def prob_fn(state):
        t = state[2] + state[3]
        lay_t = layer(t, 1)
        return float(table.layer_arm_probs(lay_t)[0][lay_t.index(TrialState(*state))])

    def reward_fn(state):
        return reward[lay.index(TrialState(*state))]

    want = policy_value_ref(reward_fn, prob_fn, 6, 1)
    assert evaluate_backward(table, reward, spec) == pytest.approx(want, rel=1e-11)


def test_audit_examples():
    spec = CmdpSpec(n=8, burn_in=1, rectangles=(Rectangle(0.05, 0.1, 0.5, 0.75),))
    uniform = _uniform_table(spec)
    audit = audit_policy(uniform, spec)
    assert 0.0 < audit.objective < 1.0
    assert audit.pointwise[0.0] == pytest.approx(0.0, abs=1e-12)
    assert audit.pointwise[1.0] == pytest.approx(0.0, abs=1e-12)
    # the all-1/2 policy allocates half to each arm in expectation
    assert audit.benefits[0] == pytest.approx(0.5, abs=1e-10)


def test_audit_matches_history_enumeration_oracle():
    # every row of the integrand matrix, including both superior arms of a
    # rectangle, against brute-force path weights of a lopsided policy
    from scipy.stats import norm

    rects = (Rectangle(0.05, 0.1, 0.5, 0.75), Rectangle(0.5, 0.75, 0.1, 0.25))
    spec = CmdpSpec(n=6, burn_in=1, null_grid=(0.25, 0.5), rectangles=rects)
    rng = np.random.default_rng(3)
    table = table_from_codes(6, 1, 0.95, random_codes(6, 1, rng))

    def prob_fn(state):
        t = state[2] + state[3]
        lay_t = layer(t, 1)
        return float(table.layer_arm_probs(lay_t)[0][lay_t.index(TrialState(*state))])

    weights = enumerate_path_weights(prob_fn, 6, 1)
    z = norm.ppf(1 - spec.alpha / 2)

    def expect(f, measure):
        return sum(g * f(x) * math.exp(measure_log_weight(TrialState(*x), measure))
                   for x, g in weights.items())

    def rej(x):
        return float(abs(wald_ref(*x)) >= z)

    audit = audit_policy(table, spec)
    assert audit.objective == pytest.approx(expect(rej, AltUniform()), abs=1e-12)
    assert audit.avg_type_i == pytest.approx(expect(rej, NullUniform()), abs=1e-12)
    for t0 in spec.null_grid:
        assert audit.pointwise[t0] == pytest.approx(expect(rej, PointNull(t0)), abs=1e-12)
    for i, r in enumerate(rects):
        arm = 2 if r.superior_arm == "C" else 3
        want = expect(lambda x: x[arm] / 6, r)
        assert audit.benefits[i] == pytest.approx(want, abs=1e-12)
    assert audit.benefits[0] != pytest.approx(audit.benefits[1], abs=1e-3)


@pytest.mark.parametrize("spec", [
    # every measure kind, null points at both ends, and rectangles that
    # touch 0 and 1 on either arm
    CmdpSpec(n=8, burn_in=1, null_grid=(0.0, 0.3, 1.0),
             rectangles=(Rectangle(0.0, 0.4, 0.6, 1.0), Rectangle(0.75, 1.0, 0.0, 0.05))),
    CmdpSpec(n=24, burn_in=2, rectangles=default_rectangles()),
    CmdpSpec(n=50, burn_in=6, null_grid=(0.0, 0.05, 0.5, 0.95, 1.0),
             rectangles=default_rectangles() + (Rectangle(0.0, 1.0 / 3.0, 0.5, 1.0),)),
    # deterministic actions: the random-codes table leaves terminal blocks
    # without mass, which the audit skips
    CmdpSpec(n=12, burn_in=1, p=1.0, rectangles=default_rectangles()),
], ids=["n8", "n24-section4", "n50", "n12-p1"])
def test_kernel_audit_and_reward_match_the_dense_integrand_oracle(spec):
    # the kernel tables sum in another order than the dense (K + 1) x
    # states matrix, and each takes its log scales through exp: a reward
    # entry may differ by 1e-13 of the sum of its terms' sizes, a value by
    # 1e-13 of itself (measured: 7e-15 and 1.3e-14 at n = 50), and an
    # exact zero stays zero
    ctx, dense = _AuditContext(spec), DenseAuditContext(spec)
    rng = np.random.default_rng(spec.n)
    k = len(ctx.constraints)
    lopsided = table_from_codes(spec.n, spec.burn_in, spec.p, random_codes(spec.n, spec.burn_in, rng))
    if spec.p == 1.0:
        log_g = forward_g(lopsided).log_g
        assert any(log_g[sl].max() == -np.inf for _, _, sl in ctx.layer.blocks())
    for lam in (np.zeros(k), rng.exponential(2.0, k), rng.exponential(2.0, k) * (rng.random(k) < 0.5)):
        got, want = ctx.reward(lam), dense.reward(lam)
        sizes = np.abs(np.concatenate(([1.0], lam))) @ np.abs(dense.integrands)
        assert np.all(np.abs(got - want) <= 1e-13 * sizes)
        for table in (lagrangian_backward(got, spec)[0], lopsided):
            gt = forward_g(table)
            audit = ctx.audit(gt)
            want_values = dense.values(gt)
            values = np.array([audit.objective, *audit.values])
            assert np.all(np.abs(values - want_values) <= 1e-13 * np.abs(want_values))
            assert audit.pointwise[0.0] == 0.0


def test_solve_unconstrained_dominates_uniform_policy():
    spec = CmdpSpec(n=8, burn_in=1, null_grid=(), alpha_avg=1.0, max_iters=3)
    res = solve_cmdp(spec)
    uniform_obj = audit_policy(_uniform_table(spec), spec).objective
    assert res.feasible
    assert res.audit.objective >= uniform_obj - 1e-12
    # the first maximizer is feasible and meets its own dual bound
    assert res.iterations == 1


def test_solve_tiny_matches_lambda_grid_oracle():
    # one pointwise constraint; oracle: dense multiplier grid with the
    # history-tree recursion as inner maximizer.  The bound sits strictly
    # between the most conservative (0.009) and unconstrained (0.139)
    # achievable values so it binds without being unreachable.
    theta0 = 0.1
    spec = CmdpSpec(
        n=6, burn_in=1, alpha_avg=1.0, alpha_point=0.04, null_grid=(theta0,),
        max_iters=250,
    )
    res = solve_cmdp(spec)

    lay = layer(6, 1)
    from oracles import DenseAuditContext as _AuditContext

    ctx = _AuditContext(spec)
    base_arr, cons_arr = ctx.integrands[0], ctx.integrands[2]

    def arr_fn(arr):
        return lambda state: arr[lay.index(TrialState(*state))]

    best_dual = np.inf
    best_feasible = -np.inf
    for lam in np.linspace(0.0, 25.0, 201):
        reward_fn = arr_fn(base_arr - lam * cons_arr)
        val, actions = backward_policy_ref(reward_fn, 6, 1, (0.05, 0.5, 0.95))
        best_dual = min(best_dual, val + lam * spec.alpha_point)
        prob_fn = lambda st: actions[st]
        cons_val = policy_value_ref(arr_fn(cons_arr), prob_fn, 6, 1)
        if cons_val <= spec.alpha_point:
            obj = policy_value_ref(arr_fn(base_arr), prob_fn, 6, 1)
            best_feasible = max(best_feasible, obj)
    # the solver's answer must land in the oracle's certified bracket
    assert res.feasible
    assert res.audit.pointwise[theta0] <= spec.alpha_point
    assert res.audit.objective <= best_dual + 1e-9
    assert res.audit.objective >= best_feasible - 1e-9


def test_solve_reports_infeasible_path():
    spec = CmdpSpec(n=8, burn_in=1, alpha_point=0.0005, max_iters=5)
    res = solve_cmdp(spec)
    assert not res.feasible      # cannot push pointwise error this low
    assert res.audit is not None


def test_dual_history_running_minimum_monotone():
    spec = CmdpSpec(n=8, burn_in=1, max_iters=40)
    res = solve_cmdp(spec)
    duals = [h["dual_value"] for h in res.dual.history]
    running = np.minimum.accumulate(duals)
    assert np.all(np.diff(running) <= 1e-12)
    # weak duality: every dual value bounds any feasible objective
    assert res.audit.objective <= min(duals) + 1e-6


def test_constraint_set_aligns_names_bounds_and_audit_values():
    rects = (Rectangle(0.05, 0.1, 0.5, 0.75), Rectangle(0.5, 0.75, 0.1, 0.25))
    spec = CmdpSpec(n=8, burn_in=1, null_grid=(0.25, 0.5), rectangles=rects)
    names = [name for name, _, _ in spec.constraints()]
    assert names == ["avg", "point:0.25", "point:0.5", "rect:0", "rect:1"]
    audit = audit_policy(_uniform_table(spec), spec)
    want = [audit.avg_type_i - spec.alpha_avg]
    want += [audit.pointwise[t0] - spec.alpha_point for t0 in spec.null_grid]
    want += [spec.benefit_floor - audit.benefits[i] for i in range(len(rects))]
    assert audit.violations(spec).tolist() == want
    assert audit.max_violation(spec) == max(want)
    res = solve_cmdp(CmdpSpec(n=8, burn_in=1, null_grid=(0.25, 0.5), rectangles=rects,
                              max_iters=3))
    assert list(res.dual.multipliers) == names
    assert all(list(h["multipliers"]) == names for h in res.dual.history)


@pytest.mark.parametrize("spec", [
    CmdpSpec(n=8, burn_in=1, null_grid=(0.0, 0.25, 0.5, 0.75, 1.0), max_iters=60),
    CmdpSpec(n=8, burn_in=1, max_iters=40, alpha_point=0.03),
    CmdpSpec(n=6, burn_in=1, alpha_avg=1.0, alpha_point=0.04, null_grid=(0.1,), max_iters=60),
    CmdpSpec(n=8, burn_in=1, null_grid=(), alpha_avg=1.0, max_iters=3),
])
def test_solve_prefers_strictly_feasible_iterates_and_certifies_early_stops(spec):
    res = solve_cmdp(spec)
    history = res.dual.history
    assert len(history) == res.iterations <= spec.max_iters
    strict = [h["objective"] for h in history if h["max_violation"] <= 0.0]
    if strict:
        assert res.feasible
        assert res.audit.max_violation(spec) <= 0.0
        assert res.audit.objective == max(strict)
    # an early stop is a duality-gap certificate for the returned design
    if res.iterations < spec.max_iters:
        assert strict
        assert res.audit.objective >= min(h["dual_value"] for h in history) - spec.tol


@pytest.mark.parametrize("spec", [
    CmdpSpec(n=8, burn_in=1, null_grid=(0.0, 0.25, 0.5, 0.75, 1.0), max_iters=60),
    CmdpSpec(n=8, burn_in=1, max_iters=40, alpha_point=0.03),
    CmdpSpec(n=6, burn_in=1, alpha_avg=1.0, alpha_point=0.04, null_grid=(0.1,), max_iters=60),
    CmdpSpec(n=8, burn_in=1, null_grid=(), alpha_avg=1.0, max_iters=3),
    CmdpSpec(n=8, burn_in=1, alpha_point=0.0005, max_iters=5),
])
def test_solve_returns_the_iterate_of_the_three_candidate_choice(spec):
    # the name keeps its test ids; the choice has two candidates since the
    # middle one, within tol of the bounds, was dropped
    res = solve_cmdp(spec)
    i, feasible = solve_choice_ref(res.dual.history)
    assert res.feasible == feasible
    # feasible means every bound met: spec2 has an iterate 1.3e-4 over one
    assert res.feasible == (res.audit.max_violation(spec) <= 0.0)
    assert res.audit.objective == res.dual.history[i]["objective"]
    assert res.audit.max_violation(spec) == res.dual.history[i]["max_violation"]


@pytest.mark.parametrize("kw, match", [
    (dict(max_iters=0), "max_iters = 0"),
    (dict(null_grid=(0.25, 0.5, 0.25)), "repeats a point"),
])
def test_spec_rejects_bad_solver_limits_and_repeated_null_points(kw, match):
    with pytest.raises(ValueError, match=match):
        CmdpSpec(n=8, burn_in=1, **kw)


@pytest.mark.parametrize("n, b", [(5, 3), (10, -1)])
def test_spec_refuses_a_burn_in_that_does_not_fit_as_every_policy_does(n, b):
    match = f"burn-in of {b} per arm does not fit the horizon {n}"
    with pytest.raises(ValueError, match=match):
        CmdpSpec(n, b)
    with pytest.raises(ValueError, match=match):
        BayesianRar(n, b)


def test_solve_without_a_burn_in_names_it():
    # the Wald statistic of the embedded test needs one participant per arm
    with pytest.raises(ValueError, match="burn-in of at least one per arm"):
        solve_cmdp(CmdpSpec(8, 0))


@pytest.mark.parametrize("p", [0.4, 1.5, math.nan])
def test_spec_and_policy_table_refuse_the_same_action_bounds(p):
    match = "maximum allocation rate p = .* is not in \\[0.5, 1\\]"
    with pytest.raises(ValueError, match=match):
        CmdpSpec(10, 1, p=p)
    with pytest.raises(ValueError, match=match):
        PolicyTable(10, 1, p, ())


def test_solve_is_bit_identical_with_and_without_gather_plans(monkeypatch):
    # solve_cmdp holds its transitions, which gather through index plans
    # from their second use; a cap of 0 keeps every call on the block loop
    from rarexact import states

    built = []
    child_plan = states.Transition._child_plan

    def spy(step):
        built.append(step.src.t)
        return child_plan(step)

    spec = CmdpSpec(n=12, burn_in=1, rectangles=(Rectangle(0.1, 0.25, 0.5, 0.75),),
                    max_iters=15)
    with monkeypatch.context() as m:
        m.setattr(states.Transition, "_child_plan", spy)
        gathered = solve_cmdp(spec)
    assert set(built) == set(range(2, 12))
    monkeypatch.setattr(states, "_PLAN_CAP", 0)
    looped = solve_cmdp(spec)
    assert gathered.iterations == looped.iterations == 15
    assert gathered.table == looped.table
    assert gathered.audit.values == looped.audit.values
    assert gathered.audit.objective == looped.audit.objective
    assert gathered.dual.history == looped.dual.history
    assert gathered.feasible == looped.feasible


def test_solved_table_audits_like_its_code_gather_rebuild_bit_for_bit():
    # the solve audits its float table through held transitions; the same
    # actions as int8 codes, filled by the code gather of the retired code
    # tables and swept through fresh transitions, give the same bits
    spec = CmdpSpec(n=12, burn_in=1, rectangles=(Rectangle(0.1, 0.25, 0.5, 0.75),),
                    max_iters=15)
    res = solve_cmdp(spec)
    codes = [np.select([q == 1.0 - spec.p, q == 0.5], [0, 1], 2) for q in res.table.probs]
    assert {0, 2} <= set(np.unique(np.concatenate(codes)).tolist())
    rebuilt = audit_policy(code_gather_policy_ref(spec.n, spec.burn_in, spec.p, codes), spec)
    assert rebuilt.values == res.audit.values
    assert rebuilt.objective == res.audit.objective
