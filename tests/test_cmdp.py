import math

import numpy as np
import pytest

from rarexact import (
    AltUniform,
    BayesianRar,
    CmdpSpec,
    NullUniform,
    PointNull,
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
from rarexact.cmdp import _uniform_table, evaluate_backward
from rarexact.policies import PolicyTable, TablePolicy

from oracles import backward_policy_ref, backward_value_ref, measure_log_weight, policy_value_ref


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
    for t in range(2, 6):
        assert np.all(table.codes[t] == 1)   # ties prefer 1/2
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


def test_backward_forward_duality():
    for n, b in [(8, 1), (12, 2), (20, 3)]:
        spec = CmdpSpec(n=n, burn_in=b)
        lay = layer(n, b)
        rng = np.random.default_rng(n)
        reward = rng.normal(size=lay.size)
        table, _ = lagrangian_backward(reward, spec)
        value = evaluate_backward(table, reward, spec)
        gt = forward_g(TablePolicy(n=n, burn_in=b, table=table))
        forward_value = float(np.sum(np.exp(gt.log_g) * reward))
        assert value == pytest.approx(forward_value, rel=1e-8)


def test_fixed_policy_value_matches_history_tree():
    spec = _tiny_spec()
    lay = layer(6, 1)
    rng = np.random.default_rng(11)
    reward = rng.normal(size=lay.size)
    codes = []
    for t in range(6):
        lsize = layer(t, 1).size
        if t < 2:
            codes.append(np.full(lsize, -1, dtype=np.int8))
        else:
            codes.append(rng.integers(0, 3, size=lsize).astype(np.int8))
    table = PolicyTable(6, 1, 0.95, tuple(codes))

    def prob_fn(state):
        t = state[2] + state[3]
        lay_t = layer(t, 1)
        return float(table.probs_for_epoch(t)[lay_t.index(TrialState(*state))])

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
    from rarexact.cmdp import _AuditContext

    ctx = _AuditContext(spec)
    base_arr = ctx.rej * np.exp(ctx.alt_lw)
    cons_arr = ctx.rej * np.exp(ctx.point_lws[theta0])

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
    assert res.audit.pointwise[theta0] <= spec.alpha_point + spec.tol
    assert res.audit.objective <= best_dual + 1e-9
    assert res.audit.objective >= best_feasible - 1e-9


def test_solve_reports_balanced_audit_and_infeasible_path():
    spec = CmdpSpec(n=8, burn_in=1, alpha_point=0.0005, max_iters=5)
    res = solve_cmdp(spec)
    assert res.balanced_audit is not None
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


@pytest.mark.parametrize("kw, match", [
    (dict(max_iters=0), "max_iters = 0"),
    (dict(null_grid=(0.25, 0.5, 0.25)), "repeats a point"),
])
def test_spec_rejects_bad_solver_limits_and_repeated_null_points(kw, match):
    with pytest.raises(ValueError, match=match):
        CmdpSpec(n=8, burn_in=1, **kw)
