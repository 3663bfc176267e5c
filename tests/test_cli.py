import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rarexact.cli import main
from rarexact.io import (
    POLICY_MAGIC,
    WEIGHT_MAGIC,
    _read_container,
    _write_container,
    read_policy_table,
    read_rule,
    read_weight_table,
    rule_from_dict,
    rule_to_dict,
    write_policy_table,
    write_rule,
    write_weight_table,
)
from rarexact import (
    AsymptoticRule,
    BayesianRar,
    CmdpSpec,
    DbcdNeyman,
    EqualAllocation,
    TemperedDbcdNeyman,
    conditional_rule,
    boschloo_rule,
    forward_g,
    lagrangian_backward,
    layer,
    solve_cmdp,
    unconditional_rule,
)

from oracles import rule_to_dict_ref, simulate_trial_ref


def _cfg(tmp_path, name, **kw):
    path = tmp_path / name
    path.write_text(json.dumps(kw))
    return str(path)


def test_weight_table_round_trip(tmp_path):
    table = forward_g(BayesianRar(10, 1))
    path = tmp_path / "design.rxgw"
    write_weight_table(path, table)
    back = read_weight_table(path)
    assert back.n == 10 and back.burn_in == 1
    assert np.array_equal(back.log_g, table.log_g)
    assert back.meta["kind"] == "BayesianRar"


def test_weight_table_header_carries_numeric_health(tmp_path):
    for table in (forward_g(BayesianRar(10, 1)), forward_g(EqualAllocation(8, 1))):
        path = tmp_path / "design.bin"
        write_weight_table(path, table)
        header, payload = _read_container(path, WEIGHT_MAGIC)
        log_g = np.frombuffer(payload, dtype="<f8")
        assert header["neg_inf_states"] == np.count_nonzero(log_g == -np.inf)
        assert header["normalization_error"] == table.normalization_error() <= 1e-12
    assert header["neg_inf_states"] > 0
    # a reader ignores header keys it does not know
    header["added_later"] = {"any": "value"}
    _write_container(path, WEIGHT_MAGIC, header, payload)
    assert np.array_equal(read_weight_table(path).log_g, table.log_g)


def test_rule_round_trip_identical_decisions(tmp_path):
    table = forward_g(BayesianRar(10, 1))
    for build in (conditional_rule, unconditional_rule, boschloo_rule):
        rule = build(table, 0.05)
        path = tmp_path / "rule.json"
        write_rule(path, rule)
        back = read_rule(path)
        assert np.array_equal(back.reject_table(table), rule.reject_table(table))
        assert rule_to_dict(back) == rule_to_dict(rule)


@pytest.mark.parametrize("policy", [BayesianRar(12, 1), DbcdNeyman(14, 2),
                                    TemperedDbcdNeyman(12, 1)], ids=repr)
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
def test_rule_fields_write_the_format_1_keys_plus_the_design(policy, alpha):
    table = forward_g(policy)
    for rule in (conditional_rule(table, alpha), unconditional_rule(table, alpha),
                 boschloo_rule(table, alpha), AsymptoticRule(alpha)):
        d, ref = rule_to_dict(rule), rule_to_dict_ref(rule)
        differ = {k for k in d.keys() | ref.keys() if d.get(k) != ref.get(k)}
        assert differ == ({"format"} if rule.kind == "asymptotic" else {"format", "design"})
        assert d["format"] == 2 and d.get("design", table.digest()) == table.digest()
        # read back from the file's text: the same dict and decisions, bit for bit
        back = rule_from_dict(json.loads(json.dumps(d)))
        assert type(back) is type(rule) and rule_to_dict(back) == d
        assert np.array_equal(back.reject_table(table), rule.reject_table(table))


def test_cli_oc_refuses_a_rule_of_another_design_of_the_same_horizon(tmp_path, capsys):
    # 2: a conditional rule built for DbcdNeyman(20, 2) is refused on
    # BayesianRar(20, 1), although its per-stratum lists fit any n = 20
    rule_path, design_path = tmp_path / "rule.json", tmp_path / "brar20.rxgw"
    cfg = _cfg(tmp_path, "crit.json", n=20, burn_in=2, policy="DbcdNeyman", test="conditional")
    assert main(["crit", "--config", cfg, "--out", str(rule_path)]) == 0
    cfg = _cfg(tmp_path, "design.json", n=20, burn_in=1, policy="BayesianRar")
    assert main(["design", "--config", cfg, "--out", str(design_path)]) == 0
    built_for = json.loads(rule_path.read_text())["design"]
    given = read_weight_table(design_path).digest()
    cfg = _cfg(tmp_path, "oc.json", n=20, burn_in=1, rule_path=str(rule_path),
               design_path=str(design_path), baseline_design_path=str(design_path),
               theta_grid={"kind": "list", "values": [[0.5, 0.5]]})
    for command in ("oc", "power-diff"):
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert built_for[:8] in err and given[:8] in err


def test_policy_table_round_trip(tmp_path):
    spec = CmdpSpec(n=8, burn_in=1, max_iters=10)
    res = solve_cmdp(spec)
    path = tmp_path / "policy.rxpt"
    write_policy_table(path, res.table)
    back = read_policy_table(path)
    assert back == res.table
    # RXPT2: the layer sizes of epochs 2b .. n - 1, then float64 probabilities
    header, payload = _read_container(path, POLICY_MAGIC)
    assert POLICY_MAGIC == b"RXPT2\n"
    assert header["sizes"] == [layer(t, 1).size for t in range(2, 8)]
    assert payload == b"".join(q.astype("<f8").tobytes() for q in res.table.probs)


def test_cli_design_oc_round_trip(tmp_path):
    design = str(tmp_path / "ea.rxgw")
    cfg = _cfg(tmp_path, "design.json", n=10, burn_in=1, policy="EqualAllocation")
    assert main(["design", "--config", cfg, "--out", design]) == 0

    out = str(tmp_path / "oc.csv")
    cfg = _cfg(
        tmp_path, "oc.json", n=10, burn_in=1, design_path=design,
        test="conditional",
        theta_grid={"kind": "list", "values": [[0.3, 0.3], [0.3, 0.9]]},
    )
    assert main(["oc", "--config", cfg, "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0].startswith("# rarexact ")
    assert lines[1] == "theta_c,theta_d,rejection_rate,patient_benefit"
    assert len(lines) == 4
    # byte-identical rerun
    out2 = str(tmp_path / "oc2.csv")
    assert main(["oc", "--config", cfg, "--out", out2]) == 0
    assert Path(out).read_bytes() == Path(out2).read_bytes()


def test_cli_crit_round_trip_small(tmp_path):
    design = str(tmp_path / "ea2.rxgw")
    cfg = _cfg(tmp_path, "d.json", n=2, burn_in=1, policy="EqualAllocation")
    assert main(["design", "--config", cfg, "--out", design]) == 0
    rule_path = str(tmp_path / "rule.json")
    cfg = _cfg(tmp_path, "c.json", n=2, burn_in=1, design_path=design, test="unconditional")
    assert main(["crit", "--config", cfg, "--out", rule_path]) == 0
    table = read_weight_table(design)
    rule = read_rule(rule_path)
    fresh = unconditional_rule(table, 0.05)
    assert np.array_equal(rule.reject_table(table), fresh.reject_table(table))


def test_cli_power_diff(tmp_path):
    d1 = str(tmp_path / "brar.rxgw")
    cfg = _cfg(tmp_path, "d1.json", n=8, burn_in=1, policy="BayesianRar")
    assert main(["design", "--config", cfg, "--out", d1]) == 0
    d2 = str(tmp_path / "ea.rxgw")
    cfg = _cfg(tmp_path, "d2.json", n=8, burn_in=1, policy="EqualAllocation")
    assert main(["design", "--config", cfg, "--out", d2]) == 0
    out = str(tmp_path / "diff.csv")
    cfg = _cfg(
        tmp_path, "pd.json", n=8, burn_in=1,
        design_path=d1, baseline_design_path=d2, test="conditional",
        theta_grid={"kind": "list", "values": [[0.2, 0.8]]},
    )
    assert main(["power-diff", "--config", cfg, "--out", out]) == 0
    header = Path(out).read_text().splitlines()[1].split(",")
    assert header == ["theta_c", "theta_d", "rate", "rate_baseline", "rate_diff",
                      "benefit", "benefit_baseline", "benefit_diff"]


def test_cli_cmdp_solve_and_table_policy(tmp_path):
    out = str(tmp_path / "policy.rxpt")
    cfg = _cfg(
        tmp_path, "cmdp.json", n=8, burn_in=1, max_iters=60,
        alpha_avg=0.045, alpha_point=0.05,
        null_grid=[0.0, 0.25, 0.5, 0.75, 1.0],
    )
    rc = main(["cmdp", "solve", "--config", cfg, "--out", out])
    assert rc == 0
    audit = json.loads(Path(out + ".audit.json").read_text())
    assert audit["feasible"] is True
    # the dual trace: one entry per iteration, every dual value bounds the
    # objective of the returned feasible design
    trace = audit["dual_trace"]
    assert len(trace) == audit["iterations"]
    assert [h["iteration"] for h in trace] == list(range(1, audit["iterations"] + 1))
    assert set(trace[0]) == {"iteration", "objective", "max_violation", "dual_value"}
    assert audit["objective"] <= min(h["dual_value"] for h in trace) + 1e-9
    assert audit["max_violation"] <= 5e-4
    # the emitted table drives the oc command
    oc_out = str(tmp_path / "cmdp_oc.csv")
    cfg2 = _cfg(
        tmp_path, "oc2.json", n=8, burn_in=1,
        policy={"kind": "CmdpTable", "table_path": out}, test="asymptotic",
        theta_grid={"kind": "list", "values": [[0.25, 0.25]]},
    )
    assert main(["oc", "--config", cfg2, "--out", oc_out]) == 0
    rate = float(Path(oc_out).read_text().splitlines()[2].split(",")[2])
    assert rate == pytest.approx(audit["pointwise"]["0.25"], abs=1e-10)


def test_cli_mc_randtest(tmp_path):
    out = str(tmp_path / "mc.csv")
    common = dict(n=10, burn_in=1, policy="EqualAllocation", sims=120, seed=7,
                  theta_grid={"kind": "list", "values": [[0.5, 0.5]]})
    cfg = _cfg(tmp_path, "mc.json", **common)
    assert main(["mc", "randtest", "--config", cfg, "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[1].split(",") == [
        "theta_c", "theta_d", "estimate", "half_width", "sims", "seed", "generator"]
    est = float(lines[2].split(",")[2])
    assert 0.0 <= est <= 0.25
    # the test is exact: a Monte Carlo 'reps' left in a config changes nothing
    old = str(tmp_path / "mc-reps.csv")
    cfg = _cfg(tmp_path, "mc-reps.json", **common, reps=1000)
    assert main(["mc", "randtest", "--config", cfg, "--out", old]) == 0
    assert Path(old).read_text().splitlines()[1:] == lines[1:]


def test_cli_paths(tmp_path):
    out = str(tmp_path / "paths.csv")
    cfg = _cfg(
        tmp_path, "paths.json", n=12, burn_in=2, policy="DbcdNeyman",
        path_sims=3, seed=5,
        theta_grid={"kind": "list", "values": [[0.5, 0.5]]},
    )
    assert main(["paths", "--config", cfg, "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[1] == "theta_c,theta_d,sim,t,control_proportion"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 3 * 12
    # every row is the running control share of its trial, as the trial
    # stepped alone gives it, in the CSV's 12 significant digits
    policy = DbcdNeyman(12, 2)
    for i in range(3):
        arms, _ = simulate_trial_ref(policy, (0.5, 0.5), seed=5, stream=i)
        share = np.cumsum(arms == 0) / np.arange(1, 13)
        expected = [["0.5", "0.5", str(i), str(t + 1), format(share[t], ".12g")]
                    for t in range(12)]
        assert rows[12 * i:12 * (i + 1)] == expected


@pytest.mark.parametrize("command", [["mc", "randtest"], ["paths"]])
def test_cli_monte_carlo_refuses_theta_outside_the_unit_square(tmp_path, capsys, command):
    for bad in ([1.5, 0.3], [-0.2, 0.7], [0.5, float("nan")]):
        cfg = _cfg(tmp_path, "bad_theta.json", n=10, burn_in=1, policy="DbcdNeyman", sims=100,
                   path_sims=2, theta_grid={"kind": "list", "values": [[0.5, 0.5], bad]})
        assert main(command + ["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "theta point 1" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", [["mc", "randtest"], ["paths"]])
def test_cli_monte_carlo_refuses_a_nan_coin_exponent(tmp_path, capsys, command):
    # JSON NaN reads as a float; the design refuses it
    cfg = _cfg(tmp_path, "nan_gamma.json", n=10, burn_in=1, sims=100, path_sims=2,
               policy={"kind": "dbcd", "gamma": float("nan")},
               theta_grid={"kind": "list", "values": [[0.5, 0.5]]})
    assert main(command + ["--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    assert "gamma = nan" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()



@pytest.mark.parametrize("command", [["design"], ["mc", "randtest"], ["paths"]])
def test_cli_refuses_a_horizon_shorter_than_the_burn_in(tmp_path, capsys, command):
    cfg = _cfg(tmp_path, "short.json", n=5, burn_in=3, policy="brar", sims=100, path_sims=2,
               seed=1, theta_grid={"kind": "list", "values": [[0.5, 0.5]]})
    assert main(command + ["--config", cfg, "--out", str(tmp_path / "x.out")]) == 2
    assert "burn-in of 3 per arm does not fit the horizon 5" in capsys.readouterr().err
    assert not (tmp_path / "x.out").exists()


def test_cli_cmdp_solve_refuses_a_horizon_shorter_than_the_burn_in(tmp_path, capsys):
    # the spec's message is the policies' own, as for every other subcommand
    cfg = _cfg(tmp_path, "short.json", n=5, burn_in=3)
    assert main(["cmdp", "solve", "--config", cfg, "--out", str(tmp_path / "x.bin")]) == 2
    assert "burn-in of 3 per arm does not fit the horizon 5" in capsys.readouterr().err
    assert not (tmp_path / "x.bin").exists()


def test_rule_missing_a_required_key_is_rejected_naming_it():
    from rarexact import AsymptoticRule
    from rarexact.io import RULE_KEYS

    table = forward_g(BayesianRar(10, 1))
    rules = [conditional_rule(table, 0.05), unconditional_rule(table, 0.05),
             boschloo_rule(table, 0.05), AsymptoticRule(0.05)]
    for rule in rules:
        d = rule_to_dict(rule)
        for key in ("kind", "alpha", "format") + RULE_KEYS[d["kind"]]:
            partial = {k: v for k, v in d.items() if k != key}
            with pytest.raises(ValueError, match=repr(key)):
                rule_from_dict(partial)
        # a file of another format, or of none, is rebuilt, not reinterpreted;
        # format 1 named no design
        for fmt in (0, 1, 3, True, "2", None):
            with pytest.raises(ValueError, match="'format'.*rebuild the rule file with crit"):
                rule_from_dict(dict(d, format=fmt))
    # a value of the wrong type for its field's annotation, per kind
    wrong = {
        "conditional": [("n", 10.0), ("design", None), ("upper", ["2.0"] * 11),
                        ("upper_closed", [1] * 11), ("lower", 2.0), ("lower_closed", None)],
        "unconditional": [("upper", "2.0"), ("upper_closed", 1), ("lower", [2.0]),
                          ("lower_closed", "true"), ("upper_certificate", None),
                          ("lower_certificate", [])],
        "boschloo": [("n", True), ("threshold", [1]), ("threshold", "0.05"),
                     ("largest_included", "0.04"), ("certificate", 0.05)],
        "asymptotic": [("alpha", [0.05])],
    }
    for rule in rules:
        d = rule_to_dict(rule)
        for key, bad in wrong[d["kind"]]:
            with pytest.raises(ValueError, match=f"{key!r}|alpha = "):
                rule_from_dict(dict(d, **{key: bad}))
    d = rule_to_dict(rules[0])
    del d["certificate"]["lower_bound"]
    with pytest.raises(ValueError, match="'lower_bound'"):
        rule_from_dict(d)
    d = rule_to_dict(rules[0])
    d["certificate"]["accepted"] = "yes"
    with pytest.raises(ValueError, match="'accepted'"):
        rule_from_dict(d)
    for bad in ([], {"kind": ["conditional"], "alpha": 0.05}):
        with pytest.raises(ValueError):
            rule_from_dict(bad)


def test_cli_exit_codes(tmp_path):
    # 2: config errors
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["oc", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    cfg = _cfg(tmp_path, "bad2.json", n=10, burn_in=1, policy="NoSuchPolicy")
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "x.rxgw")]) == 2
    cfg = _cfg(tmp_path, "dbcd_b0.json", n=10, burn_in=0, policy="DbcdNeyman")
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "x.rxgw")]) == 2
    cfg = _cfg(tmp_path, "bad3.json", n=10, burn_in=1, policy="EqualAllocation")
    assert main(["oc", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2  # no grid
    for bad in ([0.5, 1.5], [-0.2, 0.5], [0.5, "NaN"]):
        cfg = _cfg(
            tmp_path, "bad_theta.json", n=10, burn_in=1, policy="EqualAllocation",
            theta_grid={"kind": "list", "values": [[0.5, 0.5], bad]},
        )
        assert main(["oc", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    for bad in (float("nan"), -0.1, 1.5):
        cfg = _cfg(tmp_path, "bad_alpha.json", n=20, burn_in=2, policy="DbcdNeyman", alpha=bad)
        assert main(["crit", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 2
    # 2: a required key missing from a rule file or from a theta grid
    grid = {"kind": "list", "values": [[0.5, 0.5]]}
    rule_path = tmp_path / "cond_rule.json"
    cfg = _cfg(tmp_path, "crit_cond.json", n=10, burn_in=1, policy="DbcdNeyman", test="conditional")
    assert main(["crit", "--config", cfg, "--out", str(rule_path)]) == 0
    saved = json.loads(rule_path.read_text())
    assert saved["format"] == 2
    cfg = _cfg(tmp_path, "no_upper.json", n=10, burn_in=1, policy="DbcdNeyman",
               rule_path=str(rule_path), theta_grid=grid)
    for key in ("upper", "format"):
        rule_path.write_text(json.dumps({k: v for k, v in saved.items() if k != key}))
        assert main(["oc", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    cfg = _cfg(tmp_path, "no_theta_c.json", n=10, burn_in=1, policy="EqualAllocation",
               theta_grid={"kind": "curves", "step": 0.1})
    assert main(["oc", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    # 5: missing input file
    cfg = _cfg(
        tmp_path, "bad4.json", n=10, burn_in=1,
        design_path=str(tmp_path / "missing.rxgw"),
        theta_grid={"kind": "list", "values": [[0.5, 0.5]]},
    )
    assert main(["oc", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 5
    # 3: infeasible constrained problem
    cfg = _cfg(
        tmp_path, "bad5.json", n=8, burn_in=1, max_iters=4,
        alpha_point=0.0005, null_grid=[0.5],
    )
    assert main(["cmdp", "solve", "--config", cfg, "--out", str(tmp_path / "x.rxpt")]) == 3
    # 3 as well when the best iterate exceeds a bound by less than the
    # solver's stopping tolerance: pointwise 0.040135 against 0.04
    cfg = _cfg(tmp_path, "over_by_little.json", n=6, burn_in=1, alpha_avg=1.0,
               alpha_point=0.04, null_grid=[0.1], max_iters=60)
    out = tmp_path / "little.rxpt"
    assert main(["cmdp", "solve", "--config", cfg, "--out", str(out)]) == 3
    audit = json.loads(Path(f"{out}.audit.json").read_text())
    assert audit["feasible"] is False and audit["max_violation"] > 0.0
    # 2: settings of removed solver variants are rejected, not ignored
    for key, value in (("solver", "cutting-plane"), ("step_rule", "sqrt"), ("eta0", 1.0),
                       ("settle", 10**9), ("margin", 1e-3), ("multiplier_cap", 1e5),
                       ("tol", 1e-3)):
        cfg = _cfg(tmp_path, "removed.json", n=8, burn_in=1, max_iters=2, **{key: value})
        assert main(["cmdp", "solve", "--config", cfg, "--out", str(tmp_path / "x.rxpt")]) == 2


@pytest.mark.parametrize("kind", ["conditional", "unconditional", "boschloo"])
def test_cli_exit_codes_for_a_rule_of_another_horizon(tmp_path, kind):
    # 2: a rule certified for n = 20 is refused for a design of n = 30
    rule_path, design_path = tmp_path / "rule20.json", tmp_path / "design30.rxgw"
    cfg = _cfg(tmp_path, "crit20.json", n=20, burn_in=2, policy="DbcdNeyman", test=kind)
    assert main(["crit", "--config", cfg, "--out", str(rule_path)]) == 0
    cfg = _cfg(tmp_path, "design30.json", n=30, burn_in=2, policy="DbcdNeyman")
    assert main(["design", "--config", cfg, "--out", str(design_path)]) == 0
    cfg = _cfg(tmp_path, "oc30.json", n=30, burn_in=2, rule_path=str(rule_path),
               design_path=str(design_path), baseline_design_path=str(design_path),
               theta_grid={"kind": "list", "values": [[0.5, 0.5]]})
    for command in ("oc", "power-diff"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("command, key, bad", [
    pytest.param(["paths"], "theta_grid", {"theta_grid": "null-diagonal"}, id="theta_grid"),
    pytest.param(["design"], "policy", {"policy": ["brar"]}, id="policy"),
    pytest.param(["paths"], "theta_grid.values",
                 {"theta_grid": {"kind": "list", "values": [0.1]}}, id="values"),
    pytest.param(["paths"], "theta_grid.theta_c",
                 {"theta_grid": {"kind": "curves", "theta_c": 0.3}}, id="theta_c"),
    pytest.param(["paths"], "step",
                 {"theta_grid": {"kind": "curves", "theta_c": [0.3], "step": 0}}, id="step-0"),
    pytest.param(["oc"], "step",
                 {"theta_grid": {"kind": "curves", "theta_c": [0.3], "step": -0.1}},
                 id="step-negative"),
    pytest.param(["cmdp", "solve"], "rectangles", {"rectangles": [[0, 0.1, 0.2]]},
                 id="rectangles"),
    pytest.param(["cmdp", "solve"], "null_grid", {"null_grid": 0.5}, id="null_grid"),
    pytest.param(["design"], "n", {"n": 6.5}, id="n"),
    pytest.param(["paths"], "seed", {"seed": True}, id="seed"),
])
def test_cli_malformed_config_shape_exits_2_naming_the_key(tmp_path, capsys, command, key, bad):
    base = {"n": 10, "burn_in": 1, "policy": "DbcdNeyman", "path_sims": 2, "max_iters": 2,
            "theta_grid": {"kind": "list", "values": [[0.5, 0.5]]}}
    cfg = _cfg(tmp_path, "bad.json", **dict(base, **bad))
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("tamper, message", [
    pytest.param("code 5", "outside [1 - p, p]", id="code-5"),
    pytest.param("no sizes", "'sizes'", id="no-sizes"),
    pytest.param("short payload", "payload holds", id="short-payload"),
    pytest.param("other horizon", "the configuration has n = 8", id="other-horizon"),
    pytest.param("truncated", "truncated", id="truncated"),
])
def test_cli_malformed_policy_file_exits_2(tmp_path, capsys, tamper, message):
    n, b = 6, 1
    table, _ = lagrangian_backward(np.zeros(layer(n, b).size), CmdpSpec(n=n, burn_in=b))
    path = tmp_path / "policy.rxpt"
    write_policy_table(path, table)
    header, payload = _read_container(path, POLICY_MAGIC)
    if tamper == "code 5":
        # the last state's control probability becomes 5.0
        payload = payload[:-8] + np.float64(5.0).astype("<f8").tobytes()
    elif tamper == "no sizes":
        del header["sizes"]
    elif tamper == "short payload":
        payload = payload[:-3]
    elif tamper == "other horizon":
        n = 8
    _write_container(path, POLICY_MAGIC, header, payload)
    if tamper == "truncated":
        path.write_bytes(path.read_bytes()[:10])
    cfg = _cfg(tmp_path, "design.json", n=n, burn_in=b,
               policy={"kind": "table", "table_path": str(path)})
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "design.bin")]) == 2
    assert message in capsys.readouterr().err


def test_retired_code_table_container_is_refused(tmp_path, capsys):
    # an RXPT1 file held int8 action codes; it is rewritten by a new solve,
    # never read as probabilities
    path = tmp_path / "policy.rxpt"
    path.write_bytes(b"RXPT1\n")
    with pytest.raises(ValueError, match="retired RXPT1 policy table; re-run `cmdp solve`"):
        read_policy_table(path)
    cfg = _cfg(tmp_path, "design.json", n=6, burn_in=1,
               policy={"kind": "table", "table_path": str(path)})
    assert main(["design", "--config", cfg, "--out", str(tmp_path / "design.bin")]) == 2
    assert "re-run `cmdp solve`" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["upper", "upper_closed", "lower", "lower_closed"])
def test_cli_truncated_conditional_rule_exits_2_naming_the_key(tmp_path, capsys, key):
    # one critical value per success count 0 .. n; a short list would index
    # past its end
    rule_path = tmp_path / "rule.json"
    cfg = _cfg(tmp_path, "crit.json", n=10, burn_in=1, policy="DbcdNeyman", test="conditional")
    assert main(["crit", "--config", cfg, "--out", str(rule_path)]) == 0
    saved = json.loads(rule_path.read_text())
    rule_path.write_text(json.dumps(dict(saved, **{key: saved[key][:-1]})))
    cfg = _cfg(tmp_path, "oc.json", n=10, burn_in=1, policy="DbcdNeyman",
               rule_path=str(rule_path), theta_grid={"kind": "list", "values": [[0.5, 0.5]]})
    assert main(["oc", "--config", cfg, "--out", str(tmp_path / "oc.csv")]) == 2
    assert f"key '{key}' must hold n + 1 = 11 entries" in capsys.readouterr().err


@pytest.mark.parametrize("test, key, bad", [
    ("unconditional", "upper", "2.0"), ("boschloo", "threshold", [1]),
    ("conditional", "lower_closed", [0] * 11),
])
def test_cli_rule_value_of_the_wrong_type_exits_2_naming_the_key(tmp_path, capsys, test, key,
                                                                  bad):
    # numpy would turn these into an error deep in oc (exit 1) or into a
    # rule that runs on values nobody wrote
    rule_path = tmp_path / "rule.json"
    cfg = _cfg(tmp_path, "crit.json", n=10, burn_in=1, policy="DbcdNeyman", test=test)
    assert main(["crit", "--config", cfg, "--out", str(rule_path)]) == 0
    rule_path.write_text(json.dumps(dict(json.loads(rule_path.read_text()), **{key: bad})))
    cfg = _cfg(tmp_path, "oc.json", n=10, burn_in=1, policy="DbcdNeyman",
               rule_path=str(rule_path), theta_grid={"kind": "list", "values": [[0.5, 0.5]]})
    assert main(["oc", "--config", cfg, "--out", str(tmp_path / "oc.csv")]) == 2
    assert f"{test} rule key {key!r} = {bad!r} is not" in capsys.readouterr().err


@pytest.mark.parametrize("test, key, edit", [
    ("unconditional", "upper", lambda d: dict(d, upper=math.nan)),
    ("conditional", "lower",
     lambda d: dict(d, lower=d["lower"][:5] + [math.nan] + d["lower"][6:])),
    ("conditional", "certified_upper",
     lambda d: dict(d, certificate=dict(d["certificate"], certified_upper=math.nan))),
], ids=["upper", "list-entry", "certificate"])
def test_cli_rule_with_a_nan_number_exits_2_naming_the_key(tmp_path, capsys, test, key, edit):
    # JSON NaN reads as a float; a NaN bound compares false, so the rule
    # would reject on the other tail alone
    rule_path = tmp_path / "rule.json"
    cfg = _cfg(tmp_path, "crit.json", n=10, burn_in=1, policy="DbcdNeyman", test=test)
    assert main(["crit", "--config", cfg, "--out", str(rule_path)]) == 0
    rule_path.write_text(json.dumps(edit(json.loads(rule_path.read_text()))))
    cfg = _cfg(tmp_path, "oc.json", n=10, burn_in=1, policy="DbcdNeyman",
               rule_path=str(rule_path), theta_grid={"kind": "list", "values": [[0.5, 0.5]]})
    assert main(["oc", "--config", cfg, "--out", str(tmp_path / "oc.csv")]) == 2
    assert f"key {key!r} = " in capsys.readouterr().err


def test_cli_rule_with_infinite_bounds_is_read(tmp_path):
    # Infinity is the no-rejection sentinel of upper and lower
    rule_path = tmp_path / "rule.json"
    cfg = _cfg(tmp_path, "crit.json", n=10, burn_in=1, policy="DbcdNeyman",
               test="unconditional")
    assert main(["crit", "--config", cfg, "--out", str(rule_path)]) == 0
    saved = json.loads(rule_path.read_text())
    rule_path.write_text(json.dumps(dict(saved, upper=math.inf, lower=-math.inf)))
    cfg = _cfg(tmp_path, "oc.json", n=10, burn_in=1, policy="DbcdNeyman",
               rule_path=str(rule_path), theta_grid={"kind": "list", "values": [[0.5, 0.5]]})
    assert main(["oc", "--config", cfg, "--out", str(tmp_path / "oc.csv")]) == 0
    assert read_rule(rule_path).upper == math.inf


def test_cli_crit_without_a_burn_in_names_it(tmp_path, capsys):
    path = tmp_path / "design.bin"
    write_weight_table(path, forward_g(EqualAllocation(10, 0)))
    cfg = _cfg(tmp_path, "crit.json", design_path=str(path), test="conditional")
    assert main(["crit", "--config", cfg, "--out", str(tmp_path / "rule.json")]) == 2
    assert "burn-in of at least one per arm" in capsys.readouterr().err


def test_cli_weight_header_without_n_exits_2(tmp_path, capsys):
    path = tmp_path / "design.bin"
    write_weight_table(path, forward_g(BayesianRar(6, 1)))
    header, payload = _read_container(path, WEIGHT_MAGIC)
    del header["n"]
    _write_container(path, WEIGHT_MAGIC, header, payload)
    cfg = _cfg(tmp_path, "oc.json", design_path=str(path), test="asymptotic",
               theta_grid={"kind": "list", "values": [[0.5, 0.5]]})
    assert main(["oc", "--config", cfg, "--out", str(tmp_path / "oc.csv")]) == 2
    assert "'n'" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("command", ["crit", "oc"])
def test_cli_design_with_a_nan_or_plus_inf_log_weight_exits_2_naming_the_file(
        tmp_path, capsys, command, bad):
    # -inf is a weight of zero; NaN and +inf would run oc to NaN rates and
    # crit into the certifier's guard
    path = tmp_path / "design.bin"
    write_weight_table(path, forward_g(BayesianRar(12, 1)))
    header, payload = _read_container(path, WEIGHT_MAGIC)
    log_g = np.frombuffer(payload, dtype="<f8").copy()
    log_g[log_g.size // 2] = bad
    _write_container(path, WEIGHT_MAGIC, header, log_g.tobytes())
    cfg = _cfg(tmp_path, "cfg.json", design_path=str(path), test="unconditional",
               theta_grid={"kind": "list", "values": [[0.1, 0.9]]})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"{path}: log g holds NaN or +inf" in capsys.readouterr().err


# an int is not a descriptor open() may use: a stale one fails with EBADF
NOT_A_PATH = 987654321


@pytest.mark.parametrize("command, key", [
    pytest.param(["crit"], "rule_path", id="rule_path"),
    pytest.param(["crit"], "design_path", id="design_path"),
    pytest.param(["power-diff"], "baseline_design_path", id="baseline_design_path"),
    pytest.param(["design"], "table_path", id="table_path"),
    pytest.param(["cmdp", "solve"], "audit_path", id="audit_path"),
])
def test_cli_path_key_must_be_a_string(tmp_path, capsys, command, key):
    design = tmp_path / "design.bin"
    write_weight_table(design, forward_g(BayesianRar(6, 1)))
    cfg = {"n": 6, "burn_in": 1, "policy": "DbcdNeyman", "max_iters": 2,
           "design_path": str(design), "test": "asymptotic",
           "theta_grid": {"kind": "list", "values": [[0.5, 0.5]]}}
    if key == "table_path":
        cfg["policy"] = {"kind": "table", "table_path": NOT_A_PATH}
    else:
        cfg[key] = NOT_A_PATH
    out = tmp_path / "out"
    assert main([*command, "--config", _cfg(tmp_path, "c.json", **cfg), "--out", str(out)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("magic, key, bad", [
    pytest.param(WEIGHT_MAGIC, "n", "6", id="weight-n"),
    pytest.param(WEIGHT_MAGIC, "burn_in", True, id="weight-burn_in"),
    pytest.param(POLICY_MAGIC, "n", 6.0, id="policy-n"),
    pytest.param(POLICY_MAGIC, "burn_in", "1", id="policy-burn_in"),
    pytest.param(POLICY_MAGIC, "p", "0.9", id="policy-p"),
    pytest.param(POLICY_MAGIC, "sizes", 5, id="policy-sizes"),
    pytest.param(POLICY_MAGIC, "sizes", [-1], id="policy-sizes-negative"),
])
def test_cli_container_header_value_of_the_wrong_type_exits_2(tmp_path, capsys, magic, key, bad):
    n, b = 6, 1
    path = tmp_path / "container.bin"
    if magic == WEIGHT_MAGIC:
        write_weight_table(path, forward_g(BayesianRar(n, b)))
        cfg = {"design_path": str(path), "test": "asymptotic",
               "theta_grid": {"kind": "list", "values": [[0.5, 0.5]]}}
        command = ["oc"]
    else:
        table, _ = lagrangian_backward(np.zeros(layer(n, b).size), CmdpSpec(n=n, burn_in=b))
        write_policy_table(path, table)
        cfg = {"n": n, "burn_in": b, "policy": {"kind": "table", "table_path": str(path)}}
        command = ["design"]
    header, payload = _read_container(path, magic)
    header[key] = bad
    _write_container(path, magic, header, payload)
    cfg = _cfg(tmp_path, "c.json", **cfg)
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"key '{key}'" in capsys.readouterr().err


def test_cli_oc_independent_of_thread_counts(tmp_path):
    import rarexact

    cfg = _cfg(
        tmp_path, "oc.json", n=30, burn_in=3, policy="BayesianRar", test="conditional",
        theta_grid={"kind": "curves", "theta_c": [0.0, 0.2, 0.5, 0.9], "step": 0.05},
    )
    src = str(Path(rarexact.__file__).resolve().parents[1])
    outputs = []
    for blas_threads, threads in [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")]:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"oc_{blas_threads}_{threads}.csv"
        subprocess.run(
            [sys.executable, "-m", "rarexact.cli", "oc", "--config", cfg, "--out", str(out),
             "--threads", threads],
            env=env, check=True, timeout=300,
        )
        outputs.append(out.read_bytes())
    assert len(outputs[0].splitlines()) > 50
    assert all(o == outputs[0] for o in outputs[1:])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_cli_brar_design_independent_of_cpu_affinity(tmp_path):
    # no code reads the CPU count any more; this guards that no output
    # comes to depend on it.  At n = 60 the last 15 layers span more than
    # one 2**14-state run of the BRAR tail
    import rarexact

    cfg = _cfg(tmp_path, "design.json", n=60, burn_in=2, policy="brar")
    src = str(Path(rarexact.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    one_cpu = {min(os.sched_getaffinity(0))}
    outputs = []
    for name, pin in (("pinned", lambda: os.sched_setaffinity(0, one_cpu)), ("free", None)):
        out = tmp_path / f"design_{name}.bin"
        subprocess.run([sys.executable, "-m", "rarexact.cli", "design", "--config", cfg,
                        "--out", str(out)], env=env, check=True, timeout=300, preexec_fn=pin)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_cmdp_solve_independent_of_blas_threads(tmp_path):
    import rarexact

    src = str(Path(rarexact.__file__).resolve().parents[1])
    # at n = 24 no reduction is large enough for OpenBLAS to thread it; the
    # Section-4 horizon's per-block products are
    for n, burn_in, max_iters in [(24, 2, 15), (50, 6, 3)]:
        cfg = _cfg(tmp_path, f"cmdp{n}.json", n=n, burn_in=burn_in,
                   rectangles="section4-pairs", max_iters=max_iters)
        outputs, codes = [], []
        for blas_threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                       OMP_NUM_THREADS=blas_threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"policy{n}_{blas_threads}.rxpt"
            proc = subprocess.run(
                [sys.executable, "-m", "rarexact.cli", "cmdp", "solve", "--config", cfg,
                 "--out", str(out)],
                env=env, timeout=300,
            )
            codes.append(proc.returncode)
            outputs.append((out.read_bytes(), Path(f"{out}.audit.json").read_bytes()))
        assert codes[0] in (0, 3) and codes[1] == codes[0]
        assert outputs[1] == outputs[0]


def test_cli_every_subcommand_shares_the_common_options():
    from rarexact.cli import COMMANDS, _parser

    assert len(COMMANDS) == 7
    for path, (handler, _) in COMMANDS.items():
        args = _parser().parse_args([*path, "--config", "c.json", "--out", "o"])
        assert args.handler is handler
        assert (args.config, args.out, args.threads) == ("c.json", "o", 0)
        args = _parser().parse_args([*path, "--config", "c.json", "--out", "o", "--threads", "1"])
        assert args.threads == 1
