import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rarexact.cli import main
from rarexact.io import (
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
    BayesianRar,
    CmdpSpec,
    conditional_rule,
    boschloo_rule,
    equal_allocation_g,
    forward_g,
    solve_cmdp,
    unconditional_rule,
)


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


def test_rule_round_trip_identical_decisions(tmp_path):
    table = forward_g(BayesianRar(10, 1))
    for build in (conditional_rule, unconditional_rule, boschloo_rule):
        rule = build(table, 0.05)
        path = tmp_path / "rule.json"
        write_rule(path, rule)
        back = read_rule(path)
        assert np.array_equal(back.reject_table(table), rule.reject_table(table))
        assert rule_to_dict(back) == rule_to_dict(rule)


def test_policy_table_round_trip(tmp_path):
    spec = CmdpSpec(n=8, burn_in=1, max_iters=10)
    res = solve_cmdp(spec)
    path = tmp_path / "policy.rxpt"
    write_policy_table(path, res.table)
    back = read_policy_table(path)
    assert back == res.table


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
    lines = open(out).read().splitlines()
    assert lines[0].startswith("# rarexact ")
    assert lines[1] == "theta_c,theta_d,rejection_rate,patient_benefit"
    assert len(lines) == 4
    # byte-identical rerun
    out2 = str(tmp_path / "oc2.csv")
    assert main(["oc", "--config", cfg, "--out", out2]) == 0
    assert open(out, "rb").read() == open(out2, "rb").read()


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
    header = open(out).read().splitlines()[1].split(",")
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
    audit = json.load(open(out + ".audit.json"))
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
    rate = float(open(oc_out).read().splitlines()[2].split(",")[2])
    assert rate == pytest.approx(audit["pointwise"]["0.25"], abs=1e-10)


def test_cli_mc_randtest(tmp_path):
    out = str(tmp_path / "mc.csv")
    cfg = _cfg(
        tmp_path, "mc.json", n=10, burn_in=1, policy="EqualAllocation",
        sims=120, reps=120, seed=7,
        theta_grid={"kind": "list", "values": [[0.5, 0.5]]},
    )
    assert main(["mc", "randtest", "--config", cfg, "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[1].split(",")[:4] == ["theta_c", "theta_d", "estimate", "half_width"]
    est = float(lines[2].split(",")[2])
    assert 0.0 <= est <= 0.25


def test_cli_paths(tmp_path):
    out = str(tmp_path / "paths.csv")
    cfg = _cfg(
        tmp_path, "paths.json", n=12, burn_in=2, policy="DbcdNeyman",
        path_sims=3, seed=5,
        theta_grid={"kind": "list", "values": [[0.5, 0.5]]},
    )
    assert main(["paths", "--config", cfg, "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 2 + 3 * 12


def test_rule_missing_a_required_key_is_rejected_naming_it():
    from rarexact import AsymptoticRule
    from rarexact.io import RULE_KEYS

    table = forward_g(BayesianRar(10, 1))
    rules = [conditional_rule(table, 0.05), unconditional_rule(table, 0.05),
             boschloo_rule(table, 0.05), AsymptoticRule(0.05)]
    for rule in rules:
        d = rule_to_dict(rule)
        for key in ("kind", "alpha") + RULE_KEYS[d["kind"]]:
            partial = {k: v for k, v in d.items() if k != key}
            with pytest.raises(ValueError, match=repr(key)):
                rule_from_dict(partial)
    d = rule_to_dict(rules[0])
    del d["certificate"]["lower_bound"]
    with pytest.raises(ValueError, match="'lower_bound'"):
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
    rule = json.loads(rule_path.read_text())
    del rule["upper"]
    rule_path.write_text(json.dumps(rule))
    cfg = _cfg(tmp_path, "no_upper.json", n=10, burn_in=1, policy="DbcdNeyman",
               rule_path=str(rule_path), theta_grid=grid)
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
    # 2: settings of removed solver variants are rejected, not ignored
    for key, value in (("solver", "cutting-plane"), ("step_rule", "sqrt"), ("eta0", 1.0),
                       ("settle", 10**9), ("margin", 1e-3), ("multiplier_cap", 1e5),
                       ("tol", 1e-3)):
        cfg = _cfg(tmp_path, "removed.json", n=8, burn_in=1, max_iters=2, **{key: value})
        assert main(["cmdp", "solve", "--config", cfg, "--out", str(tmp_path / "x.rxpt")]) == 2


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


def test_cli_every_subcommand_shares_the_common_options():
    from rarexact.cli import COMMANDS, _parser

    assert len(COMMANDS) == 7
    for path, (handler, _) in COMMANDS.items():
        args = _parser().parse_args([*path, "--config", "c.json", "--out", "o"])
        assert args.handler is handler
        assert (args.config, args.out, args.threads) == ("c.json", "o", 0)
        args = _parser().parse_args([*path, "--config", "c.json", "--out", "o", "--threads", "1"])
        assert args.threads == 1
