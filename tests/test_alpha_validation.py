import json
import math
import re

import pytest

from rarexact import (
    AsymptoticRule,
    CmdpSpec,
    DbcdNeyman,
    boschloo_rule,
    conditional_rule,
    forward_g,
    randomization_rejection_rate,
    randomization_test,
    unconditional_rule,
)
from rarexact.cli import main
from rarexact.io import read_rule, rule_to_dict, write_weight_table
from rarexact.montecarlo import simulate_trials

BAD_LEVELS = [math.nan, -0.1, 0.0, 1.0, 1.5]
BAD_BOUNDS = [math.nan, -0.1, 1.5]

POLICY = DbcdNeyman(20, 2)
TABLE = forward_g(POLICY)
ARMS, OUTCOMES = simulate_trials(POLICY, (0.4, 0.6), 1, 0, 1)

ENTRY_POINTS = {
    "conditional_rule": lambda a: conditional_rule(TABLE, a),
    "unconditional_rule": lambda a: unconditional_rule(TABLE, a),
    "boschloo_rule": lambda a: boschloo_rule(TABLE, a),
    "AsymptoticRule": AsymptoticRule,
    "CmdpSpec": lambda a: CmdpSpec(n=8, burn_in=1, alpha=a),
    "randomization_test": lambda a: randomization_test(ARMS, OUTCOMES, POLICY, a),
    "randomization_rejection_rate": lambda a: randomization_rejection_rate(
        POLICY, (0.4, 0.6), 100, a, seed=2),
}


@pytest.mark.parametrize("alpha", BAD_LEVELS)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_level_is_rejected_naming_it(entry, alpha):
    with pytest.raises(ValueError, match=re.escape(f"alpha = {alpha!r}")):
        ENTRY_POINTS[entry](alpha)


@pytest.mark.parametrize("alpha", BAD_BOUNDS)
@pytest.mark.parametrize("name", ["alpha_avg", "alpha_point"])
def test_bad_cmdp_bound_is_rejected_naming_it(name, alpha):
    with pytest.raises(ValueError, match=re.escape(f"{name} = {alpha!r}")):
        CmdpSpec(n=8, burn_in=1, **{name: alpha})


def test_cmdp_bounds_accept_the_closed_interval():
    CmdpSpec(n=8, burn_in=1, alpha_avg=1.0, alpha_point=0.0)


@pytest.mark.parametrize("alpha", [math.nan, 1.5, "0.05", None])
@pytest.mark.parametrize("build", [conditional_rule, unconditional_rule, boschloo_rule])
def test_rule_file_with_bad_level_is_rejected(tmp_path, build, alpha):
    d = rule_to_dict(build(TABLE, 0.05))
    d["alpha"] = alpha
    rule_path = tmp_path / "rule.json"
    rule_path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match=re.escape(f"alpha = {alpha!r}")):
        read_rule(rule_path)
    # oc reads the rule through rule_path and exits with a config error
    design = tmp_path / "design.rxgw"
    write_weight_table(design, TABLE)
    cfg = tmp_path / "oc.json"
    cfg.write_text(json.dumps({
        "n": 20, "burn_in": 2, "design_path": str(design), "rule_path": str(rule_path),
        "theta_grid": {"kind": "list", "values": [[0.4, 0.6]]},
    }))
    assert main(["oc", "--config", str(cfg), "--out", str(tmp_path / "oc.csv")]) == 2
