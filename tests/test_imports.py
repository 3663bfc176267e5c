"""No command-line path loads scipy: importing the package, and every
subcommand run on a tiny configuration, each in a fresh process.  The
package loads each exported name on first use, with its module's imports
alone."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rarexact.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

# imports ``module`` and reads the names ``sys.argv[3]`` from it, runs the
# subcommand ``argv`` (if any) and reports its exit code, every loaded
# scipy module and every loaded rarexact module
CHILD = """
import importlib, json, sys
module = importlib.import_module(sys.argv[1])
for name in json.loads(sys.argv[3]):
    getattr(module, name)
argv = json.loads(sys.argv[2])
code = importlib.import_module("rarexact.cli").main(argv) if argv else 0
print(json.dumps({"code": code,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
                  "rarexact": sorted(m for m in sys.modules if m.startswith("rarexact"))}))
"""

# the names the package exports, one module at a time
EXPORTED = [
    "AltUniform", "AuditReport", "CmdpResult", "CmdpSpec", "NullUniform", "PointNull",
    "Rectangle", "audit_policy", "default_rectangles", "lagrangian_backward",
    "measure_log_weights", "solve_cmdp",
    "PathWeightTable", "TerminalFunctional", "forward_g",
    "layer_log_likelihood",
    "BoschlooRule", "ConditionalRule", "RegionCertificate", "UnconditionalRule", "boschloo_rule",
    "boschloo_statistic", "certify_region", "conditional_rule", "unconditional_rule",
    "RateEstimate", "randomization_rejection_rate", "randomization_rejection_rates",
    "randomization_test", "simulate_terminals",
    "log_binom", "logsumexp_fixed", "normal_quantile",
    "AsymptoticRule", "OcProfile", "null_diagonal", "patient_benefit", "power_curves", "profile",
    "rejection_rate",
    "BayesianRar", "DbcdNeyman", "EqualAllocation", "Policy", "PolicyTable",
    "TemperedDbcdNeyman", "neyman_target",
    "Layer", "TrialState", "layer",
    "layer_wald_statistics", "wald_statistics",
]

TINY = {"n": 10, "burn_in": 1, "policy": "brar", "test": "unconditional",
        "theta_grid": {"kind": "list", "values": [[0.3, 0.3], [0.2, 0.7]]}}

CASES = {
    "import rarexact": ("rarexact", None, (0,)),
    "import rarexact.cli": ("rarexact.cli", None, (0,)),
    "design": ("rarexact", ["design"], (0,)),
    "crit": ("rarexact", ["crit"], (0,)),
    "oc": ("rarexact", ["oc"], (0,)),
    "power-diff": ("rarexact", ["power-diff"], (0,)),
    "cmdp solve": ("rarexact", ["cmdp", "solve"], (0, 3)),
    "mc randtest": ("rarexact", ["mc", "randtest"], (0,)),
    "paths": ("rarexact", ["paths"], (0,)),
}


def _write(directory, name, **cfg):
    path = directory / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    """A configuration per subcommand, with the designs and the rule they
    read made beforehand in this process."""
    d = tmp_path_factory.mktemp("imports")
    design, base, rule = str(d / "design.bin"), str(d / "base.bin"), str(d / "rule.json")
    assert main(["design", "--config", _write(d, "d.json", **TINY), "--out", design]) == 0
    assert main(["design", "--config", _write(d, "b.json", **dict(TINY, policy="equal")),
                 "--out", base]) == 0
    assert main(["crit", "--config", _write(d, "r.json", **TINY, design_path=design),
                 "--out", rule]) == 0
    return {
        "design": _write(d, "design.json", **TINY),
        "crit": _write(d, "crit.json", **TINY, design_path=design),
        "oc": _write(d, "oc.json", **TINY, design_path=design, rule_path=rule),
        "power-diff": _write(d, "pd.json", **TINY, design_path=design,
                             baseline_design_path=base),
        "cmdp solve": _write(d, "cmdp.json", n=10, burn_in=1, max_iters=3,
                             null_grid=[0.25, 0.5],
                             rectangles=[[0.0, 0.25, 0.5, 1.0], [0.75, 1.0, 0.25, 0.5]]),
        "mc randtest": _write(d, "mc.json", **dict(TINY, policy="dbcd"), sims=100),
        "paths": _write(d, "paths.json", **TINY, path_sims=3),
        "out": str(d / "out"),
    }


def _child(module, argv=(), names=()):
    """The report of ``CHILD`` run in a fresh process; the subcommand's
    stderr comes along for the failure messages."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, module, json.dumps(list(argv)),
                           json.dumps(list(names))],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


@pytest.mark.parametrize("case", CASES)
def test_no_cli_path_imports_scipy(case, configs):
    module, command, codes = CASES[case]
    argv = command + ["--config", configs[case], "--out", configs["out"]] if command else []
    report, stderr = _child(module, argv)
    assert report["code"] in codes, stderr
    assert report["scipy"] == []


def test_importing_the_package_loads_no_module():
    report, _ = _child("rarexact")
    assert report["rarexact"] == ["rarexact"]


def test_monte_carlo_names_load_only_the_monte_carlo_stack():
    # perfbench/simulate.py's import: the policies and the Monte Carlo
    # module, not the exact tests, the CMDP solver or the command line
    report, _ = _child("rarexact", names=["DbcdNeyman", "simulate_terminals"])
    loaded = {name.split(".")[1] for name in report["rarexact"] if "." in name}
    assert {"montecarlo", "policies"} <= loaded
    assert not loaded & {"cmdp", "exact_tests", "operating", "io", "engine", "cli"}


def test_package_exports_every_name_from_its_module():
    import rarexact

    assert sorted(rarexact.__all__) == sorted(EXPORTED) and len(set(EXPORTED)) == len(EXPORTED)
    assert set(EXPORTED) <= set(dir(rarexact))
    for name in rarexact.__all__:
        value = getattr(rarexact, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(rarexact, "no_such_name")
    with pytest.raises(ImportError):
        from rarexact import no_such_name  # noqa: F401
