"""No command-line path loads scipy: importing the package, and every
subcommand run on a tiny configuration, each in a fresh process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rarexact.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

# imports ``module``, runs the subcommand ``argv`` (if any) and reports
# its exit code and every loaded scipy module
CHILD = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
argv = json.loads(sys.argv[2])
code = importlib.import_module("rarexact.cli").main(argv) if argv else 0
print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""

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


@pytest.mark.parametrize("case", CASES)
def test_no_cli_path_imports_scipy(case, configs):
    module, command, codes = CASES[case]
    argv = command + ["--config", configs[case], "--out", configs["out"]] if command else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, module, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] in codes, proc.stderr
    assert report["scipy"] == []
