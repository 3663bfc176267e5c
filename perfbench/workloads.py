"""The three benchmark workloads: their generated inputs, their steps and
the checks on each step's outputs.

A workload is built from its seed alone.  The program sees only the
configuration files written here; every step runs in a fresh process
from the iteration directory, so all paths in the configurations are
relative and the artifacts do not depend on where the checkout lives.

Checks return a list of failure messages (empty when the outputs are
correct).  They import ``rarexact`` in the benchmark process, outside the
timed steps.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# The fixed 21-point reference subset of the exact-brar-n150 grid; its
# rates and benefits are compared with the values recorded from rarexact
# 0.1.0 in reference.json.  It holds three null points and both arms
# superior.
REFERENCE_THETAS = [
    (a, b) for a in (0.15, 0.5, 0.85) for b in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
]
SEEDED_THETAS = 320
# Absolute bound on the drift of critical values, rates and benefits
# from the recorded oracle; well above the 12 significant digits the CSV
# carries and the last-ulp effects of a reordered kernel.
ORACLE_ABS = 1e-9
# Absolute bound between the audit JSON and a re-audit of the table read
# back from disk.
AUDIT_ABS = 1e-9
NORMALIZATION_MAX = 1e-12
MC_SE_BOUND = 4.0

CMDP_CONFIG = {
    "n": 50,
    "burn_in": 6,
    "p": 0.95,
    "alpha": 0.05,
    "alpha_avg": 0.045,
    "alpha_point": 0.05,
    "null_grid": [i / 20 for i in range(21)],
    "rectangles": "section4-pairs",
    "max_iters": 50,
}


@dataclass
class Step:
    """One invocation: ``target`` is ``cli`` (``python -m rarexact.cli``)
    or ``simulate`` (the library step in ``simulate.py``)."""

    metric: str
    target: str
    args: list[str]
    artifacts: list[str]
    check: Callable[[Path], list[str]]
    exits: tuple[int, ...] = (0,)


@dataclass
class Workload:
    """Config files (name → JSON object) and the steps of one iteration."""

    configs: dict[str, dict]
    steps: list[Step]


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(label: str, got: float, want: float, bound: float) -> list[str]:
    if math.isfinite(want) and abs(got - want) <= bound:
        return []
    if not math.isfinite(want) and got == want:
        return []
    return [f"{label}: {got!r} differs from {want!r} by more than {bound:g}"]


# ---------------------------------------------------------------------------
# exact-brar-n150


def _brar_thetas(seed: int) -> list[tuple[float, float]]:
    rng = random.Random(seed)
    seeded = [
        (round(rng.uniform(0.01, 0.99), 3), round(rng.uniform(0.01, 0.99), 3))
        for _ in range(SEEDED_THETAS)
    ]
    return REFERENCE_THETAS + seeded


def _check_design(wd: Path) -> list[str]:
    from rarexact.io import read_weight_table

    err = read_weight_table(wd / "design.bin").normalization_error()
    if not err <= NORMALIZATION_MAX:
        return [f"design: normalization error {err:.3g} > {NORMALIZATION_MAX:g}"]
    return []


def _check_rule(wd: Path, ref: dict) -> list[str]:
    from rarexact.exact_tests import CERT_TOL

    rule = _read_json(wd / "rule.json")
    out = []
    for tail in ("upper_certificate", "lower_certificate"):
        cert = rule[tail]
        cap = rule["alpha"] / 2.0 + CERT_TOL
        if not cert["certified_upper"] <= cap:
            out.append(f"crit: {tail} certified_upper {cert['certified_upper']!r} > {cap!r}")
        if not cert["certified_upper"] >= cert["lower_bound"]:
            out.append(f"crit: {tail} bracket inverted {cert!r}")
    for key in ("upper", "lower"):
        out += _close(f"crit: {key}", rule[key], ref[key], ORACLE_ABS)
        if rule[f"{key}_closed"] != ref[f"{key}_closed"]:
            out.append(f"crit: {key}_closed is {rule[f'{key}_closed']!r}")
    return out


def _check_oc(wd: Path, thetas, ref: dict) -> list[str]:
    with open(wd / "oc.csv", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], [[float(v) for v in r] for r in rows[1:]]
    if header != ["theta_c", "theta_d", "rejection_rate", "patient_benefit"]:
        return [f"oc: unexpected header {header!r}"]
    if len(body) != len(thetas):
        return [f"oc: {len(body)} rows for {len(thetas)} points"]
    out = []
    for i, (tc, td, rate, benefit) in enumerate(body):
        if (tc, td) != thetas[i]:
            out.append(f"oc: row {i} is at {(tc, td)!r}, not {thetas[i]!r}")
        if not (0.0 <= rate <= 1.0 and 0.0 <= benefit <= 1.0):
            out.append(f"oc: row {i} rate {rate!r} or benefit {benefit!r} outside [0, 1]")
    for i, (want_rate, want_benefit) in enumerate(zip(ref["rates"], ref["benefits"])):
        out += _close(f"oc: rate at {thetas[i]}", body[i][2], want_rate, ORACLE_ABS)
        out += _close(f"oc: benefit at {thetas[i]}", body[i][3], want_benefit, ORACLE_ABS)
    return out


def exact_brar_n150(seed: int) -> Workload:
    ref = _read_json(REFERENCE_PATH)["exact-brar-n150"]
    if [tuple(t) for t in ref["profile"]["thetas"]] != REFERENCE_THETAS:
        raise ValueError(f"{REFERENCE_PATH}: reference points differ from REFERENCE_THETAS")
    thetas = _brar_thetas(seed)
    base = {"n": 150, "burn_in": 6, "alpha": 0.05, "policy": {"kind": "BayesianRar"}}
    configs = {
        "design.json": base,
        "crit.json": {**base, "design_path": "design.bin", "test": "unconditional"},
        "oc.json": {
            **base, "design_path": "design.bin", "rule_path": "rule.json",
            "theta_grid": {"kind": "list", "values": [list(t) for t in thetas]},
        },
    }
    steps = [
        Step("design_s", "cli", ["design", "--config", "design.json", "--out", "design.bin"],
             ["design.bin"], _check_design),
        Step("crit_s", "cli", ["crit", "--config", "crit.json", "--out", "rule.json"],
             ["rule.json"], lambda wd: _check_rule(wd, ref["rule"])),
        Step("oc_s", "cli", ["oc", "--config", "oc.json", "--out", "oc.csv"],
             ["oc.csv"], lambda wd: _check_oc(wd, thetas, ref["profile"])),
    ]
    return Workload(configs, steps)


# ---------------------------------------------------------------------------
# cmdp-section4


def _check_cmdp(wd: Path) -> list[str]:
    from rarexact import CmdpSpec, audit_policy, default_rectangles
    from rarexact.io import read_policy_table

    cfg = CMDP_CONFIG
    spec = CmdpSpec(
        n=cfg["n"], burn_in=cfg["burn_in"], p=cfg["p"], alpha=cfg["alpha"],
        alpha_avg=cfg["alpha_avg"], alpha_point=cfg["alpha_point"],
        null_grid=tuple(cfg["null_grid"]), rectangles=default_rectangles(),
        max_iters=cfg["max_iters"],
    )
    saved = _read_json(wd / "policy.bin.audit.json")
    report = audit_policy(read_policy_table(wd / "policy.bin"), spec)
    out = _close("cmdp: objective", saved["objective"], report.objective, AUDIT_ABS)
    out += _close("cmdp: avg_type_i", saved["avg_type_i"], report.avg_type_i, AUDIT_ABS)
    pointwise = {f"{k:g}": v for k, v in report.pointwise.items()}
    benefits = {str(k): v for k, v in report.benefits.items()}
    for label, got, want in (("pointwise", saved["pointwise"], pointwise),
                             ("benefits", saved["benefits"], benefits)):
        if set(got) != set(want):
            out.append(f"cmdp: {label} keys {sorted(got)} differ from the re-audit")
            continue
        for key in want:
            out += _close(f"cmdp: {label}[{key}]", got[key], want[key], AUDIT_ABS)
    feasible = report.max_violation(spec) <= spec.tol
    if saved["feasible"] != feasible:
        out.append(f"cmdp: feasible={saved['feasible']!r} but max violation "
                   f"{report.max_violation(spec)!r} against tol {spec.tol!r}")
    return out


def cmdp_section4(seed: int) -> Workload:
    del seed  # the solve has no random input
    steps = [
        Step("cmdp_solve_s", "cli",
             ["cmdp", "solve", "--config", "cmdp.json", "--out", "policy.bin"],
             ["policy.bin", "policy.bin.audit.json"], _check_cmdp, exits=(0, 3)),
    ]
    return Workload({"cmdp.json": CMDP_CONFIG}, steps)


# ---------------------------------------------------------------------------
# mc-dbcd-n50

MC_NULL = (0.3, 0.3)
MC_ALT = (0.3, 0.6)
MC_SIMS = 500
SIMULATE_TRIALS = 100_000


def _check_randtest(wd: Path, alpha: float) -> list[str]:
    with open(wd / "randtest.csv", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    est = {(float(r[0]), float(r[1])): float(r[2]) for r in rows[1:]}
    if set(est) != {MC_NULL, MC_ALT}:
        return [f"mc randtest: rows at {sorted(est)!r}"]
    cap = alpha + MC_SE_BOUND * math.sqrt(alpha * (1.0 - alpha) / MC_SIMS)
    out = []
    if not est[MC_NULL] <= cap:
        out.append(f"mc randtest: null estimate {est[MC_NULL]!r} > {cap:.4f}")
    if not est[MC_ALT] > est[MC_NULL]:
        out.append(f"mc randtest: alternative {est[MC_ALT]!r} not above null {est[MC_NULL]!r}")
    return out


def _exact_control_share(n: int, b: int, theta) -> float:
    from rarexact import DbcdNeyman, TerminalFunctional, forward_g

    table = forward_g(DbcdNeyman(n, b))
    _, _, n_c, _ = table.layer.arrays()
    return TerminalFunctional(n_c / n, table).value(theta)


def _check_simulate(wd: Path, exact: float, n: int) -> list[str]:
    s_c, s_d, n_c = np.load(wd / "terminals.npy")
    if n_c.size != SIMULATE_TRIALS or np.any(s_c > n_c) or np.any(s_d > n - n_c):
        return ["simulate: malformed terminal states"]
    share = n_c / n
    se = share.std(ddof=1) / math.sqrt(share.size)
    if not abs(share.mean() - exact) <= MC_SE_BOUND * se:
        return [f"simulate: mean control share {share.mean():.6f} is not within "
                f"{MC_SE_BOUND:g} SE ({se:.2g}) of the exact {exact:.6f}"]
    return []


def mc_dbcd_n50(seed: int) -> Workload:
    n, b, alpha = 50, 6, 0.05
    exact = _exact_control_share(n, b, MC_ALT)
    configs = {
        "randtest.json": {
            "n": n, "burn_in": b, "alpha": alpha, "policy": {"kind": "DbcdNeyman"},
            "sims": MC_SIMS, "reps": 1000, "seed": seed,
            "theta_grid": {"kind": "list", "values": [list(MC_NULL), list(MC_ALT)]},
        },
        "simulate.json": {
            "n": n, "burn_in": b, "theta": list(MC_ALT),
            "sims": SIMULATE_TRIALS, "seed": seed + 1,
        },
    }
    steps = [
        Step("mc_randtest_s", "cli",
             ["mc", "randtest", "--config", "randtest.json", "--out", "randtest.csv"],
             ["randtest.csv"], lambda wd: _check_randtest(wd, alpha)),
        Step("simulate_s", "simulate", ["simulate.json", "terminals.npy"],
             ["terminals.npy"], lambda wd: _check_simulate(wd, exact, n)),
    ]
    return Workload(configs, steps)


WORKLOADS = {
    "exact-brar-n150": exact_brar_n150,
    "cmdp-section4": cmdp_section4,
    "mc-dbcd-n50": mc_dbcd_n50,
}
