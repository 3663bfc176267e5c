"""Command-line front end.

One JSON configuration document drives every subcommand; artifacts (CSV
and JSON) embed the configuration and package version, use ``.`` decimal
points, ``,`` separators and LF line endings, and reproduce
byte-identically for a fixed configuration and seed.

Exit codes: 0 ok, 2 configuration error, 3 infeasible problem, 4 numeric
guard, 5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .cmdp import CmdpSpec, Rectangle, default_rectangles, solve_cmdp
from .engine import forward_g
from .exact_tests import boschloo_rule, conditional_rule, unconditional_rule
from .io import (
    read_policy_table,
    read_rule,
    read_weight_table,
    rule_to_dict,
    write_policy_table,
    write_rule,
    write_weight_table,
)
from .montecarlo import randomization_rejection_rate, simulate_trial
from .operating import AsymptoticRule, null_diagonal, power_curves, profile
from .policies import (
    BayesianRar,
    DbcdNeyman,
    EqualAllocation,
    TablePolicy,
    TemperedDbcdNeyman,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4
EXIT_IO = 5

SECTION4_DEFAULTS = {
    "n": 50,
    "burn_in": 6,
    "alpha": 0.05,
    "gamma": 2.0,
    "p": 0.95,
    "alpha_avg": 0.045,
    "alpha_point": 0.05,
    "null_grid": [i / 20 for i in range(21)],
    "seed": 2024,
    "sims": 1000,
    "reps": 1000,
}


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    cfg = dict(SECTION4_DEFAULTS)
    cfg.update(raw)
    return cfg


def _policy_from_config(cfg: dict):
    spec = cfg.get("policy", {"kind": "EqualAllocation"})
    if isinstance(spec, str):
        spec = {"kind": spec}
    kind = spec.get("kind")
    n, b = int(cfg["n"]), int(cfg["burn_in"])
    if kind in ("EqualAllocation", "equal", "ea"):
        return EqualAllocation(n, b)
    if kind in ("DbcdNeyman", "dbcd", "na"):
        return DbcdNeyman(n, b, gamma=float(spec.get("gamma", cfg["gamma"])))
    if kind in ("TemperedDbcdNeyman", "tempered", "tna"):
        return TemperedDbcdNeyman(n, b, gamma=float(spec.get("gamma", cfg["gamma"])))
    if kind in ("BayesianRar", "brar"):
        return BayesianRar(n, b)
    if kind in ("CmdpTable", "table"):
        path = spec.get("table_path") or cfg.get("table_path")
        if not path:
            raise ConfigError("table policy requires 'table_path'")
        return TablePolicy(n, b, table=read_policy_table(path))
    raise ConfigError(f"unknown policy kind {kind!r}")


def _thetas_from_config(cfg: dict):
    spec = cfg.get("theta_grid")
    if spec is None:
        raise ConfigError("missing 'theta_grid'")
    kind = spec.get("kind")
    if kind == "null-diagonal":
        return null_diagonal(int(spec.get("points", 99)))
    if kind == "curves":
        return power_curves(spec["theta_c"], float(spec.get("step", 0.01)))
    if kind == "list":
        vals = spec.get("values", [])
        if not vals:
            raise ConfigError("empty theta list")
        return [(float(a), float(b)) for a, b in vals]
    raise ConfigError(f"unknown theta grid kind {kind!r}")


def _rule_from_config(cfg: dict, table):
    if "rule_path" in cfg:
        return read_rule(cfg["rule_path"])
    test = cfg.get("test", "unconditional")
    alpha = float(cfg["alpha"])
    if test == "asymptotic":
        return AsymptoticRule(alpha)
    if test == "conditional":
        return conditional_rule(table, alpha)
    if test == "unconditional":
        return unconditional_rule(table, alpha)
    if test in ("boschloo", "gb"):
        return boschloo_rule(table, alpha)
    raise ConfigError(f"unknown test kind {test!r}")


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _write_csv(path, header: list[str], rows, cfg: dict):
    meta = {"config": cfg, "version": __version__}
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("# rarexact " + json.dumps(meta, sort_keys=True) + "\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise _IoFailure(str(exc)) from exc


class _IoFailure(OSError):
    pass


def _design_table(cfg: dict):
    if "design_path" in cfg:
        return read_weight_table(cfg["design_path"])
    policy = _policy_from_config(cfg)
    return forward_g(policy)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_design(cfg: dict, out: str) -> int:
    policy = _policy_from_config(cfg)
    table = forward_g(policy)
    write_weight_table(out, table)
    return EXIT_OK


def _cmd_crit(cfg: dict, out: str) -> int:
    table = _design_table(cfg)
    rule = _rule_from_config(cfg, table)
    write_rule(out, rule)
    return EXIT_OK


def _cmd_oc(cfg: dict, out: str) -> int:
    table = _design_table(cfg)
    rule = _rule_from_config(cfg, table)
    thetas = _thetas_from_config(cfg)
    prof = profile(table, rule, thetas)
    rows = [
        (tc, td, r, pb)
        for (tc, td), r, pb in zip(prof.thetas, prof.rejection_rates, prof.patient_benefits)
    ]
    _write_csv(out, ["theta_c", "theta_d", "rejection_rate", "patient_benefit"], rows, cfg)
    return EXIT_OK


def _cmd_power_diff(cfg: dict, out: str) -> int:
    for key in ("design_path", "baseline_design_path"):
        if key not in cfg:
            raise ConfigError(f"power-diff requires '{key}'")
    table = read_weight_table(cfg["design_path"])
    base = read_weight_table(cfg["baseline_design_path"])
    thetas = _thetas_from_config(cfg)
    rule = _rule_from_config(cfg, table)
    base_cfg = dict(cfg)
    base_cfg.pop("rule_path", None)
    base_rule = _rule_from_config(base_cfg, base)
    prof = profile(table, rule, thetas)
    prof_base = profile(base, base_rule, thetas)
    rows = [
        (tc, td, r, rb, r - rb, pb, pbb, pb - pbb)
        for (tc, td), r, rb, pb, pbb in zip(
            prof.thetas, prof.rejection_rates, prof_base.rejection_rates,
            prof.patient_benefits, prof_base.patient_benefits,
        )
    ]
    _write_csv(
        out,
        ["theta_c", "theta_d", "rate", "rate_baseline", "rate_diff",
         "benefit", "benefit_baseline", "benefit_diff"],
        rows, cfg,
    )
    return EXIT_OK


def _cmdp_spec_from_config(cfg: dict) -> CmdpSpec:
    rect_cfg = cfg.get("rectangles", [])
    if rect_cfg == "section4-pairs":
        rectangles = default_rectangles()
    else:
        rectangles = tuple(Rectangle(*map(float, r)) for r in rect_cfg)
    return CmdpSpec(
        n=int(cfg["n"]), burn_in=int(cfg["burn_in"]), p=float(cfg["p"]),
        alpha=float(cfg["alpha"]), alpha_avg=float(cfg["alpha_avg"]),
        alpha_point=float(cfg["alpha_point"]),
        null_grid=tuple(float(v) for v in cfg["null_grid"]),
        rectangles=rectangles,
        max_iters=int(cfg.get("max_iters", 400)),
        eta0=float(cfg.get("eta0", 1.0)),
        solver=str(cfg.get("solver", "subgradient")),
        step_rule=str(cfg.get("step_rule", "sqrt")),
        tol=float(cfg.get("tol", 5e-4)),
        settle=int(cfg.get("settle", 0)),
        margin=float(cfg.get("margin", 0.0)),
    )


def _cmd_cmdp_solve(cfg: dict, out: str) -> int:
    spec = _cmdp_spec_from_config(cfg)
    result = solve_cmdp(spec)
    write_policy_table(out, result.table, extra={"config": cfg, "version": __version__})
    audit_path = cfg.get("audit_path", out + ".audit.json")
    audit = {
        "config": cfg,
        "version": __version__,
        "feasible": result.feasible,
        "iterations": result.iterations,
        "objective": result.audit.objective,
        "avg_type_i": result.audit.avg_type_i,
        "pointwise": {f"{k:g}": v for k, v in result.audit.pointwise.items()},
        "benefits": {str(k): v for k, v in result.audit.benefits.items()},
        "multipliers": result.dual.multipliers,
    }
    with open(audit_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(audit, fh, sort_keys=True, indent=1)
        fh.write("\n")
    if not result.feasible:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_mc_randtest(cfg: dict, out: str) -> int:
    policy = _policy_from_config(cfg)
    thetas = _thetas_from_config(cfg)
    rows = []
    for tc, td in thetas:
        est = randomization_rejection_rate(
            policy, (tc, td), int(cfg["sims"]), int(cfg["reps"]),
            float(cfg["alpha"]), int(cfg["seed"]),
        )
        rows.append((tc, td, est.estimate, est.half_width, est.sims, est.reps,
                     est.seed.seed, est.seed.generator))
    _write_csv(
        out,
        ["theta_c", "theta_d", "estimate", "half_width", "sims", "reps", "seed", "generator"],
        rows, cfg,
    )
    return EXIT_OK


def _cmd_paths(cfg: dict, out: str) -> int:
    policy = _policy_from_config(cfg)
    thetas = _thetas_from_config(cfg)
    sims = int(cfg.get("path_sims", cfg["sims"]))
    rows = []
    for tc, td in thetas:
        for i in range(sims):
            hist = simulate_trial(policy, (tc, td), int(cfg["seed"]), stream=i)
            for t, prop in enumerate(hist.control_proportion_path(), start=1):
                rows.append((tc, td, i, t, prop))
    _write_csv(out, ["theta_c", "theta_d", "sim", "t", "control_proportion"], rows, cfg)
    return EXIT_OK


COMMANDS = {
    "design": _cmd_design,
    "crit": _cmd_crit,
    "oc": _cmd_oc,
    "power-diff": _cmd_power_diff,
    "mc-randtest": _cmd_mc_randtest,
    "paths": _cmd_paths,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rarexact",
        description="Exact design and inference for two-arm adaptive trials",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="JSON configuration document")
        sp.add_argument("--out", required=True, help="output artifact path")
        sp.add_argument(
            "--threads",
            type=int,
            default=int(os.environ.get("RAREXACT_THREADS", "0") or 0),
            help="worker hint; results are independent of it",
        )
        return sp

    add("design", "compute a path-weight table for a policy")
    add("crit", "construct a test rule for a design")
    add("oc", "rejection-rate and patient-benefit profile CSV")
    add("power-diff", "difference profile of two designs")
    cmdp_parser = sub.add_parser("cmdp", help="constrained-design commands")
    cmdp_sub = cmdp_parser.add_subparsers(dest="cmdp_command", required=True)
    sp = cmdp_sub.add_parser("solve", help="solve the constrained design problem")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--threads", type=int, default=0)
    mc_parser = sub.add_parser("mc", help="Monte Carlo commands")
    mc_sub = mc_parser.add_subparsers(dest="mc_command", required=True)
    sp = mc_sub.add_parser("randtest", help="randomization-test rejection rates")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--threads", type=int, default=0)
    add("paths", "running allocation-proportion paths CSV")

    args = parser.parse_args(argv)
    if args.command == "cmdp":
        handler = _cmd_cmdp_solve
    elif args.command == "mc":
        handler = _cmd_mc_randtest
    else:
        handler = COMMANDS[args.command]

    try:
        cfg = _load_config(args.config)
        return handler(cfg, args.out)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"error: numeric-guard: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        if isinstance(exc, ValueError) and not isinstance(exc, _IoFailure):
            print(f"error: config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
