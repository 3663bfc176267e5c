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
import sys

from . import __version__
from .cmdp import CmdpSpec, Rectangle, default_rectangles, solve_cmdp
from .engine import forward_g
from .exact_tests import boschloo_rule, conditional_rule, unconditional_rule
from .io import (
    read_policy_table,
    read_rule,
    read_weight_table,
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
        if "theta_c" not in spec:
            raise ConfigError("a 'curves' theta grid requires 'theta_c'")
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# rarexact " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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


# refused, not ignored: a config that sets one of these expects a step or
# stopping rule that solve_cmdp does not run
REMOVED_CMDP_KEYS = ("solver", "step_rule", "eta0", "settle", "margin", "multiplier_cap", "tol")


def _cmdp_spec_from_config(cfg: dict) -> CmdpSpec:
    for key in REMOVED_CMDP_KEYS:
        if key in cfg:
            raise ConfigError(
                f"'{key}' is not a cmdp setting: the solver has one step rule "
                "and one stopping rule, limited only by 'max_iters'"
            )
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
        "max_violation": result.audit.max_violation(spec),
        "avg_type_i": result.audit.avg_type_i,
        "pointwise": {f"{k:g}": v for k, v in result.audit.pointwise.items()},
        "benefits": {str(k): v for k, v in result.audit.benefits.items()},
        "multipliers": result.dual.multipliers,
        "dual_trace": [
            {key: h[key] for key in ("iteration", "objective", "max_violation", "dual_value")}
            for h in result.dual.history
        ],
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


# subcommand path -> (handler, help); the parser is built from this table
COMMANDS = {
    ("design",): (_cmd_design, "compute a path-weight table for a policy"),
    ("crit",): (_cmd_crit, "construct a test rule for a design"),
    ("oc",): (_cmd_oc, "rejection-rate and patient-benefit profile CSV"),
    ("power-diff",): (_cmd_power_diff, "difference profile of two designs"),
    ("cmdp", "solve"): (_cmd_cmdp_solve, "solve the constrained design problem"),
    ("mc", "randtest"): (_cmd_mc_randtest, "randomization-test rejection rates"),
    ("paths",): (_cmd_paths, "running allocation-proportion paths CSV"),
}
GROUPS = {"cmdp": "constrained-design commands", "mc": "Monte Carlo commands"}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rarexact",
        description="Exact design and inference for two-arm adaptive trials",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for path, (handler, help_text) in COMMANDS.items():
        where = sub
        if len(path) == 2:
            if path[0] not in groups:
                group = sub.add_parser(path[0], help=GROUPS[path[0]])
                groups[path[0]] = group.add_subparsers(dest=f"{path[0]}_command", required=True)
            where = groups[path[0]]
        sp = where.add_parser(path[-1], help=help_text)
        sp.add_argument("--config", required=True, help="JSON configuration document")
        sp.add_argument("--out", required=True, help="output artifact path")
        sp.add_argument(
            "--threads",
            type=int,
            default=0,
            help="accepted and ignored; results do not depend on it",
        )
        sp.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(_load_config(args.config), args.out)
    except RuntimeError as exc:
        print(f"error: numeric-guard: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:   # ConfigError included
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
