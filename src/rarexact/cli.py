"""Command-line front end.

One JSON configuration document drives every subcommand; artifacts (CSV
and JSON) embed the configuration and package version, use ``.`` decimal
points, ``,`` separators and LF line endings, and reproduce
byte-identically for a fixed configuration and seed.

Exit codes: 0 ok, 2 configuration error, 3 the returned CMDP design
exceeds a bound (no iterate met every one), 4 numeric guard, 5 I/O
error.  An exact rule read through ``rule_path`` holds only for the
design it was built for, which its file names by digest: ``oc`` and
``power-diff`` with a design of another horizon, or of the same horizon
but other path weights, exit 2.
"""

from __future__ import annotations

import argparse
import json
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
    write_policy_table,
    write_rule,
    write_weight_table,
)
from .montecarlo import randomization_rejection_rates, simulate_trials_at
from .numerics import theta_array
from .operating import AsymptoticRule, null_diagonal, power_curves, profile
from .policies import (
    BayesianRar,
    DbcdNeyman,
    EqualAllocation,
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
    "gamma": DbcdNeyman.gamma,
    "p": CmdpSpec.p,
    "alpha_avg": CmdpSpec.alpha_avg,
    "alpha_point": CmdpSpec.alpha_point,
    "null_grid": list(CmdpSpec.null_grid),
    "seed": 2024,
    "sims": 1000,
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(d: dict, key: str, default=None) -> int:
    """``d[key]``, or ``default`` when absent, as a JSON integer; a float
    such as ``6.5``, a bool or a string is refused, not truncated."""
    value = d.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"'{key}' = {value!r} is not an integer")
    return value


def _number(d: dict, key: str, default=None) -> float:
    """``d[key]``, or ``default`` when absent, as a JSON number."""
    value = d.get(key, default)
    if not _is_number(value):
        raise ConfigError(f"'{key}' = {value!r} is not a number")
    return float(value)


def _path(d: dict, key: str, default=None) -> str:
    """``d[key]``, or ``default`` when absent, as a JSON string; ``open()``
    would take an integer as a file descriptor."""
    value = d.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"'{key}' = {value!r} is not a path string")
    return value


def _numbers(value, key: str, length: int | None = None) -> list[float]:
    """``value`` as a JSON list of numbers, of ``length`` entries if given."""
    if (not isinstance(value, list) or not all(map(_is_number, value))
            or length is not None and len(value) != length):
        what = f"{length} numbers" if length is not None else "numbers"
        raise ConfigError(f"'{key}' must be a list of {what}, not {value!r}")
    return [float(v) for v in value]


def _policy_from_config(cfg: dict):
    spec = cfg.get("policy", {"kind": "EqualAllocation"})
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict):
        raise ConfigError(f"'policy' must be a kind name or a JSON object, not {spec!r}")
    kind = spec.get("kind")
    n, b = _integer(cfg, "n"), _integer(cfg, "burn_in")
    if kind in ("EqualAllocation", "equal", "ea"):
        return EqualAllocation(n, b)
    if kind in ("DbcdNeyman", "dbcd", "na"):
        return DbcdNeyman(n, b, gamma=_number(spec, "gamma", cfg["gamma"]))
    if kind in ("TemperedDbcdNeyman", "tempered", "tna"):
        return TemperedDbcdNeyman(n, b, gamma=_number(spec, "gamma", cfg["gamma"]))
    if kind in ("BayesianRar", "brar"):
        return BayesianRar(n, b)
    if kind in ("CmdpTable", "table"):
        where = spec if "table_path" in spec else cfg
        if "table_path" not in where:
            raise ConfigError("table policy requires 'table_path'")
        path = _path(where, "table_path")
        table = read_policy_table(path)
        if (table.n, table.burn_in) != (n, b):
            raise ConfigError(
                f"policy table {path} has n = {table.n}, burn_in = {table.burn_in}; "
                f"the configuration has n = {n}, burn_in = {b}"
            )
        return table
    raise ConfigError(f"unknown policy kind {kind!r}")


def _thetas_from_config(cfg: dict):
    spec = cfg.get("theta_grid")
    if spec is None:
        raise ConfigError("missing 'theta_grid'")
    if not isinstance(spec, dict):
        raise ConfigError(f"'theta_grid' must be a JSON object, not {spec!r}")
    kind = spec.get("kind")
    if kind == "null-diagonal":
        return null_diagonal(_integer(spec, "points", 99))
    if kind == "curves":
        if "theta_c" not in spec:
            raise ConfigError("a 'curves' theta grid requires 'theta_c'")
        return power_curves(_numbers(spec["theta_c"], "theta_grid.theta_c"),
                            _number(spec, "step", 0.01))
    if kind == "list":
        vals = spec.get("values", [])
        if not isinstance(vals, list) or not vals:
            raise ConfigError(
                f"'theta_grid.values' must be a non-empty list of pairs, not {vals!r}")
        return [tuple(_numbers(v, "theta_grid.values", 2)) for v in vals]
    raise ConfigError(f"unknown theta grid kind {kind!r}")


def _rule_from_config(cfg: dict, table):
    if "rule_path" in cfg:
        return read_rule(_path(cfg, "rule_path"))
    test = cfg.get("test", "unconditional")
    alpha = _number(cfg, "alpha")
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
        return read_weight_table(_path(cfg, "design_path"))
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
    table = read_weight_table(_path(cfg, "design_path"))
    base = read_weight_table(_path(cfg, "baseline_design_path"))
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
    elif isinstance(rect_cfg, list):
        rectangles = tuple(Rectangle(*_numbers(r, "rectangles", 4)) for r in rect_cfg)
    else:
        raise ConfigError(f"'rectangles' must be 'section4-pairs' or a list, not {rect_cfg!r}")
    return CmdpSpec(
        n=_integer(cfg, "n"), burn_in=_integer(cfg, "burn_in"), p=_number(cfg, "p"),
        alpha=_number(cfg, "alpha"), alpha_avg=_number(cfg, "alpha_avg"),
        alpha_point=_number(cfg, "alpha_point"),
        null_grid=tuple(_numbers(cfg["null_grid"], "null_grid")),
        rectangles=rectangles,
        max_iters=_integer(cfg, "max_iters", CmdpSpec.max_iters),
    )


def _cmd_cmdp_solve(cfg: dict, out: str) -> int:
    spec = _cmdp_spec_from_config(cfg)
    audit_path = _path(cfg, "audit_path", out + ".audit.json")
    result = solve_cmdp(spec)
    write_policy_table(out, result.table, extra={"config": cfg, "version": __version__})
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
    estimates = randomization_rejection_rates(policy, thetas, _integer(cfg, "sims"),
                                              _number(cfg, "alpha"), _integer(cfg, "seed"))
    rows = [(tc, td, est.estimate, est.half_width, est.sims, est.seed, est.generator)
            for (tc, td), est in zip(thetas, estimates)]
    _write_csv(
        out, ["theta_c", "theta_d", "estimate", "half_width", "sims", "seed", "generator"],
        rows, cfg,
    )
    return EXIT_OK


def _cmd_paths(cfg: dict, out: str) -> int:
    policy = _policy_from_config(cfg)
    thetas = _thetas_from_config(cfg)
    sims = _integer(cfg, "path_sims") if "path_sims" in cfg else _integer(cfg, "sims")
    seed = _integer(cfg, "seed")
    rows = []
    # checked whole first, so an error names the point's place in the grid
    thetas = theta_array(thetas).tolist()
    for (tc, td), (arms, _) in zip(thetas, simulate_trials_at(policy, thetas, seed, 0, sims)):
        for i, path in enumerate(np.cumsum(arms == 0, axis=1) / np.arange(1, policy.n + 1)):
            rows.extend((tc, td, i, t, prop) for t, prop in enumerate(path, start=1))
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
            help="accepted and ignored: no output depends on the CPU count or the "
                 "thread count",
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
