"""Traced run of one benchmark step, and the per-layer metrics drawn from
its spans.

Usage: python perfbench/tracing.py SPANS_OUT {cli|simulate} ARGS...

The step runs exactly as untraced, except that the public functions of
each ``rarexact`` module are wrapped first.  A function is wrapped in
every module that bound it by name (``from .engine import forward_g``
copies the name at import), methods on their classes.  Spans stay in
memory with the id of the span that caused them and are written to
SPANS_OUT as JSON when the step ends.  ``make_rng`` runs once per trial,
so its calls are summed per parent span instead of kept one by one.

Nothing under ``src/`` is changed; spans inside the sweeps (per epoch
layer) need tracing inside the program.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import weakref


class Tracer:
    """Span recorder.  A span is ``[id, parent, name, start, end, attrs]``
    with parent 0 at the top; ``leaves`` maps ``(name, parent)`` to
    ``[calls, seconds]`` for functions too frequent to keep one by one."""

    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[tuple[str, int], list] = {}
        self._stack = [0]

    def wrap(self, name, fn, attrs=None):
        """Trace ``fn`` as span ``name``; ``attrs(arguments, result)``
        returns the counts stored on the span."""
        sig = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(self.spans) + 1, self._stack[-1], name, 0.0, 0.0, {}]
            self.spans.append(record)
            self._stack.append(record[0])
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self._stack.pop()
            if attrs:
                record[5] = attrs(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def wrap_leaf(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc = self.leaves.setdefault((name, self._stack[-1]), [0, 0.0])
                acc[0] += 1
                acc[1] += time.perf_counter() - start

        return traced

    def dump(self, path):
        doc = {
            "spans": self.spans,
            "leaves": [[name, parent, calls, secs]
                       for (name, parent), (calls, secs) in self.leaves.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _rebind(module, name, new):
    """Replace ``module.name`` in every loaded ``rarexact`` module that
    bound the same object."""
    old = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "rarexact" and getattr(mod, name, None) is old:
            setattr(mod, name, new)


def _states_swept(policy, n=None, b=None) -> int:
    """States visited by ``forward_g``: the layers ``2b <= t < n``, each
    holding ``sum_{n_c=b}^{t-b} (n_c + 1)(t - n_c + 1)`` states."""
    from rarexact import EqualAllocation

    if isinstance(policy, EqualAllocation):
        return 0
    n = policy.n if n is None else n
    b = policy.burn_in if b is None else b
    return sum((nc + 1) * (t - nc + 1) for t in range(2 * b, n) for nc in range(b, t - b + 1))


def _file_bytes(arguments, result):
    return {"bytes": os.path.getsize(arguments["path"])}


def install(tracer: Tracer):
    """Wrap the public layer boundaries of every ``rarexact`` module."""
    from rarexact import cmdp, engine, exact_tests, io, montecarlo, operating, policies, states, wald

    def cert_gap(arguments, rule):
        cert = rule.certificate
        return {"cert_gap": cert.certified_upper - cert.lower_bound} if cert else {}

    functions = [
        (engine, "forward_g", "engine.forward_g",
         lambda a, r: {"states_swept": _states_swept(a["policy"], a.get("n"), a.get("b"))}),
        (wald, "layer_wald_statistics", "wald.layer_stats", None),
        (exact_tests, "certify_region", "exact_tests.certify", None),
        (exact_tests, "conditional_rule", "exact_tests.rule", cert_gap),
        (exact_tests, "unconditional_rule", "exact_tests.rule", cert_gap),
        (exact_tests, "boschloo_rule", "exact_tests.rule", cert_gap),
        (operating, "profile", "operating.profile", lambda a, r: {"theta_points": len(r)}),
        (io, "read_weight_table", "io.read", _file_bytes),
        (io, "read_rule", "io.read", _file_bytes),
        (io, "read_policy_table", "io.read", _file_bytes),
        (io, "write_weight_table", "io.write", _file_bytes),
        (io, "write_rule", "io.write", _file_bytes),
        (io, "write_policy_table", "io.write", _file_bytes),
        (cmdp, "solve_cmdp", "cmdp.solve",
         lambda a, r: {"iterations": r.iterations, "objective": r.audit.objective,
                       "max_violation": r.audit.max_violation(a["spec"])}),
        (cmdp, "lagrangian_backward", "cmdp.backward", None),
        (cmdp, "measure_log_weights", "cmdp.measure", None),
        (montecarlo, "randomization_test", "montecarlo.randtest",
         lambda a, r: {"reps": a["reps"]}),
        (montecarlo, "simulate_terminals", "montecarlo.simulate",
         lambda a, r: {"sims": a["sims"]}),
    ]
    for module, attr, name, attrs in functions:
        _rebind(module, attr, tracer.wrap(name, getattr(module, attr), attrs))
    _rebind(montecarlo, "make_rng", tracer.wrap_leaf("montecarlo.make_rng", montecarlo.make_rng))

    engine.TerminalFunctional.value = tracer.wrap(
        "engine.functional_value", engine.TerminalFunctional.value)

    policy_classes = [policies.Policy]
    for cls in policy_classes:
        policy_classes.extend(cls.__subclasses__())
    for cls in policy_classes:
        for meth in ("layer_log_probs", "layer_control_probs"):
            if meth in cls.__dict__:
                setattr(cls, meth, tracer.wrap(
                    "policies.layer_probs", cls.__dict__[meth],
                    lambda a, r: {"states": a["lay"].size}))

    # Layer.arrays caches on the instance: only the first call on a layer
    # builds the index arrays, and only that call is a span.  Layers
    # compare equal by (t, b), so instances are told apart by id.
    built: dict[int, weakref.ref] = {}
    arrays = states.Layer.arrays
    build = tracer.wrap("states.arrays", arrays, lambda a, r: {"states": a["self"].size})

    @functools.wraps(arrays)
    def layer_arrays(self):
        key = id(self)
        if key in built:
            return arrays(self)
        built[key] = weakref.ref(self, lambda _, key=key: built.pop(key, None))
        return build(self)

    states.Layer.arrays = layer_arrays


# ---------------------------------------------------------------------------
# per-layer metrics


UNITS = {
    "states.layers_built": "count",
    "states.arrays_s": "s",
    "policies.layer_probs_s": "s",
    "policies.layer_probs_states": "count",
    "engine.forward_s": "s",
    "engine.forward_calls": "count",
    "engine.forward_self_s": "s",
    "engine.states_swept": "count",
    "engine.states_per_s": "1/s",
    "engine.functional_values": "count",
    "engine.functional_s": "s",
    "wald.layer_stats_s": "s",
    "exact_tests.rule_s": "s",
    "exact_tests.certify_calls": "count",
    "exact_tests.certify_s": "s",
    "exact_tests.cert_gap": "prob",
    "operating.profile_s": "s",
    "operating.theta_points": "count",
    "operating.s_per_theta": "s",
    "io.read_s": "s",
    "io.write_s": "s",
    "io.bytes": "B",
    "cmdp.iterations": "count",
    "cmdp.backward_s": "s",
    "cmdp.backward_calls": "count",
    "cmdp.forward_s": "s",
    "cmdp.measure_s": "s",
    "cmdp.audit_s": "s",
    "cmdp.s_per_iter": "s",
    "cmdp.max_violation": "prob",
    "cmdp.objective": "prob",
    "montecarlo.make_rng_calls": "count",
    "montecarlo.make_rng_s": "s",
    "montecarlo.randtest_calls": "count",
    "montecarlo.randtest_s": "s",
    "montecarlo.rerandomizations": "count",
    "montecarlo.simulate_s": "s",
    "montecarlo.trials_per_s": "1/s",
}


def _self_times(spans, leaves) -> dict[int, float]:
    """Span duration minus the time of its direct children."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1]:
            own[s[1]] -= s[4] - s[3]
    for _, parent, _, secs in leaves:
        if parent:
            own[parent] -= secs
    return own


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced step (see NOTES.md for the map)."""
    spans, leaves = doc["spans"], doc["leaves"]
    names = {s[0]: s[2] for s in spans}
    own = _self_times(spans, leaves)

    def of(name, parent_name=None, outermost=False):
        out = [s for s in spans if s[2] == name]
        if parent_name is not None:
            out = [s for s in out if names.get(s[1]) == parent_name]
        if outermost:
            out = [s for s in out if names.get(s[1]) != name]
        return out

    def total(items):
        return sum(s[4] - s[3] for s in items)

    def attr_sum(items, key):
        return sum(s[5].get(key, 0) for s in items)

    forward = of("engine.forward_g")
    probs = of("policies.layer_probs", outermost=True)
    rules = of("exact_tests.rule")
    solves = of("cmdp.solve")
    randtests = of("montecarlo.randtest")
    sims = of("montecarlo.simulate")
    rng = [leaf for leaf in leaves if leaf[0] == "montecarlo.make_rng"]
    m = {
        "states.layers_built": len(of("states.arrays")),
        "states.arrays_s": total(of("states.arrays")),
        "policies.layer_probs_s": total(probs),
        "policies.layer_probs_states": attr_sum(probs, "states"),
        "engine.forward_s": total(forward),
        "engine.forward_calls": len(forward),
        "engine.forward_self_s": sum(own[s[0]] for s in forward),
        "engine.states_swept": attr_sum(forward, "states_swept"),
        "engine.functional_values": len(of("engine.functional_value")),
        "engine.functional_s": total(of("engine.functional_value")),
        "wald.layer_stats_s": total(of("wald.layer_stats")),
        "exact_tests.rule_s": total(rules),
        "exact_tests.certify_calls": len(of("exact_tests.certify")),
        "exact_tests.certify_s": total(of("exact_tests.certify")),
        "operating.profile_s": total(of("operating.profile")),
        "operating.theta_points": attr_sum(of("operating.profile"), "theta_points"),
        "io.read_s": total(of("io.read")),
        "io.write_s": total(of("io.write")),
        "io.bytes": attr_sum(of("io.read") + of("io.write"), "bytes"),
        "cmdp.solve_s": total(solves),
        "cmdp.iterations": attr_sum(solves, "iterations"),
        "cmdp.backward_s": total(of("cmdp.backward")),
        "cmdp.backward_calls": len(of("cmdp.backward")),
        "cmdp.forward_s": total(of("engine.forward_g", parent_name="cmdp.solve")),
        "cmdp.measure_s": total(of("cmdp.measure")),
        "cmdp.audit_s": sum(own[s[0]] for s in solves),
        "montecarlo.make_rng_calls": sum(leaf[2] for leaf in rng),
        "montecarlo.make_rng_s": sum(leaf[3] for leaf in rng),
        "montecarlo.randtest_calls": len(randtests),
        "montecarlo.randtest_s": total(randtests),
        "montecarlo.rerandomizations": attr_sum(randtests, "reps"),
        "montecarlo.simulate_s": total(sims),
        "montecarlo.simulated_trials": attr_sum(sims, "sims"),
    }
    # quality readings, present only where the step made a rule or a solve
    for key, items in (("exact_tests.cert_gap", rules), ("cmdp.max_violation", solves),
                       ("cmdp.objective", solves)):
        values = [s[5][key.split(".")[1]] for s in items if s[5]]
        if values:
            m[key] = max(values)
    return m


def combine(per_step: list[dict[str, float]]) -> dict[str, float]:
    """Sum the step metrics of one workload iteration and derive ratios;
    a quality reading no step made reads 0."""
    readings = ("exact_tests.cert_gap", "cmdp.max_violation", "cmdp.objective")
    m = {key: 0.0 for key in readings}
    for step in per_step:
        for key, value in step.items():
            m[key] = value if key in readings else m.get(key, 0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    m["engine.states_per_s"] = ratio(m["engine.states_swept"], m["engine.forward_self_s"])
    m["operating.s_per_theta"] = ratio(m["operating.profile_s"], m["operating.theta_points"])
    m["cmdp.s_per_iter"] = ratio(m.pop("cmdp.solve_s"), m["cmdp.iterations"])
    m["montecarlo.trials_per_s"] = ratio(m.pop("montecarlo.simulated_trials"),
                                         m["montecarlo.simulate_s"])
    return m


def main(argv: list[str]) -> int:
    spans_out, target, *args = argv
    tracer = Tracer()
    install(tracer)
    try:
        if target == "cli":
            from rarexact.cli import main as step_main
        elif target == "simulate":
            from simulate import main as step_main
        else:
            raise SystemExit(f"unknown target {target!r}")
        return step_main(args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
