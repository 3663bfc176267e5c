"""Benchmark of the ``rarexact`` command line, end to end and layer by layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload is a closed loop of one client: its steps run one
after another, each as a fresh child process started the way a user
starts it, and the loop repeats whole iterations while they fit in
``--seconds``.  Every step's outputs are checked, and its artifacts are
hashed; all iterations of a run must give identical digests.

The calibration probe (``calibrate.py``) runs before and after every
step and every set-up import, and each of their times is rescaled to the
probe's reference speed by the mean of the two probes around it: a
shared machine's speed drifts by a third over minutes, and the rescaled
times do not.  A step's time is the median of its rescaled times over
the run's iterations.

``--trace 0`` times the untraced steps, alternating ``--threads 1`` and
``--threads $(nproc)`` between iterations, and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced iterations with traced ones
(``tracing.py``) and reports the per-layer metrics.  ``--workload all``
runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (environment, per-step times, exit codes, digests and
check failures, with the raw and the rescaled times).  See NOTES.md for
the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

# BLAS and OpenMP pools are pinned to one thread in every process: the
# same value on every run and machine, and no more than nproc.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
# A run must exit within 180 s; no step may outlive this budget.
RUN_BUDGET_S = 170.0

# per-step times, reported with the per-layer metrics (zero where a
# workload has no such step)
STEP_METRICS = ("design_s", "crit_s", "oc_s", "cmdp_solve_s", "mc_randtest_s", "simulate_s")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class StepRunner:
    """Starts child processes, times each from spawn to exit and reads its
    peak RSS from ``os.wait4``; kills any child still running at the
    run's deadline."""

    def __init__(self, deadline: float):
        self.env = _child_env()
        self.deadline = deadline

    def run(self, argv: list[str], cwd: Path) -> tuple[float, int, float]:
        """Returns ``(seconds, exit code, peak RSS in MB)``."""
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(cwd / "steps.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=log, stderr=log)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        # reaped by wait4 above; record the status so Popen does not wait again
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def _step_argv(step, threads: int, spans: Path | None) -> list[str]:
    args = list(step.args)
    if step.target == "cli":
        args += ["--threads", str(threads)]
    if spans is not None:
        return [sys.executable, str(HERE / "tracing.py"), str(spans), step.target, *args]
    if step.target == "cli":
        return [sys.executable, "-m", "rarexact.cli", *args]
    return [sys.executable, str(HERE / "simulate.py"), *args]


def _run_iteration(workload, runner: StepRunner, wd: Path, threads: int, traced: bool,
                   reference: dict[str, str] | None):
    """One pass over the workload's steps in a fresh directory.  A step
    fails on an unexpected exit code, a failed check, or an artifact
    whose digest differs from ``reference`` (the first iteration's)."""
    from calibrate import probe, scale
    from tracing import layer_metrics

    wd.mkdir(parents=True)
    probes = [probe()]
    for name, cfg in workload.configs.items():
        (wd / name).write_text(json.dumps(cfg, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    it = {"threads": threads, "traced": traced, "steps": {}, "digests": {}, "failures": [],
          "probes_s": probes}
    layers = []
    for i, step in enumerate(workload.steps):
        spans = wd / f"spans{i}.json" if traced else None
        seconds, code, rss = runner.run(_step_argv(step, threads, spans), wd)
        probes.append(probe())
        problems = []
        if code not in step.exits:
            problems.append(f"{step.metric}: exit code {code}, expected one of {step.exits}")
        else:
            try:
                problems += step.check(wd)
                for name in step.artifacts:
                    digest = hashlib.sha256((wd / name).read_bytes()).hexdigest()
                    it["digests"][name] = digest
                    if reference is not None and reference.get(name) != digest:
                        problems.append(f"{step.metric}: {name} digest differs from iteration 0")
                if traced:
                    layers.append(layer_metrics(json.loads(spans.read_text(encoding="utf-8"))))
            except Exception as exc:  # a check that cannot run fails its operation
                problems.append(f"{step.metric}: check raised {exc!r}")
        it["steps"][step.metric] = {"seconds": seconds, "scaled_s": scale(seconds, *probes[-2:]),
                                    "exit": code, "rss_mb": rss, "failed": bool(problems)}
        it["failures"] += problems
    it["wall_s"] = sum(s["scaled_s"] for s in it["steps"].values())
    return it, layers


def _time_setup(runner: StepRunner, wd: Path) -> list[tuple[float, float]]:
    """Fresh-process import times of the CLI, raw and rescaled; the first
    import, which may compile bytecode, is not counted."""
    from calibrate import probe, scale

    argv = [sys.executable, "-c", "import rarexact.cli"]
    times, probes = [], []
    for k in range(SETUP_REPEATS + 1):
        seconds, code, _ = runner.run(argv, wd)
        if code != 0:
            raise RuntimeError(f"importing rarexact.cli failed with exit code {code}")
        probes.append(probe())
        if k > 0:
            times.append((seconds, scale(seconds, *probes[-2:])))
    return times


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the run record and the result."""
    from tracing import UNITS, combine
    from workloads import WORKLOADS

    env = _environment()
    workload = WORKLOADS[name](seed)
    wd = WORK / name
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    runner = StepRunner(time.monotonic() + RUN_BUDGET_S)
    setup = _time_setup(runner, wd)

    # trace 0: untraced iterations, alternating --threads 1 and nproc;
    # trace 1: untraced and traced iterations alternate, at --threads 1.
    iterations, layers = [], []
    start = time.monotonic()
    while True:
        k = len(iterations)
        traced = trace and k % 2 == 1
        threads = env["nproc"] if not trace and k % 2 == 1 else 1
        reference = iterations[0]["digests"] if iterations else None
        it, it_layers = _run_iteration(workload, runner, wd / f"it{k}", threads, traced, reference)
        iterations.append(it)
        if traced:
            layers.append(combine(it_layers))
        elapsed = time.monotonic() - start
        if len(iterations) >= 2 and elapsed * (1 + 1 / len(iterations)) > seconds:
            break

    # A step's time is the median of its rescaled times over the untraced
    # iterations; the raw medians stay in the record.
    untraced = [it for it in iterations if not it["traced"]]
    step_times = {m: statistics.median(it["steps"][m]["scaled_s"] for it in untraced)
                  for m in untraced[0]["steps"]}
    raw_step_times = {m: statistics.median(it["steps"][m]["seconds"] for it in untraced)
                      for m in untraced[0]["steps"]}
    probe_s = statistics.median(p for it in iterations for p in it["probes_s"])
    if trace:
        metrics = {key: {"value": statistics.median(m[key] for m in layers), "unit": UNITS[key]}
                   for key in UNITS}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(it["wall_s"] for it in iterations if it["traced"])
            - statistics.median(it["wall_s"] for it in untraced),
            "unit": "s",
        }
        metrics["wall_raw_s"] = {"value": sum(raw_step_times.values()), "unit": "s"}
        metrics["calibration.probe_s"] = {"value": probe_s, "unit": "s"}
        for m in STEP_METRICS:
            metrics[m] = {"value": step_times.get(m, 0.0), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"},
            "wall_s": {"value": sum(step_times.values()), "unit": "s"},
            "peak_rss_mb": {
                "value": max(s["rss_mb"] for it in untraced for s in it["steps"].values()),
                "unit": "MB",
            },
        }
    failed = sum(s["failed"] for it in iterations for s in it["steps"].values())
    attempted = sum(len(it["steps"]) for it in iterations)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "setup_s": setup, "step_s": step_times,
        "raw_step_s": raw_step_times, "probe_s": probe_s,
        "iterations": iterations,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"record": record, "result": result}


def main(argv=None) -> int:
    if not (SRC / "rarexact" / "cli.py").is_file():
        print(f"error: no rarexact sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    # on SIGTERM, unwind so that the running step is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"record": out["record"]}, sort_keys=True))
        print(json.dumps(out["result"], sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
