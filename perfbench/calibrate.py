"""Calibration probe: a fixed piece of numpy work, independent of
``rarexact``, timed between the benchmark's steps to read how fast the
machine runs at that moment.

On a shared machine other tenants slow every process for minutes at a
time; this probe's time follows much of that drift (see NOTES.md for
how much).  A child's time is divided by the
mean of the probes just before and just after it and multiplied by
``REFERENCE_S``, which gives its seconds at a fixed reference speed: the
speed at which the probe takes ``REFERENCE_S`` seconds.  A change to the
program moves the child's time and not the probe, so it shows in full.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time that defines the reference speed (about the probe's time on
# an idle 2.1 GHz Xeon vCPU).
REFERENCE_S = 0.25

_SIZE = 2_000_000
_ROUNDS = 24


def probe() -> float:
    """Seconds taken by the fixed probe work: elementwise passes over a
    16 MB array, larger than a core's private caches."""
    a = np.linspace(0.0, 1.0, _SIZE)
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        b = np.log1p(a) * a
        a = b - b + a
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes ``before`` and ``after``, at the
    reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
