"""Exact operating characteristics: rejection rates, patient benefit, and
profiles over success-rate grids.

A profile makes one pass over the terminal layer for the whole grid.  The
rejection indicator times the path weights and the path weights alone are
put side by side in one :class:`~rarexact.engine.TerminalFunctional`, so
each ``(n_c, n_d)`` block costs one matrix product for every grid point
and both quantities (see that class for the two scalings and the error
bound).  The second column is the probability of ending in the block; the
allocation share ``n_c / n`` is constant within a block, so the patient
benefit is the mass-weighted sum of the superior arm's share and needs no
functional of its own.  The scalar functions evaluate a one-point grid
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import PathWeightTable, TerminalFunctional
from .numerics import check_alpha, normal_quantile, theta_array
from .wald import asymptotic_reject_array


@dataclass
class AsymptoticRule:
    """Two-sided asymptotic Wald test; kept interface-compatible with the
    exact rules."""

    alpha: float

    kind = "asymptotic"
    certificate = None

    def __post_init__(self):
        check_alpha(self.alpha)

    @property
    def z(self) -> float:
        return normal_quantile(1.0 - self.alpha / 2.0)

    def reject_table(self, table: PathWeightTable) -> np.ndarray:
        return asymptotic_reject_array(table.wald_statistics(), self.alpha)


def _evaluate(table: PathWeightTable, reject: np.ndarray,
              th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rejection rates of the indicator ``reject`` and patient benefits at
    the validated points ``th``.

    Both are probabilities summed in floating point, which can overshoot
    ``[0, 1]`` by rounding (about 1e-15 at ``theta = (0, 1)``), so they are
    clipped to it.
    """
    f = np.asarray(reject, dtype=np.float64)
    fn = TerminalFunctional(np.column_stack([f, np.ones_like(f)]), table)
    per_block = fn.block_values(th)
    rates = per_block[:, :, 0].sum(axis=0)
    shares = fn.group_sizes / table.n
    superior = np.where(th[None, :, 0] > th[None, :, 1], shares[:, :1], shares[:, 1:])
    benefits = (superior * per_block[:, :, 1]).sum(axis=0)
    benefits[th[:, 0] == th[:, 1]] = 0.5
    return np.clip(rates, 0.0, 1.0), np.clip(benefits, 0.0, 1.0)


def rejection_rate(table: PathWeightTable, rule, theta: tuple[float, float]) -> float:
    """Exact rejection probability of ``rule`` under ``theta``."""
    rates, _ = _evaluate(table, rule.reject_table(table), theta_array([theta]))
    return float(rates[0])


def patient_benefit(table: PathWeightTable, theta: tuple[float, float]) -> float:
    """Expected proportion of participants allocated to the superior arm;
    exactly 1/2 by convention when the arms are equivalent."""
    _, benefits = _evaluate(table, np.zeros(table.layer.size), theta_array([theta]))
    return float(benefits[0])


@dataclass
class OcProfile:
    """Rejection rate and patient benefit over a grid of success rates."""

    thetas: list = field(repr=False)
    rejection_rates: np.ndarray = field(repr=False)
    patient_benefits: np.ndarray = field(repr=False)

    def __len__(self):
        return len(self.thetas)


def profile(table: PathWeightTable, rule, thetas) -> OcProfile:
    """Evaluate rejection rate and patient benefit over ``thetas`` in one
    batched pass; raises ``ValueError`` for an empty grid or a point that
    is NaN or outside ``[0, 1]``."""
    thetas = list(thetas)
    if not thetas:
        raise ValueError("empty evaluation grid")
    rates, bene = _evaluate(table, rule.reject_table(table), theta_array(thetas))
    return OcProfile(thetas, rates, bene)


def null_diagonal(points: int = 99) -> list[tuple[float, float]]:
    """Evenly spaced null grid ``theta_C = theta_D`` on (0, 1)."""
    vals = np.linspace(0.0, 1.0, points + 2)[1:-1]
    return [(float(v), float(v)) for v in vals]


def power_curves(theta_c_values, step: float = 0.01) -> list[tuple[float, float]]:
    """Curve family: for each anchor rate, sweep the developmental rate
    upward from it by ``step``."""
    if not 0.0 < step <= 1.0:
        raise ValueError(f"'step' = {step!r} is not in (0, 1]")
    out = []
    for tc in theta_c_values:
        td = np.arange(tc, 1.0 + 1e-12, step)
        out.extend((float(tc), float(min(v, 1.0))) for v in td)
    return out
