"""The Wald statistic for the difference of success rates, and the
two-sided asymptotic test based on it.

When both estimated rates sit on the boundary the statistic degenerates
to ``sign(difference) * inf`` with ``0 * inf = 0``; the infinities are
kept as native floats and order like any other value.
"""

from __future__ import annotations

import numpy as np

from .numerics import normal_quantile
from .states import Layer


def wald_statistics(s_c, s_d, n_c, n_d) -> np.ndarray:
    """Wald statistics ``(d - c) / se`` of states given as arrays, ``c`` and
    ``d`` the per-arm success proportions and ``se`` their unpooled
    standard error."""
    if np.any(n_c == 0) or np.any(n_d == 0):
        raise ValueError("Wald statistic requires both group sizes positive")
    tc = s_c / n_c
    td = s_d / n_d
    interior = ((tc > 0) & (tc < 1)) | ((td > 0) & (td < 1))
    se = np.sqrt(tc * (1.0 - tc) / n_c + td * (1.0 - td) / n_d)
    diff = td - tc
    with np.errstate(divide="ignore", invalid="ignore"):
        t_int = diff / se
    t_ext = np.where(diff > 0, np.inf, np.where(diff < 0, -np.inf, 0.0))
    return np.where(interior, t_int, t_ext)


def layer_wald_statistics(lay: Layer) -> np.ndarray:
    """:func:`wald_statistics` of every state of a layer (burn-in >= 1)."""
    if lay.n_c_min < 1 or lay.n_c_max > lay.t - 1:
        raise ValueError("layer contains states with an empty group")
    return wald_statistics(*lay.arrays())


def asymptotic_reject_array(t: np.ndarray, alpha: float) -> np.ndarray:
    return np.abs(t) >= normal_quantile(1.0 - alpha / 2.0)
