"""Special functions and stable log-domain accumulation primitives, in
numpy and the standard library alone.

Path coefficients are stored, and measure weights carried, as natural
logarithms (with ``-inf`` encoding zero), so products of per-participant
probabilities become sums and the coefficients -- which can reach
``2**n`` -- never overflow.  The forward sweep that builds the
coefficients works in the linear domain instead, on fair-coin path
probabilities in ``[0, 1]`` (see :mod:`rarexact.engine`).

The package only ever needs ``ln Γ`` at integers and normal quantiles at
a few test levels, so no special-function library is imported.
:func:`gammaln_table` ports the integer branch of the Cephes ``lgam``
routine, evaluated one scalar at a time with ``math.log``, and every
entry is bit-identical to Cephes (the tests check this on
``[0, 2·10**5)``).  That identity is load-bearing: the table feeds the
BRAR posterior, whose tail ``(1 - P)**e`` magnifies a one-ulp change in
it into a patient-benefit shift of up to 1.4e-7, and design artifacts
are compared byte for byte.  ``math.lgamma`` (up to 4 ulp away) and a
vectorized ``np.log`` (not correctly rounded everywhere) both break it.
:func:`normal_quantile` is the standard library's ``NormalDist``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist

import numpy as np

NEG_INF = -np.inf

# Cephes lgam: ln sqrt(2 pi) and the Stirling-series coefficients used
# below x = 1000, highest degree first
_LS2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)


def _lgamma_int(k: int) -> float:
    """``ln Γ(k)`` for an integer ``1 <= k <= 10**8``, as Cephes ``lgam``
    computes it: the log of the exact factorial below 13, the Stirling
    series above."""
    if k < 13:
        return math.log(float(math.factorial(k - 1)))
    x = float(k)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        series = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p \
            + 0.0833333333333333333333
    else:
        series = _STIRLING[0]
        for a in _STIRLING[1:]:
            series = series * p + a
    return q + series / x


@lru_cache(maxsize=8)
def _lgamma_ints(capacity: int) -> np.ndarray:
    g = np.fromiter((_lgamma_int(k) if k else math.inf for k in range(capacity)),
                    np.float64, capacity)
    g.setflags(write=False)
    return g


def gammaln_table(size: int) -> np.ndarray:
    """``G[k] = ln Γ(k)`` for integer ``k`` in ``[0, size)``; ``G[0] = inf``.

    A read-only view of one table per power-of-two capacity, so the
    per-layer sizes of a sweep share one scalar build."""
    return _lgamma_ints(1 << max(size - 1, 0).bit_length())[:size]


def log_binom(n, k):
    """``ln C(n, k)`` for integer arrays or scalars."""
    n = np.asarray(n)
    k = np.asarray(k)
    g = gammaln_table(int(np.max(n)) + 2)
    return g[n + 1] - g[k + 1] - g[n - k + 1]


def binomial_log_terms(theta, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``(s ln theta, s ln(1 - theta))`` for ``s = 0..m``, along a last axis
    added to ``theta``, with ``0 * ln 0 = 0``: at ``theta`` in ``{0, 1}``
    the entries are exact zeros and ``-inf``.

    The one place the binomial likelihood ``theta**s * (1 - theta)**(m - s)``
    gets its log terms; its readers slice, reverse or gather them.
    ``ln(1 - theta)`` is ``log1p(-theta)``, within an ulp, where
    ``log(1 - theta)`` first rounds ``1 - theta`` (6 ulp off at
    ``theta = 0.05``)."""
    theta = np.asarray(theta, dtype=np.float64)
    s = np.arange(m + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_t = np.where(s == 0, 0.0, s * np.log(theta)[..., None])
        ln_1t = np.where(s == 0, 0.0, s * np.log1p(-theta)[..., None])
    return ln_t, ln_1t


def normal_quantile(p: float) -> float:
    """Standard normal quantile ``z`` with ``Phi(z) = p``, ``p`` in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("normal_quantile requires p strictly inside (0, 1)")
    return NormalDist().inv_cdf(float(p))


def check_alpha(alpha: float, name: str = "alpha", bound: bool = False) -> None:
    """Raise ``ValueError`` naming ``alpha`` unless it is a test level in
    ``(0, 1)`` or, with ``bound=True``, a probability bound in ``[0, 1]``."""
    if not (0.0 <= alpha <= 1.0 if bound else 0.0 < alpha < 1.0):
        raise ValueError(f"{name} = {alpha!r} is not in {'[0, 1]' if bound else '(0, 1)'}")


def theta_array(thetas) -> np.ndarray:
    """Evaluation points as an ``(m, 2)`` float array of ``(theta_C,
    theta_D)`` rows; raises ``ValueError`` naming the first point that is
    NaN or outside ``[0, 1]``."""
    th = np.asarray(thetas, dtype=np.float64)
    if th.ndim != 2 or th.shape[1] != 2:
        raise ValueError("evaluation points must be (theta_C, theta_D) pairs")
    bad = ~((th >= 0.0) & (th <= 1.0))
    if np.any(bad):
        i = int(np.argmax(bad.any(axis=1)))
        raise ValueError(f"theta point {i} {tuple(th[i].tolist())} is not in [0, 1] x [0, 1]")
    return th


def logsumexp_fixed(values: np.ndarray) -> float:
    """Log-sum-exp reduced in the array's own (fixed) order.

    This is the canonical reduction used for every exposed scalar result;
    the order of ``values`` is part of the determinism contract.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return NEG_INF
    m = np.max(values)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(values - m))))
