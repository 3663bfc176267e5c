"""Special functions and stable log-domain accumulation primitives.

All path coefficients and measure weights in this package are carried as
natural logarithms (with ``-inf`` encoding zero), so products of
per-participant probabilities become sums and the coefficients -- which
can reach ``2**n`` -- never overflow.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import gammaln, ndtri

NEG_INF = -np.inf


@lru_cache(maxsize=8)
def gammaln_table(size: int) -> np.ndarray:
    """``G[k] = ln Γ(k)`` for integer ``k`` in ``[0, size)``; ``G[0] = inf``."""
    g = gammaln(np.arange(size, dtype=np.float64))
    g.setflags(write=False)
    return g


def log_binom(n, k):
    """``ln C(n, k)`` for integer arrays or scalars."""
    n = np.asarray(n)
    k = np.asarray(k)
    g = gammaln_table(int(np.max(n)) + 2)
    return g[n + 1] - g[k + 1] - g[n - k + 1]


def normal_quantile(p: float) -> float:
    """Standard normal quantile ``z`` with ``Phi(z) = p``, ``p`` in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("normal_quantile requires p strictly inside (0, 1)")
    return float(ndtri(p))


def check_alpha(alpha: float, name: str = "alpha", bound: bool = False) -> None:
    """Raise ``ValueError`` naming ``alpha`` unless it is a test level in
    ``(0, 1)`` or, with ``bound=True``, a probability bound in ``[0, 1]``."""
    if not (0.0 <= alpha <= 1.0 if bound else 0.0 < alpha < 1.0):
        raise ValueError(f"{name} = {alpha!r} is not in {'[0, 1]' if bound else '(0, 1)'}")


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
