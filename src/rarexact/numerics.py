"""Special functions and stable log-domain accumulation primitives.

All path coefficients and measure weights in this package are carried as
natural logarithms (with ``-inf`` encoding zero), so products of
per-participant probabilities become sums and the coefficients -- which
can reach ``2**n`` -- never overflow.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import betainc, gammaln, ndtri

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


def log_beta(a, b):
    """``ln B(a, b)`` via log-gamma; accepts scalars or arrays, all > 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("log_beta requires positive arguments")
    return gammaln(a) + gammaln(b) - gammaln(a + b)


def beta_cdf(x, a, b):
    """Regularized incomplete beta ``I_x(a, b)``."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("beta_cdf requires x in [0, 1]")
    if np.any(np.asarray(a) <= 0) or np.any(np.asarray(b) <= 0):
        raise ValueError("beta_cdf requires positive shape parameters")
    return betainc(a, b, x)


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


def _beta_exceedance_sum(a1: int, b1: int, a2: int, b2: int) -> float:
    """``P(Y > X)`` for ``X ~ Beta(a1, b1)``, ``Y ~ Beta(a2, b2)``, integer
    parameters, via the exact finite sum over the ``a2`` mass terms."""
    g = gammaln_table(a1 + b1 + a2 + b2 + 2)
    lb_a1b1 = g[a1] + g[b1] - g[a1 + b1]
    i = np.arange(a2)
    log_terms = (
        (g[a1 + i] + g[b1 + b2] - g[a1 + i + b1 + b2])
        - np.log(b2 + i)
        - (g[1 + i] + g[b2] - g[1 + i + b2])
        - lb_a1b1
    )
    return float(math.fsum(np.exp(log_terms)))


def prob_beta_greater(a1: int, b1: int, a2: int, b2: int) -> float:
    """``P(X > Y)`` for independent ``X ~ Beta(a1, b1)``, ``Y ~ Beta(a2, b2)``.

    Parameters must be positive integers (posterior counts plus one under
    a uniform prior).  Uses the exact summation identity; the smaller tail
    is summed directly so both ``P`` and ``1 - P`` are accurate.
    """
    for v in (a1, b1, a2, b2):
        if int(v) != v or v < 1:
            raise ValueError("prob_beta_greater requires positive integer parameters")
    a1, b1, a2, b2 = int(a1), int(b1), int(a2), int(b2)
    if a1 * b2 >= a2 * b1:
        # P(X > Y) is the larger side; sum its complement directly
        return 1.0 - _beta_exceedance_sum(a1, b1, a2, b2)
    return _beta_exceedance_sum(a2, b2, a1, b1)


def log_prob_beta_greater(a1: int, b1: int, a2: int, b2: int) -> tuple[float, float]:
    """``(ln P(X > Y), ln P(Y > X))``, each accurate in its own scale."""
    s_xy = _beta_exceedance_sum(a2, b2, a1, b1)   # P(X > Y) as a direct sum
    s_yx = _beta_exceedance_sum(a1, b1, a2, b2)   # P(Y > X) as a direct sum
    if s_xy <= s_yx:
        return math.log(s_xy), math.log1p(-s_xy)
    return math.log1p(-s_yx), math.log(s_yx)


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
