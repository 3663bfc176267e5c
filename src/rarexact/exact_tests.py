"""Exact tests for adaptive designs: conditional (per total-success
stratum), unconditional, and the generalized Boschloo construction that
recycles conditional p-values as an unconditional statistic.

Null rejection probabilities are polynomials in the common success rate
whose Bernstein-basis coefficients are the stratum-wise conditional
rejection masses.  Every rule therefore ships with a *certificate*: a
sound upper bound on the null supremum obtained from the coefficient
bound, tightened by midpoint subdivision when needed, together with a
grid/line-search lower bound.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar

from .engine import PathWeightTable
from .numerics import check_alpha, log_binom

CERT_TOL = 1e-10
# relative + absolute slack when comparing accumulated tie-group masses to a
# level; keeps knife-edge groups that equal the level in exact arithmetic
MASS_SLACK_REL = 1e-12
MASS_SLACK_ABS = 1e-15
_MAX_BOXES = 200_000


# ---------------------------------------------------------------------------
# Bernstein-polynomial certification


@lru_cache(maxsize=8)
def _grid_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Binomial pmf basis on the certification grid with step ``1/(4n)``."""
    theta = np.arange(4 * n + 1) / (4.0 * n)
    return theta, _pmf_matrix(n, theta)


def _pmf_matrix(n: int, theta: np.ndarray) -> np.ndarray:
    """Binomial pmf rows at ``theta``, with ``0 * ln 0 = 0`` (unit rows at
    ``theta`` in ``{0, 1}``)."""
    s = np.arange(n + 1)
    th = theta[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_s = np.where(s == 0, 0.0, s * np.log(th))
        ln_f = np.where(s == n, 0.0, (n - s) * np.log1p(-th))
    return np.exp(log_binom(n, s) + ln_s + ln_f)


@lru_cache(maxsize=8)
def _split_matrix(n: int) -> np.ndarray:
    """Midpoint de Casteljau matrix: left-half coefficients are
    ``M @ c`` with ``M[j, i] = C(j, i) / 2**j``."""
    j = np.arange(n + 1)[:, None]
    i = np.arange(n + 1)[None, :]
    with np.errstate(divide="ignore"):
        logm = (
            np.where(i <= j, log_binom(np.broadcast_to(j, (n + 1, n + 1)),
                                       np.minimum(i, j)), -np.inf)
            - j * np.log(2.0)
        )
    return np.exp(logm)


@lru_cache(maxsize=8)
def _midpoint_weights(n: int) -> np.ndarray:
    return np.exp(log_binom(n, np.arange(n + 1)) - n * np.log(2.0))


def _poly_value(coeffs: np.ndarray, theta: float) -> float:
    n = coeffs.size - 1
    return float(np.einsum("ij,j->i", _pmf_matrix(n, np.array([theta])), coeffs)[0])


@dataclass(frozen=True)
class RegionCertificate:
    """Sound bracket of the null supremum of a rejection region."""

    level: float
    accepted: bool
    certified_upper: float
    lower_bound: float


def certify_region(coeffs: np.ndarray, level: float, tol: float = CERT_TOL) -> RegionCertificate:
    """Decide whether the null rejection polynomial stays at or below
    ``level`` (within ``tol``), with a sound two-sided bracket.

    Accepts immediately when the coefficient bound suffices; otherwise the
    grid and a bounded line search sharpen the lower bound while midpoint
    subdivision of the coefficient representation drives the upper bound
    down until the question is settled.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = coeffs.size - 1
    upper = float(coeffs.max())
    if upper <= level + tol:
        return RegionCertificate(level, True, upper, float(np.max(coeffs[[0, -1]])))

    theta, basis = _grid_basis(n)
    values = np.einsum("ij,j->i", basis, coeffs)
    jbest = int(np.argmax(values))
    lower = float(values[jbest])
    if lower <= level:
        lo = theta[max(jbest - 1, 0)]
        hi = theta[min(jbest + 1, theta.size - 1)]
        res = minimize_scalar(
            lambda th: -_poly_value(coeffs, th),
            bounds=(lo, hi), method="bounded", options={"xatol": 1e-12},
        )
        lower = max(lower, float(-res.fun))
    if lower > level:
        return RegionCertificate(level, False, upper, lower)

    split = _split_matrix(n)
    wmid = _midpoint_weights(n)
    counter = 0
    heap = [(-upper, counter, coeffs)]
    for _ in range(_MAX_BOXES):
        upper = -heap[0][0]
        if upper <= level + tol:
            return RegionCertificate(level, True, upper, lower)
        if lower > level:
            return RegionCertificate(level, False, upper, lower)
        _, _, c = heapq.heappop(heap)
        left = np.einsum("ij,j->i", split, c)
        right = np.einsum("ij,j->i", split, c[::-1])[::-1]
        lower = max(lower, float(np.dot(wmid, c)))
        for half in (left, right):
            counter += 1
            heapq.heappush(heap, (-float(half.max()), counter, half))
    raise RuntimeError("certification did not converge (numeric guard)")


def bernstein_tail_sup(table: PathWeightTable, reject: np.ndarray) -> tuple[float, float]:
    """``(grid lower bound, coefficient upper bound)`` for the null
    probability of an arbitrary terminal rejection indicator."""
    coeffs = region_coefficients(table, np.asarray(reject, dtype=bool))
    n = table.n
    upper = float(coeffs.max())
    _, basis = _grid_basis(n)
    lower = float(np.max(np.einsum("ij,j->i", basis, coeffs)))
    return lower, upper


def conditional_masses(table: PathWeightTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-state stratum conditional probabilities ``g / C(n, s)`` and the
    total-success stratum of every state."""
    s = table.successes()
    w = np.exp(table.log_g - log_binom(table.n, s))
    return w, s


def region_coefficients(table: PathWeightTable, reject: np.ndarray) -> np.ndarray:
    """Bernstein coefficients (stratum-wise conditional rejection masses)
    of a rejection region."""
    w, s = conditional_masses(table)
    return np.bincount(s[reject], weights=w[reject], minlength=table.n + 1)


# ---------------------------------------------------------------------------
# tie-group machinery


def _group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Start positions of maximal runs of equal key values."""
    if sorted_keys.size == 0:
        return np.zeros(0, dtype=np.int64)
    change = np.empty(sorted_keys.size, dtype=bool)
    change[0] = True
    change[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return np.flatnonzero(change)


def _grow_prefix(keys, w, s, n, level):
    """Largest tie-group prefix (by ascending ``keys``) whose certified null
    supremum stays at or below ``level``.

    Returns ``(end, last_value, next_value, certificate)`` with ``end`` the
    flat prefix length in the sorted order; galloping plus binary search
    keeps the number of certifications logarithmic in the group count.
    """
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    ws = w[order]
    ss = s[order]
    starts = _group_starts(ks)
    ends = np.append(starts[1:], ks.size)
    n_groups = starts.size

    def accepted(k_groups: int) -> RegionCertificate:
        stop = int(ends[k_groups - 1]) if k_groups else 0
        coeffs = np.bincount(ss[:stop], weights=ws[:stop], minlength=n + 1)
        return certify_region(coeffs, level)

    # gallop out to the first failing group count
    lo, hi = 0, 1
    cert_lo = accepted(0)
    while hi <= n_groups:
        cert = accepted(hi)
        if cert.accepted:
            lo, cert_lo = hi, cert
            hi *= 2
        else:
            break
    else:
        hi = n_groups + 1
    hi = min(hi, n_groups + 1)
    # invariant: lo accepted, hi rejected (or past the end)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        cert = accepted(mid)
        if cert.accepted:
            lo, cert_lo = mid, cert
        else:
            hi = mid
    end = int(ends[lo - 1]) if lo else 0
    last = float(ks[end - 1]) if lo else None
    nxt = float(ks[end]) if end < ks.size else None
    mask = np.zeros(keys.size, dtype=bool)
    mask[order[:end]] = True
    return mask, last, nxt, cert_lo


# ---------------------------------------------------------------------------
# rules


def _tail_reject(t, crit, closed, side):
    if side == "upper":
        return (t >= crit) if closed else (t > crit)
    return (t <= crit) if closed else (t < crit)


@dataclass
class ConditionalRule:
    """Per-stratum two-sided critical values at level ``alpha`` (each tail
    ``alpha/2`` within its stratum)."""

    alpha: float
    n: int
    upper: np.ndarray = field(repr=False)
    upper_closed: np.ndarray = field(repr=False)
    lower: np.ndarray = field(repr=False)
    lower_closed: np.ndarray = field(repr=False)
    certificate: RegionCertificate | None = None

    kind = "conditional"

    def reject(self, t: np.ndarray, s: np.ndarray) -> np.ndarray:
        up = self.upper[s]
        lo = self.lower[s]
        rej_up = np.where(self.upper_closed[s], t >= up, t > up)
        rej_lo = np.where(self.lower_closed[s], t <= lo, t < lo)
        return rej_up | rej_lo

    def reject_table(self, table: PathWeightTable) -> np.ndarray:
        return self.reject(table.wald_statistics(), table.successes())


@dataclass
class UnconditionalRule:
    """Single pair of critical values with certified null supremum at or
    below ``alpha/2`` per tail."""

    alpha: float
    n: int
    upper: float
    upper_closed: bool
    lower: float
    lower_closed: bool
    upper_certificate: RegionCertificate
    lower_certificate: RegionCertificate
    certificate: RegionCertificate | None = None

    kind = "unconditional"

    def reject(self, t: np.ndarray, s=None) -> np.ndarray:
        return (
            _tail_reject(t, self.upper, self.upper_closed, "upper")
            | _tail_reject(t, self.lower, self.lower_closed, "lower")
        )

    def reject_table(self, table: PathWeightTable) -> np.ndarray:
        return self.reject(table.wald_statistics())


@dataclass
class BoschlooRule:
    """One-sided unconditional rule on the conditional p-value statistic:
    reject when the p-value falls strictly below ``threshold``."""

    alpha: float
    n: int
    threshold: float            # smallest excluded statistic value
    largest_included: float | None
    stat: np.ndarray | None = field(repr=False, default=None)  # canonical order
    certificate: RegionCertificate | None = None

    kind = "boschloo"

    def reject(self, stat: np.ndarray | None = None, s=None) -> np.ndarray:
        stat = self.stat if stat is None else stat
        if stat is None:
            raise ValueError("rule has no statistic table; use reject_table")
        return stat < self.threshold

    def reject_table(self, table: PathWeightTable) -> np.ndarray:
        stat = self.stat
        if stat is None:
            stat = boschloo_statistic(table)
        elif table.log_g.size != stat.size:
            raise ValueError("table does not match the rule's layer")
        return self.reject(stat)


def _require_burn_in(table: PathWeightTable):
    if table.layer.n_c_min < 1 or table.layer.n_c_max > table.n - 1:
        raise ValueError("exact rules require a burn-in of at least one per arm")


def conditional_rule(table: PathWeightTable, alpha: float) -> ConditionalRule:
    """Two-sided conditional exact rule: within every total-success stratum
    the tie-group tail masses of the Wald statistic are accumulated up to
    ``alpha/2`` per side."""
    check_alpha(alpha)
    _require_burn_in(table)
    n = table.n
    t_stat = table.wald_statistics()
    w, s = conditional_masses(table)
    level = alpha / 2.0
    slack = level * MASS_SLACK_REL + MASS_SLACK_ABS

    upper = np.full(n + 1, np.inf)
    upper_closed = np.zeros(n + 1, dtype=bool)
    lower = np.full(n + 1, -np.inf)
    lower_closed = np.zeros(n + 1, dtype=bool)

    order = np.lexsort((-t_stat, s))
    ts = t_stat[order]
    ws = w[order]
    ss = s[order]
    stratum_starts = np.searchsorted(ss, np.arange(n + 2))
    for sp in range(n + 1):
        beg, stop = stratum_starts[sp], stratum_starts[sp + 1]
        if beg == stop or np.sum(ws[beg:stop]) == 0.0:
            continue  # empty stratum keeps its sentinels
        tv = ts[beg:stop]
        wv = ws[beg:stop]
        for side in ("upper", "lower"):
            vals = tv if side == "upper" else tv[::-1]
            mass = wv if side == "upper" else wv[::-1]
            starts = _group_starts(vals)
            ends = np.append(starts[1:], vals.size)
            cums = np.cumsum(mass)[ends - 1]
            ok = cums <= level + slack
            k = int(np.argmin(ok)) if not ok.all() else starts.size
            if k == 0:
                continue
            crit = float(vals[ends[k - 1] - 1])
            if side == "upper":
                upper[sp] = crit
                upper_closed[sp] = True
            else:
                lower[sp] = crit
                lower_closed[sp] = True

    rule = ConditionalRule(alpha, n, upper, upper_closed, lower, lower_closed)
    rule.certificate = certify_region(
        region_coefficients(table, rule.reject(t_stat, s)), alpha
    )
    return rule


def unconditional_rule(table: PathWeightTable, alpha: float) -> UnconditionalRule:
    """Two-sided unconditional exact rule: each tail grows tie group by tie
    group while its certified null supremum stays at or below ``alpha/2``."""
    check_alpha(alpha)
    _require_burn_in(table)
    n = table.n
    t_stat = table.wald_statistics()
    w, s = conditional_masses(table)
    level = alpha / 2.0

    up_mask, up_last, _, up_cert = _grow_prefix(-t_stat, w, s, n, level)
    lo_mask, lo_last, _, lo_cert = _grow_prefix(t_stat, w, s, n, level)

    upper = -up_last if up_last is not None else np.inf
    lower = lo_last if lo_last is not None else -np.inf
    rule = UnconditionalRule(
        alpha, n,
        float(upper), up_last is not None,
        float(lower), lo_last is not None,
        up_cert, lo_cert,
    )
    rule.certificate = certify_region(
        region_coefficients(table, rule.reject(t_stat)), alpha
    )
    return rule


def boschloo_statistic(table: PathWeightTable) -> np.ndarray:
    """Conditional p-value of the two-sided Wald test given the total
    successes: the stratum mass of statistics at least as extreme."""
    _require_burn_in(table)
    n = table.n
    abs_t = np.abs(table.wald_statistics())
    w, s = conditional_masses(table)

    order = np.lexsort((-abs_t, s))
    av = abs_t[order]
    wv = w[order]
    sv = s[order]
    cs = np.cumsum(wv)
    stratum_starts = np.searchsorted(sv, np.arange(n + 2))
    base = np.zeros(av.size)
    for sp in range(n + 1):
        beg, stop = stratum_starts[sp], stratum_starts[sp + 1]
        if beg < stop:
            base[beg:stop] = cs[beg - 1] if beg > 0 else 0.0
    rel = cs - base

    new_group = np.empty(av.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = (av[1:] != av[:-1]) | (sv[1:] != sv[:-1])
    gid = np.cumsum(new_group) - 1
    last_of_group = np.flatnonzero(np.append(new_group[1:], True))
    inclusive = rel[last_of_group]
    out = np.empty(av.size)
    out[order] = inclusive[gid]
    return out


def boschloo_rule(table: PathWeightTable, alpha: float) -> BoschlooRule:
    """Generalized Boschloo rule: one-sided unconditional growth on the
    conditional p-value statistic, rejecting small values, at full level
    ``alpha``."""
    check_alpha(alpha)
    stat = boschloo_statistic(table)
    w, s = conditional_masses(table)
    mask, last, nxt, cert = _grow_prefix(stat, w, s, table.n, alpha)
    threshold = nxt if nxt is not None else np.inf
    rule = BoschlooRule(alpha, table.n, float(threshold), last, stat, cert)
    return rule
