"""Exact tests for adaptive designs: conditional (per total-success
stratum), unconditional, and the generalized Boschloo construction that
recycles conditional p-values as an unconditional statistic.

Null rejection probabilities are polynomials in the common success rate
whose Bernstein-basis coefficients are the stratum-wise conditional
rejection masses.  Every rule therefore ships with a *certificate*: a
sound upper bound on the null supremum obtained from the coefficient
bound, tightened by midpoint subdivision when needed, together with a
grid/line-search lower bound.  The certificate holds for one design
only, so a rule also records its design's digest
(:meth:`~rarexact.engine.PathWeightTable.digest`) and refuses any other.

The conditional rule and the Boschloo statistic read the same quantity,
the stratum mass on Wald statistics at least (or at most) as extreme as a
state's own, from one kernel (:func:`_stratum_tails`).  It sums each
stratum from each end, never subtracting running totals, so every tail
carries the relative accuracy of its own terms: a tail of mass 1e-30 is
not lost to the rounding of the stratum's other mass.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .engine import PathWeightTable
from .numerics import binomial_log_terms, check_alpha, log_binom

if TYPE_CHECKING:   # annotations stay strings at run time; io reads them
    import numpy.typing as npt

CERT_TOL = 1e-10
# relative + absolute slack when comparing accumulated tie-group masses to a
# level; keeps knife-edge groups that equal the level in exact arithmetic
MASS_SLACK_REL = 1e-12
MASS_SLACK_ABS = 1e-15
_MAX_BOXES = 200_000
# the golden-section search stops once its bracket is this narrow
LINE_SEARCH_XTOL = 1e-12
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# Bernstein-polynomial certification


@lru_cache(maxsize=8)
def _grid_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Binomial pmf basis on the certification grid with step ``1/(4n)``."""
    theta = np.arange(4 * n + 1) / (4.0 * n)
    return theta, _pmf_matrix(n, theta)


def _grid_values(coeffs: np.ndarray) -> np.ndarray:
    """The polynomial with Bernstein ``coeffs`` on the certification grid
    of :func:`_grid_basis`; every grid value is formed here, so callers
    compare values rounded the same way."""
    return np.einsum("ij,j->i", _grid_basis(coeffs.size - 1)[1], coeffs)


@lru_cache(maxsize=8)
def _log_binom_row(n: int) -> np.ndarray:
    """``ln C(n, k)`` for ``k = 0..n``, read-only: one build per horizon
    for every pmf row, midpoint weight and stratum mass."""
    row = log_binom(n, np.arange(n + 1))
    row.flags.writeable = False
    return row


def _pmf_matrix(n: int, theta: np.ndarray) -> np.ndarray:
    """Binomial pmf rows at ``theta``, with ``0 * ln 0 = 0`` (unit rows at
    ``theta`` in ``{0, 1}``)."""
    ln_s, ln_f = binomial_log_terms(theta, n)
    return np.exp(_log_binom_row(n) + ln_s + ln_f[:, ::-1])


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
    return np.exp(_log_binom_row(n) - n * np.log(2.0))


def _poly_value(coeffs: np.ndarray, theta: float) -> float:
    n = coeffs.size - 1
    return float(np.einsum("ij,j->i", _pmf_matrix(n, np.array([theta])), coeffs)[0])


def _golden_max(f, lo: float, hi: float) -> float:
    """Largest value of ``f`` met by a golden-section search for its
    maximum on ``[lo, hi]``, run until the bracket is
    ``LINE_SEARCH_XTOL`` wide."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    best = max(fc, fd)
    while hi - lo > LINE_SEARCH_XTOL:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
            best = max(best, fc)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
            best = max(best, fd)
    return best


@dataclass(frozen=True)
class RegionCertificate:
    """Sound bracket of the null supremum of a rejection region."""

    level: float
    accepted: bool
    certified_upper: float
    lower_bound: float


def certify_region(coeffs: np.ndarray, level: float) -> RegionCertificate:
    """Decide whether the null rejection polynomial stays at or below
    ``level`` (within ``CERT_TOL``), with a sound two-sided bracket.

    Accepts immediately when the coefficient bound suffices; otherwise the
    grid and a golden-section line search (:func:`_golden_max`) around
    the best grid point sharpen the lower bound while midpoint
    subdivision of the coefficient representation drives the upper bound
    down until the question is settled.

    Every evaluated value is a convex combination of coefficients, so its
    exact value is at most ``certified_upper``; rounding can lift it a few
    ulps above (a polynomial flat at its maximum), and the reported
    ``lower_bound`` is clipped there, so the bracket is never inverted.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = coeffs.size - 1
    upper = float(coeffs.max())
    if upper <= level + CERT_TOL:
        return RegionCertificate(level, True, upper, float(np.max(coeffs[[0, -1]])))

    theta, _ = _grid_basis(n)
    values = _grid_values(coeffs)
    jbest = int(np.argmax(values))
    lower = float(values[jbest])
    if lower <= level:
        lo = theta[max(jbest - 1, 0)]
        hi = theta[min(jbest + 1, theta.size - 1)]
        lower = max(lower, _golden_max(lambda th: _poly_value(coeffs, th), lo, hi))
    if lower > level:
        return RegionCertificate(level, False, upper, min(lower, upper))

    split = _split_matrix(n)
    wmid = _midpoint_weights(n)
    counter = 0
    heap = [(-upper, counter, coeffs)]
    for _ in range(_MAX_BOXES):
        upper = -heap[0][0]
        if upper <= level + CERT_TOL:
            return RegionCertificate(level, True, upper, min(lower, upper))
        if lower > level:
            return RegionCertificate(level, False, upper, min(lower, upper))
        _, _, c = heapq.heappop(heap)
        left = np.einsum("ij,j->i", split, c)
        right = np.einsum("ij,j->i", split, c[::-1])[::-1]
        lower = max(lower, float(np.dot(wmid, c)))
        for half in (left, right):
            counter += 1
            heapq.heappush(heap, (-float(half.max()), counter, half))
    raise RuntimeError("certification did not converge (numeric guard)")


def conditional_masses(table: PathWeightTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-state stratum conditional probabilities ``g / C(n, s)`` and the
    total-success stratum of every state; ``ln C(n, s)`` is read from the
    horizon's row of ``n + 1`` entries, into the one layer-sized buffer
    that becomes ``w``."""
    s = table.successes()
    w = _log_binom_row(table.n).take(s)
    np.subtract(table.log_g, w, out=w)
    return np.exp(w, out=w), s


def region_coefficients(table: PathWeightTable, reject: np.ndarray) -> np.ndarray:
    """Bernstein coefficients (stratum-wise conditional rejection masses)
    of a rejection region."""
    return _region_coefficients(*conditional_masses(table), reject, table.n)


def _region_coefficients(w, s, reject, n) -> np.ndarray:
    """:func:`region_coefficients` from the masses ``w`` and strata ``s``
    of :func:`conditional_masses`."""
    return np.bincount(s[reject], weights=w[reject], minlength=n + 1)


# ---------------------------------------------------------------------------
# tie-group machinery


def _group_starts(*sorted_keys: np.ndarray) -> np.ndarray:
    """Start positions of maximal runs of equal key tuples."""
    change = np.zeros(sorted_keys[0].size, dtype=bool)
    change[:1] = True
    for keys in sorted_keys:
        change[1:] |= keys[1:] != keys[:-1]
    return np.flatnonzero(change)


def _stratum_tails(key, w, s, n) -> tuple[np.ndarray, np.ndarray]:
    """Per state, the mass of its stratum on keys at least and at most its
    own, its whole tie group included.

    States are sorted once by stratum and descending key, and each stratum
    slice is summed from both ends.
    """
    order = np.lexsort((-key, s))
    ks = key[order]
    ws = w[order]
    ss = s[order]
    down = np.empty_like(ws)    # running mass from the stratum's largest key
    up = np.empty_like(ws)      # running mass from its smallest key
    bounds = np.searchsorted(ss, np.arange(n + 2))
    for beg, stop in zip(bounds[:-1], bounds[1:]):
        np.cumsum(ws[beg:stop], out=down[beg:stop])
        up[beg:stop] = np.cumsum(ws[beg:stop][::-1])[::-1]
    first = _group_starts(ks, ss)
    sizes = np.diff(first, append=ks.size)
    at_least = np.empty_like(ws)
    at_most = np.empty_like(ws)
    at_least[order] = np.repeat(down[first + sizes - 1], sizes)
    at_most[order] = np.repeat(up[first], sizes)
    return at_least, at_most


def _reverse_groups(order: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """From the stable ascending sort ``order`` of ``keys``, the stable
    ascending sort of ``-keys``: the tie groups in reverse order, each
    group's own order kept.

    The positions read from ``order`` rise by one inside a group and jump
    at the start of each reversed group, so they are one ``cumsum`` of
    steps; this keeps the temporaries few, as groups are nearly as many
    as states.
    """
    size = order.size
    starts = _group_starts(keys[order])
    # group k lands at size - ends[k], right after group k + 1, which
    # ended at ends[k + 1] - 1 (ends[k] is starts[k + 1], or size)
    step = starts[:-1] - np.append(starts[2:], size)
    step += 1
    pos = np.ones(size, dtype=np.intp)
    pos[size - starts[1:]] = step
    pos[0] = starts[-1]
    return order[np.cumsum(pos, out=pos)]


def _grow_prefix(keys, order, w, s, n, level):
    """Largest tie-group prefix, taking the states in the stable sort
    ``order`` of ``keys`` (ascending or descending), whose certified null
    supremum stays at or below ``level``.

    Returns ``(last_value, next_value, certificate)``: the key of the
    prefix's last state and of the first state after it (``None`` where
    there is none).  Acceptance is monotone in the number of groups: each
    further group adds non-negative masses to the Bernstein coefficients,
    so the null rejection polynomial only grows.  One bisection over the
    group count therefore finds the boundary with a logarithmic number of
    certifications; the empty prefix, all of whose coefficients are zero,
    is always accepted.
    """
    ks = keys[order]
    ws = w[order]
    ss = s[order]
    stops = np.append(_group_starts(ks), ks.size)   # stops[k]: end of the first k groups
    certs = {}

    def certificate(k: int) -> RegionCertificate:
        if k not in certs:
            stop = stops[k]
            coeffs = np.bincount(ss[:stop], weights=ws[:stop], minlength=n + 1)
            certs[k] = certify_region(coeffs, level)
        return certs[k]

    k = bisect.bisect_left(range(stops.size), True,
                           key=lambda k: not certificate(k).accepted) - 1
    end = stops[k]
    last = float(ks[end - 1]) if k else None
    nxt = float(ks[end]) if end < ks.size else None
    return last, nxt, certificate(k)


# ---------------------------------------------------------------------------
# rules


def _two_tail_reject(t, upper, upper_closed, lower, lower_closed) -> np.ndarray:
    """Statistics beyond either critical value, each bound inclusive where
    its tail is closed."""
    return (np.where(upper_closed, t >= upper, t > upper)
            | np.where(lower_closed, t <= lower, t < lower))


@dataclass
class ConditionalRule:
    """Per-stratum two-sided critical values at level ``alpha`` (each tail
    ``alpha/2`` within its stratum), one entry per success count."""

    alpha: float
    n: int
    design: str
    upper: npt.NDArray[np.float64] = field(repr=False)
    upper_closed: npt.NDArray[np.bool_] = field(repr=False)
    lower: npt.NDArray[np.float64] = field(repr=False)
    lower_closed: npt.NDArray[np.bool_] = field(repr=False)
    certificate: RegionCertificate | None = None

    kind = "conditional"

    def __post_init__(self):
        self.upper = np.asarray(self.upper, dtype=np.float64)
        self.upper_closed = np.asarray(self.upper_closed, dtype=bool)
        self.lower = np.asarray(self.lower, dtype=np.float64)
        self.lower_closed = np.asarray(self.lower_closed, dtype=bool)

    def reject_table(self, table: PathWeightTable) -> np.ndarray:
        _require_design(self, table)
        s = table.successes()
        return _two_tail_reject(table.wald_statistics(), self.upper[s], self.upper_closed[s],
                                self.lower[s], self.lower_closed[s])


@dataclass
class UnconditionalRule:
    """Single pair of critical values with certified null supremum at or
    below ``alpha/2`` per tail."""

    alpha: float
    n: int
    design: str
    upper: float
    upper_closed: bool
    lower: float
    lower_closed: bool
    upper_certificate: RegionCertificate
    lower_certificate: RegionCertificate
    certificate: RegionCertificate | None = None

    kind = "unconditional"

    def reject_table(self, table: PathWeightTable) -> np.ndarray:
        _require_design(self, table)
        return _two_tail_reject(table.wald_statistics(), self.upper, self.upper_closed,
                                self.lower, self.lower_closed)


@dataclass
class BoschlooRule:
    """One-sided unconditional rule on the conditional p-value statistic:
    reject when the p-value, recomputed from the table, falls strictly
    below ``threshold``."""

    alpha: float
    n: int
    design: str
    threshold: float            # smallest excluded statistic value
    largest_included: float | None
    certificate: RegionCertificate | None = None

    kind = "boschloo"

    def reject_table(self, table: PathWeightTable) -> np.ndarray:
        _require_design(self, table)
        return boschloo_statistic(table) < self.threshold


def _require_design(rule, table: PathWeightTable):
    """A rule's critical values and certificate hold only for the design
    they were built for: its horizon, then its :meth:`~PathWeightTable.digest`."""
    if table.n != rule.n:
        raise ValueError(f"the rule was built for horizon n = {rule.n}, "
                         f"the design has n = {table.n}")
    if table.digest() != rule.design:
        raise ValueError(f"the rule was built for design {rule.design!s:.8}, "
                         f"not for this design {table.digest():.8}")


def conditional_rule(table: PathWeightTable, alpha: float) -> ConditionalRule:
    """Two-sided conditional exact rule: within every total-success stratum
    the tie-group tail masses of the Wald statistic are accumulated up to
    ``alpha/2`` per side."""
    check_alpha(alpha)
    n = table.n
    t_stat = table.wald_statistics()
    w, s = conditional_masses(table)
    level = alpha / 2.0
    slack = level * MASS_SLACK_REL + MASS_SLACK_ABS

    at_least, at_most = _stratum_tails(t_stat, w, s, n)
    live = (np.bincount(s, weights=w, minlength=n + 1) > 0.0)[s]
    rej_up = live & (at_least <= level + slack)
    rej_lo = live & (at_most <= level + slack)
    # massless strata, and tails that reject nothing, keep the sentinels
    upper = np.full(n + 1, np.inf)
    np.minimum.at(upper, s[rej_up], t_stat[rej_up])
    lower = np.full(n + 1, -np.inf)
    np.maximum.at(lower, s[rej_lo], t_stat[rej_lo])
    upper_closed = np.bincount(s[rej_up], minlength=n + 1) > 0
    lower_closed = np.bincount(s[rej_lo], minlength=n + 1) > 0

    rule = ConditionalRule(alpha, n, table.digest(), upper, upper_closed, lower, lower_closed)
    reject = rule.reject_table(table)
    rule.certificate = certify_region(_region_coefficients(w, s, reject, n), alpha)
    return rule


def unconditional_rule(table: PathWeightTable, alpha: float) -> UnconditionalRule:
    """Two-sided unconditional exact rule: each tail grows tie group by tie
    group while its certified null supremum stays at or below ``alpha/2``."""
    check_alpha(alpha)
    n = table.n
    t_stat = table.wald_statistics()
    w, s = conditional_masses(table)
    level = alpha / 2.0

    order = np.argsort(t_stat, kind="stable")
    lo_last, _, lo_cert = _grow_prefix(t_stat, order, w, s, n, level)
    # one sort serves both tails: the stable sort of -t_stat, which the
    # upper tail grows along, is this one with its tie groups reversed
    order = _reverse_groups(order, t_stat)
    up_last, _, up_cert = _grow_prefix(t_stat, order, w, s, n, level)

    upper = up_last if up_last is not None else np.inf
    lower = lo_last if lo_last is not None else -np.inf
    rule = UnconditionalRule(
        alpha, n, table.digest(),
        float(upper), up_last is not None,
        float(lower), lo_last is not None,
        up_cert, lo_cert,
    )
    reject = rule.reject_table(table)
    rule.certificate = certify_region(_region_coefficients(w, s, reject, n), alpha)
    return rule


def boschloo_statistic(table: PathWeightTable) -> np.ndarray:
    """Conditional p-value of the two-sided Wald test given the total
    successes: the stratum mass of ``|T|`` at least as large, ties included.
    Each p-value is a forward sum of its own stratum's terms, so it is
    accurate relative to its size, and a state of positive mass never
    has p = 0."""
    return _boschloo_statistic(table, *conditional_masses(table))


def _boschloo_statistic(table: PathWeightTable, w, s) -> np.ndarray:
    """:func:`boschloo_statistic` from the masses ``w`` and strata ``s`` of
    :func:`conditional_masses`."""
    return _stratum_tails(np.abs(table.wald_statistics()), w, s, table.n)[0]


def boschloo_rule(table: PathWeightTable, alpha: float) -> BoschlooRule:
    """Generalized Boschloo rule: one-sided unconditional growth on the
    conditional p-value statistic, rejecting small values, at full level
    ``alpha``."""
    check_alpha(alpha)
    w, s = conditional_masses(table)
    stat = _boschloo_statistic(table, w, s)
    last, nxt, cert = _grow_prefix(stat, np.argsort(stat, kind="stable"), w, s, table.n, alpha)
    threshold = nxt if nxt is not None else np.inf
    return BoschlooRule(alpha, table.n, table.digest(), float(threshold), last, cert)
