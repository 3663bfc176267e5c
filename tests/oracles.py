"""Independent brute-force reference implementations used by the tests.

Everything here works on plain dicts keyed by ``(s_c, s_d, n_c, n_d)``
tuples and enumerates histories or candidate rules directly, touching
none of the package's indexing or sweep machinery.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import betainc, gammaln


def wald_ref(s_c, s_d, n_c, n_d):
    tc = s_c / n_c
    td = s_d / n_d
    if 0 < tc < 1 or 0 < td < 1:
        return (td - tc) / math.sqrt(tc * (1 - tc) / n_c + td * (1 - td) / n_d)
    if td > tc:
        return math.inf
    if td < tc:
        return -math.inf
    return 0.0


def enumerate_path_weights(prob_fn, n, b):
    """Sum allocation-path probabilities over every history of length ``n``.

    ``prob_fn(state_tuple)`` gives the control probability at epochs past
    the burn-in; the first ``2b`` arms alternate (control first) with
    probability one.  Returns ``{terminal state tuple: weight}``.
    """
    prob_fn = functools.lru_cache(maxsize=None)(prob_fn)
    weights = {}
    for arms in itertools.product("CD", repeat=n):
        if any(arms[t] != ("C" if t % 2 == 0 else "D") for t in range(2 * b)):
            continue
        for outcomes in itertools.product((0, 1), repeat=n):
            s_c = s_d = n_c = n_d = 0
            prob = 1.0
            ok = True
            for t in range(n):
                if t >= 2 * b:
                    q = prob_fn((s_c, s_d, n_c, n_d))
                    prob *= q if arms[t] == "C" else (1.0 - q)
                    if prob == 0.0:
                        ok = False
                        break
                if arms[t] == "C":
                    n_c += 1
                    s_c += outcomes[t]
                else:
                    n_d += 1
                    s_d += outcomes[t]
            if ok:
                key = (s_c, s_d, n_c, n_d)
                weights[key] = weights.get(key, 0.0) + prob
    return weights


def enumerate_layer_states(t, b):
    """All admissible states at epoch ``t``: brute force over histories of
    length ``t`` (alternating burn-in) collapsed to their statistics."""
    seen = set()
    for arms in itertools.product("CD", repeat=t):
        if any(arms[u] != ("C" if u % 2 == 0 else "D") for u in range(min(2 * b, t))):
            continue
        n_c = arms.count("C")
        if t >= 2 * b and not (b <= n_c <= t - b):
            continue
        for outcomes in itertools.product((0, 1), repeat=t):
            s_c = sum(o for a, o in zip(arms, outcomes) if a == "C")
            s_d = sum(o for a, o in zip(arms, outcomes) if a == "D")
            seen.add((s_c, s_d, n_c, t - n_c))
    return seen


def expectation_ref(weights, f, theta):
    """Exact expectation of ``f(state)`` from a brute-force weight dict."""
    tc, td = theta
    total = 0.0
    for (s_c, s_d, n_c, n_d), g in weights.items():
        lik = (tc ** s_c) * ((1 - tc) ** (n_c - s_c)) * (td ** s_d) * ((1 - td) ** (n_d - s_d))
        total += f((s_c, s_d, n_c, n_d)) * g * lik
    return total


def _log_count_prob(count, prob):
    """``count * ln(prob)`` with ``0 * ln 0 = 0``."""
    if prob == 0.0:
        return np.where(count == 0, 0.0, -np.inf)
    return count * np.log(prob)


def log_likelihood_weight(x, theta):
    """Log outcome likelihood of the state ``x`` (any object with ``s_c``,
    ``s_d``, ``n_c``, ``n_d``): each success contributes ``ln(theta_a)`` and
    each failure ``ln(1 - theta_a)``."""
    tc, td = theta
    return float(
        _log_count_prob(x.s_c, tc)
        + _log_count_prob(x.n_c - x.s_c, 1.0 - tc)
        + _log_count_prob(x.s_d, td)
        + _log_count_prob(x.n_d - x.s_d, 1.0 - td)
    )


def _log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def measure_log_weight(x, measure):
    """Log outcome likelihood of the state ``x`` integrated over the prior
    ``measure`` (a ``rarexact.cmdp`` measure), one state at a time from
    ``math.lgamma`` and the regularized incomplete beta function."""
    kind = type(measure).__name__
    if kind == "AltUniform":
        return _log_beta(x.s_c + 1, x.n_c - x.s_c + 1) + _log_beta(x.s_d + 1, x.n_d - x.s_d + 1)
    if kind == "NullUniform":
        s, t = x.s_c + x.s_d, x.n_c + x.n_d
        return _log_beta(s + 1, t - s + 1)
    if kind == "PointNull":
        return log_likelihood_weight(x, (measure.theta0, measure.theta0))
    if kind == "Rectangle":
        total = 0.0
        for s, m, lo, hi in ((x.s_c, x.n_c, measure.l_c, measure.u_c),
                             (x.s_d, x.n_d, measure.l_d, measure.u_d)):
            a, b = s + 1, m - s + 1
            # the interval's Beta(a, b) mass from whichever tail cancels less
            mass = max(betainc(a, b, hi) - betainc(a, b, lo),
                       betainc(b, a, 1.0 - lo) - betainc(b, a, 1.0 - hi))
            total += math.log(mass) - math.log(hi - lo) + _log_beta(a, b)
        return total
    raise TypeError(f"unknown measure {measure!r}")


def _beta_exceedance_sum(a1, b1, a2, b2):
    """``P(Y > X)`` for ``X ~ Beta(a1, b1)``, ``Y ~ Beta(a2, b2)``, integer
    parameters, via the exact finite sum over the ``a2`` mass terms."""
    g = gammaln(np.arange(a1 + b1 + a2 + b2 + 2, dtype=np.float64))
    lb_a1b1 = g[a1] + g[b1] - g[a1 + b1]
    i = np.arange(a2)
    log_terms = (
        (g[a1 + i] + g[b1 + b2] - g[a1 + i + b1 + b2])
        - np.log(b2 + i)
        - (g[1 + i] + g[b2] - g[1 + i + b2])
        - lb_a1b1
    )
    return math.fsum(np.exp(log_terms))


def prob_beta_greater(a1, b1, a2, b2):
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


def _logsumexp(values):
    m = np.max(values)
    if not np.isfinite(m):
        return m
    return m + np.log(np.sum(np.exp(values - m)))


def log_domain_expectation_ref(f, log_g, s_c, s_d, n_c, n_d, theta):
    """Expectation of the terminal function ``f`` at one point ``theta``,
    one log-sum-exp over every terminal state per sign of ``f``.

    Takes the path weights ``log_g`` and the per-state statistics as flat
    arrays; the positive and negative parts of ``f`` are reduced
    separately, so any finite ``f`` works.
    """
    tc, td = theta
    ll = (
        _log_count_prob(s_c, tc)
        + _log_count_prob(n_c - s_c, 1.0 - tc)
        + _log_count_prob(s_d, td)
        + _log_count_prob(n_d - s_d, 1.0 - td)
    )
    f = np.asarray(f, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_af = np.log(np.abs(f))
    pos = np.where(f > 0, log_af + log_g, -np.inf) + ll
    neg = np.where(f < 0, log_af + log_g, -np.inf) + ll
    return float(np.exp(_logsumexp(pos)) - np.exp(_logsumexp(neg)))


def conditional_masses_ref(weights, n):
    """Per-state conditional probability given the total successes."""
    return {
        state: g / math.comb(n, state[0] + state[1])
        for state, g in weights.items()
    }


def conditional_rule_ref(weights, n, alpha):
    """Full-scan conditional critical values with atomic tie groups.

    Returns ``{stratum: (lower, upper)}`` with ``None`` for a tail that
    cannot reject.
    """
    masses = conditional_masses_ref(weights, n)
    strata = {}
    for (s_c, s_d, n_c, n_d), w in masses.items():
        strata.setdefault(s_c + s_d, []).append((wald_ref(s_c, s_d, n_c, n_d), w))
    rules = {}
    for sp, items in strata.items():
        total = sum(w for _, w in items)
        if total == 0.0:
            rules[sp] = (None, None)
            continue
        values = sorted({t for t, _ in items})
        upper = None
        for v in values[::-1]:
            tail = sum(w for t, w in items if t >= v)
            if tail <= alpha / 2 + 1e-13:
                upper = v
            else:
                break
        lower = None
        for v in values:
            tail = sum(w for t, w in items if t <= v)
            if tail <= alpha / 2 + 1e-13:
                lower = v
            else:
                break
        rules[sp] = (lower, upper)
    return rules


def null_sup_dense(weights, n, reject, grid=200_001):
    """Dense-grid supremum over the null of the rejection probability."""
    coeffs = [0.0] * (n + 1)
    for state, w in conditional_masses_ref(weights, n).items():
        if reject(state):
            coeffs[state[0] + state[1]] += w
    best = 0.0
    for j in range(grid):
        th = j / (grid - 1)
        val = sum(
            c * math.comb(n, s) * th ** s * (1 - th) ** (n - s)
            for s, c in enumerate(coeffs) if c
        )
        best = max(best, val)
    return best


def unconditional_rule_ref(weights, n, alpha, grid=20_001):
    """Brute-force search over tie-group prefixes for both tails, dense-grid
    supremum deciding admissibility.  Returns ``(lower, upper)`` attained
    critical values (``None`` when a tail rejects nothing)."""
    states = list(weights)
    t_of = {s: wald_ref(*s) for s in states}
    values = sorted({t_of[s] for s in states})
    upper = None
    for v in values[::-1]:
        sup = null_sup_dense(weights, n, lambda s: t_of[s] >= v, grid)
        if sup <= alpha / 2 + 1e-12:
            upper = v
        else:
            break
    lower = None
    for v in values:
        sup = null_sup_dense(weights, n, lambda s: t_of[s] <= v, grid)
        if sup <= alpha / 2 + 1e-12:
            lower = v
        else:
            break
    return lower, upper


def boschloo_statistic_ref(weights, n):
    """Double-loop conditional p-values within total-success strata."""
    masses = conditional_masses_ref(weights, n)
    out = {}
    for state in masses:
        sp = state[0] + state[1]
        t_abs = abs(wald_ref(*state))
        out[state] = sum(
            w
            for other, w in masses.items()
            if other[0] + other[1] == sp and abs(wald_ref(*other)) >= t_abs
        )
    return out


def backward_value_ref(reward_fn, n, b, actions):
    """Optimal value by direct recursion over the history tree (never
    collapsing to sufficient statistics)."""

    def rec(s_c, s_d, n_c, n_d):
        t = n_c + n_d
        if t == n:
            return reward_fn((s_c, s_d, n_c, n_d))
        if t < 2 * b:
            if t % 2 == 0:  # control next
                return rec(s_c + 1, s_d, n_c + 1, n_d) + rec(s_c, s_d, n_c + 1, n_d)
            return rec(s_c, s_d + 1, n_c, n_d + 1) + rec(s_c, s_d, n_c, n_d + 1)
        wc = rec(s_c + 1, s_d, n_c + 1, n_d) + rec(s_c, s_d, n_c + 1, n_d)
        wd = rec(s_c, s_d + 1, n_c, n_d + 1) + rec(s_c, s_d, n_c, n_d + 1)
        return max(q * wc + (1 - q) * wd for q in actions)

    return rec(0, 0, 0, 0)


def backward_policy_ref(reward_fn, n, b, actions):
    """History-tree recursion that also records the optimal action per
    sufficient statistic (ties toward 1/2, then toward the low action)."""
    chosen = {}

    def rec(s_c, s_d, n_c, n_d):
        t = n_c + n_d
        if t == n:
            return reward_fn((s_c, s_d, n_c, n_d))
        if t < 2 * b:
            if t % 2 == 0:
                return rec(s_c + 1, s_d, n_c + 1, n_d) + rec(s_c, s_d, n_c + 1, n_d)
            return rec(s_c, s_d + 1, n_c, n_d + 1) + rec(s_c, s_d, n_c, n_d + 1)
        wc = rec(s_c + 1, s_d, n_c + 1, n_d) + rec(s_c, s_d, n_c + 1, n_d)
        wd = rec(s_c, s_d + 1, n_c, n_d + 1) + rec(s_c, s_d, n_c, n_d + 1)
        lo, mid, hi = min(actions), 0.5, max(actions)
        vals = {q: q * wc + (1 - q) * wd for q in (lo, mid, hi)}
        best = max(vals.values())
        for q in (mid, lo, hi):
            if vals[q] == best:
                chosen[(s_c, s_d, n_c, n_d)] = q
                break
        return best

    value = rec(0, 0, 0, 0)
    return value, chosen


def policy_value_ref(reward_fn, prob_fn, n, b):
    """Value of a fixed policy by history-tree recursion."""
    prob_fn = functools.lru_cache(maxsize=None)(prob_fn)

    def rec(s_c, s_d, n_c, n_d):
        t = n_c + n_d
        if t == n:
            return reward_fn((s_c, s_d, n_c, n_d))
        if t < 2 * b:
            if t % 2 == 0:
                return rec(s_c + 1, s_d, n_c + 1, n_d) + rec(s_c, s_d, n_c + 1, n_d)
            return rec(s_c, s_d + 1, n_c, n_d + 1) + rec(s_c, s_d, n_c, n_d + 1)
        q = prob_fn((s_c, s_d, n_c, n_d))
        wc = rec(s_c + 1, s_d, n_c + 1, n_d) + rec(s_c, s_d, n_c + 1, n_d)
        wd = rec(s_c, s_d + 1, n_c, n_d + 1) + rec(s_c, s_d, n_c, n_d + 1)
        return q * wc + (1 - q) * wd

    return rec(0, 0, 0, 0)


def fisher_two_sided_ref(s_c, s_d, half, alpha):
    """Classical per-tail Fisher exact decision on a balanced 2x2 table,
    in exact rational arithmetic."""
    sp = s_c + s_d
    n = 2 * half
    denom = math.comb(n, sp)
    lo = max(0, sp - half)
    hi = min(half, sp)
    pmf = {k: Fraction(math.comb(half, k) * math.comb(half, sp - k), denom)
           for k in range(lo, hi + 1)}
    upper = sum(p for k, p in pmf.items() if k >= s_c)   # control-heavy tail
    lower = sum(p for k, p in pmf.items() if k <= s_c)
    a2 = Fraction(alpha).limit_denominator(10**6) / 2
    return upper <= a2 or lower <= a2


def posterior_log_probs_ref(lay):
    """``(ln P, ln(1 - P))`` with ``P = P(theta_C > theta_D | state)`` under
    uniform priors, for every state of a layer.

    Starting from the closed form for zero control successes, rows are
    filled by the exact two-term recurrence that moves one control success
    from the failure count, batched across all blocks sharing the row index.
    This is the success-major loop that ``BayesianRar.layer_log_probs``
    replaced with one cumulative sum per block; the two must agree bit for
    bit.
    """
    from rarexact.numerics import gammaln_table

    t = lay.t
    g = gammaln_table(2 * t + 8)
    s_c, s_d, n_c, _ = lay.arrays()

    # success-major ordering: all rows with the same s_c are contiguous
    order = np.lexsort((s_d, n_c, s_c))
    sm_n_c = n_c[order]
    sm_s_d = s_d[order]
    seg_start = np.searchsorted(s_c[order], np.arange(t + 2))

    def lbeta(a, b):
        return g[a] + g[b] - g[a + b]

    p = np.empty(lay.size)
    # row s_c = 0: P = B(a2, b2 + n_c + 1) / B(a2, b2)
    sl = slice(seg_start[0], seg_start[1])
    a2 = sm_s_d[sl] + 1
    b2 = t - sm_n_c[sl] - sm_s_d[sl] + 1
    p[sl] = np.exp(lbeta(a2, b2 + sm_n_c[sl] + 1) - lbeta(a2, b2))

    max_sc = int(s_c.max()) if lay.size else 0
    for k in range(max_sc):
        dst = slice(seg_start[k + 1], seg_start[k + 2])
        if dst.start == dst.stop:
            break
        # source: the tail of row k restricted to blocks with n_c >= k + 1
        src = slice(seg_start[k + 1] - (dst.stop - dst.start), seg_start[k + 1])
        ncv = sm_n_c[dst]
        sdv = sm_s_d[dst]
        a2 = sdv + 1
        b2 = (t - ncv) - sdv + 1
        lb2 = lbeta(a2, b2)
        a1, b1 = k + 1, ncv - k + 1
        step_a = np.exp(lbeta(a1 + a2, b1 + b2) - np.log(a1) - lbeta(a1, b1) - lb2)
        a1p, b1p = k + 2, ncv - k
        step_b = np.exp(lbeta(a1p + a2, b1p + b2) - np.log(b1p) - lbeta(a1p, b1p) - lb2)
        p[dst] = p[src] + step_a + step_b

    np.clip(p, 0.0, 1.0, out=p)
    out_p = np.empty(lay.size)
    out_p[order] = p
    with np.errstate(divide="ignore"):
        return np.log(out_p), np.log1p(-out_p)
