"""Independent brute-force reference implementations used by the tests.

Everything here works on plain dicts keyed by ``(s_c, s_d, n_c, n_d)``
tuples and enumerates histories or candidate rules directly, touching
none of the package's indexing or sweep machinery.  The exceptions are
the retired vectorized kernels kept as references for the ones that
replaced them (:func:`posterior_probs_ref`, :func:`arm_tail_logaddexp_ref`,
:func:`code_gather_policy_ref`, :func:`push_ref`, :func:`pull_ref`,
:func:`forward_g_alloc_ref`, :func:`forward_g_log_ref`,
:func:`grow_prefix_two_sorts_ref`, :func:`block_values_ref`,
:func:`rule_to_dict_ref`, :func:`solve_choice_ref`,
:func:`layer_log_likelihood_ref`, :func:`pmf_matrix_ref`,
:func:`binomial_tails_ref`, :class:`DenseAuditContext`,
:func:`dense_measure_log_weights`), which walk the package's layers or call
its kernels, and the helpers that only the tests call
(:func:`random_codes`, :func:`table_from_codes`,
:func:`evaluate_backward`, :func:`bernstein_tail_sup`,
:func:`permuted_block_sequence`, :func:`simulate_trial`,
:func:`swap_permutation`), thin wrappers over the package's kernels.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import gammaln


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
    """All admissible states at epoch ``t >= 2b``: brute force over
    histories of length ``t`` (alternating burn-in) collapsed to their
    statistics."""
    seen = set()
    for arms in itertools.product("CD", repeat=t):
        if any(arms[u] != ("C" if u % 2 == 0 else "D") for u in range(2 * b)):
            continue
        n_c = arms.count("C")
        if not (b <= n_c <= t - b):
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


def layer_log_likelihood_ref(lay, theta):
    """``layer_log_likelihood`` as it was before the shared binomial log
    terms: ``count * ln(prob)`` per arm and outcome, the failures through
    ``log(1 - theta)``."""
    tc, td = theta
    s_c, s_d, n_c, n_d = lay.arrays()
    return (
        _log_count_prob(s_c, tc)
        + _log_count_prob(n_c - s_c, 1.0 - tc)
        + _log_count_prob(s_d, td)
        + _log_count_prob(n_d - s_d, 1.0 - td)
    )


def pmf_matrix_ref(n, theta):
    """Binomial pmf rows at ``theta`` with their own log terms, as
    ``exact_tests._pmf_matrix`` formed them before the shared kernel."""
    from rarexact.numerics import log_binom

    s = np.arange(n + 1)
    th = theta[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_s = np.where(s == 0, 0.0, s * np.log(th))
        ln_f = np.where(s == n, 0.0, (n - s) * np.log1p(-th))
    return np.exp(log_binom(n, s) + ln_s + ln_f)


def binomial_tails_ref(x, size):
    """``cmdp._binomial_tails`` with its own log terms, as it was before
    the shared kernel."""
    from rarexact.numerics import gammaln_table

    m = np.arange(size)[:, None]
    k = np.arange(size)[None, :]
    g = gammaln_table(size + 1)
    inside = k <= m
    m_k = np.where(inside, m - k, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_s = np.where(k == 0, 0.0, k * np.log(x))
        ln_f = np.where(m_k == 0, 0.0, m_k * np.log1p(-x))
    pmf = np.where(inside, np.exp(g[m + 1] - g[k + 1] - g[m_k + 1] + ln_s + ln_f), 0.0)
    upper = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
    lower = np.zeros_like(pmf)
    np.cumsum(pmf[:, :-1], axis=1, out=lower[:, 1:])
    return upper, lower


def _log_beta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def interval_mass_ref(s, n, lo, hi):
    """``P(lo < X < hi)`` for ``X ~ Beta(s + 1, n - s + 1)``: mpmath's
    regularized incomplete beta at 60 digits, far more than the worst
    cancellation between its two endpoint values needs for ``n <= 50``."""
    with mpmath.workdps(60):
        return float(mpmath.betainc(s + 1, n - s + 1, lo, hi, regularized=True))


def measure_log_weight(x, measure):
    """Log outcome likelihood of the state ``x`` integrated over the prior
    ``measure`` (a ``rarexact.cmdp`` measure), one state at a time from
    ``math.lgamma`` and :func:`interval_mass_ref`."""
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
            mass = interval_mass_ref(s, m, lo, hi)
            total += math.log(mass) - math.log(hi - lo) + _log_beta(s + 1, m - s + 1)
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


def stratum_tail_fsum(key, w, s):
    """Per state, the ``math.fsum`` of the weights of its stratum on keys
    at least its own: the correctly rounded tail mass, ties included."""
    out = np.empty(key.size)
    for sp in np.unique(s):
        idx = np.flatnonzero(s == sp)
        for i in idx:
            out[i] = math.fsum(w[idx[key[idx] >= key[i]]])
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


def posterior_probs_ref(lay):
    """``P = P(theta_C > theta_D | state)`` under uniform priors, clipped to
    ``[0, 1]``, for every state of a layer.

    Starting from the closed form for zero control successes, rows are
    filled by the exact two-term recurrence that moves one control success
    from the failure count, batched across all blocks sharing the row index.
    This is the success-major loop that ``BayesianRar.layer_arm_probs``
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
    return out_p


def arm_tail_logaddexp_ref(p, e):
    """The BRAR allocation pair ``(q, q1)`` from the posterior ``p`` in log
    space, as the tail did before the power form: ``a = e ln P``, ``c = e
    ln(1 - P)`` by ``log1p``, ``m = logaddexp(a, c)``, and ``(exp(a - m),
    exp(c - m))``."""
    with np.errstate(divide="ignore"):
        a = e * np.log(p)
        c = e * np.log1p(-p)
    m = np.logaddexp(a, c)
    return np.exp(a - m), np.exp(c - m)


def _uniform_table(spec):
    """The all-1/2 CMDP policy table of ``spec``."""
    from rarexact.policies import PolicyTable
    from rarexact.states import layer

    b = spec.burn_in
    probs = tuple(np.full(layer(t, b, spec.n).size, 0.5) for t in range(2 * b, spec.n))
    return PolicyTable(spec.n, b, spec.p, probs)


def dense_measure_log_weights(lay, measure):
    """The retired ``cmdp.measure_log_weights``: the log weight of every
    state of a layer under ``measure``, gathered state by state from
    ``lbeta``, the binomial log terms, and the log of the rectangle masses
    times the Beta normalizer over the interval length."""
    from rarexact.cmdp import _interval_masses
    from rarexact.engine import layer_log_likelihood
    from rarexact.numerics import gammaln_table

    s_c, s_d, n_c, n_d = lay.arrays()
    g = gammaln_table(2 * lay.t + 8)

    def lbeta(a, b):
        return g[a] + g[b] - g[a + b]

    kind = type(measure).__name__
    if kind == "AltUniform":
        return lbeta(s_c + 1, n_c - s_c + 1) + lbeta(s_d + 1, n_d - s_d + 1)
    if kind == "NullUniform":
        s = s_c + s_d
        return lbeta(s + 1, lay.t - s + 1)
    if kind == "PointNull":
        return layer_log_likelihood(lay, (measure.theta0, measure.theta0))
    if kind == "Rectangle":
        out = np.zeros(lay.size)
        size = lay.t + 1
        m = np.arange(size)[:, None]
        k = np.arange(size)[None, :]
        lb = g[k + 1] + g[np.maximum(m - k, 0) + 1] - g[m + 2]
        for s_a, n_a, lo, hi in ((s_c, n_c, measure.l_c, measure.u_c),
                                 (s_d, n_d, measure.l_d, measure.u_d)):
            with np.errstate(divide="ignore"):
                w = np.log(_interval_masses(lo, hi, size)) - np.log(hi - lo) + lb
            out += w[n_a, s_a]
        return out
    raise TypeError(f"unknown measure {measure!r}")


class DenseAuditContext:
    """The retired ``cmdp._AuditContext``: the terminal integrands of one
    problem as the rows of one dense ``(K + 1, size)`` matrix.  Row 0 is
    the objective, row ``1 + j`` constraint ``j`` of ``spec.constraints()``
    in its order and sign; each is the rejection indicator (for a
    rectangle, minus the superior arm's share ``n_a / n``) times its
    measure's weight.  :meth:`reward` is row 0 minus ``lam`` times the
    others, one axpy per nonzero multiplier."""

    def __init__(self, spec):
        from rarexact.cmdp import AltUniform, Rectangle
        from rarexact.states import layer
        from rarexact.wald import asymptotic_reject_array, layer_wald_statistics

        self.constraints = spec.constraints()
        lay = layer(spec.n, spec.burn_in, spec.n)
        rej = asymptotic_reject_array(layer_wald_statistics(lay), spec.alpha).astype(np.float64)
        _, _, n_c, n_d = lay.arrays()
        share = {"C": -n_c / spec.n, "D": -n_d / spec.n}
        self.integrands = np.array([
            (share[m.superior_arm] if isinstance(m, Rectangle) else rej)
            * np.exp(dense_measure_log_weights(lay, m))
            for m in [AltUniform()] + [m for _, m, _ in self.constraints]
        ])

    def reward(self, lam):
        out = self.integrands[0].copy()
        for lam_j, f_j in zip(lam, self.integrands[1:]):
            if lam_j != 0.0:
                out -= lam_j * f_j
        return out

    def values(self, gt):
        """Every row's expectation under the path weights ``gt``, objective
        first, in one ``einsum`` reduction."""
        top = float(gt.log_g.max())
        return np.einsum("kj,j->k", self.integrands, np.exp(gt.log_g - top)) * np.exp(top)


def random_codes(n, b, rng):
    """Uniformly drawn int8 action codes 0, 1, 2 (``1 - p``, ``1/2``,
    ``p``) for every state of epochs ``2b .. n - 1``."""
    from rarexact.states import layer

    return [rng.integers(0, 3, layer(t, b).size).astype(np.int8) for t in range(2 * b, n)]


def table_from_codes(n, b, p, codes):
    """The ``PolicyTable`` whose control probabilities are the action codes
    ``codes`` (one array per epoch ``2b .. n - 1``) read through the
    triple ``(1 - p, 1/2, p)``."""
    from rarexact.policies import PolicyTable

    triple = np.array([1.0 - p, 0.5, p])
    return PolicyTable(n, b, p, tuple(triple[c] for c in codes))


def code_gather_policy_ref(n, b, p, codes):
    """A policy that fills its arm pair from int8 action codes (one array
    per epoch ``2b .. n - 1``) by the gathers of the code tables that the
    float ``PolicyTable`` replaced: ``q`` from the triple ``(1 - p, 1/2,
    p)`` and ``q1`` from the same triple read backwards.  A table of the
    same actions sweeps to the same bits."""
    from rarexact.policies import Policy

    triple = np.array([1.0 - p, 0.5, p])

    class CodeGatherTable(Policy):
        def fill_arm_probs(self, lay, q, q1):
            c = codes[lay.t - 2 * b]
            np.take(triple, c, out=q, mode="clip")
            np.take(triple[::-1], c, out=q1, mode="clip")

    return CodeGatherTable(n, b)


def push_ref(step, w, q, q1):
    """``Transition.push`` as a loop over source blocks, each with its own
    2-D products and the four in-place adds of the edge order: the kernel
    that the whole-layer products and flat control spans replaced; the two
    must agree bit for bit."""
    src, dst = step.src, step.dst
    nxt = np.zeros(dst.size)
    for n_c, n_d, sl in src.blocks():
        shape = (n_c + 1, n_d + 1)
        s = w[sl].reshape(shape)
        to_c = s * q[sl].reshape(shape)
        to_d = s * q1[sl].reshape(shape)
        dc = nxt[dst.block_slice(n_c + 1)].reshape(n_c + 2, n_d + 1)
        dc[1:] += to_c
        dc[:-1] += to_c
        dd = nxt[dst.block_slice(n_c)].reshape(n_c + 1, n_d + 2)
        dd[:, 1:] += to_d
        dd[:, :-1] += to_d
    return nxt


def pull_ref(step, v):
    """``Transition.pull`` as a loop over source blocks that forms each
    block's sums as new arrays and copies them in; bit for bit the same as
    the kernel."""
    src, dst = step.src, step.dst
    wc = np.empty(src.size)
    wd = np.empty(src.size)
    for n_c, n_d, sl in src.blocks():
        vc = v[dst.block_slice(n_c + 1)].reshape(n_c + 2, n_d + 1)
        wc[sl] = (vc[1:] + vc[:-1]).ravel()
        vd = v[dst.block_slice(n_c)].reshape(n_c + 1, n_d + 2)
        wd[sl] = (vd[:, 1:] + vd[:, :-1]).ravel()
    return wc, wd


def _push_alloc_ref(step, w, q, q1):
    """``Transition.push`` on its block-loop schedule as it was before it
    wrote into a given destination: fresh whole-layer products ``w * q``
    and ``w * q1`` added block by block into a fresh array of zeros."""
    nxt = np.zeros(step.dst.size)
    to_c = w * q
    to_d = w * q1
    dst = step.dst.spans
    for (n_c, n_d, start, stop), (_, _, d0, _), (_, _, c0, _) in zip(
            step.src.spans, dst, dst[1:]):
        m, row = stop - start, n_d + 1
        x = to_c[start:stop]
        success = nxt[c0 + row:c0 + row + m]
        np.add(success, x, out=success)
        failure = nxt[c0:c0 + m]
        np.add(failure, x, out=failure)
        x = to_d[start:stop].reshape(n_c + 1, row)
        dd = nxt[d0:d0 + m + n_c + 1].reshape(n_c + 1, row + 1)
        success = dd[:, 1:]
        np.add(success, x, out=success)
        failure = dd[:, :-1]
        np.add(failure, x, out=failure)
    return nxt


def forward_g_alloc_ref(policy):
    """The linear-domain forward sweep as it was before it held its
    buffers: every layer takes fresh arm probabilities from
    ``policy.layer_arm_probs``, halves them and pushes into a fresh layer
    (:func:`_push_alloc_ref`), and a symmetric policy's terminal weights
    are averaged with their arm-swapped image in new arrays.  The held
    sweep runs the same operations on the same operands, so the two agree
    bit for bit."""
    from rarexact.engine import LN2, PathWeightTable, _block_table
    from rarexact.states import Layer, Transition

    n, b = policy.n, policy.burn_in
    cur = np.exp(_block_table(b, b) - 2 * b * LN2)
    for t in range(2 * b, n):
        q, q1 = policy.layer_arm_probs(Layer(t, b))
        q *= 0.5
        q1 *= 0.5
        cur = _push_alloc_ref(Transition(t, b), cur, q, q1)
    lay = Layer(n, b)
    if policy.is_symmetric:
        cur = 0.5 * (cur + cur[swap_permutation(lay)])
    with np.errstate(divide="ignore"):
        log_g = np.log(cur)
    log_g += n * LN2
    return PathWeightTable(lay, log_g, meta=policy.descriptor())


def _log_push_ref(src, dst, log_w, log_q, log_1q):
    """One log-domain step of the forward sweep from layer ``src`` to
    ``dst``: the four children of each source block receive the block's
    log weights plus the log arm probability, by ``np.logaddexp``."""
    nxt = np.full(dst.size, -np.inf)
    for n_c, n_d, sl in src.blocks():
        shape = (n_c + 1, n_d + 1)
        s = log_w[sl].reshape(shape)
        to_c = s + log_q[sl].reshape(shape)
        to_d = s + log_1q[sl].reshape(shape)
        dc = nxt[dst.block_slice(n_c + 1)].reshape(n_c + 2, n_d + 1)
        np.logaddexp(dc[1:], to_c, out=dc[1:])
        np.logaddexp(dc[:-1], to_c, out=dc[:-1])
        dd = nxt[dst.block_slice(n_c)].reshape(n_c + 1, n_d + 2)
        np.logaddexp(dd[:, 1:], to_d, out=dd[:, 1:])
        np.logaddexp(dd[:, :-1], to_d, out=dd[:, :-1])
    return nxt


def forward_g_log_ref(policy):
    """Terminal path-weight table of ``policy`` computed entirely in log
    space: log weights pushed by :func:`_log_push_ref` from the burn-in
    layer, and a symmetric policy's table averaged with its arm-swapped
    image by log-sum-exp.  This is the sweep that the linear-domain
    ``forward_g`` replaced; nothing in it underflows, so it gives every
    reachable state a finite log weight."""
    from rarexact.engine import LN2, PathWeightTable, _block_table
    from rarexact.states import Layer

    n, b = policy.n, policy.burn_in
    cur = _block_table(b, b)
    for t in range(2 * b, n):
        src = Layer(t, b)
        q, q1 = policy.layer_arm_probs(src)
        with np.errstate(divide="ignore"):
            log_q, log_1q = np.log(q), np.log(q1)
        cur = _log_push_ref(src, Layer(t + 1, b), cur, log_q, log_1q)
    lay = Layer(n, b)
    if policy.is_symmetric:
        other = cur[swap_permutation(lay)]
        hi = np.maximum(cur, other)
        lo = np.minimum(cur, other)
        out = np.full_like(cur, -np.inf)
        mask = hi > -np.inf
        out[mask] = hi[mask] + np.log1p(np.exp(lo[mask] - hi[mask])) - LN2
        cur = out
    return PathWeightTable(lay, cur, meta=policy.descriptor())


def equal_allocation_log_g_ref(n, b):
    """Terminal log path weights of equal allocation in closed form: every
    trial ends with ``n_c = ceil(n / 2)`` controls, and a state of that
    block is reached by ``C(n_c, s_c) C(n - n_c, s_d)`` outcome paths, the
    sum of two ``log_binom``; no other state is reached.  At even ``n``
    this is the table the engine wrote before it swept equal
    allocation."""
    from rarexact.numerics import log_binom
    from rarexact.states import Layer

    lay, n_c = Layer(n, b), (n + 1) // 2
    out = np.full(lay.size, -np.inf)
    out[lay.block_slice(n_c)] = np.add.outer(log_binom(n_c, np.arange(n_c + 1)),
                                             log_binom(n - n_c, np.arange(n - n_c + 1))).ravel()
    return out


def grow_prefix_two_sorts_ref(t_stat, w, s, n, level):
    """Both tails of the unconditional rule's growth, ``(upper, lower)``,
    each from its own stable ``argsort``: of ``-t_stat`` for the upper
    tail and of ``t_stat`` for the lower, as before they shared one
    sort."""
    from rarexact.exact_tests import _grow_prefix

    return tuple(_grow_prefix(key, np.argsort(key, kind="stable"), w, s, n, level)
                 for key in (-t_stat, t_stat))


def grow_prefix_linear_ref(keys, w, s, n, level):
    """``_grow_prefix`` along the stable ascending sort of ``keys`` by a
    linear scan: every tie-group count, from none to all, is certified,
    and the largest accepted count is kept, whether or not a smaller one
    failed."""
    from rarexact.exact_tests import certify_region

    order = np.argsort(keys, kind="stable")
    ks, ws, ss = keys[order], w[order], s[order]
    stops = [0] + [i for i in range(1, ks.size) if ks[i] != ks[i - 1]] + [ks.size]
    certs = [certify_region(np.bincount(ss[:stop], weights=ws[:stop], minlength=n + 1), level)
             for stop in stops]
    k = max(i for i, cert in enumerate(certs) if cert.accepted)
    end = stops[k]
    last = float(ks[end - 1]) if k else None
    nxt = float(ks[end]) if end < ks.size else None
    return last, nxt, certs[k]


def _cert_dict_ref(cert):
    if cert is None:
        return None
    return {"level": cert.level, "accepted": cert.accepted,
            "certified_upper": cert.certified_upper, "lower_bound": cert.lower_bound}


def rule_to_dict_ref(rule):
    """A rule file's dict as written by format 1, one hand-kept branch per
    rule kind, before the rule dataclasses' fields stated it."""
    from rarexact.exact_tests import BoschlooRule, ConditionalRule, UnconditionalRule
    from rarexact.operating import AsymptoticRule

    head = {"format": 1, "kind": rule.kind, "alpha": rule.alpha}
    if isinstance(rule, ConditionalRule):
        return {**head, "n": rule.n,
                "upper": rule.upper.tolist(), "upper_closed": rule.upper_closed.tolist(),
                "lower": rule.lower.tolist(), "lower_closed": rule.lower_closed.tolist(),
                "certificate": _cert_dict_ref(rule.certificate)}
    if isinstance(rule, UnconditionalRule):
        return {**head, "n": rule.n,
                "upper": rule.upper, "upper_closed": rule.upper_closed,
                "lower": rule.lower, "lower_closed": rule.lower_closed,
                "certificate": _cert_dict_ref(rule.certificate),
                "upper_certificate": _cert_dict_ref(rule.upper_certificate),
                "lower_certificate": _cert_dict_ref(rule.lower_certificate)}
    if isinstance(rule, BoschlooRule):
        return {**head, "n": rule.n,
                "threshold": rule.threshold, "largest_included": rule.largest_included,
                "certificate": _cert_dict_ref(rule.certificate)}
    if isinstance(rule, AsymptoticRule):
        return head
    raise TypeError(f"cannot serialize rule {rule!r}")


def binomial_kernel_ref(theta, m):
    """Rows ``theta**s * (1 - theta)**(m - s)`` for ``s = 0..m``, each divided
    by its largest entry, and the log row maxima, built for one size from
    ``ln theta`` and ``ln(1 - theta)``, with ``0 * ln 0 = 0``."""
    s = np.arange(m + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_t = np.log(theta)[:, None]
        ln_1t = np.log1p(-theta)[:, None]
        log_u = np.where(s == 0, 0.0, s * ln_t) + np.where(s == m, 0.0, (m - s) * ln_1t)
    row_max = log_u.max(axis=1)
    return np.exp(log_u - row_max[:, None]), row_max


def block_values_ref(fn, thetas):
    """``TerminalFunctional.block_values`` with both binomial kernels of
    every block built afresh by :func:`binomial_kernel_ref`."""
    from rarexact.engine import theta_array

    th = theta_array(thetas)
    out = np.zeros((len(fn._blocks), th.shape[0], fn.k))
    for j, (n_c, n_d, scale, e) in enumerate(fn._blocks):
        u_c, lc = binomial_kernel_ref(th[:, 0], n_c)
        u_d, ld = binomial_kernel_ref(th[:, 1], n_d)
        prod = (u_c @ e).reshape(th.shape[0], fn.k, n_d + 1)
        out[j] = (prod * u_d[:, None, :]).sum(axis=2) * np.exp(scale + lc + ld)[:, None]
    return out


def _trial_arms_ref(policy, keys, outcome_at):
    """Arms of rows of trials stepped one epoch at a time: the design's
    permuted balanced blocks (the ``2b`` burn-in, or every block of equal
    allocation), then one policy-randomized epoch per participant left;
    ``outcome_at(t, arm)`` is participant ``t``'s response.  Each epoch's
    ``q`` is the policy's own ``layer_arm_probs``."""
    from rarexact.montecarlo import _arms_from_keys
    from rarexact.policies import EA_BLOCK, EqualAllocation, _block_plan
    from rarexact.states import layer

    n, b = policy.n, policy.burn_in
    plan = _block_plan(n, b, EA_BLOCK) if isinstance(policy, EqualAllocation) else [2 * b]
    rows, pos = keys.shape[0], sum(plan)
    arms = np.empty((rows, n), dtype=np.int8)
    arms[:, :pos] = _arms_from_keys(keys[:, :pos], plan)
    s_c = np.zeros(rows, dtype=np.int64)
    s_d = np.zeros(rows, dtype=np.int64)
    n_c = np.zeros(rows, dtype=np.int64)
    for t in range(n):
        if t < pos:
            arm = arms[:, t]
        else:
            lay = layer(t, b)
            q = policy.layer_arm_probs(lay)[0]
            arm = (keys[:, t] >= q[lay.indices(s_c, s_d, n_c)]).astype(np.int8)
        y = outcome_at(t, arm)
        arms[:, t] = arm
        is_c = arm == 0
        n_c += is_c
        s_c += is_c & y
        s_d += (~is_c) & y
    return arms


def simulate_trial_ref(policy, theta, seed, stream):
    """``(arms, outcomes)`` of trial ``stream`` of the run keyed by
    ``seed``, stepped alone from its ``2n`` words: ``n`` allocation keys,
    then ``n`` outcome draws.  The trial owns ``B = ceil(2n / 4)`` Philox
    blocks from block ``stream * B``, read by a generator built there."""
    n = policy.n
    tc, td = theta
    blocks = -(-2 * n // 4)
    bits = np.random.Philox(key=np.array([seed % 2**64, 0], dtype=np.uint64),
                            counter=stream * blocks)
    u = np.random.Generator(bits).random(2 * n)[None, :]
    draws = u[:, n:]
    arms = _trial_arms_ref(
        policy, u[:, :n],
        lambda t, arm: np.where(arm == 0, draws[:, t] < tc, draws[:, t] < td),
    )
    return arms[0], np.where(arms == 0, draws < tc, draws < td).astype(np.int8)[0]


def _abs_wald_ref(arms, outcomes):
    from rarexact.wald import wald_statistics

    is_c = arms == 0
    s_c, s_d, n_c = (outcomes & is_c).sum(-1), (outcomes & ~is_c).sum(-1), is_c.sum(-1)
    return np.abs(wald_statistics(s_c, s_d, n_c, arms.shape[-1] - n_c))


def allocation_paths_enum(policy, outcomes):
    """Every arm sequence the design can make while ``outcomes`` stay fixed
    in participant order, as ``(arms, probability)`` pairs.  Each permuted
    balanced block (the ``2b`` burn-in, and every block of equal
    allocation) takes each of its ``C(L, ceil(L/2))`` arrangements with
    equal probability; each later epoch branches on
    ``policy.control_prob`` of the state reached, dropping branches of
    probability zero."""
    from rarexact.policies import EA_BLOCK, EqualAllocation, _block_plan
    from rarexact.states import TrialState

    n, b = policy.n, policy.burn_in
    y = [int(v) for v in outcomes]
    if isinstance(policy, EqualAllocation):
        plan = _block_plan(n, b, EA_BLOCK)
    else:
        plan = [2 * b] if b else []
    prefixes = [((), 1.0)]
    for length in plan:
        half = (length + 1) // 2
        blocks = [tuple(0 if i in ctrl else 1 for i in range(length))
                  for ctrl in itertools.combinations(range(length), half)]
        prefixes = [(arms + block, prob / len(blocks))
                    for arms, prob in prefixes for block in blocks]

    @functools.lru_cache(maxsize=None)
    def control_prob(s_c, s_d, n_c, n_d):
        return policy.control_prob(TrialState(s_c, s_d, n_c, n_d))

    paths = []

    def walk(arms, prob, s_c, s_d, n_c):
        t = len(arms)
        if t == n:
            paths.append((arms, prob))
            return
        q = control_prob(s_c, s_d, n_c, t - n_c)
        if q > 0:
            walk(arms + (0,), prob * q, s_c + y[t], s_d, n_c + 1)
        if q < 1:
            walk(arms + (1,), prob * (1.0 - q), s_c, s_d + y[t], n_c)

    for arms, prob in prefixes:
        n_c = arms.count(0)
        s_c = sum(y[i] for i, arm in enumerate(arms) if arm == 0)
        walk(arms, prob, s_c, sum(y[:len(arms)]) - s_c, n_c)
    return paths


def randomization_p_value_enum(policy, arms, outcomes):
    """Exact randomization p-value of one observed trial by enumeration:
    the summed probability of the arm sequences of
    :func:`allocation_paths_enum` whose ``|Wald|`` is at least the
    observed one, ties included."""
    paths = allocation_paths_enum(policy, outcomes)
    seqs = np.array([a for a, _ in paths], dtype=np.int8)
    y = np.asarray(outcomes, dtype=np.int8)
    stats = _abs_wald_ref(seqs, np.broadcast_to(y, seqs.shape))
    t_obs = _abs_wald_ref(np.asarray(arms, dtype=np.int8), y)
    return math.fsum(prob for (_, prob), stat in zip(paths, stats) if stat >= t_obs)


def randomization_p_values_ref(policy, arms, outcomes):
    """Exact randomization p-values of ``(m, n)`` rows of observed arms and
    outcomes, all rows in one chunk in their given order, with ``|T|``
    computed on the chunk's grid and the control mass moved by two adds.
    Given the outcomes, the
    successes ``S_t`` before epoch ``t`` are known, so the allocation is a
    Markov chain on ``(n_c, s_c)``, ``s_d = S_t - s_c``.  Its law is an
    ``(m, K, J)`` array over ``n_c = lo .. lo + K - 1`` and ``s_c = 0 ..
    J - 1``, where ``J - 1`` is at most the chunk's largest ``S_t``, since
    ``s_c <= S_t``; states off the layer hold no mass.  Each permuted
    balanced block (the burn-in, all of equal allocation) of ``L`` with
    ``c = ceil(L / 2)`` controls adds ``c`` to ``n_c`` and a
    ``Hypergeom(L, S_block, c)`` count to ``s_c``; each later epoch moves
    ``q`` of a state's mass to ``(n_c + 1, s_c + y_t)`` and keeps ``1 -
    q``, with ``q`` from the policy's own ``layer_arm_probs``: the law a
    simulated participant is allocated by.
    The work is elementwise per row and the final sum runs in a fixed
    order, so rows do not affect each other."""
    from rarexact.montecarlo import _terminal_counts
    from rarexact.policies import EA_BLOCK, EqualAllocation, _block_plan
    from rarexact.states import layer
    from rarexact.wald import wald_statistics

    n, b = policy.n, policy.burn_in
    m = outcomes.shape[0]
    s_c, s_d, n_c = _terminal_counts(arms, outcomes, outcomes)
    t_obs = np.abs(wald_statistics(s_c, s_d, n_c, n - n_c))
    succ = np.zeros((m, n + 1), dtype=np.int64)
    np.cumsum(outcomes, axis=1, out=succ[:, 1:])
    reach = succ.max(axis=0) + 1
    y = outcomes.astype(np.float64)

    w, lo, pos = np.ones((m, 1, 1)), 0, 0
    for length in _block_plan(n if isinstance(policy, EqualAllocation) else 2 * b, b, EA_BLOCK):
        c = (length + 1) // 2
        hyper = np.array([[math.comb(s, k) * math.comb(length - s, c - k) / math.comb(length, c)
                           for k in range(c + 1)] for s in range(length + 1)])
        hyper = hyper[succ[:, pos + length] - succ[:, pos]]
        out = np.zeros(w.shape[:2] + (w.shape[2] + c,))
        for k in range(c + 1):
            out[:, :, k:k + w.shape[2]] += w * hyper[:, k, None, None]
        w, lo, pos = out, lo + c, pos + length
    for t in range(pos, n):
        lay = layer(t, b)
        q = policy.layer_arm_probs(lay)[0]
        w = w[:, :, :reach[t]]
        rows, cols = w.shape[1:]
        s_c = np.arange(cols)
        # s_d = S_t - s_c enters the index linearly; off-layer states hold
        # no mass, and their indices stay in the layer
        idx = lay.indices(s_c, -s_c, np.arange(lo, lo + rows)[:, None]) + succ[:, t, None, None]
        out = np.zeros((m, rows + 1, cols + 1))
        np.multiply(w, 1.0 - q[idx], out=out[:, :rows, :cols])
        w *= q[idx]
        moved = w * y[:, t, None, None]
        w -= moved
        out[:, 1:, 1:] += moved
        out[:, 1:, :cols] += w
        w = out

    w = w[:, :, :reach[n]]
    rows, cols = w.shape[1:]
    n_c = np.arange(lo, lo + rows)[:, None]
    s_c = np.minimum(np.arange(cols), n_c)
    s_d = np.clip(succ[:, n, None, None] - s_c, 0, n - n_c)
    extreme = np.abs(wald_statistics(s_c, s_d, n_c, n - n_c)) >= t_obs[:, None, None]
    mass = np.where(extreme, w, 0.0)
    # summed one n_c, then one s_c at a time: the columns above a row's own
    # S_n add exact zeros, so its p-value does not depend on the width
    # its chunk mates set
    p = np.zeros(m)
    for column in np.add.accumulate(mass, axis=1)[:, -1].T:
        p += column
    return p


# ---------------------------------------------------------------------------
# helpers only the tests call


def evaluate_backward(table, reward, spec):
    """Value of a fixed CMDP policy table for a terminal reward by backward
    recursion (no maximization); equals the forward-weighted terminal sum
    by construction."""
    from rarexact.engine import _block_table
    from rarexact.states import Transition, layer

    n, b = spec.n, spec.burn_in
    v = np.asarray(reward, dtype=np.float64)
    for t in range(n - 1, 2 * b - 1, -1):
        wc, wd = Transition(t, b).pull(v)
        q = table.layer_arm_probs(layer(t, b))[0]
        v = q * wc + (1.0 - q) * wd
    return float(np.sum(np.exp(_block_table(b, b)) * v))


def solve_choice_ref(history):
    """``(index, feasible)`` of the iterate ``solve_cmdp`` returns, from its
    dual history, by two candidates kept apart: the feasible iterate
    (every bound met, ``max_violation <= 0``) of largest objective, else
    the least violating; the first of ties each time."""
    best = least = None
    for i, h in enumerate(history):
        obj, worst = h["objective"], h["max_violation"]
        if least is None or worst < history[least]["max_violation"]:
            least = i
        if worst <= 0.0 and (best is None or obj > history[best]["objective"]):
            best = i
    return (best, True) if best is not None else (least, False)


def lagrangian_backward_ref(reward, spec):
    """``lagrangian_backward`` as three full value arrays and a nested
    ``np.where`` for the codes: ties prefer 1/2, then the low action.
    Returns the per-epoch codes after the burn-in and the value."""
    from rarexact.engine import _block_table
    from rarexact.states import Transition

    n, b = spec.n, spec.burn_in
    lo, hi = 1.0 - spec.p, spec.p
    codes = {}
    v = np.asarray(reward, dtype=np.float64)
    for t in range(n - 1, 2 * b - 1, -1):
        wc, wd = Transition(t, b).pull(v)
        v_lo = lo * wc + (1.0 - lo) * wd
        v_hi = hi * wc + (1.0 - hi) * wd
        v_mid = 0.5 * (wc + wd)
        v = np.maximum(np.maximum(v_lo, v_hi), v_mid)
        codes[t] = np.where(v_mid == v, 1, np.where(v_lo == v, 0, 2)).astype(np.int8)
    return codes, float(np.sum(np.exp(_block_table(b, b)) * v))


def bernstein_tail_sup(table, reject):
    """``(grid lower bound, coefficient upper bound)`` for the null
    probability of an arbitrary terminal rejection indicator."""
    from rarexact.exact_tests import _grid_basis, region_coefficients

    coeffs = region_coefficients(table, np.asarray(reject, dtype=bool))
    _, basis = _grid_basis(table.n)
    return float(np.max(np.einsum("ij,j->i", basis, coeffs))), float(coeffs.max())


def permuted_block_sequence(n, block, seed_or_rng):
    """Arm sequence from a permuted block design: each full block holds
    exactly half of each arm in uniformly random order; a trailing partial
    block is a uniformly drawn balanced prefix."""
    from rarexact.montecarlo import _arms_from_keys, make_rng
    from rarexact.policies import _block_plan

    if block % 2 != 0:
        raise ValueError("block size must be even")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else make_rng(seed_or_rng)
    return _arms_from_keys(rng.random(n), _block_plan(n, 0, block))


def swap_permutation(lay):
    """Permutation ``p`` with ``p[i]`` the index of the arm-swapped image of
    state ``i``; every layer (``t >= 2b``) is closed under swapping."""
    s_c, s_d, n_c, n_d = lay.arrays()
    return np.asarray(lay.indices(s_d, s_c, n_d), dtype=np.int64)


def terminal_state_ref(arms, outcomes):
    """Terminal ``TrialState`` of one trial's arms and outcomes, counted one
    participant at a time."""
    from rarexact.states import TrialState

    succ, size = [0, 0], [0, 0]
    for arm, y in zip(arms.tolist(), outcomes.tolist()):
        succ[arm] += y
        size[arm] += 1
    return TrialState(succ[0], succ[1], size[0], size[1])


def simulate_trial(policy, theta, seed, stream=0):
    """``(arms, outcomes)`` of the one trial on stream ``stream``, as two
    length-``n`` arrays."""
    from rarexact.montecarlo import simulate_trials

    arms, outcomes = simulate_trials(policy, theta, seed, stream, 1)
    return arms[0], outcomes[0]
