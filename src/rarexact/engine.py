"""Forward computation of the parameter-free path coefficients over the
terminal layer, and evaluation of parameter-dependent expectations.

For every terminal state the coefficient collects the allocation-path
probabilities leading to it; multiplying by the per-arm outcome
likelihood and summing gives any exact operating characteristic.  The
sweep keeps two rolling layers, works entirely in log space, and steps
with :meth:`~rarexact.states.Transition.push` (see
:class:`~rarexact.states.Transition` for the fixed edge order that keeps
results bit-stable).

Evaluation is batched over success-rate points.  Within a block of fixed
group sizes ``(n_c, n_d)`` the likelihood is a product of two binomial
kernels, so an expectation over a grid of ``m`` points is one
``(m, n_c + 1) @ (n_c + 1, n_d + 1)`` matrix product per block
(:class:`TerminalFunctional`).  The product runs in linear space under
two scalings -- the block's path weights by their largest entry, each
kernel row by its largest entry -- whose logs are added back at the end,
so a term is lost only if it is below about ``1e-308`` of its block's
largest one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import log_binom, logsumexp_fixed
from .policies import EqualAllocation, Policy
from .states import Layer, Transition, layer as make_layer
from .wald import layer_wald_statistics

LN2 = float(np.log(2.0))


@dataclass
class PathWeightTable:
    """Log-domain path coefficients for every state of one layer."""

    layer: Layer
    log_g: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)

    _wald: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.layer.t

    @property
    def burn_in(self) -> int:
        return self.layer.b

    def normalization_error(self) -> float:
        """Deviation of ``sum(g) * 2**-n`` from one (zero for any policy)."""
        total = logsumexp_fixed(self.log_g)
        return abs(np.exp(total - self.n * LN2) - 1.0)

    def wald_statistics(self) -> np.ndarray:
        if self._wald is None:
            self._wald = layer_wald_statistics(self.layer)
        return self._wald

    def successes(self) -> np.ndarray:
        s_c, s_d, _, _ = self.layer.arrays()
        return s_c + s_d


def _symmetrize(log_g: np.ndarray, lay: Layer) -> np.ndarray:
    """Average a table with its arm-swapped image in log space; the result
    is exactly swap-invariant, removing last-ulp asymmetry from the sweep."""
    perm = lay.swap_permutation()
    other = log_g[perm]
    hi = np.maximum(log_g, other)
    lo = np.minimum(log_g, other)
    out = np.full_like(log_g, -np.inf)
    mask = hi > -np.inf
    out[mask] = hi[mask] + np.log1p(np.exp(lo[mask] - hi[mask])) - LN2
    return out


def _burn_in_table(b: int) -> np.ndarray:
    """Log weights at epoch ``2b``: the number of outcome paths through the
    balanced burn-in is a product of binomial coefficients."""
    lb = log_binom(b, np.arange(b + 1))
    return np.add.outer(lb, lb).ravel()


def forward_g(policy: Policy, n: int | None = None, b: int | None = None) -> PathWeightTable:
    """Terminal path-weight table of ``policy`` over horizon ``n``.

    Starts from the balanced burn-in layer and pushes each state's weight
    to all four children, with the allocation probability attached to the
    arm and both outcome branches receiving the full arm mass (outcome
    likelihoods enter later, through the evaluation weights).
    """
    n = policy.n if n is None else n
    b = policy.burn_in if b is None else b
    if n < 2 * b:
        raise ValueError("horizon shorter than the burn-in")
    if isinstance(policy, EqualAllocation):
        return equal_allocation_g(n, b)

    cur = _burn_in_table(b)
    for t in range(2 * b, n):
        step = Transition(t, b)
        lq, l1q = policy.layer_log_probs(step.src)
        if np.any(lq > 1e-9) or np.any(l1q > 1e-9) or np.any(np.isnan(lq)):
            raise ValueError(f"policy probabilities outside [0, 1] at epoch {t}")
        cur = step.push(cur, lq, l1q)

    lay = make_layer(n, b, n)
    if policy.is_symmetric:
        cur = _symmetrize(cur, lay)
    return PathWeightTable(lay, cur, meta=policy.descriptor())


def equal_allocation_g(n: int, b: int = 0) -> PathWeightTable:
    """Closed-form terminal table of the fixed 50/50 design: weights
    concentrate on the balanced split and count the per-arm outcome paths."""
    if n % 2 != 0:
        raise ValueError("equal allocation requires an even horizon")
    if b > n // 2:
        raise ValueError("burn-in exceeds the balanced group size")
    lay = make_layer(n, b, n)
    log_g = np.full(lay.size, -np.inf)
    half = n // 2
    lb = log_binom(half, np.arange(half + 1))
    log_g[lay.block_slice(half)] = np.add.outer(lb, lb).ravel()
    return PathWeightTable(lay, log_g, meta={"kind": "EqualAllocation", "n": n, "burn_in": b})


def _count_log_prob(count: np.ndarray, prob: float) -> np.ndarray | float:
    """``count * ln(prob)`` with the convention ``0 * ln 0 = 0``."""
    if prob == 0.0:
        return np.where(count == 0, 0.0, -np.inf)
    return count * np.log(prob)


def layer_log_likelihood(lay: Layer, theta: tuple[float, float]) -> np.ndarray:
    """Log outcome likelihood of every state of a layer at ``theta``: each
    success on arm ``a`` contributes ``ln(theta_a)`` and each failure
    ``ln(1 - theta_a)``, with ``0 * ln 0 = 0``."""
    tc, td = theta
    s_c, s_d, n_c, n_d = lay.arrays()
    return (
        _count_log_prob(s_c, tc)
        + _count_log_prob(n_c - s_c, 1.0 - tc)
        + _count_log_prob(s_d, td)
        + _count_log_prob(n_d - s_d, 1.0 - td)
    )


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
        raise ValueError(
            f"theta point {i} ({th[i, 0]!r}, {th[i, 1]!r}) is not in [0, 1] x [0, 1]"
        )
    return th


def _binomial_kernel(theta: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``theta**s * (1 - theta)**(m - s)`` for ``s = 0..m``, each divided
    by its largest entry, and the natural log of those row maxima.

    Built in log space with the convention ``0 * ln 0 = 0``, so the rows at
    ``theta`` in ``{0, 1}`` are exact unit vectors.
    """
    s = np.arange(m + 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_t = np.log(theta)[:, None]
        ln_1t = np.log1p(-theta)[:, None]
        log_u = np.where(s == 0, 0.0, s * ln_t) + np.where(s == m, 0.0, (m - s) * ln_1t)
    row_max = log_u.max(axis=1)
    return np.exp(log_u - row_max[:, None]), row_max


class TerminalFunctional:
    """Terminal functions multiplied by the path weights once, evaluated at
    many success-rate points by one matrix product per ``(n_c, n_d)`` block.

    ``f`` holds one function (shape ``(size,)``) or ``k`` functions side by
    side (shape ``(size, k)``).  In a block the outcome likelihood factors
    into a control and a developmental binomial kernel, so for the points
    ``theta_1..theta_m`` the block's contribution is
    ``rowsum((U_c @ E) * U_d)``:

    * ``E`` is the block of ``f * g`` arranged as ``(n_c + 1)`` rows of
      ``k * (n_d + 1)`` columns, in linear space after dividing ``g`` by
      the block's largest path weight;
    * ``U_c[i, s]`` is ``theta_C**s * (1 - theta_C)**(n_c - s)`` at point
      ``i`` and ``U_d`` the same for the developmental arm, each row divided
      by its own largest entry.

    The three log scales are added back at the end, in log space, so
    nothing overflows for any horizon.  A path weight is lost (flushed to
    zero) only if it is below about ``1e-308`` of its block's largest one;
    blocks without any reachable state are skipped.  Signed functions need
    no special handling.  The products run in BLAS; OpenBLAS splits a
    matrix product over output tiles, not over the reduction, and gave
    bit-identical results at 1 and 2 threads.  Blocks are summed in
    canonical order.  A one-point grid is a matrix-vector product, a
    different BLAS kernel, and can differ in the last bit from the same
    point in a larger grid.
    """

    def __init__(self, f: np.ndarray, table: PathWeightTable):
        f = np.asarray(f, dtype=np.float64)
        if f.shape[:1] != table.log_g.shape or f.ndim > 2:
            raise ValueError("function/table dimension mismatch")
        if not np.all(np.isfinite(f)):
            raise ValueError("terminal function must be finite")
        self.layer = table.layer
        self.k = 1 if f.ndim == 1 else f.shape[1]
        self._scalar = f.ndim == 1
        f2 = f.reshape(f.shape[0], self.k)
        self._blocks = []
        for n_c, n_d, sl in self.layer.blocks():
            log_g = table.log_g[sl]
            scale = np.max(log_g)
            if scale == -np.inf:
                continue
            e = f2[sl] * np.exp(log_g - scale)[:, None]
            e = e.reshape(n_c + 1, n_d + 1, self.k).transpose(0, 2, 1).reshape(n_c + 1, -1)
            self._blocks.append((n_c, n_d, float(scale), e))

    @property
    def group_sizes(self) -> np.ndarray:
        """``(n_c, n_d)`` of every evaluated block, in the order of
        :meth:`block_values`."""
        sizes = [(n_c, n_d) for n_c, n_d, _, _ in self._blocks]
        return np.array(sizes, dtype=np.int64).reshape(-1, 2)

    def block_values(self, thetas) -> np.ndarray:
        """Per-block contributions, shape ``(blocks, points, k)``."""
        th = theta_array(thetas)
        out = np.zeros((len(self._blocks), th.shape[0], self.k))
        for j, (n_c, n_d, scale, e) in enumerate(self._blocks):
            u_c, lc = _binomial_kernel(th[:, 0], n_c)
            u_d, ld = _binomial_kernel(th[:, 1], n_d)
            prod = (u_c @ e).reshape(th.shape[0], self.k, n_d + 1)
            out[j] = (prod * u_d[:, None, :]).sum(axis=2) * np.exp(scale + lc + ld)[:, None]
        return out

    def values(self, thetas) -> np.ndarray:
        """Expectations at every point: shape ``(points,)`` for one
        function, ``(points, k)`` for several."""
        total = self.block_values(thetas).sum(axis=0)
        return total[:, 0] if self._scalar else total

    def value(self, theta: tuple[float, float]) -> float:
        """Expectation of a single function at one point."""
        return float(self.values([theta])[0])
