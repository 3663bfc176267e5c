"""Forward computation of the parameter-free path coefficients over the
terminal layer, and evaluation of parameter-dependent expectations.

For every terminal state the coefficient ``g`` collects the
allocation-path probabilities leading to it; multiplying by the per-arm
outcome likelihood and summing gives any exact operating characteristic.
The sweep allocates its layer-sized arrays once, at the size of the
terminal layer -- two weight buffers that take turns as source and
destination, and the arm pair the policy fills
(:meth:`~rarexact.policies.Policy.fill_arm_probs`) -- and steps with
:meth:`~rarexact.states.Transition.push`, which writes into the idle
buffer (see :class:`~rarexact.states.Transition` for the fixed edge order
that keeps results bit-stable).  It works in the linear domain on the
fair-coin path probability ``p = g * 2**-t`` of each state, which lies in
``[0, 1]`` and sums to one over a layer: each epoch takes the policy's
linear arm probabilities ``(q, 1 - q)`` and halves them, an exact
scaling.  The terminal table stores ``log g = log p + n ln 2``.

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

# sha256 from the lean builtin module, as the random module takes sha512:
# hashlib loads OpenSSL, which adds 3.6 MB to a command's peak RSS
try:
    from _sha2 import sha256            # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256      # Python < 3.12
    except ImportError:
        from hashlib import sha256

from .numerics import binomial_log_terms, log_binom, logsumexp_fixed, theta_array
from .policies import Policy, PolicyTable, _check_arm_probs
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
    # not an init field, so dataclasses.replace of log_g hashes afresh
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

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

    def digest(self) -> str:
        """sha256 hex digest of ``log_g`` as little-endian float64: the
        design an exact rule's level was certified for."""
        if self._digest is None:
            le = np.ascontiguousarray(self.log_g, dtype="<f8")
            self._digest = sha256(le).hexdigest()
        return self._digest

    def wald_statistics(self) -> np.ndarray:
        if self._wald is None:
            self._wald = layer_wald_statistics(self.layer)
        return self._wald

    def successes(self) -> np.ndarray:
        """Total successes ``s_c + s_d`` of every state, int32."""
        return self.layer.tabulate(lambda s_c, s_d, n_c, n_d: s_c + s_d, np.int32)


def _block_table(n_c: int, n_d: int) -> np.ndarray:
    """Log weights of block ``(n_c, n_d)`` after balanced blocks: the
    number of outcome paths is a product of binomial coefficients, by
    Vandermonde's identity however the blocks split the arms."""
    lc = log_binom(n_c, np.arange(n_c + 1))
    ld = lc if n_d == n_c else log_binom(n_d, np.arange(n_d + 1))
    return np.add.outer(lc, ld).ravel()


def forward_g(policy: Policy) -> PathWeightTable:
    """Terminal path-weight table of ``policy`` over its horizon.

    Starts after the policy's :attr:`~rarexact.policies.Policy.permuted_blocks`
    and pushes each state's weight to all four children, with the
    allocation probability attached to the arm and both outcome branches
    receiving the full arm mass (outcome likelihoods enter later, through
    the evaluation weights).  The weights carried are fair-coin path
    probabilities: the policy's
    :meth:`~rarexact.policies.Policy.fill_arm_probs` are checked (a
    :class:`~rarexact.policies.PolicyTable` once, when it is made) and halved
    in place.  A state whose fair-coin probability underflows to
    zero gets ``log g = -inf``; :meth:`~rarexact.states.Transition.push`
    bounds the probability so lost.
    """
    b = policy.burn_in
    return _sweep(policy, (Transition(t, b) for t in range(sum(policy.permuted_blocks), policy.n)))


def _sweep(policy: Policy, steps) -> PathWeightTable:
    """The sweep of :func:`forward_g` over ``steps``, the transitions from
    the end ``pos`` of the policy's permuted blocks up to ``n - 1`` in
    order; layer ``pos`` holds weight in the block of their controls
    alone.  :func:`forward_g` makes each one as it goes; a caller that
    sweeps many policies over one horizon passes the same held
    transitions every time, so they gather through their plans (see
    :class:`~rarexact.states.Transition`).

    Layers only grow, so the sweep allocates its layer-sized arrays once,
    sized to the terminal layer: two weight buffers, which take turns as
    source and destination, and the arm pair ``q``, ``q1``, which the
    policy fills and the push overwrites with its products.  Each layer
    uses a leading view of each.  The idle destination is the scratch of
    the probability check.  For a symmetric policy it also takes the swap
    average of the terminal weights: each block plus the transpose of its
    mirror block, halved, which needs no index array.  The terminal
    weights become the table's ``log g`` in place.
    """
    n, b = policy.n, policy.burn_in
    lay = make_layer(n, b, n)
    held, idle, q_buf, q1_buf = (np.empty(lay.size) for _ in range(4))
    blocks = policy.permuted_blocks
    pos, n_c = sum(blocks), sum((length + 1) // 2 for length in blocks)
    first = make_layer(pos, b)
    cur = held[:first.size]
    cur.fill(0.0)
    block = cur[first.block_slice(n_c)]
    np.subtract(_block_table(n_c, pos - n_c), pos * LN2, out=block)
    np.exp(block, out=block)
    # a table's probabilities were checked once, when it was made
    check = not isinstance(policy, PolicyTable)
    for step in steps:
        m = step.src.size
        q, q1, dst = q_buf[:m], q1_buf[:m], idle[:step.dst.size]
        policy.fill_arm_probs(step.src, q, q1)
        if check:
            _check_arm_probs(q, q1, step.src.t, dst[:m])
        q *= 0.5
        q1 *= 0.5
        cur = step.push(cur, q, q1, dst)
        held, idle = idle, held
    if policy.is_symmetric:
        # averaging with the arm-swapped image makes the table exactly
        # swap-invariant, removing last-ulp asymmetry from the sweep: the
        # mirror of block (n_c, n_d) is block (n_d, n_c), transposed
        avg = idle[:lay.size]
        for (n_c, n_d, start, stop), (_, _, m0, m1) in zip(lay.spans, lay.spans[::-1]):
            shape = (n_c + 1, n_d + 1)
            np.add(cur[start:stop].reshape(shape), cur[m0:m1].reshape(shape[::-1]).T,
                   out=avg[start:stop].reshape(shape))
        cur = avg
        cur *= 0.5
    with np.errstate(divide="ignore"):
        log_g = np.log(cur, out=cur)
    log_g += n * LN2
    return PathWeightTable(lay, log_g, meta=policy.descriptor())


def layer_log_likelihood(lay: Layer, theta: tuple[float, float]) -> np.ndarray:
    """Log outcome likelihood of every state of a layer at ``theta``: each
    success on arm ``a`` contributes ``ln(theta_a)`` and each failure
    ``ln(1 - theta_a)``, with ``0 * ln 0 = 0``; the terms are gathered from
    :func:`~rarexact.numerics.binomial_log_terms`, block by block."""
    tc, td = theta
    ln_c, ln_1c = binomial_log_terms(tc, lay.t)
    ln_d, ln_1d = binomial_log_terms(td, lay.t)
    return lay.tabulate(lambda s_c, s_d, n_c, n_d:
                        ln_c[s_c] + ln_1c[n_c - s_c] + ln_d[s_d] + ln_1d[n_d - s_d])


def _binomial_kernel(tables: tuple[np.ndarray, np.ndarray], m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``theta**s * (1 - theta)**(m - s)`` for ``s = 0..m``, each divided
    by its largest entry, and the natural log of those row maxima.

    Sliced from the log tables of
    :func:`~rarexact.numerics.binomial_log_terms`, so the rows at ``theta``
    in ``{0, 1}`` are exact unit vectors.
    """
    ln_t, ln_1t = tables
    log_u = ln_t[:, :m + 1] + ln_1t[:, m::-1]
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
        tab_c = binomial_log_terms(th[:, 0], self.layer.t)
        tab_d = binomial_log_terms(th[:, 1], self.layer.t)
        for j, (n_c, n_d, scale, e) in enumerate(self._blocks):
            u_c, lc = _binomial_kernel(tab_c, n_c)
            u_d, ld = _binomial_kernel(tab_d, n_d)
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
