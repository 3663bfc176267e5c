"""State space of a two-arm adaptive trial with binary outcomes.

A trial position is summarized by the per-arm success counts and group
sizes.  For each epoch (number of participants allocated so far) the
admissible positions form a *layer*; a layer indexes its states densely
so that path weights, test statistics and policy probabilities can live
in flat numpy arrays.

The state ordering inside a layer -- ascending control group size, then
ascending control successes, then ascending developmental successes --
is part of the on-disk format of every artifact and must not change.

A layer is a run of ``(n_c, n_d)`` blocks, each a dense ``(n_c + 1,
n_d + 1)`` grid of ``(s_c, s_d)`` stored row by row.  The block spans are
computed once per ``(t, b)`` and cached as Python ints, so building a
layer, or a :class:`Transition` between two, does no array work; the
per-state arrays stay with each layer, and a per-state function is
tabulated block by block (:meth:`Layer.tabulate`) without them.
:class:`Transition` is the one kernel between consecutive layers: it
forms its products over the whole layer and adds them, each destination
state in a fixed order, so every result is bit-stable.  It has two
schedules with the same bits, a loop over the blocks and whole-layer
gathers through an index plan, chosen as :class:`Transition` describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class TrialState:
    """Sufficient statistic ``((s_c, s_d), (n_c, n_d))`` of a trial position."""

    s_c: int
    s_d: int
    n_c: int
    n_d: int

    def __post_init__(self):
        if not (0 <= self.s_c <= self.n_c and 0 <= self.s_d <= self.n_d):
            raise ValueError(f"inadmissible trial state {self!r}")

    @property
    def epoch(self) -> int:
        return self.n_c + self.n_d

    @property
    def successes(self) -> int:
        return self.s_c + self.s_d


@lru_cache(maxsize=512)
def _block_layout(n_c_min: int, n_c_max: int, t: int) -> tuple[tuple, np.ndarray]:
    """``(spans, offsets)`` of the layer at epoch ``t`` with control group
    sizes ``n_c_min .. n_c_max``: ``spans`` holds ``(n_c, n_d, start,
    stop)`` per block as Python ints, ``offsets`` the block starts and the
    layer size as a read-only array.  Cached, so building a layer costs no
    array work; the per-state arrays stay with each :class:`Layer`."""
    n_c = np.arange(n_c_min, n_c_max + 1)
    block_sizes = (n_c + 1) * (t - n_c + 1)
    offsets = np.concatenate(([0], np.cumsum(block_sizes)))
    offsets.flags.writeable = False
    bounds = offsets.tolist()
    spans = tuple(
        (nc, t - nc, bounds[k], bounds[k + 1])
        for k, nc in enumerate(range(n_c_min, n_c_max + 1))
    )
    return spans, offsets


class Layer:
    """Dense index over the states reachable at epoch ``t >= 2b`` given a
    burn-in of ``b`` participants per arm: the admissible control group
    sizes are ``b .. t - b``.  No layer exists inside the burn-in: the
    sweeps and simulated trials start after a policy's permuted balanced
    blocks (:attr:`~rarexact.policies.Policy.permuted_blocks`), from
    their counts.

    :attr:`spans` holds ``(n_c, n_d, start, stop)`` of each block in
    canonical order, and :attr:`offsets` (read-only) the block starts
    followed by :attr:`size`.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, t: int, b: int):
        if t < 0 or b < 0:
            raise ValueError("epoch and burn-in must be nonnegative")
        if t < 2 * b:
            raise ValueError(f"epoch {t} lies inside the burn-in of {b} per arm: it has no layer")
        self.t = t
        self.b = b
        self.n_c_min = b
        self.n_c_max = t - b
        self.spans, self.offsets = _block_layout(self.n_c_min, self.n_c_max, t)
        self.size = self.spans[-1][3]
        self._arrays = None

    def __repr__(self):
        return f"Layer(t={self.t}, b={self.b}, size={self.size})"

    def __eq__(self, other):
        return isinstance(other, Layer) and (self.t, self.b) == (other.t, other.b)

    def __hash__(self):
        return hash((self.t, self.b))

    def contains(self, state: TrialState) -> bool:
        return (
            state.epoch == self.t
            and self.n_c_min <= state.n_c <= self.n_c_max
        )

    def index(self, state: TrialState) -> int:
        """Canonical dense index of ``state`` in this layer."""
        if not self.contains(state):
            raise ValueError(f"{state!r} not admissible in {self!r}")
        return int(self.indices(state.s_c, state.s_d, state.n_c))

    def indices(self, s_c, s_d, n_c):
        """Vectorized :meth:`index` over arrays of states of this layer,
        without the membership check."""
        return self.offsets[n_c - self.n_c_min] + s_c * (self.t - n_c + 1) + s_d

    def state(self, index: int) -> TrialState:
        """Inverse of :meth:`index`."""
        if not 0 <= index < self.size:
            raise IndexError(index)
        k = int(np.searchsorted(self.offsets, index, side="right") - 1)
        n_c = self.n_c_min + k
        n_d = self.t - n_c
        rem = index - int(self.offsets[k])
        s_c, s_d = divmod(rem, n_d + 1)
        return TrialState(int(s_c), int(s_d), n_c, n_d)

    def block_slice(self, n_c: int) -> slice:
        """Flat slice of the block with control group size ``n_c``."""
        _, _, start, stop = self.spans[n_c - self.n_c_min]
        return slice(start, stop)

    def blocks(self):
        """Yield (n_c, n_d, slice) for each block in canonical order."""
        for n_c, n_d, start, stop in self.spans:
            yield n_c, n_d, slice(start, stop)

    def block_counts(self):
        """Yield ``(n_c, n_d, slice, s_c, s_d)`` per block in canonical
        order, with the success counts as int32 views that broadcast to
        the block's grid: ``s_c = 0..n_c`` down, ``s_d = 0..n_d`` across."""
        counts = np.arange(self.t + 1, dtype=np.int32)
        for n_c, n_d, start, stop in self.spans:
            yield n_c, n_d, slice(start, stop), counts[:n_c + 1, None], counts[None, :n_d + 1]

    def tabulate(self, f, dtype=np.float64) -> np.ndarray:
        """``f(s_c, s_d, n_c, n_d)`` of every state, written block by block
        from :meth:`block_counts`, so no per-state array is made; an
        elementwise ``f`` gives the bits it gives on :meth:`arrays`."""
        out = np.empty(self.size, dtype)
        for n_c, n_d, sl, s_c, s_d in self.block_counts():
            out[sl].reshape(n_c + 1, n_d + 1)[...] = f(s_c, s_d, n_c, n_d)
        return out

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-state ``(s_c, s_d, n_c, n_d)`` int32 arrays in canonical
        order, 16 B a state, cached.  In the package only the DBCD fills
        still build them; everything else uses :meth:`tabulate`."""
        if self._arrays is None:
            # whole-layer repeats, not a loop over blocks: block n_c is
            # n_c + 1 rows s_c = 0..n_c of n_d + 1 states s_d = 0..n_d
            nc = np.arange(self.n_c_min, self.n_c_max + 1, dtype=np.int32)
            rows, width = nc + 1, self.t - nc + 1
            row_len = np.repeat(width, rows)
            s_c = np.arange(row_len.size, dtype=np.int32)
            s_c -= np.repeat(np.cumsum(rows, dtype=np.int32) - rows, rows)
            s_c = np.repeat(s_c, row_len)
            s_d = np.arange(self.size, dtype=np.int32)
            s_d -= np.repeat(np.cumsum(row_len, dtype=np.int32) - row_len, row_len)
            n_c = np.repeat(nc, rows * width)
            self._arrays = (s_c, s_d, n_c, self.t - n_c)
        return self._arrays


# Largest source layer whose transition builds a gather plan when reused:
# above it the gathers win little or lose (see Transition), and the plans
# grow with the layer.
_PLAN_CAP = 2**15


class Transition:
    """The edges from layer ``t`` to layer ``t + 1`` under burn-in ``b``
    (``t >= 2b``): state ``(s_c, s_d, n_c, n_d)`` of :attr:`src` has the
    control children ``(s_c + 1, s_d, n_c + 1, n_d)`` (success) and
    ``(s_c, s_d, n_c + 1, n_d)`` (failure), and the developmental ones
    ``(s_c, s_d + 1, n_c, n_d + 1)`` and ``(s_c, s_d, n_c, n_d + 1)``.

    :meth:`push` carries weights forward and :meth:`pull` gathers values
    backward; the two are adjoint.  Source block ``k`` (``n_c = b + k``)
    sends its control children to destination block ``k + 1`` and its
    developmental children to destination block ``k``.  Both layers start
    at ``n_c = b``, and source block ``k`` and destination block ``k + 1``
    share the row width ``n_d + 1``.  So the control children of a block
    are two contiguous runs of the destination: the success run starts one
    row, ``n_d + 1`` states, after the failure run.  The developmental
    children are the two column-shifted views of the ``(n_c + 1, n_d +
    2)`` destination block.

    Every destination state receives its sums in one fixed order: control
    success, control failure (from source block ``k - 1``), then
    developmental success, developmental failure (from block ``k``).  That
    order, and the elementwise products, make each result bit-identical to
    a plain per-state loop in the same order, which keeps every artifact
    bit-stable; do not reorder.

    Two schedules compute the same bits (a push up to the sign of a zero
    summed from four negative zeros, see :meth:`push`):

    * the *block loop* walks the cached block spans of the two layers
      (:attr:`Layer.spans`) in canonical order, a few numpy calls per
      block;
    * the *gather plan* holds, per edge kind, one ``intp`` index array:
      the child of every source state for :meth:`pull`, the parent of
      every destination state for :meth:`push`, where a missing parent
      points at one zero appended to the products.  A call is then four
      whole-layer gathers and adds in the order above.

    Each method runs the block loop on its first call on a transition.
    From its second call on, if the source layer holds at most
    ``_PLAN_CAP`` states, the method builds its plan once, with
    ``np.repeat`` over the block spans, and gathers; the plan lives and
    dies with the transition.  A one-shot sweep
    (:func:`~rarexact.engine.forward_g`,
    :func:`~rarexact.cmdp.lagrangian_backward`) makes a fresh transition
    per layer and so never builds a plan.  Building on first use would
    not pay: at ``t = 49``, ``b = 6`` (20,140 states) the push plan
    takes about 1 ms to build against 0.4-0.5 ms for one block-loop
    push, and the plans, 16 MB over the layers of ``n = 50``, would
    raise the peak memory of every process that runs such a sweep.  A
    caller that reuses transitions, such as the CMDP solve, holds them.

    Measured with numpy 2.4 on one thread of a 2-vCPU x86-64 machine,
    ``b = 6``: the gathers beat the block loop for :meth:`push` up to
    about 60k source states (648 against 737 us at 37,289 states, a tie
    at 59,354) and for :meth:`pull` up to about 110k (788 against 929 us
    at 106,264); at ``t = 100`` (172,749 states) a gathered push takes
    2.4-3.2 ms against 2.1-2.3 ms.  The cap leaves on the block loop
    every layer where the gathers do not clearly win, and spares the
    memory of larger plans.

    The two layers are built for this step only, so a sweep holds just
    the layers it is on.
    """

    def __init__(self, t: int, b: int):
        self.src = Layer(t, b)
        self.dst = Layer(t + 1, b)
        self._called = set()
        self._children = None
        self._parents = None

    def _reused(self, method: str) -> bool:
        """Whether this call of ``method`` may gather: the method ran on
        this transition before and the source layer is within
        ``_PLAN_CAP``.  Records the call."""
        reused = method in self._called
        self._called.add(method)
        return reused and self.src.size <= _PLAN_CAP

    def _child_plan(self) -> tuple[np.ndarray, ...]:
        """``(cs, cf, ds, df)``: the destination index of the control
        success, control failure, developmental success and developmental
        failure child of every source state."""
        if self._children is None:
            spans, dst = self.src.spans, self.dst.spans
            sizes = [stop - start for _, _, start, stop in spans]
            start = np.repeat([s[2] for s in spans], sizes)
            row = np.repeat([s[1] + 1 for s in spans], sizes)
            i = np.arange(self.src.size, dtype=np.intp)
            local = i - start
            # control rows keep their width; each developmental row is one
            # wider, so row s_c = local // row is shifted s_c states on
            cf = np.repeat([d[2] for d in dst[1:]], sizes) + local
            df = np.repeat([d[2] for d in dst[:-1]], sizes) + local + local // row
            self._children = (cf + row, cf, df + 1, df)
        return self._children

    def _parent_plan(self) -> tuple[np.ndarray, ...]:
        """The inverse of :meth:`_child_plan` per edge kind: the source
        index of each destination state's parent, ``src.size`` (the
        appended zero) where it has none."""
        if self._parents is None:
            i = np.arange(self.src.size, dtype=np.intp)
            parents = []
            for child in self._child_plan():
                parent = np.full(self.dst.size, self.src.size, dtype=np.intp)
                parent[child] = i
                parents.append(parent)
            self._parents = tuple(parents)
        return self._parents

    def push(self, w: np.ndarray, q: np.ndarray, q1: np.ndarray,
             out: np.ndarray) -> np.ndarray:
        """Weights on :attr:`dst`, written into ``out`` (a contiguous array
        of ``dst.size`` entries, sharing no memory with the inputs) and
        returned: each weight times the allocation probability ``q``
        (control) or ``q1`` (developmental) of an arm goes to both outcome
        children of that arm.  ``q`` and ``q1`` are scratch: on return they
        may hold the products.

        The products ``w * q`` and ``w * q1`` are formed once over the whole
        layer, in place in ``q`` and ``q1`` (IEEE multiplication commutes,
        so ``q * w`` has the bits of ``w * q``); being elementwise, they are
        the very products a per-block loop would form.  Each destination
        state then sums them in the order of the class docstring: block by
        block into ``out``, zeroed in place first, which allocates nothing
        layer-sized, or through the gather plan, whose first term is the
        control-success gather instead of a zero.  The two differ only
        where all four terms are ``-0.0`` (the loop gives ``+0.0``), which
        needs a negative-zero weight or probability; the sweep passes none.

        The domain is linear.  The forward sweep passes fair-coin path
        probabilities and both arm probabilities already halved, the exact
        ``1/2`` of a fair outcome per epoch, so every weight lies in
        ``[0, 1]`` and nothing overflows.  Underflow is the one loss: a
        subnormal product is rounded to a multiple of ``2**-1074``, off by
        at most ``2**-1075`` (to zero below that).  Each source state forms
        two products and passes on no more than it holds, so over a sweep
        of ``S`` source states underflow moves at most ``2 * S * 2**-1075``
        of probability; at horizon ``n`` it changes an expectation of a
        function bounded by one by at most ``2 * S * 2**(n - 1075)``.
        """
        if self._reused("push"):
            # the plans point a missing parent at one zero after the products
            m = self.src.size
            to_c = np.empty(m + 1)
            to_d = np.empty(m + 1)
            np.multiply(w, q, out=to_c[:m])
            np.multiply(w, q1, out=to_d[:m])
            to_c[m] = to_d[m] = 0.0
            cs, cf, ds, df = self._parent_plan()
            # the plan is in range by construction; mode "raise" would
            # gather into a temporary and copy it to out
            np.take(to_c, cs, out=out, mode="clip")
            out += to_c.take(cf)
            out += to_d.take(ds)
            out += to_d.take(df)
            return out
        out.fill(0.0)
        to_c = np.multiply(q, w, out=q)
        to_d = np.multiply(q1, w, out=q1)
        dst = self.dst.spans
        # per source block: its span, then the starts d0 and c0 of its
        # developmental and control destination blocks
        for (n_c, n_d, start, stop), (_, _, d0, _), (_, _, c0, _) in zip(
                self.src.spans, dst, dst[1:]):
            m, row = stop - start, n_d + 1
            x = to_c[start:stop]
            success = out[c0 + row:c0 + row + m]
            np.add(success, x, out=success)
            failure = out[c0:c0 + m]
            np.add(failure, x, out=failure)
            x = to_d[start:stop].reshape(n_c + 1, row)
            dd = out[d0:d0 + m + n_c + 1].reshape(n_c + 1, row + 1)
            success = dd[:, 1:]
            np.add(success, x, out=success)
            failure = dd[:, :-1]
            np.add(failure, x, out=failure)
        return out

    def pull(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(wc, wd)`` over :attr:`src`: ``wc[i]`` sums ``v`` over the two
        control children of state ``i``, ``wd[i]`` over the other two, each
        as ``success + failure``, written straight into its block span or
        gathered through the plan (see the class docstring)."""
        if self._reused("pull"):
            cs, cf, ds, df = self._child_plan()
            wc = v.take(cs)
            wc += v.take(cf)
            wd = v.take(ds)
            wd += v.take(df)
            return wc, wd
        wc = np.empty(self.src.size)
        wd = np.empty(self.src.size)
        dst = self.dst.spans
        for (n_c, n_d, start, stop), (_, _, d0, _), (_, _, c0, _) in zip(
                self.src.spans, dst, dst[1:]):
            m, row = stop - start, n_d + 1
            np.add(v[c0 + row:c0 + row + m], v[c0:c0 + m], out=wc[start:stop])
            vd = v[d0:d0 + m + n_c + 1].reshape(n_c + 1, row + 1)
            np.add(vd[:, 1:], vd[:, :-1], out=wd[start:stop].reshape(n_c + 1, row))
        return wc, wd


def layer(t: int, b: int, n: int | None = None) -> Layer:
    """The layer of admissible states at epoch ``t >= 2b`` under burn-in
    ``b`` (:class:`Layer`).

    ``n`` is the trial horizon and, when given, is only used to validate
    the request (``t <= n``, so with ``2b <= t`` also ``2b <= n``).  Each
    call builds a new layer, which costs no array work (the block spans
    are cached); its per-state arrays live as long as the caller keeps it.
    """
    if n is not None and t > n:
        raise ValueError(f"epoch {t} exceeds horizon {n}")
    return Layer(t, b)
