"""State space of a two-arm adaptive trial with binary outcomes.

A trial position is summarized by the per-arm success counts and group
sizes.  For each epoch (number of participants allocated so far) the
admissible positions form a *layer*; a layer indexes its states densely
so that path weights, test statistics and policy probabilities can live
in flat numpy arrays.

The state ordering inside a layer -- ascending control group size, then
ascending control successes, then ascending developmental successes --
is part of the on-disk format of every artifact and must not change.
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


class Layer:
    """Dense index over the states reachable at epoch ``t`` given a burn-in
    of ``b`` participants per arm.

    For ``t >= 2b`` the admissible control group sizes are ``b .. t - b``.
    For ``t < 2b`` the layer holds only the states reachable under the
    canonical alternating burn-in (control first), i.e. a single control
    group size ``ceil(t / 2)``.  Only layers with ``t >= 2b`` are part of
    the public contract.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, t: int, b: int):
        if t < 0 or b < 0:
            raise ValueError("epoch and burn-in must be nonnegative")
        self.t = t
        self.b = b
        if t >= 2 * b:
            self.n_c_min = b
            self.n_c_max = t - b
        else:
            self.n_c_min = self.n_c_max = (t + 1) // 2
        n_c = np.arange(self.n_c_min, self.n_c_max + 1)
        block_sizes = (n_c + 1) * (t - n_c + 1)
        # offsets[k] = start of the block with n_c = n_c_min + k
        self.offsets = np.concatenate(([0], np.cumsum(block_sizes)))
        self.size = int(self.offsets[-1])
        self._arrays = None
        self._swap_perm = None

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
        k = n_c - self.n_c_min
        return slice(int(self.offsets[k]), int(self.offsets[k + 1]))

    def blocks(self):
        """Yield (n_c, n_d, slice) for each block in canonical order."""
        for n_c in range(self.n_c_min, self.n_c_max + 1):
            yield n_c, self.t - n_c, self.block_slice(n_c)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-state ``(s_c, s_d, n_c, n_d)`` arrays in canonical order."""
        if self._arrays is None:
            s_c = np.empty(self.size, dtype=np.int32)
            s_d = np.empty(self.size, dtype=np.int32)
            n_c = np.empty(self.size, dtype=np.int32)
            for nc, nd, sl in self.blocks():
                m = (nc + 1) * (nd + 1)
                s_c[sl] = np.repeat(np.arange(nc + 1, dtype=np.int32), nd + 1)
                s_d[sl] = np.tile(np.arange(nd + 1, dtype=np.int32), nc + 1)
                n_c[sl] = nc
            n_d = np.full(self.size, self.t, dtype=np.int32) - n_c
            self._arrays = (s_c, s_d, n_c, n_d)
        return self._arrays

    def swap_permutation(self) -> np.ndarray:
        """Permutation ``p`` with ``p[i]`` the index of the arm-swapped state.

        Only defined when the layer is closed under swapping (always true
        for ``t >= 2b``, and for even ``t`` below the burn-in).
        """
        if self._swap_perm is None:
            if self.t < 2 * self.b and self.t % 2 == 1:
                raise ValueError("burn-in layer at odd epoch is not swap-closed")
            s_c, s_d, n_c, n_d = self.arrays()
            self._swap_perm = np.asarray(self.indices(s_d, s_c, n_d), dtype=np.int64)
        return self._swap_perm


class Transition:
    """The edges from layer ``t`` to layer ``t + 1`` under burn-in ``b``
    (``t >= 2b``): state ``(s_c, s_d, n_c, n_d)`` of :attr:`src` has the
    control children ``(s_c + 1, s_d, n_c + 1, n_d)`` (success) and
    ``(s_c, s_d, n_c + 1, n_d)`` (failure), and the developmental ones
    ``(s_c, s_d + 1, n_c, n_d + 1)`` and ``(s_c, s_d, n_c, n_d + 1)``.

    :meth:`push` carries weights forward and :meth:`pull` gathers values
    backward; the two are adjoint.  Both visit the source blocks in
    canonical order and, in a block, the control arm before the
    developmental one and success before failure.  Sums are formed in that
    fixed order, which keeps every artifact bit-stable; do not reorder.
    The two layers are built for this step only, not taken from the
    :func:`layer` cache, so a sweep holds just the layers it is on.
    """

    def __init__(self, t: int, b: int):
        if t < 2 * b:
            raise ValueError(f"transition from epoch {t} lies inside the burn-in of {b} per arm")
        self.src = Layer(t, b)
        self.dst = Layer(t + 1, b)

    def push(self, log_w: np.ndarray, log_q: np.ndarray, log_1q: np.ndarray) -> np.ndarray:
        """Log weights on :attr:`dst`: each weight times the allocation
        probability of an arm goes to both outcome children of that arm."""
        src, dst = self.src, self.dst
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

    def pull(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(wc, wd)`` over :attr:`src`: ``wc[i]`` sums ``v`` over the two
        control children of state ``i``, ``wd[i]`` over the other two."""
        src, dst = self.src, self.dst
        wc = np.empty(src.size)
        wd = np.empty(src.size)
        for n_c, n_d, sl in src.blocks():
            vc = v[dst.block_slice(n_c + 1)].reshape(n_c + 2, n_d + 1)
            wc[sl] = (vc[1:] + vc[:-1]).ravel()
            vd = v[dst.block_slice(n_c)].reshape(n_c + 1, n_d + 2)
            wd[sl] = (vd[:, 1:] + vd[:, :-1]).ravel()
        return wc, wd


@lru_cache(maxsize=64)
def _cached_layer(t: int, b: int) -> Layer:
    return Layer(t, b)


def layer(t: int, b: int, n: int | None = None) -> Layer:
    """The layer of admissible states at epoch ``t`` under burn-in ``b``.

    ``n`` is the trial horizon and, when given, is only used to validate
    the request (``t <= n`` and ``2b <= n``).
    """
    if n is not None:
        if t > n:
            raise ValueError(f"epoch {t} exceeds horizon {n}")
        if 2 * b > n:
            raise ValueError(f"burn-in {b} infeasible for horizon {n}")
    return _cached_layer(t, b)
