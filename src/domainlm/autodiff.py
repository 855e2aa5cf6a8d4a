"""Reverse-mode automatic differentiation over numpy arrays.

A small tape: every operation on :class:`Tensor` records the parent tensors
and one vector-Jacobian closure (VJP), which returns every parent's gradient.
Calling ``backward()`` on a scalar loss walks the graph in reverse
topological order, calls each node's VJP once, and accumulates gradients into
``.grad`` of every leaf tensor that requires grad; the walk consumes the
graph, so a second ``backward()`` needs a new forward pass. An operation on
tensors none of which requires grad records nothing.

The encoder's hot layers are fused nodes (``embedding``, ``linear``,
``feed_forward``, ``layer_norm``, ``attention``, ``softmax_cross_entropy``),
each one node with a closed-form backward pass that keeps only what that pass
reads. ``linear`` and ``feed_forward`` given a ``residual`` add their output
into its array in place, so a forward pass holds one residual-stream array.
Every operation computes in the dtype of its operands.

Gradients are exact analytic derivatives of the forward computation, which is
what the finite-difference checks in the test suite verify.

``run_tasks`` spreads independent pieces of work over the calling thread and
one worker, and ``background_jobs`` runs a job on a worker while the caller
goes on, with numpy's BLAS held at one thread (``one_blas_thread``) so that
the bits of each piece do not depend on the CPU or BLAS thread count; at most
two threads do model work at once.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import erf

__all__ = [
    "Tensor", "GraphError", "log_softmax",
    "embedding", "linear", "feed_forward", "layer_norm", "attention", "softmax_cross_entropy",
    "one_blas_thread", "run_tasks", "background_jobs",
]

# Python floats, not numpy float64 scalars: under NumPy 2 promotion a Python
# float takes the dtype of the array it meets, so float32 math stays float32.
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class GraphError(RuntimeError):
    """Raised when backward() is called without a recorded forward graph."""


# -- the second core -------------------------------------------------------------
#
# OpenBLAS sums some products in another order at one and at two threads, and
# after a two-thread product its idle worker spins for about 0.1 s on the
# other core. So the package holds BLAS at one thread for a whole training run
# or inference pass, and uses the second core itself, through `run_tasks` and
# `background_jobs`.


def _worker_count(cpus) -> int:
    """Threads `run_tasks` runs on, given the CPUs the process may use: at most two."""
    return min(2, len(cpus))


@functools.cache
def _blas_thread_controls():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None if it exports neither."""
    try:
        blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_ = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's BLAS at one thread inside the block, and restore its count after.

    An entry while BLAS already runs on one thread, as a nested one does,
    changes nothing. Without control of the thread count it does nothing.
    """
    controls = _blas_thread_controls()
    before = controls[0]() if controls is not None else 1
    if before == 1:
        yield
        return
    controls[1](1)
    try:
        yield
    finally:
        controls[1](before)


# Per thread, so no thread reads another's: `nested` is set inside a task of
# `run_tasks` and inside a background job, which already run on the second
# core; inside `background_jobs`, `worker` is its one-thread pool.
_local = threading.local()


def _second_core_free() -> bool:
    """Whether this thread may put model work on a second thread: two CPUs are usable and it is not one itself."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return _worker_count(cpus) >= 2 and not getattr(_local, "nested", False)


def _nested(work: Callable[[], object]) -> object:
    """work(), with every `run_tasks` inside it running its tasks in turn."""
    outer = getattr(_local, "nested", False)
    _local.nested = True
    try:
        return work()
    finally:
        _local.nested = outer


def run_tasks(tasks: Sequence[Callable[[], object]]) -> list:
    """Each task's result, in task order.

    Two or more tasks run with BLAS held at one thread: where two CPUs are
    usable, the calling thread runs tasks 0, 2, 4, ... and one worker thread
    runs 1, 3, ...; else all run in turn on the calling thread. Inside a
    task or a background job they also run in turn, and inside
    `background_jobs` the worker is the background one, after any job in
    flight, so that at most two threads do model work. Without control of
    the BLAS thread count they run in turn at the process's count. If tasks
    fail, the exception of the lowest-numbered failing one is raised, as a
    loop over the tasks would raise it. A task records a tape only from its
    own leaves that require grad, so the threads share no switch.
    """
    if len(tasks) < 2 or _blas_thread_controls() is None:
        return [task() for task in tasks]
    with one_blas_thread():
        if not _second_core_free():
            return [task() for task in tasks]
        n = len(tasks)
        results: list = [None] * n
        failed = [n, n]  # each thread's first failing task; a thread writes only its own entry

        def run_share(k: int) -> None:
            for i in range(k, n, 2):
                if min(failed) < i:
                    return  # a loop over the tasks would have stopped at that failure
                try:
                    results[i] = _nested(tasks[i])
                except BaseException as exc:  # re-raised below, once both threads are done
                    results[i], failed[k] = exc, i
                    return

        # No third thread, and no malloc arena of its own, beside a background worker.
        worker = getattr(_local, "worker", None)
        with (
            contextlib.nullcontext(worker) if worker is not None
            else ThreadPoolExecutor(max_workers=1, thread_name_prefix="domainlm-task")
        ) as pool:
            odd = pool.submit(run_share, 1)
            run_share(0)
            odd.result()
        if min(failed) < n:
            raise results[min(failed)]
        return results


@contextlib.contextmanager
def background_jobs() -> Iterator[Callable[[Callable[[], object]], Callable[[], object]]]:
    """A `submit(job)` that returns `collect`: the job runs on one worker thread while the caller goes on.

    `collect()` waits for the job and returns its result, or raises its
    exception on the caller. Collect a job before submitting the next, so at
    most one is in flight. Every `run_tasks` inside a job runs its tasks in
    turn, and the caller's `run_tasks` gives its odd tasks to the same
    worker, after the job: at most two threads do model work. BLAS is held
    at one thread inside the block. Where `run_tasks` would run in turn, as
    with one usable CPU or inside a task or another job, `collect()` runs
    the job on the caller. The worker ends with the block, after its work,
    also when the block raises.
    """
    with one_blas_thread():
        if _blas_thread_controls() is None or not _second_core_free():
            yield lambda job: job
            return
        outer = getattr(_local, "worker", None)
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="domainlm-job") as pool:
            _local.worker = pool
            try:
                yield lambda job: pool.submit(_nested, job).result
            finally:
                _local.worker = outer


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, (g_dim, t_dim) in enumerate(zip(grad.shape, shape)):
        if t_dim == 1 and g_dim != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """An ndarray plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _lift(value, dtype) -> "Tensor":
        """Wrap a constant as a Tensor of `dtype`, the other operand's dtype."""
        return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=dtype))

    @staticmethod
    def _make(data, parents: tuple, vjp: Callable[[np.ndarray], tuple]) -> "Tensor":
        """A Tensor of `data` that records `parents` and `vjp` (g -> one gradient per parent, in order) if any parent
        requires grad."""
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._vjp = vjp
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other, self.data.dtype)
        shape, other_shape = self.data.shape, other.data.shape
        return self._make(
            self.data + other.data,
            (self, other),
            lambda g: (_unbroadcast(g, shape), _unbroadcast(g, other_shape)),
        )

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        other = self._lift(other, self.data.dtype)
        shape, other_shape = self.data.shape, other.data.shape
        return self._make(
            self.data - other.data,
            (self, other),
            lambda g: (_unbroadcast(g, shape), _unbroadcast(-g, other_shape)),
        )

    def __rsub__(self, other):
        return self._lift(other, self.data.dtype) - self

    def __mul__(self, other):
        other = self._lift(other, self.data.dtype)
        return self._make(
            self.data * other.data,
            (self, other),
            lambda g: (_unbroadcast(g * other.data, self.data.shape),
                       _unbroadcast(g * self.data, other.data.shape)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other, self.data.dtype)
        return self._make(
            self.data / other.data,
            (self, other),
            lambda g: (_unbroadcast(g / other.data, self.data.shape),
                       _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape)),
        )

    def __rtruediv__(self, other):
        return self._lift(other, self.data.dtype) / self

    def __matmul__(self, other):
        other = self._lift(other, self.data.dtype)
        a, b = self.data, other.data
        return self._make(
            a @ b,
            (self, other),
            lambda g: (_unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape),
                       _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)),
        )

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        old = self.data.shape
        return self._make(self.data.reshape(shape), (self,), lambda g: (g.reshape(old),))

    def transpose(self, *axes):
        inverse = np.argsort(axes)
        return self._make(self.data.transpose(axes), (self,), lambda g: (g.transpose(inverse),))

    def swapaxes(self, a: int, b: int):
        return self._make(np.swapaxes(self.data, a, b), (self,), lambda g: (np.swapaxes(g, a, b),))

    def __getitem__(self, index):
        shape = self.data.shape

        def vjp(g):
            full = np.zeros(shape, dtype=g.dtype)
            np.add.at(full, index, g)
            return (full,)

        return self._make(self.data[index], (self,), vjp)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        shape = self.data.shape

        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), vjp)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinearities -------------------------------------------

    def tanh(self):
        out_data = np.tanh(self.data)
        return self._make(out_data, (self,), lambda g: (g * (1.0 - out_data * out_data),))

    # -- backward pass ---------------------------------------------------------

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf tensor.

        Interior nodes are released as the walk passes them, so the graph
        cannot be walked twice.
        """
        if self.data.size != 1:
            raise GraphError("backward() requires a scalar loss")
        if not self._parents:
            raise GraphError("no recorded computation graph; run a forward pass first")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node.grad is None or not node._parents:
                continue
            for parent, contribution in zip(node._parents, node._vjp(node.grad)):
                if not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = contribution
                else:
                    parent.grad = parent.grad + contribution
            # An interior node is spent once its gradient is passed on:
            # dropping it and its closure frees the saved activations
            # while the rest of the walk runs.
            node.grad = None
            node._parents, node._vjp = (), None


# -- array-level helpers -------------------------------------------------------


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax of an array along its last axis (no tape)."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


# -- fused nodes -----------------------------------------------------------------
#
# Each of these records one tape node with a closed-form backward pass in
# place of the many elementwise nodes the same math takes when composed from
# Tensor operations. A node given dropout keep bits `keep` applies them inside
# the multiply it already does, so its tape holds the bits, not a float mask.


# A quarter of a core's 2 MiB L2. `attention` and `feed_forward` run the chains
# of an array larger than the L2 over blocks of leading rows of this size, so
# each pass stays in cache (FlashAttention's blocking, Dao et al. 2022, over
# leading rows only): no block cuts a GEMM call or a row reduction.
_BLOCK_BYTES = (2 << 20) // 4


def _blocks(n: int, nbytes: int) -> list[slice]:
    """Slices of range(n) that cut an array of `nbytes` over n leading rows into blocks of about
    `_BLOCK_BYTES`; one slice when it fits in four."""
    count = 1 if nbytes <= 4 * _BLOCK_BYTES else min(n, -(-nbytes // _BLOCK_BYTES))
    size = -(-n // count)
    return [slice(start, start + size) for start in range(0, n, size)]


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, with each row of the result independent of how many rows `a` has.

    numpy hands a one-row product to BLAS gemv, which sums in another order
    than gemm. A second copy of the row keeps it on gemm, so a row computed
    alone equals the same row of a many-row product bit for bit.
    """
    if a.shape[-2] != 1:
        return a @ b
    return (np.concatenate([a, a], axis=-2) @ b)[..., :1, :]


def _apply_keep(a: np.ndarray, keep: np.ndarray, keep_scale: float, out: np.ndarray | None = None) -> np.ndarray:
    """Inverted dropout: `a` times the bool bits `keep`, then times `keep_scale`, into `out` if given.

    Bit for bit `a` times the float mask keep * keep_scale, signs of zero included.
    """
    out = np.multiply(a, keep, out=out)
    out *= keep_scale
    return out


def _drop_in_place(out: np.ndarray, keep: np.ndarray | None, keep_scale: float) -> Callable[[np.ndarray], np.ndarray]:
    """Apply dropout to a node's fresh output `out` in place; return g -> the gradient before it, as 2-D rows."""
    if keep is None:
        return lambda g: g.reshape(-1, g.shape[-1])
    _apply_keep(out, keep, keep_scale, out=out)
    return lambda g: _apply_keep(g, keep, keep_scale).reshape(-1, g.shape[-1])


def _into_residual(residual: Tensor | None, out: np.ndarray, parents: tuple, vjp: Callable) -> Tensor:
    """The node of `out`, or of residual + out written into `residual`'s array, whose gradient it passes on as is."""
    if residual is None:
        return Tensor._make(out, parents, vjp)
    residual.data += out
    return Tensor._make(residual.data, parents + (residual,), lambda g: vjp(g) + (g,))


def embedding(
    table: Tensor, positions: Tensor, ids: np.ndarray, keep: np.ndarray | None = None, keep_scale: float = 1.0
) -> Tensor:
    """table[ids] + positions[:length] for (batch, length) `ids`, then dropout in place with `keep`, as one node."""
    length = ids.shape[1]
    out = table.data[ids] + positions.data[:length]
    rows = _drop_in_place(out, keep, keep_scale)

    def vjp(g):
        d_out = rows(g)
        d_table = np.zeros(table.data.shape, dtype=g.dtype)
        np.add.at(d_table, ids.reshape(-1), d_out)
        d_positions = np.zeros(positions.data.shape, dtype=g.dtype)
        d_positions[:length] += d_out.reshape(g.shape).sum(axis=0)
        return d_table, d_positions

    return Tensor._make(out, (table, positions), vjp)


def linear(
    x: Tensor, w: Tensor, b: Tensor, keep: np.ndarray | None = None, keep_scale: float = 1.0,
    residual: Tensor | None = None,
) -> Tensor:
    """x @ w + b over the last axis of x, as one 2-D GEMM over all leading rows, then dropout in place with `keep`.

    With `residual`, returns residual + that, added into `residual`'s array, which is overwritten: pass only a fresh
    interior output whose values no node reads.
    """
    shape = x.data.shape
    x2 = x.data.reshape(-1, shape[-1])
    out = _gemm(x2, w.data)
    out += b.data
    out = out.reshape(shape[:-1] + out.shape[-1:])
    rows = _drop_in_place(out, keep, keep_scale)

    def vjp(g):
        d_out = rows(g)
        return (d_out @ w.data.T).reshape(shape), x2.T @ d_out, d_out.sum(axis=0)

    return _into_residual(residual, out, (x, w, b), vjp)


def feed_forward(
    x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, keep: np.ndarray | None = None, keep_scale: float = 1.0,
    residual: Tensor | None = None,
) -> Tensor:
    """GELU(h) @ w2 + b2 for h = x @ w1 + b1, then dropout in place with `keep`, as one node.

    GELU is the exact erf form h * Phi(h). The node keeps x, h and Phi(h); its
    backward pass recomputes GELU(h) for the gradient of w2. With `residual`,
    the sum is written into its array, as in `linear`. The elementwise chains
    between the GEMMs run over `_blocks` of rows.
    """
    shape = x.data.shape
    x2 = x.data.reshape(-1, shape[-1])
    h = _gemm(x2, w1.data)
    blocks = _blocks(len(h), h.nbytes)
    cdf, gelu = np.empty_like(h), np.empty_like(h)
    for block in blocks:  # h += b1; cdf = 0.5 * (1 + erf(h / sqrt 2)), in place; gelu = h * cdf
        hb, cb = h[block], cdf[block]
        hb += b1.data
        np.divide(hb, _SQRT2, out=cb)
        erf(cb, out=cb)
        cb += 1.0
        cb *= 0.5
        np.multiply(hb, cb, out=gelu[block])
    out = _gemm(gelu, w2.data)
    out += b2.data
    out = out.reshape(shape[:-1] + out.shape[-1:])
    rows = _drop_in_place(out, keep, keep_scale)

    def vjp(g):
        d_out = rows(g)
        d_h = d_out @ w2.data.T
        scratch = np.empty_like(h)
        for block in blocks:  # d_h *= GELU'(h) = cdf + h * pdf(h), in the order of that expression; scratch = GELU(h)
            hb, cb, sb = h[block], cdf[block], scratch[block]
            np.multiply(hb, -0.5, out=sb)
            sb *= hb
            np.exp(sb, out=sb)
            sb *= _INV_SQRT_2PI
            sb *= hb
            sb += cb
            d_h[block] *= sb
            np.multiply(hb, cb, out=sb)
        return (
            (d_h @ w1.data.T).reshape(shape), x2.T @ d_h, d_h.sum(axis=0), scratch.T @ d_out, d_out.sum(axis=0),
        )

    return _into_residual(residual, out, (x, w1, b1, w2, b2), vjp)


def layer_norm(x: Tensor, g: Tensor, b: Tensor) -> Tensor:
    """Normalize the last axis to zero mean and unit variance (eps 1e-5), then scale and shift."""
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    inv_std = (np.mean(centered * centered, axis=-1, keepdims=True) + 1e-5) ** -0.5
    x_hat = centered * inv_std
    lead = tuple(range(x_hat.ndim - 1))

    def vjp(grad):
        d_hat = grad * g.data
        d_x = inv_std * (
            d_hat
            - d_hat.mean(axis=-1, keepdims=True)
            - x_hat * np.mean(d_hat * x_hat, axis=-1, keepdims=True)
        )
        return d_x, (grad * x_hat).sum(axis=lead), grad.sum(axis=lead)

    return Tensor._make(x_hat * g.data + b.data, (x, g, b), vjp)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    num_heads: int,
    bias: np.ndarray | None = None,
    keep: np.ndarray | None = None,
    keep_scale: float = 1.0,
    rows: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Multi-head scaled dot-product attention over (batch, length, hidden) inputs.

    scores = q k^T / sqrt(head_dim) + bias (batch, 1, 1, length), softmax
    over keys, then dropout with the keep bits `keep` (batch, heads, length,
    length) and `keep_scale`, then the weighted sum of values. Returns the
    context (batch, Q, hidden) and the attention probabilities (batch, heads,
    Q, length) before dropout, where Q is `length`, or the width of `rows`
    (batch, Q) when that names the query rows to compute. The node keeps only
    the probabilities and `keep` for its backward pass. The forward chain and
    the backward pass run over `_blocks` of batch rows.

    With `rows`, the score product still runs over every query row and the
    named rows of it and of `keep` are taken: a few-row product can go to
    another BLAS kernel, which sums in another order, and the selected rows
    must equal the same rows of the full attention bit for bit.
    """
    batch, length, hidden = k.data.shape
    head_dim = hidden // num_heads
    scale = 1.0 / math.sqrt(head_dim)
    width = length if rows is None else rows.shape[1]
    dtype = q.data.dtype

    def split(a):  # (B, n, H) -> (B, nh, n, dh), a view where `a` is contiguous
        return a.reshape(a.shape[0], a.shape[1], num_heads, head_dim).transpose(0, 2, 1, 3)

    def dropped(probs, block):
        return probs if keep is None else _apply_keep(probs, keep[block], keep_scale)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    picked_qh = qh
    if rows is not None:
        take = rows[:, None, :, None]
        picked_qh = np.take_along_axis(qh, take, axis=2)
        if keep is not None:
            keep = np.take_along_axis(keep, take, axis=2)
    blocks = _blocks(batch, batch * num_heads * length * length * dtype.itemsize)
    probs = np.empty((batch, num_heads, width, length), dtype)
    context = np.empty((batch, width, hidden), dtype)
    for block in blocks:
        scores = probs[block]
        if rows is None:
            np.matmul(qh[block], kh[block].swapaxes(-1, -2), out=scores)
        else:
            scores[...] = np.take_along_axis(qh[block] @ kh[block].swapaxes(-1, -2), take[block], axis=2)
        scores *= scale
        if bias is not None:
            scores += bias[block]
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        split(context)[block] = _gemm(dropped(scores, block), vh[block])

    def vjp(g):
        gh = split(g)
        d_q, d_k, d_v = (np.empty((batch, n, hidden), dtype) for n in (width, length, length))
        for block in blocks:
            p = probs[block]
            d_scores = gh[block] @ vh[block].swapaxes(-1, -2)  # the gradient at the probabilities, then at the scores
            if keep is not None:
                _apply_keep(d_scores, keep[block], keep_scale, out=d_scores)
            d_scores -= (d_scores * p).sum(axis=-1, keepdims=True)
            d_scores *= p
            d_scores *= scale
            split(d_q)[block] = d_scores @ kh[block]
            split(d_k)[block] = d_scores.swapaxes(-1, -2) @ picked_qh[block]
            split(d_v)[block] = dropped(p, block).swapaxes(-1, -2) @ gh[block]
        if rows is not None:
            full = np.zeros_like(q.data)
            np.add.at(full, (np.arange(batch)[:, None], rows), d_q)
            d_q = full
        return d_q, d_k, d_v

    return Tensor._make(context, (q, k, v), vjp), probs


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer `targets` under softmax(logits), rows (N, C)."""
    rows = np.arange(targets.shape[0])
    log_probs = log_softmax(logits.data)
    loss = -(log_probs[rows, targets].sum() * (1.0 / rows.size))

    def vjp(g):
        grad = np.exp(log_probs)
        grad[rows, targets] -= 1.0
        grad *= g * (1.0 / rows.size)
        return (grad,)

    return Tensor._make(loss, (logits,), vjp)
