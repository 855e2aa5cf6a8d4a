"""Reverse-mode automatic differentiation over numpy arrays.

A small tape: every operation on :class:`Tensor` records the parent tensors
and a vector-Jacobian closure. Calling ``backward()`` on a scalar loss walks
the graph in reverse topological order and accumulates gradients into
``.grad`` of every tensor created with ``requires_grad=True``.

Gradients are exact analytic derivatives of the forward computation, which is
what the finite-difference checks in the test suite verify.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

__all__ = ["Tensor", "no_grad", "GraphError", "softmax", "log_softmax", "dropout"]

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

_grad_enabled = True


class GraphError(RuntimeError):
    """Raised when backward() is called without a recorded forward graph."""


class no_grad:
    """Context manager that disables graph recording (fast inference path)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjps")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._vjps: tuple = ()

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(np.asarray(value))

    @staticmethod
    def _make(data, parents, vjps) -> "Tensor":
        out = Tensor(data)
        if _grad_enabled:
            tracked = [(p, v) for p, v in zip(parents, vjps) if p.requires_grad]
            if tracked:
                out.requires_grad = True
                out._parents = tuple(p for p, _ in tracked)
                out._vjps = tuple(v for _, v in tracked)
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
        other = self._lift(other)
        return self._make(
            self.data + other.data,
            (self, other),
            (lambda g: _unbroadcast(g, self.data.shape),
             lambda g: _unbroadcast(g, other.data.shape)),
        )

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self.data, (self,), (lambda g: -g,))

    def __sub__(self, other):
        other = self._lift(other)
        return self._make(
            self.data - other.data,
            (self, other),
            (lambda g: _unbroadcast(g, self.data.shape),
             lambda g: _unbroadcast(-g, other.data.shape)),
        )

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        return self._make(
            self.data * other.data,
            (self, other),
            (lambda g: _unbroadcast(g * other.data, self.data.shape),
             lambda g: _unbroadcast(g * self.data, other.data.shape)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        return self._make(
            self.data / other.data,
            (self, other),
            (lambda g: _unbroadcast(g / other.data, self.data.shape),
             lambda g: _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape)),
        )

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __matmul__(self, other):
        other = self._lift(other)
        a, b = self.data, other.data
        return self._make(
            a @ b,
            (self, other),
            (lambda g: _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape),
             lambda g: _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)),
        )

    def __pow__(self, exponent: float):
        data = self.data
        return self._make(
            data ** exponent,
            (self,),
            (lambda g: g * exponent * data ** (exponent - 1),),
        )

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        old = self.data.shape
        return self._make(self.data.reshape(shape), (self,), (lambda g: g.reshape(old),))

    def transpose(self, *axes):
        inverse = np.argsort(axes)
        return self._make(
            self.data.transpose(axes),
            (self,),
            (lambda g: g.transpose(inverse),),
        )

    def swapaxes(self, a: int, b: int):
        return self._make(np.swapaxes(self.data, a, b), (self,), (lambda g: np.swapaxes(g, a, b),))

    def __getitem__(self, index):
        shape = self.data.shape

        def vjp(g):
            full = np.zeros(shape, dtype=g.dtype)
            np.add.at(full, index, g)
            return full

        return self._make(self.data[index], (self,), (vjp,))

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        shape = self.data.shape

        def vjp(g):
            if axis is None:
                return np.broadcast_to(g, shape).copy()
            g_exp = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(g_exp, shape).copy()

        return self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), (vjp,))

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinearities -------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)
        return self._make(out_data, (self,), (lambda g: g * out_data,))

    def log(self):
        data = self.data
        return self._make(np.log(data), (self,), (lambda g: g / data,))

    def sqrt(self):
        out_data = np.sqrt(self.data)
        return self._make(out_data, (self,), (lambda g: g * 0.5 / out_data,))

    def tanh(self):
        out_data = np.tanh(self.data)
        return self._make(out_data, (self,), (lambda g: g * (1.0 - out_data * out_data),))

    def gelu(self):
        """Gaussian error linear unit, exact erf form: x * Phi(x)."""
        x = self.data
        cdf = 0.5 * (1.0 + erf(x / _SQRT2))
        out_data = x * cdf
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        return self._make(out_data, (self,), (lambda g: g * (cdf + x * pdf),))

    # -- backward pass ---------------------------------------------------------

    def backward(self):
        """Accumulate gradients of this scalar into every reachable tensor."""
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
            g = node.grad
            if g is None:
                continue
            for parent, vjp in zip(node._parents, node._vjps):
                contribution = vjp(g)
                if parent.grad is None:
                    parent.grad = contribution
                else:
                    parent.grad = parent.grad + contribution


# -- composite helpers --------------------------------------------------------


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis`."""
    shifted = t - t.data.max(axis=axis, keepdims=True)
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along `axis`."""
    shifted = t - t.data.max(axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(t: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate == 0."""
    if rate <= 0.0:
        return t
    keep = (rng.random(t.data.shape) >= rate) / (1.0 - rate)
    return t * keep
