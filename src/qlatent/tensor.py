"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 ndarray and records the operations applied
to it; ``backward()`` on a scalar walks the recorded graph once in
reverse topological order.  The op set is exactly what the models in
this package need: broadcast arithmetic, matmul, reductions, a few
pointwise nonlinearities, group normalization, reshaping, column-free
convolution (one GEMM per kernel tap), pooling, nearest-neighbour
upsampling, and concatenation.

Gradients only flow into tensors created with ``requires_grad=True``
and into results derived from them; everything else is treated as a
constant and excluded from the graph.  Inside ``no_grad()`` no op
records a graph at all, so inference keeps no saved activations.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager

import numpy as np

_L2_BYTES = 1 << 21  # cache per core that conv2d sizes its column blocks to
_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    """Run ops without recording the graph; results need no gradient."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))  # never overflows
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class Tensor:
    """Array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return (f"Tensor(shape={self.shape}, "
                f"requires_grad={self.requires_grad})")

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a scalar, shape is {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Same values, cut loose from the graph."""
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            # a copy, never an alias: callers pass views of other
            # gradients, and later calls add into this array in place
            self.grad = np.empty_like(self.data, order="C")
            self.grad[...] = g
        else:
            self.grad += g

    def backward(self):
        """Backpropagate from a scalar; accumulates into ``.grad``.

        The graph is released as it is consumed, so a second call only
        reaches nodes the first sweep never visited.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar value")
        if not self.requires_grad:
            raise ValueError("backward() on a tensor with no graph")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is None:
                continue
            node._backward()
            # each closure holds its own output, so a finished graph is
            # all reference cycles; dropping the links here frees saved
            # activations by refcount instead of waiting on the cycle
            # collector, which ignores how large the arrays are
            node._backward = None
            node._parents = ()

    # ---- graph construction helper -------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple["Tensor", ...],
                 backward_fn) -> "Tensor":
        out = Tensor(data)
        if _grad_enabled.get() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward_fn
        return out

    # ---- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other.data

        def backward():
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.shape))

        out = Tensor._from_op(out_data, (self, other), backward)
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other.data

        def backward():
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(out.grad * self.data, other.shape))

        out = Tensor._from_op(out_data, (self, other), backward)
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other):
        return Tensor(other) + (-self)

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self * other ** -1.0

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        c = float(exponent)
        out_data = self.data ** c

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad * c * self.data ** (c - 1.0))

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other.data

        def backward():
            if self.requires_grad:
                g = out.grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                g = np.swapaxes(self.data, -1, -2) @ out.grad
                other._accumulate(_unbroadcast(g, other.shape))

        out = Tensor._from_op(out_data, (self, other), backward)
        return out

    # ---- reductions and shape ops ----------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward():
            if not self.requires_grad:
                return
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape))

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.shape))

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    # ---- pointwise nonlinearities -----------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad * out_data)

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def sigmoid(self):
        out_data = _sigmoid(self.data)

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad * out_data * (1.0 - out_data))

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def silu(self):
        """x * sigmoid(x), the activation used throughout the models."""
        sig = _sigmoid(self.data)
        out_data = self.data * sig

        def backward():
            if self.requires_grad:
                self._accumulate(
                    out.grad * sig * (1.0 + self.data * (1.0 - sig)))

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def abs(self):
        out_data = np.abs(self.data)

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad * np.sign(self.data))

        out = Tensor._from_op(out_data, (self,), backward)
        return out


# ---- structured ops ---------------------------------------------------


def conv2d(x: Tensor, weight: Tensor, stride: int = 1,
           padding: int = 1) -> Tensor:
    """NCHW cross-correlation with an (F, C, K, K) kernel, no bias.

    The padded input is split once into ``stride**2`` phase images of
    width ``wq`` plus a spare row, with the batch flattened into each
    channel's row.  Outputs are computed in rows of width ``wq``, so tap
    ``(i, j)`` is a GEMM on the contiguous slice of phase ``(i % stride,
    j % stride)`` at ``(i // stride) * wq + j // stride``; outputs that
    wrap a row or an image are dropped and get zero gradient.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError("conv2d expects NCHW input and FCKK weight")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be non-negative, got {padding}")
    n, c, h, w = x.shape
    f, c_w, k, k2 = weight.shape
    if c != c_w or k != k2:
        raise ValueError(
            f"weight {weight.shape} incompatible with input {x.shape}")
    s, p = stride, padding
    h_out = (h + 2 * p - k) // s + 1
    w_out = (w + 2 * p - k) // s + 1
    if h_out < 1 or w_out < 1:
        raise ValueError("kernel does not fit the padded input")
    hq, wq = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
    span = n * (hq + 1) * wq
    x_pad = np.zeros((c, n, (hq + 1) * s, wq * s))
    x_pad[:, :, p:p + h, p:p + w] = x.data.transpose(1, 0, 2, 3)
    # for stride 1 the phase split is a no-copy view
    phases = np.ascontiguousarray(x_pad.reshape(
        c, n, hq + 1, s, wq, s).transpose(3, 5, 0, 1, 2, 4)).reshape(
            s * s, c, span)
    cols = span - ((k - 1) // s) * (wq + 1)  # room for the farthest tap
    taps = [((i % s) * s + j % s, (i // s) * wq + j // s, i, j)
            for i in range(k) for j in range(k)]

    def nchw(wide):
        return wide.reshape(-1, n, hq + 1, wq)[:, :, :h_out, :w_out] \
            .transpose(1, 0, 2, 3)

    step = max(1, _L2_BYTES // (16 * (f + c)))  # a block stays in L2
    blocks = [(lo, min(lo + step, cols)) for lo in range(0, cols, step)]

    out_wide = np.zeros((f, span))
    tmp = np.empty((f, min(step, cols)))
    for lo, hi in blocks:
        for ph, off, i, j in taps:
            out_wide[:, lo:hi] += np.matmul(
                weight.data[:, :, i, j], phases[ph, :, lo + off:hi + off],
                out=tmp[:, :hi - lo])
    out_data = np.ascontiguousarray(nchw(out_wide))

    def backward():
        g_wide = np.zeros((f, span))
        nchw(g_wide)[...] = out.grad
        dw = np.zeros(weight.shape)
        d_phases = np.zeros_like(phases) if x.requires_grad else None
        tmp = np.empty((c, min(step, cols)))
        for lo, hi in blocks:
            g = g_wide[:, lo:hi]
            for ph, off, i, j in taps:
                if weight.requires_grad:
                    dw[:, :, i, j] += g @ phases[ph, :, lo + off:hi + off].T
                if x.requires_grad:
                    d_phases[ph, :, lo + off:hi + off] += np.matmul(
                        weight.data[:, :, i, j].T, g, out=tmp[:, :hi - lo])
        if weight.requires_grad:
            weight._accumulate(dw)
        if x.requires_grad:
            dx_pad = d_phases.reshape(s, s, c, n, hq + 1, wq).transpose(
                2, 3, 4, 0, 5, 1).reshape(c, n, (hq + 1) * s, wq * s)
            x._accumulate(dx_pad[:, :, p:p + h, p:p + w].transpose(1, 0, 2, 3))

    out = Tensor._from_op(out_data, (x, weight), backward)
    return out


def group_norm(x: Tensor, gamma: Tensor, beta: Tensor, groups: int,
               eps: float) -> Tensor:
    """Normalize (N, C, ...) over channel groups, then scale and shift.

    One node; its input gradient is ``rstd * (d - mean(d) - x_hat *
    mean(d * x_hat))`` per group, with ``d = gamma * grad``.
    """
    n, c = x.shape[:2]
    grouped = x.data.reshape(n, groups, -1)
    centred = grouped - grouped.mean(axis=2, keepdims=True)
    rstd = (np.mean(centred ** 2, axis=2, keepdims=True) + eps) ** -0.5
    x_hat = (centred * rstd).reshape(n, c, -1)
    out_data = (x_hat * gamma.data[:, None] + beta.data[:, None]).reshape(
        x.shape)

    def backward():
        g = out.grad.reshape(n, c, -1)
        if gamma.requires_grad:
            gamma._accumulate(np.einsum("ncs,ncs->c", g, x_hat))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=(0, 2)))
        if x.requires_grad:
            d = (g * gamma.data[:, None]).reshape(n, groups, -1)
            xh = x_hat.reshape(n, groups, -1)
            d_mean = d.mean(axis=2, keepdims=True)
            d -= d_mean + xh * np.mean(d * xh, axis=2, keepdims=True)
            d *= rstd
            x._accumulate(d.reshape(x.shape))

    out = Tensor._from_op(out_data, (x, gamma, beta), backward)
    return out


def avg_pool2d(x: Tensor, kernel: int) -> Tensor:
    """Non-overlapping mean pooling; spatial dims must divide by kernel."""
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"input {h}x{w} not divisible by kernel {kernel}")
    hk, wk = h // kernel, w // kernel
    out_data = x.data.reshape(n, c, hk, kernel, wk, kernel).mean(axis=(3, 5))

    def backward():
        if x.requires_grad:
            g = out.grad / (kernel * kernel)
            g = np.repeat(np.repeat(g, kernel, axis=2), kernel, axis=3)
            x._accumulate(g)

    out = Tensor._from_op(out_data, (x,), backward)
    return out


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Repeat each pixel ``factor`` times along both spatial axes."""
    n, c, h, w = x.shape
    out_data = np.repeat(np.repeat(x.data, factor, axis=2), factor, axis=3)

    def backward():
        if x.requires_grad:
            g = out.grad.reshape(n, c, h, factor, w, factor).sum(axis=(3, 5))
            x._accumulate(g)

    out = Tensor._from_op(out_data, (x,), backward)
    return out


def concat(tensors, axis: int = 1) -> Tensor:
    """Concatenate along ``axis``; gradient splits back to the inputs."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward():
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * out_data.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(out.grad[tuple(index)])

    out = Tensor._from_op(out_data, tuple(tensors), backward)
    return out
