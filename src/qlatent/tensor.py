"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 ndarray and records the operations applied
to it; ``backward()`` on a scalar walks the recorded graph once in
reverse topological order.  The op set is exactly what the models in
this package need: broadcast arithmetic, matmul, reductions, a few
pointwise nonlinearities, group normalization, reshaping, a dense layer
(``linear``) and convolution (1x1 GEMM; dense operator if H*W <= K*K;
else one GEMM per tap) that each add their bias inside one node,
pooling, nearest-neighbour upsampling, and concatenation.

Gradients only flow into tensors created with ``requires_grad=True``
and into results derived from them; everything else is treated as a
constant and excluded from the graph.  Inside ``no_grad()`` no op
records a graph at all, so inference keeps no saved activations.
"""

from __future__ import annotations

import contextvars
import functools
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
    """``1 / (1 + e)`` where x >= 0 and ``e / (1 + e)`` elsewhere, with
    ``e = exp(-|x|)``, which never overflows."""
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    # e <= 1, so this picks 1 where x >= 0 and e elsewhere, exactly,
    # without the branches of np.where on a mixed-sign input
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


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

    def _accumulate(self, g: np.ndarray, owned: bool = False):
        """Add ``g`` into ``.grad``.

        The first gradient is copied, never aliased: callers pass views
        of other gradients, and later calls add into ``.grad`` in place.
        A closure that has just built ``g`` and keeps no other reference
        to it passes ``owned=True``, and a C-contiguous ``g`` of the
        right shape is then kept as ``.grad`` without the copy.
        """
        if self.grad is not None:
            self.grad += g
        elif (owned and isinstance(g, np.ndarray)
              and g.shape == self.data.shape and g.flags.c_contiguous):
            self.grad = g
        else:
            self.grad = np.empty_like(self.data, order="C")
            self.grad[...] = g

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
        self._accumulate(np.ones_like(self.data), owned=True)
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
                    _unbroadcast(out.grad * other.data, self.shape),
                    owned=True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(out.grad * self.data, other.shape),
                    owned=True)

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
                self._accumulate(out.grad * c * self.data ** (c - 1.0),
                                 owned=True)

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other.data

        def backward():
            if self.requires_grad:
                g = out.grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(g, self.shape), owned=True)
            if other.requires_grad:
                g = np.swapaxes(self.data, -1, -2) @ out.grad
                other._accumulate(_unbroadcast(g, other.shape), owned=True)

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
                self._accumulate(out.grad * out_data, owned=True)

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def sigmoid(self):
        out_data = _sigmoid(self.data)

        def backward():
            if self.requires_grad:
                g = out.grad * out_data
                g *= 1.0 - out_data
                self._accumulate(g, owned=True)

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def silu(self):
        """x * sigmoid(x), the activation used throughout the models."""
        sig = _sigmoid(self.data)
        out_data = self.data * sig

        def backward():
            if self.requires_grad:
                # out.grad * sig * (1 + x * (1 - sig)), in two buffers
                slope = 1.0 - sig
                slope *= self.data
                slope += 1.0
                g = out.grad * sig
                g *= slope
                self._accumulate(g, owned=True)

        out = Tensor._from_op(out_data, (self,), backward)
        return out

    def abs(self):
        out_data = np.abs(self.data)

        def backward():
            if self.requires_grad:
                g = np.sign(self.data)
                g *= out.grad
                self._accumulate(g, owned=True)

        out = Tensor._from_op(out_data, (self,), backward)
        return out


# ---- structured ops ---------------------------------------------------


def _with_bias(out: Tensor, bias: Tensor | None) -> Tensor:
    """Add an (F,) ``bias`` along axis 1 of the fresh node ``out`` inside
    it: its data in place, and its backward gives the bias the gradient
    summed over the other axes, in ``_unbroadcast``'s order."""
    if bias is None:
        return out
    out.data += bias.data.reshape((-1,) + (1,) * (out.ndim - 2))
    if bias.requires_grad and _grad_enabled.get():
        inner = out._backward

        def backward():
            if inner is not None:
                inner()
            shape = (1,) + bias.shape + (1,) * (out.ndim - 2)
            bias._accumulate(_unbroadcast(out.grad, shape).reshape(-1))

        out.requires_grad = True
        out._parents += (bias,)
        out._backward = backward
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight + bias`` for a 2-D ``x``, as one node."""
    if x.ndim != 2:
        raise ValueError(f"linear takes a 2-D x, got shape {x.shape}")
    return _with_bias(x @ weight, bias)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 1) -> Tensor:
    """NCHW cross-correlation with an (F, C, K, K) kernel, plus an (F,)
    ``bias`` per output channel if given, as one node.

    A 1x1 kernel at stride 1 without padding is one batched GEMM over
    the flattened pixels; a map of ``h * w <= k * k`` pixels is one
    product with its dense operator, no costlier there than a direct
    convolution.  Otherwise the padded input is split once into
    ``stride**2`` phase images of width ``wq`` plus a spare row, with
    the batch flattened into each channel's row.  Outputs are computed
    in rows of width ``wq``, so tap ``(i, j)`` is a GEMM on the
    contiguous slice of phase ``(i % stride, j % stride)`` at ``(i //
    stride) * wq + j // stride``; outputs that wrap a row or an image
    are dropped and get zero gradient.  The input gradient is the same
    tap sum over the output gradient, shifted back by each offset.  Both
    run over blocks of whole images that fit in L2, and each block is
    written straight into its NCHW result.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError("conv2d expects NCHW input and FCKK weight")
    if bias is not None and bias.shape != weight.shape[:1]:
        raise ValueError(f"bias {bias.shape} fits no weight {weight.shape}")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be non-negative, got {padding}")
    n, c, h, w = x.shape
    f, c_w, k, k2 = weight.shape
    if c != c_w or k != k2:
        raise ValueError(
            f"weight {weight.shape} incompatible with input {x.shape}")
    if k == 1 and stride == 1 and padding == 0:
        return _with_bias(_pointwise_conv(x, weight), bias)
    s, p = stride, padding
    h_out = (h + 2 * p - k) // s + 1
    w_out = (w + 2 * p - k) // s + 1
    if h_out < 1 or w_out < 1:
        raise ValueError("kernel does not fit the padded input")
    if h * w <= k * k:
        return _with_bias(_dense_conv(x, weight, s, p, h_out, w_out), bias)
    hq, wq = -(-(h + 2 * p) // s), -(-(w + 2 * p) // s)
    img = (hq + 1) * wq  # wide columns per image
    span = n * img
    # phase (a, b) holds rows a, a + s, ... and columns b, b + s, ... of
    # the padded input; ``windows`` maps its part inside the input to
    # the input's rows and columns
    windows = [(_phase_window(a, p, s, h), _phase_window(b, p, s, w))
               for a in range(s) for b in range(s)]
    phases = np.empty((s * s, c, span))
    for ph, ((ys, y_in), (xs, x_in)) in enumerate(windows):
        ph_grid = phases[ph].reshape(c, n, hq + 1, wq)
        ph_grid[:, :, :ys.start] = 0.0
        ph_grid[:, :, ys.stop:] = 0.0
        ph_grid[:, :, ys, :xs.start] = 0.0
        ph_grid[:, :, ys, xs.stop:] = 0.0
        ph_grid[:, :, ys, xs] = x.data[:, :, y_in, x_in].transpose(
            1, 0, 2, 3)
    reach = ((k - 1) // s) * (wq + 1)  # offset of the farthest tap
    cols = span - reach
    taps = [((i % s) * s + j % s, (i // s) * wq + j // s, i, j)
            for i in range(k) for j in range(k)]

    def grid(wide, images):
        return wide[:, :images * img].reshape(-1, images, hq + 1, wq)

    # whole images per block, as many as keep a block in L2
    per = min(n, max(1, _L2_BYTES // (16 * (f + c) * img)))
    blocks = [(b, min(b + per, n)) for b in range(0, n, per)]

    terms = [(weight.data[:, :, i, j], phases[ph], off)
             for ph, off, i, j in taps]
    out_data = np.empty((n, f, h_out, w_out))
    wide = np.empty((f, per * img))
    tmp = np.empty((f, per * img))
    for b0, b1 in blocks:
        # columns from ``cols`` on are left unwritten; they all wrap
        lo, hi = b0 * img, min(b1 * img, cols)
        _tap_sum(wide[:, :hi - lo], terms, lo, hi, tmp)
        out_data[b0:b1] = grid(wide, b1 - b0)[:, :, :h_out, :w_out] \
            .transpose(1, 0, 2, 3)

    def backward():
        # out.grad in wide rows, after ``reach`` zero columns that the
        # first image's input gradient reads
        g_wide = np.empty((f, reach + span))
        g_wide[:, :reach] = 0.0
        g_grid = grid(g_wide[:, reach:], n)
        g_grid[:, :, h_out:] = 0.0
        g_grid[:, :, :h_out, w_out:] = 0.0
        g_grid[:, :, :h_out, :w_out] = out.grad.transpose(1, 0, 2, 3)
        dw = np.zeros(weight.shape)
        if x.requires_grad:
            dx = np.empty(x.shape)
            d_wide = np.empty((s * s, c, per * img))
            tmp = np.empty((c, per * img))
            d_terms = [[(weight.data[:, :, i, j].T, g_wide, reach - off)
                        for tap_ph, off, i, j in taps if tap_ph == ph]
                       for ph in range(s * s)]
        for b0, b1 in blocks:
            lo, hi = b0 * img, b1 * img
            if weight.requires_grad:
                hi_w = min(hi, cols)
                g = g_wide[:, reach + lo:reach + hi_w]
                for ph, off, i, j in taps:
                    dw[:, :, i, j] += g @ phases[ph, :, lo + off:hi_w + off].T
            if x.requires_grad:
                for ph, ph_terms in enumerate(d_terms):
                    if ph_terms:
                        _tap_sum(d_wide[ph, :, :hi - lo], ph_terms, lo, hi, tmp)
                    else:  # a phase that no tap reads
                        d_wide[ph, :, :hi - lo] = 0.0
                for ph, ((ys, y_in), (xs, x_in)) in enumerate(windows):
                    dx[b0:b1, :, y_in, x_in] = grid(
                        d_wide[ph], b1 - b0)[:, :, ys, xs].transpose(1, 0, 2, 3)
        if weight.requires_grad:
            weight._accumulate(dw, owned=True)
        if x.requires_grad:
            x._accumulate(dx, owned=True)

    out = Tensor._from_op(out_data, (x, weight), backward)
    return _with_bias(out, bias)


def _phase_window(a: int, p: int, s: int, size: int) -> tuple[slice, slice]:
    """Where padded positions ``a, a + s, ...`` fall inside an input
    axis of ``size`` after ``p`` padding: (phase slice, input slice)."""
    first = max(0, -(-(p - a) // s))
    start = first * s + a - p
    count = max(0, -(-(size - start) // s))
    return slice(first, first + count), slice(start, size, s)


def _tap_sum(out, terms, lo, hi, tmp):
    """``out = sum(m @ src[:, lo + shift:hi + shift])`` over ``terms``."""
    (m, src, shift), *rest = terms
    np.matmul(m, src[:, lo + shift:hi + shift], out=out)
    for m, src, shift in rest:
        out += np.matmul(m, src[:, lo + shift:hi + shift],
                         out=tmp[:, :hi - lo])


def _dense_conv(x, weight, s, p, h_out, w_out):
    """Conv by its dense operator (``op[o]``: pixel-major image -> output
    pixel o), gathered from the taps and folded back by a one-hot index."""
    (n, c, h, w), (f, _, k, _) = x.shape, weight.shape
    q, r = h_out * w_out, h * w  # output and input pixels
    onehot = _tap_onehot(k, h, w, s, p)
    taps = weight.data.reshape(f, c, k * k).T.reshape(k * k, c * f)
    op = (onehot.T @ taps).reshape(q, r * c, f)

    def pixel_major(a):  # (n, C, H, W) -> (n, H*W*C)
        return a.reshape(n, c, r).swapaxes(1, 2).reshape(n, r * c)

    out_data = np.matmul(pixel_major(x.data), op).transpose(1, 2, 0)
    out_data = out_data.copy().reshape(n, f, h_out, w_out)

    def backward():
        g = out.grad.reshape(n, f, q).transpose(2, 0, 1)
        if weight.requires_grad:
            d_op = np.matmul(pixel_major(x.data).T, g).reshape(q * r, c * f)
            d_taps = (onehot @ d_op).reshape(k * k, c, f)
            weight._accumulate(d_taps.T.reshape(weight.shape))
        if x.requires_grad:
            dx = np.matmul(g, op.swapaxes(1, 2)).sum(axis=0)
            x._accumulate(dx.reshape(n, r, c).swapaxes(1, 2).reshape(x.shape))

    out = Tensor._from_op(out_data, (x, weight), backward)
    return out


@functools.lru_cache
def _tap_onehot(k: int, h: int, w: int, s: int, p: int) -> np.ndarray:
    """1 at (t, o*H*W + i) where output pixel o reads input i by tap t."""
    rows, cols = (1.0 * (np.arange(k)[:, None, None] == np.arange(size) + p
                         - s * np.arange((size + 2 * p - k) // s + 1)[:, None])
                  for size in (h, w))  # (K, out, in): t == i + p - s*o
    onehot = np.einsum("iyu,jxv->ijyxuv", rows, cols).reshape(k * k, -1)
    onehot.flags.writeable = False
    return onehot


def _pointwise_conv(x: Tensor, weight: Tensor) -> Tensor:
    """1x1 conv at stride 1 without padding: ``W @ x`` per image."""
    n, c, h, w = x.shape
    f = weight.shape[0]
    w2 = weight.data[:, :, 0, 0]
    x3 = x.data.reshape(n, c, h * w)
    out_data = (w2 @ x3).reshape(n, f, h, w)

    def backward():
        g = out.grad.reshape(n, f, h * w)
        if weight.requires_grad:
            dw = (g @ x3.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(dw.reshape(weight.shape), owned=True)
        if x.requires_grad:
            x._accumulate((w2.T @ g).reshape(x.shape), owned=True)

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
    # one buffer holds the squares, then the output
    buf = np.multiply(centred, centred)
    rstd = (np.mean(buf, axis=2, keepdims=True) + eps) ** -0.5
    centred *= rstd
    x_hat = centred.reshape(n, c, -1)
    out_data = np.multiply(x_hat, gamma.data[:, None],
                           out=buf.reshape(n, c, -1))
    out_data += beta.data[:, None]
    out_data = out_data.reshape(x.shape)

    def backward():
        g = out.grad.reshape(n, c, -1)
        # every reduction below comes from these per-channel sums
        g_sum = g.sum(axis=2)
        g_xh = np.einsum("ncs,ncs->nc", g, x_hat)
        if gamma.requires_grad:
            gamma._accumulate(g_xh.sum(axis=0), owned=True)
        if beta.requires_grad:
            beta._accumulate(g_sum.sum(axis=0), owned=True)
        if x.requires_grad:
            size = g.shape[2] * (c // groups)  # values per group

            def group_mean(sums):
                return (sums * gamma.data).reshape(n, groups, -1).sum(
                    axis=2, keepdims=True) / size

            d = (g * gamma.data[:, None]).reshape(n, groups, -1)
            # x_hat * mean(d * x_hat) + mean(d), built in one buffer
            t = np.multiply(x_hat.reshape(n, groups, -1), group_mean(g_xh))
            t += group_mean(g_sum)
            d -= t
            d *= rstd
            x._accumulate(d.reshape(x.shape), owned=True)

    out = Tensor._from_op(out_data, (x, gamma, beta), backward)
    return out


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Repeat each pixel ``factor`` times along both spatial axes."""
    out_data = np.repeat(np.repeat(x.data, factor, axis=2), factor, axis=3)

    def backward():
        if x.requires_grad:
            g = _strided_sum(_strided_sum(out.grad, factor, 3), factor, 2)
            x._accumulate(g, owned=True)

    out = Tensor._from_op(out_data, (x,), backward)
    return out


def _strided_sum(a: np.ndarray, factor: int, axis: int) -> np.ndarray:
    """Fresh sum of ``a``'s ``factor`` interleaved slices along ``axis``.

    Adds the slices in order, as numpy's reduction over a split axis
    does, but with no strided reduction loop.
    """
    index = [slice(None)] * a.ndim
    index[axis] = slice(0, None, factor)
    out = a[tuple(index)].copy()
    for j in range(1, factor):
        index[axis] = slice(j, None, factor)
        out += a[tuple(index)]
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
