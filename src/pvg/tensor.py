"""Dense tensor with reverse-mode gradient accumulation.

The carrier type for node features, weights, and activations throughout the
package. Values are stored as a flat row-major float buffer (float32 for
forward/training, float64 for oracle and gradient checks); each differentiable
operation records a backward closure so that ``Tensor.backward()`` accumulates
gradients into every reachable leaf.

Backward consumes the graph it sweeps: each interior node drops its gradient,
its closure and its parent links as soon as its closure has run, so the
intermediate values of a step are freed during the sweep rather than kept
until the caller's last reference goes. Leaves keep their gradients. A swept
graph cannot be swept again: a second backward from the same root, or from a
root whose graph shares nodes with a swept one, raises
:class:`~pvg.errors.GraphReleasedError` before any gradient is accumulated.

Scope is deliberately narrow: the only broadcasting is scalar-with-tensor
(plus the explicit row-vector scale ``mul_rowvec`` and the bias of
``linear``), reductions remove their axis, and there is no graph
optimization, automatic fusion, or device support; the fused ops are written
by hand: ``linear`` (matmul plus bias, one node per affine map),
``layer_norm``, ``cdf_gate`` (the Gaussian-CDF gate) and ``offset_mix`` (the
local branch's grid-window mixing, one ``einsum`` over padded-grid windows).
Max reductions route the gradient to the lowest index among maximal entries
so every subgradient choice is deterministic and testable. No op loops in
Python over offsets, images or rows.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf as _erf

from .errors import (
    DimensionError,
    EmptyReductionError,
    GraphReleasedError,
    NonFiniteError,
)

# Names of every differentiable operation exposed by this module. Gradient
# certification (tests) must cover each entry.
DIFFERENTIABLE_OPS = [
    "add",
    "sub",
    "mul",
    "cdf_gate",
    "max0",
    "matmul",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "sum_all",
    "concat",
    "narrow",
    "gather_rows",
    "reshape",
    "permute",
    "mul_rowvec",
    "linear",
    "layer_norm",
    "softmax_cross_entropy",
    "offset_mix",
]

_FLOAT_DTYPES = (np.float32, np.float64)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 * (1.0 / np.sqrt(np.pi))


class Tensor:
    """n-dimensional value array with an accumulated-gradient slot.

    ``data`` is a C-contiguous numpy array (the flat row-major buffer plus
    shape metadata). ``grad``, when present, always matches ``data``'s shape.
    Stored scalars must be finite; leaf construction checks this and raises
    :class:`NonFiniteError` otherwise.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        arr = np.ascontiguousarray(arr)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor constructed with NaN/Inf entries")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self.op = "leaf"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple["Tensor", ...], op: str) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
        out._parents = parents if out.requires_grad else ()
        out._backward = None
        out.op = op
        return out

    # -- metadata ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.size != 1:
            raise DimensionError(f"item() on tensor of {self.size} elements")
        return float(self.data.reshape(-1)[0])

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype), requires_grad=self.requires_grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, op={self.op})"

    # -- autograd ----------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # 0 + g into a fresh array: the bits that adding g to a zero-filled
            # array gives (a -0.0 entry becomes +0.0), without the fill.
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Reverse-mode sweep from this tensor that consumes its graph.

        ``seed`` defaults to ones and must match this tensor's shape; calling
        without a seed on a non-scalar is almost always a bug, so the default
        is only intended for scalar losses.

        Every interior node (one built by an operation, this tensor included)
        is released right after its closure has run: its ``grad``,
        ``_backward`` and ``_parents`` are dropped. Leaves keep their
        accumulated ``grad``. Sweeping a released node again, by a second
        ``backward()`` from the same root or from another root over a shared
        subgraph, raises :class:`GraphReleasedError`; the check runs before
        any closure, so no gradient is accumulated by the failed call.
        """
        if seed is None:
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=self.data.dtype)
            if seed.shape != self.data.shape:
                raise DimensionError("backward seed shape mismatch")

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            # Every op sets a closure on a node that needs a gradient, so an
            # interior node without one was released by an earlier backward.
            if node.requires_grad and node.op != "leaf" and node._backward is None:
                raise GraphReleasedError(
                    f"backward reached a {node.op!r} node that an earlier backward released"
                )
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        self._accumulate(seed)
        # Popping drops the list's reference, so a released node and the
        # values only it kept alive are freed as the sweep moves on.
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node.op != "leaf":
                node.grad = None
                node._backward = None
                node._parents = ()


# ---------------------------------------------------------------------------
# shape/broadcast helpers
# ---------------------------------------------------------------------------


def _is_scalar_shaped(t: Tensor) -> bool:
    return t.size == 1


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape:
        return
    if _is_scalar_shaped(a) or _is_scalar_shaped(b):
        return
    raise DimensionError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def _reduce_to(g: np.ndarray, like: Tensor) -> np.ndarray:
    # Collapse a full-shape gradient back onto a scalar-shaped operand.
    if g.shape == like.shape:
        return g
    return np.sum(g).reshape(like.shape).astype(like.data.dtype)


def _set_backward(out: Tensor, fn: Callable[[np.ndarray], None]) -> None:
    if out.requires_grad:
        out._backward = fn


# ---------------------------------------------------------------------------
# elementwise operations
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")
    out = Tensor._from_op(a.data + b.data, (a, b), "add")

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_reduce_to(g, a))
        if b.requires_grad:
            b._accumulate(_reduce_to(g, b))

    _set_backward(out, bw)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")
    out = Tensor._from_op(a.data - b.data, (a, b), "sub")

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_reduce_to(g, a))
        if b.requires_grad:
            b._accumulate(_reduce_to(-g, b))

    _set_backward(out, bw)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")
    out = Tensor._from_op(a.data * b.data, (a, b), "mul")

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_reduce_to(g * b.data, a))
        if b.requires_grad:
            b._accumulate(_reduce_to(g * a.data, b))

    _set_backward(out, bw)
    return out


def max0(a: Tensor) -> Tensor:
    """ReLU: zero-or-identity mapping. Subgradient at 0 is 0."""
    out = Tensor._from_op(np.maximum(a.data, 0), (a,), "max0")

    def bw(g: np.ndarray) -> None:
        a._accumulate(g * (a.data > 0))

    _set_backward(out, bw)
    return out


# ---------------------------------------------------------------------------
# matmul and the affine map
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors; d a = g b^T, d b = a^T g."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul requires rank-2 operands")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul inner extents differ: {a.shape} x {b.shape}"
        )
    out = Tensor._from_op(a.data @ b.data, (a, b), "matmul")

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    _set_backward(out, bw)
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``x @ weight + bias`` of rank-2 ``x``, ``bias`` added to every row.

    One node: the bias goes in place into the product buffer, so the map
    keeps one ``[rows, out]`` array, in the product's dtype. Values and
    gradients equal, bit for bit, those of ``matmul`` followed by a
    row-vector bias add of the same dtype.
    """
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise DimensionError("linear requires rank-2 input and weight")
    if x.shape[1] != weight.shape[0]:
        raise DimensionError(f"linear inner extents differ: {x.shape} x {weight.shape}")
    c = weight.shape[1]
    if bias.shape != (c,):
        raise DimensionError(f"linear: bias {bias.shape} does not match output width {c}")
    y = x.data @ weight.data
    y += bias.data
    out = Tensor._from_op(y, (x, weight, bias), "linear")

    def bw(g: np.ndarray) -> None:
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, c).sum(axis=0))
        if x.requires_grad:
            x._accumulate(g @ weight.data.T)
        if weight.requires_grad:
            weight._accumulate(x.data.T @ g)

    _set_backward(out, bw)
    return out


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _check_axis(x: Tensor, axis: int) -> int:
    if not (-x.data.ndim <= axis < x.data.ndim):
        raise DimensionError(f"axis {axis} out of range for rank {x.data.ndim}")
    axis = axis % x.data.ndim
    if x.shape[axis] == 0:
        raise EmptyReductionError(f"reduction over empty axis {axis}")
    return axis


def reduce_sum(x: Tensor, axis: int) -> Tensor:
    axis = _check_axis(x, axis)
    out = Tensor._from_op(np.sum(x.data, axis=axis), (x,), "reduce_sum")

    def bw(g: np.ndarray) -> None:
        x._accumulate(np.broadcast_to(np.expand_dims(g, axis), x.shape).copy())

    _set_backward(out, bw)
    return out


def reduce_mean(x: Tensor, axis: int) -> Tensor:
    axis = _check_axis(x, axis)
    n = x.shape[axis]
    out = Tensor._from_op(np.mean(x.data, axis=axis), (x,), "reduce_mean")

    def bw(g: np.ndarray) -> None:
        x._accumulate(np.broadcast_to(np.expand_dims(g / n, axis), x.shape).copy())

    _set_backward(out, bw)
    return out


def reduce_max(x: Tensor, axis: int) -> Tensor:
    """Max along ``axis``; ties route the gradient to the lowest index."""
    axis = _check_axis(x, axis)
    # argmax returns the first maximum; the narrowest unsigned dtype that
    # holds every index keeps the winners small for backward.
    winners = np.argmax(x.data, axis=axis).astype(np.min_scalar_type(x.shape[axis] - 1))
    out = Tensor._from_op(np.max(x.data, axis=axis), (x,), "reduce_max")

    def bw(g: np.ndarray) -> None:
        dx = np.zeros_like(x.data)
        np.put_along_axis(
            dx, np.expand_dims(winners, axis), np.expand_dims(g, axis), axis
        )
        x._accumulate(dx)

    _set_backward(out, bw)
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor._from_op(np.asarray(np.sum(x.data), dtype=x.data.dtype), (x,), "sum_all")

    def bw(g: np.ndarray) -> None:
        x._accumulate(np.full_like(x.data, float(g)))

    _set_backward(out, bw)
    return out


# ---------------------------------------------------------------------------
# shape surgery
# ---------------------------------------------------------------------------


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along ``axis``; the gradient splits by segment."""
    parts = list(parts)
    if not parts:
        raise DimensionError("concat of zero parts")
    rank = parts[0].data.ndim
    if not (-rank <= axis < rank):
        raise DimensionError(f"axis {axis} out of range for rank {rank}")
    axis = axis % rank
    ref = list(parts[0].shape)
    for p in parts[1:]:
        s = list(p.shape)
        if len(s) != rank or s[:axis] + s[axis + 1 :] != ref[:axis] + ref[axis + 1 :]:
            raise DimensionError(
                f"concat extents off axis {axis} differ: {parts[0].shape} vs {p.shape}"
            )
    out = Tensor._from_op(
        np.concatenate([p.data for p in parts], axis=axis), tuple(parts), "concat"
    )
    sizes = [p.shape[axis] for p in parts]

    def bw(g: np.ndarray) -> None:
        start = 0
        for p, width in zip(parts, sizes):
            if p.requires_grad:
                sl = [slice(None)] * rank
                sl[axis] = slice(start, start + width)
                p._accumulate(g[tuple(sl)])
            start += width

    _set_backward(out, bw)
    return out


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along ``axis``; the gradient zero-pads outside it."""
    rank = x.data.ndim
    if not (-rank <= axis < rank):
        raise DimensionError(f"axis {axis} out of range for rank {rank}")
    axis = axis % rank
    if start < 0 or length < 0 or start + length > x.shape[axis]:
        raise DimensionError(
            f"narrow [{start}:{start + length}] outside extent {x.shape[axis]}"
        )
    sl = [slice(None)] * rank
    sl[axis] = slice(start, start + length)
    out = Tensor._from_op(np.ascontiguousarray(x.data[tuple(sl)]), (x,), "narrow")

    def bw(g: np.ndarray) -> None:
        dx = np.zeros_like(x.data)
        dx[tuple(sl)] = g
        x._accumulate(dx)

    _set_backward(out, bw)
    return out


def gather_rows(x: Tensor, row_idx: np.ndarray) -> Tensor:
    """Index rows of a rank-2 tensor: out[..., :] = x[row_idx[...], :].

    ``row_idx`` may have any shape; the result has shape
    ``row_idx.shape + (x.shape[1],)``. Duplicate indices accumulate their
    gradients, which is what makes this double as an explicit broadcast.
    """
    if x.data.ndim != 2:
        raise DimensionError("gather_rows requires a rank-2 source")
    idx = np.asarray(row_idx)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise DimensionError("gather_rows index out of range")
    out = Tensor._from_op(x.data[idx], (x,), "gather_rows")
    flat_idx = idx.reshape(-1)
    c = x.shape[1]
    elem_dtype = np.int32 if x.size <= np.iinfo(np.int32).max else np.int64

    def bw(g: np.ndarray) -> None:
        # Entry by entry into the flat buffer: each sums in a row-wise np.add.at's order.
        elems = flat_idx.astype(elem_dtype)[:, None] * elem_dtype(c) + np.arange(c, dtype=elem_dtype)
        dx = np.zeros_like(x.data)
        np.add.at(dx.reshape(-1), elems.reshape(-1), g.reshape(-1))
        x._accumulate(dx)

    _set_backward(out, bw)
    return out


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}")
    out = Tensor._from_op(x.data.reshape(shape), (x,), "reshape")

    def bw(g: np.ndarray) -> None:
        x._accumulate(g.reshape(x.shape))

    _set_backward(out, bw)
    return out


def permute(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.data.ndim)):
        raise DimensionError(f"permute axes {axes} invalid for rank {x.data.ndim}")
    inv = np.argsort(axes)
    out = Tensor._from_op(np.ascontiguousarray(x.data.transpose(axes)), (x,), "permute")

    def bw(g: np.ndarray) -> None:
        x._accumulate(np.ascontiguousarray(g.transpose(inv)))

    _set_backward(out, bw)
    return out


# ---------------------------------------------------------------------------
# row-vector broadcast (per-channel scale over leading axes)
# ---------------------------------------------------------------------------


def mul_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Multiply every row of ``x`` by the vector ``v`` (shape = last extent)."""
    if v.data.ndim != 1 or v.shape[0] != x.shape[-1]:
        raise DimensionError(f"mul_rowvec: {v.shape} does not match last extent of {x.shape}")
    out = Tensor._from_op(x.data * v.data, (x, v), "mul_rowvec")

    def bw(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * v.data)
        if v.requires_grad:
            v._accumulate((g * x.data).reshape(-1, v.shape[0]).sum(axis=0))

    _set_backward(out, bw)
    return out


# ---------------------------------------------------------------------------
# fused operations
# ---------------------------------------------------------------------------


def cdf_gate(x: Tensor, eps: Tensor | None = None) -> Tensor:
    """Gaussian-CDF gate ``0.5 * x * (1 + erf(x * s))``, ``s = 1 / (sqrt(2) (1 + eps))``.

    That is x times the probability that a zero-mean Gaussian with standard
    deviation 1 + eps falls below x. ``eps`` is a one-element tensor and gets
    a gradient; ``eps=None`` is exact-erf GELU, s = 1/sqrt(2). erf is
    scipy's, evaluated in double and rounded once (well under 1e-7 abs).

    One node that keeps only the erf values for backward. Values and
    gradients equal, bit for bit, those of the elementwise chain ``1 + eps``,
    reciprocal, ``* 1/sqrt(2)``, ``x * s``, erf, ``+ 1``, ``x * (.)``,
    ``* 0.5``: each step rounds in the same dtype and order, and x receives
    its two terms in the order that chain's backward sweep added them.
    """
    if eps is None:
        s = np.asarray(_INV_SQRT2, dtype=x.data.dtype)
        parents: tuple[Tensor, ...] = (x,)
    else:
        if eps.size != 1:
            raise DimensionError(f"cdf_gate: eps must hold one value, got shape {eps.shape}")
        shifted = eps.data + np.asarray(1.0, dtype=eps.data.dtype)
        inv_sd = 1.0 / shifted
        s = (inv_sd * np.asarray(_INV_SQRT2, dtype=inv_sd.dtype)).reshape(())
        parents = (x, eps)
    e = x.data * s
    _erf(e, out=e)
    y = e + np.asarray(1.0, dtype=e.dtype)
    np.multiply(x.data, y, out=y)
    np.multiply(y, np.asarray(0.5, dtype=y.dtype), out=y)
    out = Tensor._from_op(y, parents, "cdf_gate")
    dt = y.dtype

    def bw(g: np.ndarray) -> None:
        gh = g * np.asarray(0.5, dtype=dt)  # gradient at x * (1 + erf)
        buf = e + np.asarray(1.0, dtype=e.dtype)
        if x.requires_grad:
            np.multiply(gh, buf, out=buf)
            x._accumulate(buf)
        # d erf(a) / da = 2/sqrt(pi) exp(-a^2), evaluated in double at a = x * s.
        np.multiply(x.data, s, out=buf)
        d = buf.astype(np.float64)
        np.square(d, out=d)
        np.negative(d, out=d)
        np.exp(d, out=d)
        np.multiply(d, _TWO_OVER_SQRT_PI, out=d)
        buf[...] = d
        del d
        np.multiply(gh, x.data, out=gh)  # gradient at erf
        np.multiply(gh, buf, out=gh)  # gradient at a
        if x.requires_grad:
            np.multiply(gh, s, out=buf)
            x._accumulate(buf)
        if eps is not None and eps.requires_grad:
            np.multiply(gh, x.data, out=gh)
            g_inv_sd = np.sum(gh).reshape(eps.shape) * np.asarray(_INV_SQRT2, dtype=inv_sd.dtype)
            eps._accumulate(-g_inv_sd / (shifted * shifted))

    _set_backward(out, bw)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization over the last axis with learnable scale/shift.

    Each row (node) is normalized over its channel vector independently of
    every other row, so the result does not depend on batch composition.
    """
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError("layer_norm scale/shift must match channel extent")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    xhat = xc * inv
    out = Tensor._from_op(xhat * gamma.data + beta.data, (x, gamma, beta), "layer_norm")

    def bw(g: np.ndarray) -> None:
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).reshape(-1, c).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.reshape(-1, c).sum(axis=0))
        if x.requires_grad:
            gh = g * gamma.data
            m1 = gh.mean(axis=-1, keepdims=True)
            m2 = (gh * xhat).mean(axis=-1, keepdims=True)
            x._accumulate((gh - m1 - xhat * m2) * inv)

    _set_backward(out, bw)
    return out


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of rank-2 logits against integer labels."""
    if logits.data.ndim != 2:
        raise DimensionError("softmax_cross_entropy requires rank-2 logits")
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.shape != (n,):
        raise DimensionError("label count does not match logit rows")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise DimensionError("label id outside logit width")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    nll = -(z[np.arange(n), labels] - np.log(ez.sum(axis=1)))
    out = Tensor._from_op(np.asarray(nll.mean(), dtype=logits.data.dtype), (logits,), "softmax_cross_entropy")

    def bw(g: np.ndarray) -> None:
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        logits._accumulate(d * (float(g) / n))

    _set_backward(out, bw)
    return out


def _grid_windows(a: np.ndarray, ry: int, rx: int) -> np.ndarray:
    # Windows of [batch, h, w, c] grids zero-padded by (ry, rx): [batch, h, w, c, 2ry+1, 2rx+1].
    padded = np.pad(a, ((0, 0), (ry, ry), (rx, rx), (0, 0)))
    return sliding_window_view(padded, (2 * ry + 1, 2 * rx + 1), axis=(1, 2))


def offset_mix(
    x: Tensor,
    weights: Tensor,
    grid: tuple[int, int],
    bias: Tensor | None = None,
) -> Tensor:
    """Depthwise mixing over each node's Chebyshev (2r+1)^2 grid window.

    ``x`` holds ``batch`` row-major ``h x w`` grids as ``[batch·h·w, c]``
    rows, image-major, with ``grid = (h, w)``. ``weights`` has one row per
    offset in row-major offset order, ``o = (dy + r)·(2r + 1) + (dx + r)`` for
    dy, dx in ``[-r, r]``, so its row count fixes the radius r. Computes

        y[b, i, j, c] = sum_o weights[o, c] * x[b, i + dy, j + dx, c] (+ bias[o, c])

    over the offsets whose source lies on the grid (zero padding: an offset
    that falls off the grid contributes neither its weight nor its bias).
    Forward, input and weight gradients are one ``einsum`` each over the zero-padded
    grid's windows, clipped to offsets that reach it; bias adds one [h, w, c] map.
    """
    if weights.data.ndim != 2:
        raise DimensionError("offset_mix: weights must be [offsets, channels]")
    n_off, c = weights.shape
    side = math.isqrt(n_off)
    if side * side != n_off or side % 2 == 0:
        raise DimensionError(f"offset_mix: {n_off} offset rows is not an odd square")
    r = side // 2
    if x.data.ndim != 2 or x.shape[1] != c:
        raise DimensionError("offset_mix: x must be [rows, channels] matching weights")
    if bias is not None and bias.shape != weights.shape:
        raise DimensionError("offset_mix: bias must match weights shape")
    h, w = grid
    if h < 1 or w < 1 or x.shape[0] % (h * w):
        raise DimensionError(f"offset_mix: {x.shape[0]} rows do not fill {h}x{w} grids")
    batch = x.shape[0] // (h * w)
    ry, rx = min(r, h - 1), min(r, w - 1)
    live = (slice(r - ry, r + ry + 1), slice(r - rx, r + rx + 1))
    kernel = weights.data.reshape(side, side, c)[live]
    xg = x.data.reshape(batch, h, w, c)
    # valid[i, j, y, x] = 1 where node (i, j)'s offset (y - ry, x - rx) is on the grid.
    valid = _grid_windows(np.ones((1, h, w, 1), dtype=xg.dtype), ry, rx)[0, :, :, 0]

    # No ``optimize``: it would copy the windows out, 49 times the grid at r = 3.
    y = np.einsum("bijcyx,yxc->bijc", _grid_windows(xg, ry, rx), kernel)
    if bias is not None:
        y += np.einsum("ijyx,yxc->ijc", valid, bias.data.reshape(side, side, c)[live])
    parents = (x, weights) if bias is None else (x, weights, bias)
    out = Tensor._from_op(y.reshape(x.shape), parents, "offset_mix")

    def bw(g: np.ndarray) -> None:
        gg = g.reshape(batch, h, w, c)
        if x.requires_grad:
            # Node p feeds node p - offset: the adjoint flips the kernel.
            gx = np.einsum("bijcyx,yxc->bijc", _grid_windows(gg, ry, rx), kernel[::-1, ::-1])
            x._accumulate(gx.reshape(x.shape))
        if weights.requires_grad:
            gw = np.zeros_like(weights.data)
            gw.reshape(side, side, c)[live] = np.einsum("bijc,bijcyx->yxc", gg, _grid_windows(xg, ry, rx))
            weights._accumulate(gw)
        if bias is not None and bias.requires_grad:
            gb = np.zeros_like(bias.data)
            gb.reshape(side, side, c)[live] = np.einsum("ijc,ijyx->yxc", gg.sum(axis=0), valid)
            bias._accumulate(gb)

    _set_backward(out, bw)
    return out
