"""Dense tensor with reverse-mode gradient accumulation.

The carrier type for node features, weights, and activations throughout the
package. Values are stored as a flat row-major float buffer (float32 for
forward/training, float64 for oracle and gradient checks); each differentiable
operation records a backward closure so that ``Tensor.backward()`` accumulates
gradients into every reachable leaf.

The graph holds no values: a :class:`Tensor` holds its value and a
:class:`Node` (gradient, ``requires_grad``, parent nodes, closure, ``op``,
shape, dtype). Each op rebinds its arguments to their nodes before it defines
its closure, which keeps only the arrays its backward reads: the multiplied
inputs of ``linear``, ``affine`` and ``offset_mix``, the inputs of ``max0``
and ``cdf_gate`` (with its erf values), ``normalize``'s own output and row
scales, ``reduce_max``'s winners (found only when its output needs a
gradient), ``gather_rows``' index and the loss's probabilities. Any other
value is freed once the forward drops it. ``affine`` is the one per-channel
op: a layer norm's scale and shift, and LayerScale's scale without a shift.
``layer_norm`` is ``affine(normalize(x), gamma, beta)``: the normalised rows
are kept once, as ``normalize``'s output and ``affine``'s input.
``recompute(fn, inputs)`` is one node that keeps only its inputs' values:
backward runs ``fn`` again and sweeps that local graph, so ``fn``'s
intermediate values live only while its own backward runs.

Backward consumes the graph it sweeps: each interior node drops its gradient,
its closure and its parent links as soon as its closure has run, so the
intermediate values of a step are freed during the sweep rather than kept
until the caller's last reference goes. Leaves keep their gradients, except a
leaf with a ``hook``: the sweep counts the nodes that read it, and once the
last of them is released it moves the leaf's final gradient out and calls the
hook with it, in the middle of the sweep (training updates each parameter
there and drops its gradient). A swept graph cannot be swept again: a second
backward from the same root, or from a root whose graph shares nodes with a
swept one, raises :class:`~pvg.errors.GraphReleasedError` before any gradient
is accumulated or any hook runs.
As each closure runs once, it may overwrite the gradient it is handed and the
arrays it kept (the gate's backward does both; ``normalize``'s and
``affine``'s overwrite their gradients), and an op hands the fresh arrays
it computes to ``Node._accumulate`` as ``owned``, so a node's first gradient
is that array rather than a copy of it.

Scope is deliberately narrow: binary elementwise ops take equal shapes, the
only broadcasts are explicit (``cdf_gate``'s one-element eps, ``affine``'s
row-vector scale and optional shift, the optional bias of ``linear`` and the
bias map of ``offset_mix``), reductions remove their axis, and there is no
graph optimization, automatic fusion, or device support; the fused ops are
written by hand: ``linear`` (the package's one matrix product, with an
optional bias, one node per affine map), ``normalize``, ``cdf_gate`` (the
Gaussian-CDF gate) and ``offset_mix`` (the local branch's grid-window
mixing: one ``einsum`` each for the value and its gradients, over
padded-grid windows with two axes merged into one long contiguous axis).
Max reductions route the gradient to the lowest index among maximal entries
so every subgradient choice is deterministic and testable. No op loops in
Python over offsets, images or rows; ``reduce_max`` loops over its k indices
(one ``np.maximum`` pass each for a max along an outer axis, one equality
pass each for its winners).
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._erf import erf as _erf
from .errors import (
    DimensionError,
    EmptyReductionError,
    GraphReleasedError,
    NonFiniteError,
)

# Names of every differentiable operation exposed by this module, each
# reached by some model forward or its loss (a test checks this over every
# aggregator x activation). Gradient certification (tests) must cover each entry.
DIFFERENTIABLE_OPS = [
    "add",
    "sub",
    "cdf_gate",
    "max0",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "concat",
    "narrow",
    "gather_rows",
    "reshape",
    "permute",
    "linear",
    "normalize",
    "affine",
    "softmax_cross_entropy",
    "offset_mix",
    "recompute",
]

_FLOAT_DTYPES = (np.float32, np.float64)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 * (1.0 / np.sqrt(np.pi))
# Added to each row's variance by ``normalize``.
LAYER_NORM_EPS = 1e-5


class Node:
    """A tensor's autograd record. ``data`` is its value while something
    still holds it (a weak reference), else an empty array of its dtype."""

    __slots__ = ("grad", "requires_grad", "_parents", "_backward", "hook", "op", "shape", "dtype", "_value")

    def __init__(self, value: np.ndarray, requires_grad: bool, parents: tuple["Node", ...], op: str):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward: Callable[[np.ndarray], None] | None = None
        # A leaf's hook takes its final gradient from the sweep (see Tensor.backward).
        self.hook: Callable[[np.ndarray | None], None] | None = None
        self.op = op
        self.shape = value.shape
        self.dtype = value.dtype
        self._value = weakref.ref(value)

    @property
    def data(self) -> np.ndarray:
        value = self._value()
        return np.empty(0, self.dtype) if value is None else value

    def _accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add ``g`` to the gradient. ``owned`` hands over ``g``, a value no
        one else reads afterwards, so a first contribution that is an array of
        the node's shape and dtype becomes the gradient in place of a copy (a
        0-d result of numpy arithmetic is a scalar, and is copied)."""
        if self.grad is None:
            # 0 + g: the bits that adding g to a zero-filled array gives (a
            # -0.0 entry becomes +0.0), without the fill.
            adopt = owned and isinstance(g, np.ndarray) and g.shape == self.shape and g.dtype == self.dtype
            self.grad = np.add(g, 0.0, out=g if adopt else np.empty(self.shape, self.dtype))
        else:
            self.grad += g


def _on_node(name: str) -> property:
    return property(lambda t: getattr(t._node, name), lambda t, v: setattr(t._node, name, v))


class Tensor:
    """n-dimensional value array with an accumulated-gradient slot.

    ``data`` is a C-contiguous numpy array (the flat row-major buffer plus
    shape metadata). ``grad``, when present, always matches ``data``'s shape.
    Stored scalars must be finite; leaf construction checks this and raises
    :class:`NonFiniteError` otherwise. Autograd attributes pass to its :class:`Node`.
    """

    __slots__ = ("data", "_node")
    grad = _on_node("grad")
    requires_grad = _on_node("requires_grad")
    _parents = _on_node("_parents")
    _backward = _on_node("_backward")
    hook = _on_node("hook")
    op = _on_node("op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        arr = np.ascontiguousarray(arr)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor constructed with NaN/Inf entries")
        self.data = arr
        self._node = Node(arr, bool(requires_grad), (), "leaf")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _leaf(data: np.ndarray, requires_grad: bool) -> "Tensor":
        # A leaf over a value that a tensor already holds, so already checked.
        out = Tensor.__new__(Tensor)
        out.data = data
        out._node = Node(data, requires_grad, (), "leaf")
        return out

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple["Tensor", ...], op: str) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data = np.asarray(data)  # a reduction to a scalar is 0-d: weakly referable
        nodes = tuple([p._node for p in parents])
        requires_grad = any([n.requires_grad for n in nodes])
        out._node = Node(data, requires_grad, nodes if requires_grad else (), op)
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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, op={self.op})"

    # -- autograd ----------------------------------------------------------

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Reverse-mode sweep from this tensor that consumes its graph.

        ``seed`` defaults to ones and must match this tensor's shape; calling
        without a seed on a non-scalar is almost always a bug, so the default
        is only intended for scalar losses.

        Every interior node (one built by an operation, this tensor included)
        is released right after its closure has run: its ``grad``,
        ``_backward`` and ``_parents`` are dropped. Leaves keep their
        accumulated ``grad``, except a leaf with a ``hook``: once the last
        node that reads it (one count per appearance among a node's parents)
        is released, whether or not that node's closure ran, its gradient is
        final, and the sweep moves it out of the leaf and calls
        ``hook(grad)`` once (``grad`` is None if no gradient arrived). A
        hooked leaf that is itself the root gets its call after the seed.
        So a hook may change the leaf's value in place: no closure left in
        the sweep reads it. Sweeping a released node again, by a second
        ``backward()`` from the same root or from another root over a shared
        subgraph, raises :class:`GraphReleasedError`; the check runs before
        any closure or hook, so the failed call accumulates no gradient.
        """
        if seed is None:
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=self.data.dtype)
            if seed.shape != self.data.shape:
                raise DimensionError("backward seed shape mismatch")
        _sweep(self._node, seed)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _sweep(root: Node, seed: np.ndarray, owned: bool = False) -> None:
    # Tensor.backward's sweep from ``root``; ``owned`` hands ``seed`` over
    # as in ``Node._accumulate``.
    order: list[Node] = []
    visited: set[int] = set()
    consumers: dict[int, int] = {}  # per hooked leaf, the readers not yet released
    stack: list[tuple[Node, bool]] = [(root, False)]
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
            if p.requires_grad:
                if p.hook is not None and p.op == "leaf":
                    consumers[id(p)] = consumers.get(id(p), 0) + 1
                if id(p) not in visited:
                    stack.append((p, False))

    root._accumulate(seed, owned)
    if root.hook is not None and root.op == "leaf":
        _call_hook(root)
    # Popping drops the list's reference, so a released node and the
    # arrays only its closure kept are freed as the sweep moves on.
    while order:
        node = order.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node.op != "leaf":
            parents = node._parents
            node.grad = None
            node._backward = None
            node._parents = ()
            for p in parents if consumers else ():
                left = consumers.get(id(p))
                if left == 1:
                    del consumers[id(p)]
                    _call_hook(p)
                elif left:
                    consumers[id(p)] = left - 1


def _call_hook(leaf: Node) -> None:
    grad, leaf.grad = leaf.grad, None
    leaf.hook(grad)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def _set_backward(out: Tensor, fn: Callable[[np.ndarray], None]) -> None:
    if out._node.requires_grad:
        out._node._backward = fn


# ---------------------------------------------------------------------------
# elementwise operations
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = Tensor._from_op(a.data + b.data, (a, b), "add")
    a, b = a._node, b._node

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g)

    _set_backward(out, bw)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = Tensor._from_op(a.data - b.data, (a, b), "sub")
    a, b = a._node, b._node

    def bw(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g, owned=True)

    _set_backward(out, bw)
    return out


def max0(a: Tensor) -> Tensor:
    """ReLU: zero-or-identity mapping. Subgradient at 0 is 0."""
    out = Tensor._from_op(np.maximum(a.data, 0), (a,), "max0")
    ad, a = a.data, a._node

    def bw(g: np.ndarray) -> None:
        a._accumulate(g * (ad > 0), owned=True)

    _set_backward(out, bw)
    return out


# ---------------------------------------------------------------------------
# the affine map
# ---------------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight + bias`` of rank-2 ``x``, ``bias`` added to every row;
    ``bias=None`` is the product ``x @ weight`` alone.

    One node: the bias goes in place into the product buffer, so the map
    keeps one ``[rows, out]`` array, in the product's dtype. Values and
    gradients equal, bit for bit, those of the product followed by a
    row-vector bias add of the same dtype. d x = g weight^T, d weight = x^T g.
    """
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise DimensionError("linear requires rank-2 input and weight")
    if x.shape[1] != weight.shape[0]:
        raise DimensionError(f"linear inner extents differ: {x.shape} x {weight.shape}")
    if bias is not None and bias.shape != (weight.shape[1],):
        raise DimensionError(f"linear: bias {bias.shape} does not match output width {weight.shape[1]}")
    y = x.data @ weight.data
    if bias is not None:
        y += bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    out = Tensor._from_op(y, parents, "linear")
    xd, wd, x, weight = x.data, weight.data, x._node, weight._node
    bias = None if bias is None else bias._node

    def bw(g: np.ndarray) -> None:
        if weight.requires_grad:
            weight._accumulate(xd.T @ g, owned=True)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.reshape(-1, wd.shape[1]).sum(axis=0), owned=True)
        if x.requires_grad:
            x._accumulate(g @ wd.T, owned=True)

    _set_backward(out, bw)
    return out


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _axis(rank: int, axis: int) -> int:
    if not (-rank <= axis < rank):
        raise DimensionError(f"axis {axis} out of range for rank {rank}")
    return axis % rank


def _check_axis(x: Tensor, axis: int) -> int:
    axis = _axis(x.data.ndim, axis)
    if x.shape[axis] == 0:
        raise EmptyReductionError(f"reduction over empty axis {axis}")
    return axis


def _mean(a: np.ndarray, axis: int) -> np.ndarray:
    # ``a.mean(axis, keepdims=True)`` without np.mean's Python layer: the same
    # sum, divided by the count as an intp (a float64 division, cast back).
    m = np.add.reduce(a, axis=axis, keepdims=True)
    return np.true_divide(m, np.intp(a.shape[axis]), out=m, casting="unsafe")


def reduce_sum(x: Tensor, axis: int) -> Tensor:
    axis = _check_axis(x, axis)
    out = Tensor._from_op(np.sum(x.data, axis=axis), (x,), "reduce_sum")
    x = x._node

    def bw(g: np.ndarray) -> None:
        x._accumulate(np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(), owned=True)

    _set_backward(out, bw)
    return out


def reduce_mean(x: Tensor, axis: int) -> Tensor:
    axis = _check_axis(x, axis)
    n = x.shape[axis]
    out = Tensor._from_op(_mean(x.data, axis).squeeze(axis), (x,), "reduce_mean")
    x = x._node

    def bw(g: np.ndarray) -> None:
        x._accumulate(np.broadcast_to(np.expand_dims(g / n, axis), x.shape).copy(), owned=True)

    _set_backward(out, bw)
    return out


def reduce_max(x: Tensor, axis: int) -> Tensor:
    """Max along ``axis``; ties route the gradient to the lowest index."""
    axis = _check_axis(x, axis)
    lead = (slice(None),) * axis  # x.data[lead + (j,)]: the entries at index j, a view
    if math.prod(x.shape[axis + 1 :]) == 1:
        # The axis is the innermost one. np.max reduces along it with a kernel
        # of its own, whose NaN results can differ in sign from np.maximum's.
        m = np.max(x.data, axis=axis)
    else:
        # One np.maximum pass per index, each along the entries after the axis.
        # np.max reduces in this order too, so the bits are its own, NaN and
        # signed zeros included; at the aggregators' [8192, 4, 16] it took
        # three times as long.
        m = x.data[lead + (0,)].copy()
        for j in range(1, x.shape[axis]):
            np.maximum(m, x.data[lead + (j,)], out=m)
    out = Tensor._from_op(m, (x,), "reduce_max")
    if not out._node.requires_grad:
        return out
    # One equality pass per index, highest first: the lowest maximal index is
    # written last, as argmax picks it. The narrowest unsigned dtype holds them.
    winners = np.zeros(m.shape, dtype=np.min_scalar_type(x.shape[axis] - 1))
    for j in reversed(range(x.shape[axis])):
        np.copyto(winners, j, where=x.data[lead + (j,)] == m)
    x = x._node

    def bw(g: np.ndarray) -> None:
        dx = np.zeros(x.shape, x.dtype)
        np.put_along_axis(
            dx, np.expand_dims(winners, axis), np.expand_dims(g, axis), axis
        )
        x._accumulate(dx, owned=True)

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
    axis = _axis(rank, axis)
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
    parts = [p._node for p in parts]

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
    """Contiguous slice along ``axis``; the gradient adds into the input's
    rows of the slice, and is zero outside it. It adds in place, filling a
    zero array of the whole input only for the input's first gradient (the
    FFN row blocks each narrow the block input)."""
    rank = x.data.ndim
    axis = _axis(rank, axis)
    if start < 0 or length < 0 or start + length > x.shape[axis]:
        raise DimensionError(
            f"narrow [{start}:{start + length}] outside extent {x.shape[axis]}"
        )
    sl = [slice(None)] * rank
    sl[axis] = slice(start, start + length)
    out = Tensor._from_op(np.ascontiguousarray(x.data[tuple(sl)]), (x,), "narrow")
    x = x._node

    def bw(g: np.ndarray) -> None:
        # Into the input's gradient in place: a zero-filled array of the whole
        # input only for its first gradient.
        if x.grad is None:
            x.grad = np.zeros(x.shape, x.dtype)
        x.grad[tuple(sl)] += g

    _set_backward(out, bw)
    return out


def gather_rows(x: Tensor, row_idx: np.ndarray) -> Tensor:
    """Index rows of a rank-2 tensor: out[..., :] = x[row_idx[...], :].

    ``row_idx`` may have any shape and must hold integers in [0, rows); the
    result has shape ``row_idx.shape + (x.shape[1],)``. Duplicate indices
    accumulate their gradients, which is what makes this double as an
    explicit broadcast. Backward scatters the gradient with one flat
    ``np.add.at``.
    """
    if x.data.ndim != 2:
        raise DimensionError("gather_rows requires a rank-2 source")
    idx = np.asarray(row_idx)  # numpy would read a bool index as a row mask
    if idx.dtype.kind not in "iu" or idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise DimensionError(f"gather_rows index must hold integers in [0, {x.shape[0]})")
    out = Tensor._from_op(x.data[idx], (x,), "gather_rows")
    c = x.shape[1]
    elem_dtype = np.int32 if x.size <= np.iinfo(np.int32).max else np.int64
    flat_idx = idx.reshape(-1).astype(elem_dtype)  # saved once, in the element dtype
    x = x._node

    def bw(g: np.ndarray) -> None:
        # Entry by entry into the flat buffer: each sums in a row-wise np.add.at's order.
        elems = flat_idx[:, None] * elem_dtype(c) + np.arange(c, dtype=elem_dtype)
        dx = np.zeros(x.shape, x.dtype)
        np.add.at(dx.reshape(-1), elems.reshape(-1), g.reshape(-1))
        x._accumulate(dx, owned=True)

    _set_backward(out, bw)
    return out


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}")
    out = Tensor._from_op(x.data.reshape(shape), (x,), "reshape")
    x = x._node

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
    x = x._node

    def bw(g: np.ndarray) -> None:
        x._accumulate(np.ascontiguousarray(g.transpose(inv)))

    _set_backward(out, bw)
    return out


# ---------------------------------------------------------------------------
# fused operations
# ---------------------------------------------------------------------------


def _gate_bw(g, e, xd, s, shifted, x, eps) -> None:
    # Overwrites g and e: each closure runs once, and both go with it. e
    # becomes x's first term (0 + it, where x has no gradient yet); g ends as
    # eps's term, summed in C order whatever layout g came in.
    dt = e.dtype
    g = np.ascontiguousarray(g)
    np.multiply(g, np.asarray(0.5, dtype=dt), out=g)  # gradient at x * (1 + erf)
    if x.requires_grad:
        np.add(e, np.asarray(1.0, dtype=dt), out=e)
        x._accumulate(np.multiply(g, e, out=e), owned=True)  # x's first term
    # d erf(a) / da = 2/sqrt(pi) exp(-a^2) at a = x * s, in the gate's dtype.
    slope = xd * s
    np.square(slope, out=slope)
    np.negative(slope, out=slope)
    np.exp(slope, out=slope)
    np.multiply(slope, np.asarray(_TWO_OVER_SQRT_PI, dtype=dt), out=slope)
    np.multiply(g, xd, out=g)  # gradient at erf
    np.multiply(g, slope, out=g)  # gradient at a
    if x.requires_grad:
        x.grad += np.multiply(g, s, out=slope)  # x's second term
    if eps.requires_grad:
        np.multiply(g, xd, out=g)
        g_inv_sd = np.sum(g).reshape(eps.shape) * np.asarray(_INV_SQRT2, dtype=eps.dtype)
        eps._accumulate(-g_inv_sd / (shifted * shifted), owned=True)


def cdf_gate(x: Tensor, eps: Tensor) -> Tensor:
    """Gaussian-CDF gate ``0.5 * x * (1 + erf(x * s))``, ``s = 1 / (sqrt(2) (1 + eps))``.

    That is x times the probability that a zero-mean Gaussian with standard
    deviation 1 + eps falls below x. ``eps`` is a one-element tensor and gets
    a gradient where it needs one; at eps = 0, s rounds to 1/sqrt(2) and the
    gate is exact-erf GELU.

    Everything runs in the gate's dtype, erf included (:mod:`pvg._erf`). In
    float32, erf is within 1.5 ulp of the exact value, and the backward's
    slope 2/sqrt(pi) exp(-a^2) at a = x * s is within (a^2 + 6) 2^-24
    relative of exact: a^2 rounds to float32, a relative error of up to
    a^2 2^-24 in exp(-a^2), and exp, the float32 constant and the product
    round. float64 erf is the cephes port, within 1 ulp of scipy's, and the
    float64 slope is evaluated in float64 as before.

    One node that keeps the input and the erf values for backward; without
    a gradient to compute, the output is written over the erf values. Values and
    gradients equal, bit for bit, those of the elementwise chain ``1 + eps``,
    reciprocal, ``* 1/sqrt(2)``, ``x * s``, erf, ``+ 1``, ``x * (.)``,
    ``* 0.5``: each step rounds in the same dtype and order, and x receives
    its two terms in the order that chain's backward sweep added them.
    The backward is one whole-array chain over the gate's entries; every
    model gate runs inside a :func:`recompute` node, on one graph branch or
    one FFN row block, which keeps that chain's temporaries small.
    """
    if eps.size != 1:
        raise DimensionError(f"cdf_gate: eps must hold one value, got shape {eps.shape}")
    xd = x.data
    shifted = eps.data + np.asarray(1.0, dtype=eps.data.dtype)
    inv_sd = 1.0 / shifted
    s = (inv_sd * np.asarray(_INV_SQRT2, dtype=inv_sd.dtype)).reshape(())
    e = np.multiply(xd, s)
    _erf(e, out=e)
    # Backward reads e; an output that needs no gradient is written over it.
    needs_grad = x.requires_grad or eps.requires_grad
    y = np.add(e, np.asarray(1.0, dtype=e.dtype), out=None if needs_grad else e)
    np.multiply(xd, y, out=y)
    np.multiply(y, np.asarray(0.5, dtype=y.dtype), out=y)
    out = Tensor._from_op(y, (x, eps), "cdf_gate")
    x, eps = x._node, eps._node

    def bw(g: np.ndarray) -> None:
        _gate_bw(g, e, xd, s, shifted, x, eps)

    _set_backward(out, bw)
    return out


def normalize(x: Tensor) -> Tensor:
    """Each row of ``x`` less its mean, over sqrt(its variance + :data:`LAYER_NORM_EPS`).

    Rows are normalized over the last axis, each independently of every other
    row, so the result does not depend on batch composition. One node that
    keeps its own output and each row's 1 / sqrt(var + eps): its backward
    reads nothing else, so a caller that keeps the output keeps no second
    array. d x = (g - mean(g) - out * mean(g out)) / sqrt(var + eps), per row.
    """
    xc = x.data - _mean(x.data, -1)
    inv = 1.0 / np.sqrt(_mean(xc * xc, -1) + np.asarray(LAYER_NORM_EPS, dtype=xc.dtype))
    xhat = np.multiply(xc, inv, out=xc)
    out = Tensor._from_op(xhat, (x,), "normalize")
    x = x._node

    def bw(g: np.ndarray) -> None:
        # Overwrites g, this node's own gradient: it ends as x's.
        g = np.ascontiguousarray(g)
        b = np.multiply(g, xhat)
        m1, m2 = _mean(g, -1), _mean(b, -1)
        np.subtract(g, m1, out=g)
        np.subtract(g, np.multiply(xhat, m2, out=b), out=g)
        x._accumulate(np.multiply(g, inv, out=g), owned=True)

    _set_backward(out, bw)
    return out


def affine(x: Tensor, gamma: Tensor, beta: Tensor | None = None) -> Tensor:
    """``x * gamma + beta``, with ``gamma`` and ``beta`` vectors over the last
    axis; ``beta=None`` is the scale ``x * gamma`` alone (LayerScale's
    learned diagonal).

    One node that keeps ``x`` and ``gamma``. d x = g gamma; d gamma and
    d beta are the column sums of g x and of g.
    """
    c = x.shape[-1]
    if gamma.shape != (c,):
        raise DimensionError(f"affine: scale {gamma.shape} does not match channel extent {c}")
    if beta is not None and beta.shape != (c,):
        raise DimensionError(f"affine: shift {beta.shape} does not match channel extent {c}")
    y = x.data * gamma.data
    if beta is not None:
        y += beta.data
    parents = (x, gamma) if beta is None else (x, gamma, beta)
    out = Tensor._from_op(y, parents, "affine")
    xd, gd, x, gamma = x.data, gamma.data, x._node, gamma._node
    beta = None if beta is None else beta._node

    def bw(g: np.ndarray) -> None:
        if gamma.requires_grad:
            gamma._accumulate((g * xd).reshape(-1, c).sum(axis=0), owned=True)
        if beta is not None and beta.requires_grad:
            beta._accumulate(g.reshape(-1, c).sum(axis=0), owned=True)
        if x.requires_grad:
            x._accumulate(np.multiply(g, gd, out=g), owned=True)

    _set_backward(out, bw)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-row normalization with learnable scale and shift:
    ``affine(normalize(x), gamma, beta)``, two nodes that keep the
    normalized rows once between them."""
    return affine(normalize(x), gamma, beta)


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
    logits = logits._node

    def bw(g: np.ndarray) -> None:
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        logits._accumulate(d * (float(g) / n), owned=True)

    _set_backward(out, bw)
    return out


def _grid_windows(a: np.ndarray, ry: int, rx: int, merge: str) -> np.ndarray:
    """Read-only windows of [batch, h, w, c] grids zero-padded by (ry, rx).

    They are the [batch, h, w, c, 2ry+1, 2rx+1] sliding windows of the padded
    grid with two adjacent axes merged into one: ``merge="column"`` gives
    [batch, h, w·c, 2ry+1, 2rx+1], each row's (column, channel) pairs as one
    axis, and ``merge="offset"`` gives [batch, h, w, 2ry+1, (2rx+1)·c], each
    window row's (column offset, channel) pairs as one axis. Each merged axis
    is contiguous, built with ``as_strided`` and without the Python layers of
    ``np.pad`` and ``sliding_window_view``.
    """
    batch, h, w, c = a.shape
    padded = np.zeros((batch, h + 2 * ry, (w + 2 * rx) * c), dtype=a.dtype)
    padded.reshape(batch, h + 2 * ry, w + 2 * rx, c)[:, ry : ry + h, rx : rx + w] = a
    sb, sy, s = padded.strides
    if merge == "column":
        shape, strides = (batch, h, w * c, 2 * ry + 1, 2 * rx + 1), (sb, sy, s, sy, c * s)
    else:
        shape, strides = (batch, h, w, 2 * ry + 1, (2 * rx + 1) * c), (sb, sy, c * s, sy, s)
    return as_strided(padded, shape, strides, writeable=False)


def _tile_last(a: np.ndarray, n: int) -> np.ndarray:
    # a[..., c] repeated n times along a merged last axis of n·c, to pair with a
    # merged window axis. A copy, except at c = 1, where it is a zero-stride view:
    # einsum then loops over the window offsets innermost, as over the unmerged
    # windows, and so keeps their sums' bits.
    return np.broadcast_to(a[..., None, :], (*a.shape[:-1], n, a.shape[-1])).reshape(*a.shape[:-1], -1)


def offset_mix(x: Tensor, weights: Tensor, grid: tuple[int, int], bias: Tensor) -> Tensor:
    """Depthwise mixing over each node's Chebyshev (2r+1)^2 grid window.

    ``x`` holds ``batch`` row-major ``h x w`` grids as ``[batch·h·w, c]``
    rows, image-major, with ``grid = (h, w)``. ``weights`` has one row per
    offset in row-major offset order, ``o = (dy + r)·(2r + 1) + (dx + r)`` for
    dy, dx in ``[-r, r]``, so its row count fixes the radius r. Computes

        y[b, i, j, c] = sum_o (weights[o, c] * x[b, i + dy, j + dx, c] + bias[o, c])

    over the offsets whose source lies on the grid (zero padding: an offset
    that falls off the grid contributes neither its weight nor its bias).
    The value and each gradient are one ``einsum`` over the zero-padded
    grid's windows, clipped to offsets that reach it; the bias terms are the
    weights' terms over a grid of ones. numpy runs an einsum's inner loop
    along one axis of its operands, and over the plain windows that axis is
    c, too short to pay for the loop (c = 16 at tiny's stage 0). So the value
    and x's gradient take windows with each row's (column, channel) pairs
    merged, one loop w·c long, against the kernel repeated over the columns;
    the weight and bias gradients take windows with each window row's
    (column offset, channel) pairs merged, one loop (2r+1)·c long, against
    ``g`` repeated over the column offsets. Every output element still sums
    its terms in the same order, so the bits are those of the unmerged
    einsums.
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
    if bias.shape != weights.shape:
        raise DimensionError("offset_mix: bias must match weights shape")
    h, w = grid
    if h < 1 or w < 1 or x.shape[0] % (h * w):
        raise DimensionError(f"offset_mix: {x.shape[0]} rows do not fill {h}x{w} grids")
    batch = x.shape[0] // (h * w)
    ry, rx = min(r, h - 1), min(r, w - 1)
    live = (slice(r - ry, r + ry + 1), slice(r - rx, r + rx + 1))
    kernel = weights.data.reshape(side, side, c)[live]
    xg = x.data.reshape(batch, h, w, c)
    # Padded, a grid of ones gives the bias terms' windows (one stored entry).
    ones = np.broadcast_to(np.ones((), dtype=xg.dtype), (1, h, w, c))

    # No ``optimize``: it would copy the windows out, 49 times the grid at r = 3.
    def mix(a: np.ndarray, k: np.ndarray) -> np.ndarray:
        # [batch, h, w·c]: each node's sum over offsets of k times a there.
        return np.einsum("bimyx,yxm->bim", _grid_windows(a, ry, rx, "column"), _tile_last(k, w))

    def correlate(ga: np.ndarray, a: np.ndarray, dtype) -> np.ndarray:
        # [offsets, c]: each offset's sum over nodes of ga times a there, 0 for
        # the offsets that never reach the grid.
        table = np.zeros((side, side, c), dtype)
        table[live] = np.einsum(
            "bijn,bijyn->yn", _tile_last(ga, 2 * rx + 1), _grid_windows(a, ry, rx, "offset")
        ).reshape(2 * ry + 1, 2 * rx + 1, c)
        return table.reshape(n_off, c)

    y = mix(xg, kernel)
    y += mix(ones, bias.data.reshape(side, side, c)[live])
    out = Tensor._from_op(y.reshape(x.shape), (x, weights, bias), "offset_mix")
    x, weights, bias = x._node, weights._node, bias._node

    def bw(g: np.ndarray) -> None:
        gg = g.reshape(batch, h, w, c)
        if x.requires_grad:
            # Node p feeds node p - offset: the adjoint flips the kernel.
            x._accumulate(mix(gg, kernel[::-1, ::-1]).reshape(x.shape), owned=True)
        if weights.requires_grad:
            weights._accumulate(correlate(gg, xg, weights.dtype), owned=True)
        if bias.requires_grad:
            bias._accumulate(correlate(gg.sum(axis=0, keepdims=True), ones, bias.dtype), owned=True)

    _set_backward(out, bw)
    return out


# ---------------------------------------------------------------------------
# recomputation
# ---------------------------------------------------------------------------


def recompute(fn: Callable[..., Tensor], inputs: Sequence[Tensor]) -> Tensor:
    """``fn(*inputs)`` as one node that keeps only the inputs' values.

    Forward runs ``fn`` on leaves over the inputs' values that need no
    gradient, so its ops record no graph and its intermediate values are
    freed as it goes. Backward runs ``fn`` again on leaves that need a
    gradient where their inputs do, sweeps that local graph from ``g`` (the
    sweep of :meth:`Tensor.backward`, taking ``g`` over, not a nested
    ``backward`` call) and hands each leaf's gradient to its input: the sum
    of the input's terms inside ``fn``, as one term. No parameter changes
    before this closure has run (a leaf's hook waits for the release of
    every node that reads the leaf), so a deterministic ``fn`` gives the
    forward's values again bit for bit.
    """
    values = [t.data for t in inputs]
    out = Tensor._from_op(fn(*[Tensor._leaf(v, False) for v in values]).data, tuple(inputs), "recompute")
    nodes = [t._node for t in inputs]

    def bw(g: np.ndarray) -> None:
        leaves = [Tensor._leaf(v, node.requires_grad) for v, node in zip(values, nodes)]
        _sweep(fn(*leaves)._node, g, owned=True)
        for leaf, node in zip(leaves, nodes):
            if leaf.grad is not None:
                node._accumulate(leaf.grad, owned=True)

    _set_backward(out, bw)
    return out
