"""Neighbor aggregation and node-update functions.

MaxE is the workhorse: concatenate the node's own features, the channel-wise
max of neighbor differences, and the neighbor mean, then apply one linear
transform. The intuition is that a neighborhood is summarized well by two
sampled points, its expectation and its farthest member, on top of the self
identity map; the max-of-differences term itself decomposes into
mean + remainder + within-class bound, and iterating that split telescopes
like a series expansion.

Four comparison aggregators (MR GraphConv, EdgeConv, GraphSAGE, GIN), as in
the ViG ablation (Han et al., arXiv 2206.00272), share the same
neighbor-index convention so parameter accounting is apples to apples: under
the single-linear GIN unit MaxE costs 3 and MR GraphConv 2.

Weights are a plain ``dict[str, Tensor]`` keyed by the names that
:data:`AGGREGATOR_WEIGHTS` lists for each kind; :func:`baseline_aggregate`
reads them per call, so the caller that holds the tensors (``Model.params``
in the network) is their only owner. The same table, with
:data:`PER_EDGE_WEIGHTS`, gives each kind's transform cost
(:func:`transform_multadds`), so the network names no kind.

The neighbor mean deliberately excludes the self node; identity information
enters only through the explicit self part.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DegenerateInputError, DimensionError
from .tensor import (
    Tensor,
    add,
    concat,
    gather_rows,
    linear,
    max0,
    reduce_max,
    reduce_mean,
    reduce_sum,
    reshape,
    sub,
)

# Each kind's weights in draw order: name -> (rows, cols) as a function of
# (in_c, out_c). Transforms only, no biases.
AGGREGATOR_WEIGHTS = {
    "MaxE": {"W": lambda i, o: (3 * i, o)},
    "MRGraphConv": {"W": lambda i, o: (2 * i, o)},
    "EdgeConv": {"W1": lambda i, o: (2 * i, 2 * i), "W2": lambda i, o: (2 * i, o)},
    "GraphSAGE": {"W": lambda i, o: (2 * i, o), "Wn": lambda i, o: (i, i)},
    "GIN": {"W": lambda i, o: (i, o)},
}
AGGREGATOR_KINDS = tuple(AGGREGATOR_WEIGHTS)
# The weights applied to each of the n·k edge rows; every other weight is
# applied to each of the n node rows.
PER_EDGE_WEIGHTS = {"EdgeConv": ("W1", "W2"), "GraphSAGE": ("Wn",)}


def transform_multadds(kind: str, width: int, n: int, k: int) -> int:
    """Mult-adds of one ``kind`` aggregator's transforms over n nodes of
    ``width`` channels with k neighbors each: every weight's size times the
    rows it maps. Gathers, maxes and means are not multiply-accumulate work."""
    per_edge = PER_EDGE_WEIGHTS.get(kind, ())
    return sum(
        math.prod(shape(width, width)) * (n * k if name in per_edge else n)
        for name, shape in AGGREGATOR_WEIGHTS[kind].items()
    )


def he_normal(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """A float64 [rows, cols] normal draw with He scaling, std sqrt(2 / rows).
    Every transform matrix in the package is drawn here."""
    return rng.normal(0.0, np.sqrt(2.0 / shape[0]), size=shape)


# ---------------------------------------------------------------------------
# neighbor gathering
# ---------------------------------------------------------------------------


def _neighbor_idx(idx) -> np.ndarray:
    idx = np.asarray(idx)
    if idx.ndim != 2:
        raise DimensionError("neighbor indices must be [n, k]")
    if idx.shape[1] < 1:
        raise DegenerateInputError("every node needs at least one neighbor")
    return idx.astype(np.int64)


def _gather_neighbors(x: Tensor, idx: np.ndarray) -> Tensor:
    """Neighbor rows [n, k, c] of the [n, c] features."""
    if x.shape[0] != idx.shape[0]:
        raise DimensionError("topology row count does not match features")
    return gather_rows(x, idx)


def _max_relative(x: Tensor, nbh: Tensor) -> Tensor:
    """Channel-wise max_j (x_j - x_i), computed as max_j x_j - x_i.

    Rounding is monotone, so max_j fl(x_j - x_i) = fl(max_j x_j - x_i) and the
    value is exactly that of subtracting before the max. The subgradient goes
    to the lowest-index neighbor with the largest x_j; where rounding makes
    two differences x_j - x_i tie although the x_j differ, subtracting first
    would have sent it to the lowest-index tied neighbor instead.
    """
    return sub(reduce_max(nbh, axis=1), x)


# ---------------------------------------------------------------------------
# MaxE
# ---------------------------------------------------------------------------


def maxe_aggregate(x: Tensor, idx) -> Tensor:
    """[x_i || channel-wise max_j (x_j - x_i) || mean_j x_j] per node, for
    the [n, k] neighbor indices ``idx``."""
    nbh = _gather_neighbors(x, _neighbor_idx(idx))
    return concat([x, _max_relative(x, nbh), reduce_mean(nbh, axis=1)], axis=1)


# ---------------------------------------------------------------------------
# comparison aggregators
# ---------------------------------------------------------------------------


def baseline_aggregate(kind: str, x: Tensor, idx, weights: dict[str, Tensor]) -> Tensor:
    """Kind-specific aggregate-and-update over the [n, k] neighbor indices
    ``idx``, with the weights :data:`AGGREGATOR_WEIGHTS` names. All use the
    same top-k neighbor convention as MaxE; EdgeConv uses ReLU inside its
    per-edge MLP."""
    w = weights
    if kind == "MaxE":
        return linear(maxe_aggregate(x, idx), w["W"])
    idx = _neighbor_idx(idx)
    n, k = idx.shape
    c = x.shape[1]
    nbh = _gather_neighbors(x, idx)
    if kind == "MRGraphConv":
        return linear(concat([x, _max_relative(x, nbh)], axis=1), w["W"])
    if kind == "EdgeConv":
        own = gather_rows(x, np.repeat(np.arange(n, dtype=np.int64)[:, None], k, axis=1))
        edges = concat([own, sub(nbh, own)], axis=2)  # [n, k, 2c]
        flat = reshape(edges, (n * k, 2 * c))
        hidden = max0(linear(flat, w["W1"]))
        per_edge = reshape(linear(hidden, w["W2"]), (n, k, w["W2"].shape[1]))
        return reduce_max(per_edge, axis=1)
    if kind == "GraphSAGE":
        transformed = reshape(linear(reshape(nbh, (n * k, c)), w["Wn"]), (n, k, c))
        return linear(concat([x, reduce_mean(transformed, axis=1)], axis=1), w["W"])
    if kind == "GIN":
        return linear(add(x, reduce_sum(nbh, axis=1)), w["W"])
    raise ConfigError(f"unknown aggregator kind {kind!r}")
