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
in the network) is their only owner. The same table gives each weight's
shape and the rows it maps, so it also gives each kind's transform cost
(:func:`transform_multadds`), and the network names no kind.

Every kind checks its [n, k] neighbor indices and gathers the neighbor rows
in one place, :func:`_neighbors`. The neighbor mean deliberately excludes the
self node; identity information enters only through the explicit self part.
"""

from __future__ import annotations

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

# Each kind's weights (transforms only, no biases) in draw order: name -> (rows,
# cols, per_edge), rows and cols as multiples of the branch width; a per_edge
# weight maps each of the n·k edge rows, every other weight the n node rows.
AGGREGATOR_WEIGHTS = {
    "MaxE": {"W": (3, 1, False)},
    "MRGraphConv": {"W": (2, 1, False)},
    "EdgeConv": {"W1": (2, 2, True), "W2": (2, 1, True)},
    "GraphSAGE": {"W": (2, 1, False), "Wn": (1, 1, True)},
    "GIN": {"W": (1, 1, False)},
}
AGGREGATOR_KINDS = tuple(AGGREGATOR_WEIGHTS)


def transform_multadds(kind: str, width: int, n: int, k: int) -> int:
    """Mult-adds of one ``kind`` aggregator's transforms over n nodes of
    ``width`` channels with k neighbors each: every weight's size times the
    rows it maps. Gathers, maxes and means are not multiply-accumulate work."""
    return sum(
        rows * width * cols * width * (n * k if per_edge else n)
        for rows, cols, per_edge in AGGREGATOR_WEIGHTS[kind].values()
    )


# ---------------------------------------------------------------------------
# neighbor gathering
# ---------------------------------------------------------------------------


def _neighbors(x: Tensor, idx) -> Tensor:
    """Neighbor rows [n, k, c] of the [n, c] features for [n, k] indices, k >= 1
    (:func:`gather_rows` checks that they are integers in range)."""
    idx = np.asarray(idx)
    if idx.ndim != 2 or idx.shape[0] != x.shape[0]:
        raise DimensionError(f"neighbor indices {idx.shape} must be [n, k] for {x.shape[0]} nodes")
    if idx.shape[1] < 1:
        raise DegenerateInputError("every node needs at least one neighbor")
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
    nbh = _neighbors(x, idx)
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
    nbh = _neighbors(x, idx)
    n, k, c = nbh.shape
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
