"""Neighbor aggregation and node-update functions.

MaxE is the workhorse: concatenate the node's own features, the channel-wise
max of neighbor differences, and the neighbor mean, then apply one linear
transform. The intuition is that a neighborhood is summarized well by two
sampled points, its expectation and its farthest member, on top of the self
identity map; the max-of-differences term itself decomposes into
mean + remainder + within-class bound (see :func:`decomposition_check`),
and iterating that split telescopes like a series expansion.

Four comparison aggregators (MR GraphConv, EdgeConv, GraphSAGE, GIN), as in
the ViG ablation (Han et al., arXiv 2206.00272), share the same
neighbor-index convention so parameter accounting is apples to apples;
:func:`param_count` normalizes by the single-linear GIN unit.

Weights are a plain ``dict[str, Tensor]`` keyed by the names that
:data:`AGGREGATOR_WEIGHTS` lists for each kind. :func:`make_aggregator` draws
them and :func:`baseline_aggregate` reads them per call, so the caller that
holds the tensors (``Model.params`` in the network) is their only owner.

The neighbor mean deliberately excludes the self node; identity information
enters only through the explicit self part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, DimensionError
from .graph import GraphTopology
from .tensor import (
    Tensor,
    add,
    concat,
    gather_rows,
    matmul,
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


def he_normal(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """A float64 [rows, cols] normal draw with He scaling, std sqrt(2 / rows).
    Every transform matrix in the package is drawn here."""
    return rng.normal(0.0, np.sqrt(2.0 / shape[0]), size=shape)


def make_aggregator(
    kind: str, in_c: int, out_c: int, rng: np.random.Generator, dtype=np.float32
) -> dict[str, Tensor]:
    """He-scaled weights of one aggregator, keyed by weight name."""
    if kind not in AGGREGATOR_WEIGHTS:
        raise ConfigError(f"unknown aggregator kind {kind!r}")
    return {
        name: Tensor(he_normal(rng, shape(in_c, out_c)).astype(dtype), requires_grad=True)
        for name, shape in AGGREGATOR_WEIGHTS[kind].items()
    }


# ---------------------------------------------------------------------------
# neighbor gathering
# ---------------------------------------------------------------------------


def _neighbor_idx(topo) -> np.ndarray:
    idx = topo.neighbor_idx if isinstance(topo, GraphTopology) else np.asarray(topo)
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


def maxe_aggregate(x: Tensor, topo) -> Tensor:
    """[x_i || channel-wise max_j (x_j - x_i) || mean_j x_j] per node."""
    nbh = _gather_neighbors(x, _neighbor_idx(topo))
    return concat([x, _max_relative(x, nbh), reduce_mean(nbh, axis=1)], axis=1)


def maxe_update(agg: Tensor, w: Tensor) -> Tensor:
    """Linear transform of the concatenated aggregate."""
    if agg.shape[1] != w.shape[0]:
        raise DimensionError(
            f"aggregate width {agg.shape[1]} does not match transform rows {w.shape[0]}"
        )
    return matmul(agg, w)


# ---------------------------------------------------------------------------
# comparison aggregators
# ---------------------------------------------------------------------------


def baseline_aggregate(kind: str, x: Tensor, topo, weights: dict[str, Tensor]) -> Tensor:
    """Kind-specific aggregate-and-update with the weights
    :func:`make_aggregator` names. All use the same top-k neighbor convention
    as MaxE; EdgeConv uses ReLU inside its per-edge MLP."""
    w = weights
    if kind == "MaxE":
        return maxe_update(maxe_aggregate(x, topo), w["W"])
    idx = _neighbor_idx(topo)
    n, k = idx.shape
    c = x.shape[1]
    nbh = _gather_neighbors(x, idx)
    if kind == "MRGraphConv":
        return matmul(concat([x, _max_relative(x, nbh)], axis=1), w["W"])
    if kind == "EdgeConv":
        own = gather_rows(x, np.repeat(np.arange(n, dtype=np.int64)[:, None], k, axis=1))
        edges = concat([own, sub(nbh, own)], axis=2)  # [n, k, 2c]
        flat = reshape(edges, (n * k, 2 * c))
        hidden = max0(matmul(flat, w["W1"]))
        per_edge = reshape(matmul(hidden, w["W2"]), (n, k, w["W2"].shape[1]))
        return reduce_max(per_edge, axis=1)
    if kind == "GraphSAGE":
        transformed = reshape(matmul(reshape(nbh, (n * k, c)), w["Wn"]), (n, k, c))
        return matmul(concat([x, reduce_mean(transformed, axis=1)], axis=1), w["W"])
    if kind == "GIN":
        return matmul(add(x, reduce_sum(nbh, axis=1)), w["W"])
    raise ConfigError(f"unknown aggregator kind {kind!r}")


# ---------------------------------------------------------------------------
# max-pooling decomposition identity
# ---------------------------------------------------------------------------


@dataclass
class DecompositionReport:
    first_order_residual: float
    telescoped_residual: float
    depth: int


def decomposition_check(z, depth: int = 4) -> DecompositionReport:
    """Verify, in float64, that the max of a vector splits exactly into
    mean + remainder + within-class bound, and that iterating the split on
    the residual vector telescopes back to the same max.

    With z' = max(z), z_bar = mean(z) and z'' the entry maximizing z' - z_j
    (the farthest-from-max element, lowest index on ties):

        max(z) = z_bar + (z'' - z_bar) + max_j(z' - z_j)

    The recursion re-applies the same split to the vector z' - z for
    ``depth`` rounds; the accumulated mean and remainder terms plus the final
    max must reconstruct max(z).
    """
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    if z.size < 1:
        raise DimensionError("decomposition needs at least one element")

    def stats(v: np.ndarray) -> tuple[float, float, float]:
        top = float(np.max(v))
        bar = float(np.mean(v))
        snd = float(v[np.argmax(top - v)])  # argmax -> first occurrence
        return top, bar, snd

    top, bar, snd = stats(z)
    recon = bar + (snd - bar) + float(np.max(top - z))
    first_residual = abs(top - recon)

    acc = 0.0
    cur = z
    for _ in range(depth):
        t, b, s = stats(cur)
        acc += b + (s - b)
        cur = t - cur
    telescoped = acc + float(np.max(cur))
    rec_residual = abs(top - telescoped)

    return DecompositionReport(
        first_order_residual=first_residual,
        telescoped_residual=rec_residual,
        depth=depth,
    )


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------


def param_count(kind: str, c_in: int, c_out: int) -> tuple[int, float]:
    """Analytic parameter count and its ratio to the GIN unit.

    The unit is the single-linear GIN transform at the same widths
    (c_in * c_out); transform matrices only, no biases, matching the
    convention that makes MaxE land on exactly 3. Written out by hand rather
    than read from :data:`AGGREGATOR_WEIGHTS`, so it checks that table.
    """
    if kind == "MaxE":
        count = 3 * c_in * c_out
    elif kind == "MRGraphConv":
        count = 2 * c_in * c_out
    elif kind == "EdgeConv":
        count = (2 * c_in) * (2 * c_in) + (2 * c_in) * c_out
    elif kind == "GraphSAGE":
        count = 2 * c_in * c_out + c_in * c_in
    elif kind == "GIN":
        count = c_in * c_out
    else:
        raise ConfigError(f"unknown aggregator kind {kind!r}")
    unit = c_in * c_out
    return count, count / unit
