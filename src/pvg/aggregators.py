"""Neighbor aggregation and node-update functions.

MaxE is the workhorse: concatenate the node's own features, the channel-wise
max of neighbor differences, and the neighbor mean, then apply one linear
transform. The intuition is that a neighborhood is summarized well by two
sampled points, its expectation and its farthest member, on top of the self
identity map; the max-of-differences term itself decomposes into
mean + remainder + within-class bound (see :func:`decomposition_check`),
and iterating that split telescopes like a series expansion.

Four comparison aggregators (MR GraphConv, EdgeConv, GraphSAGE, GIN) share
the same neighbor-index convention so parameter accounting is apples to
apples; :func:`param_count` normalizes by the single-linear GIN unit.

The neighbor mean deliberately excludes the self node; identity information
enters only through the explicit self part.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    scale,
    sub,
)

AGGREGATOR_KINDS = ("MaxE", "MRGraphConv", "EdgeConv", "GraphSAGE", "GIN")


@dataclass
class AggregatorSpec:
    """Weights and widths of one aggregation/update function."""

    kind: str
    in_c: int
    out_c: int
    weights: dict[str, Tensor] = field(default_factory=dict)
    gin_eps: float = 0.0
    variant: str = "linear"  # GIN only: "linear" (accounting unit) or "mlp"

    def __post_init__(self) -> None:
        if self.kind not in AGGREGATOR_KINDS:
            raise ConfigError(f"unknown aggregator kind {self.kind!r}")

    def validate(self) -> "AggregatorSpec":
        actual = sum(w.size for w in self.weights.values())
        expected, _ = param_count(self)
        if actual != expected:
            raise ConfigError(
                f"{self.kind}: weight sizes sum to {actual}, formula says {expected}"
            )
        return self


def make_aggregator(
    kind: str,
    in_c: int,
    out_c: int,
    rng: np.random.Generator,
    dtype=np.float32,
    variant: str = "linear",
) -> AggregatorSpec:
    """Initialize an AggregatorSpec with He-scaled weights (no biases; the
    accounting convention is bias-free transforms)."""

    def init(rows: int, cols: int) -> Tensor:
        w = rng.normal(0.0, np.sqrt(2.0 / rows), size=(rows, cols))
        return Tensor(w.astype(dtype), requires_grad=True)

    weights: dict[str, Tensor] = {}
    if kind == "MaxE":
        weights["W"] = init(3 * in_c, out_c)
    elif kind == "MRGraphConv":
        weights["W"] = init(2 * in_c, out_c)
    elif kind == "EdgeConv":
        weights["W1"] = init(2 * in_c, 2 * in_c)
        weights["W2"] = init(2 * in_c, out_c)
    elif kind == "GraphSAGE":
        weights["W"] = init(2 * in_c, out_c)
        weights["Wn"] = init(in_c, in_c)
    elif kind == "GIN":
        if variant == "mlp":
            weights["W1"] = init(in_c, in_c)
            weights["W2"] = init(in_c, out_c)
        else:
            weights["W"] = init(in_c, out_c)
    return AggregatorSpec(kind=kind, in_c=in_c, out_c=out_c, weights=weights, variant=variant)


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


def maxe(x: Tensor, topo, spec: AggregatorSpec) -> Tensor:
    return maxe_update(maxe_aggregate(x, topo), spec.weights["W"])


# ---------------------------------------------------------------------------
# comparison aggregators
# ---------------------------------------------------------------------------


def baseline_aggregate(kind: str, x: Tensor, topo, spec: AggregatorSpec) -> Tensor:
    """Kind-specific aggregate-and-update. All use the same top-k neighbor
    convention as MaxE; EdgeConv and the GIN MLP variant use ReLU inside
    their per-edge / per-node MLPs."""
    if kind == "MaxE":
        return maxe(x, topo, spec)
    idx = _neighbor_idx(topo)
    n, k = idx.shape
    c = x.shape[1]
    w = spec.weights
    nbh = _gather_neighbors(x, idx)
    if kind == "MRGraphConv":
        return matmul(concat([x, _max_relative(x, nbh)], axis=1), w["W"])
    if kind == "EdgeConv":
        own = gather_rows(x, np.repeat(np.arange(n, dtype=np.int64)[:, None], k, axis=1))
        edges = concat([own, sub(nbh, own)], axis=2)  # [n, k, 2c]
        flat = reshape(edges, (n * k, 2 * c))
        hidden = max0(matmul(flat, w["W1"]))
        per_edge = reshape(matmul(hidden, w["W2"]), (n, k, spec.out_c))
        return reduce_max(per_edge, axis=1)
    if kind == "GraphSAGE":
        transformed = reshape(matmul(reshape(nbh, (n * k, c)), w["Wn"]), (n, k, c))
        return matmul(concat([x, reduce_mean(transformed, axis=1)], axis=1), w["W"])
    if kind == "GIN":
        summed = add(scale(x, 1.0 + spec.gin_eps), reduce_sum(nbh, axis=1))
        if spec.variant == "mlp":
            return matmul(max0(matmul(summed, w["W1"])), w["W2"])
        return matmul(summed, w["W"])
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


def param_count(spec: AggregatorSpec) -> tuple[int, float]:
    """Analytic parameter count and its ratio to the GIN unit.

    The unit is the single-linear GIN transform at the same widths
    (in_c * out_c); transform matrices only, no biases, and GIN's epsilon is
    not counted, matching the convention that makes MaxE land on exactly 3.
    """
    c_in, c_out = spec.in_c, spec.out_c
    if spec.kind == "MaxE":
        count = 3 * c_in * c_out
    elif spec.kind == "MRGraphConv":
        count = 2 * c_in * c_out
    elif spec.kind == "EdgeConv":
        count = (2 * c_in) * (2 * c_in) + (2 * c_in) * c_out
    elif spec.kind == "GraphSAGE":
        count = 2 * c_in * c_out + c_in * c_in
    elif spec.kind == "GIN":
        if spec.variant == "mlp":
            count = c_in * c_in + c_in * c_out
        else:
            count = c_in * c_out
    else:
        raise ConfigError(f"unknown aggregator kind {spec.kind!r}")
    unit = c_in * c_out
    return count, count / unit
