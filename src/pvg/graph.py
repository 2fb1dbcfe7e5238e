"""Per-block graph structure.

Everything a trident block needs before aggregation: first-order similarity
matrices and top-k neighbor selection, both batched over images so that one
call per branch serves a whole batch, the Chebyshev window mask, and the
progressive channel schedule that moves capacity from grid-local mixing
(``tensor.offset_mix``) into the global graph branches.

Similarity computation and neighbor selection are structural: gradients never
flow through them, so they work on plain float arrays internally.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateInputError, DimensionError
from .tensor import Tensor

SIMILARITY_METRICS = ("dot", "cosine", "neg_euclidean")


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


# ---------------------------------------------------------------------------
# topology and schedule types
# ---------------------------------------------------------------------------


@dataclass
class GraphTopology:
    """Per-node neighbor lists with their similarity scores.

    ``neighbor_idx[i]`` holds the k most similar non-self nodes of node i in
    non-increasing similarity order (ties broken toward lower node index);
    ``neighbor_sim`` carries the matching scores. A batched selection gives
    both arrays a leading image axis.
    """

    n_nodes: int
    k: int
    neighbor_idx: np.ndarray
    neighbor_sim: np.ndarray

    def validate(self) -> "GraphTopology":
        idx = self.neighbor_idx
        if idx.shape[-2:] != (self.n_nodes, self.k) or self.neighbor_sim.shape != idx.shape:
            raise DimensionError("neighbor_idx and neighbor_sim must both be [..., n, k]")
        if np.any(idx == np.arange(self.n_nodes)[:, None]):
            raise DegenerateInputError("self-loop in topology")
        if idx.min(initial=0) < 0 or idx.max(initial=0) >= self.n_nodes:
            raise DimensionError("neighbor index out of range")
        dup = (np.diff(np.sort(idx, axis=-1), axis=-1) == 0).any(axis=-1)
        if dup.any():
            raise DegenerateInputError(f"duplicate neighbor in row {np.argwhere(dup)[0].tolist()}")
        if np.any(np.diff(self.neighbor_sim, axis=-1) > 1e-6):
            raise DegenerateInputError("neighbor_sim rows must be non-increasing")
        return self


@dataclass
class ChannelSchedule:
    """Per-block split of the channel budget into (local, first, second)."""

    total_c: int
    per_block: list[tuple[int, int, int]]

    def __post_init__(self) -> None:
        firsts = {t[1] for t in self.per_block}
        if len(firsts) != 1:
            raise ConfigError("first-order width must be constant across blocks")
        prev_local, prev_second = None, None
        for local_c, first_c, second_c in self.per_block:
            if local_c + first_c + second_c != self.total_c:
                raise ConfigError("schedule triple does not sum to total channels")
            if min(local_c, first_c, second_c) < 0:
                raise ConfigError("negative width in schedule triple")
            if prev_second is not None and second_c < prev_second:
                raise ConfigError("second-order width must be non-decreasing")
            if prev_local is not None and local_c > prev_local:
                raise ConfigError("local width must be non-increasing")
            prev_local, prev_second = local_c, second_c


# ---------------------------------------------------------------------------
# similarity and selection
# ---------------------------------------------------------------------------


def similarity_matrix(xa: np.ndarray, metric: str) -> np.ndarray:
    """Symmetric all-pairs similarity of the rows of ``xa``, in its dtype; a
    leading batch axis, ``[batch, n, c]``, scores each image alone.

    Symmetric bit for bit with no symmetrising pass: numpy mirrors one syrk
    triangle of ``xa @ xa^T``, or without BLAS sums the same products in the
    same order for (i, j) and (j, i). No input checks: the network calls this
    once per branch with features of a validated shape and a metric validated
    at configuration time. Cosine floors row norms at 1e-12, so a zero row
    scores 0 against every row instead of dividing by zero.
    """
    if metric == "cosine":
        xa = xa / np.maximum(np.linalg.norm(xa, axis=-1, keepdims=True), 1e-12)
    s = xa @ xa.swapaxes(-1, -2)
    if metric == "neg_euclidean":
        sq = np.sum(xa * xa, axis=-1)
        s = -np.sqrt(np.maximum(sq[..., :, None] + sq[..., None, :] - 2.0 * s, 0.0))
    return s


def pairwise_similarity(x, metric: str = "dot") -> Tensor:
    """All-pairs node similarity S[i][j] under the chosen metric.

    dot: raw inner product; cosine: inner product of unit rows (zero-norm
    rows are a degenerate-input error); neg_euclidean: negated Euclidean
    distance. Symmetric for all three. Integer features are scored in
    float64.
    """
    xa = _as_array(x)
    if xa.ndim != 2 or xa.shape[0] < 2 or xa.shape[1] < 1:
        raise DimensionError(f"expected [n>=2, c>=1] features, got {xa.shape}")
    if metric not in SIMILARITY_METRICS:
        raise ConfigError(f"unknown similarity metric {metric!r}")
    if not np.issubdtype(xa.dtype, np.floating):
        xa = xa.astype(np.float64)
    if metric == "cosine" and np.any(np.linalg.norm(xa, axis=1) == 0):
        raise DegenerateInputError("zero-norm row under cosine similarity")
    return Tensor(similarity_matrix(xa, metric))


# Rows shorter than this take the full sort, which is faster there. Over the
# rows of 32 images at k = 4 (2-core x86-64, numpy 2.4): 0.18 vs 0.19 ms sorted
# vs partitioned at n = 16, 0.84 vs 0.42 ms at n = 32, 113 vs 13 ms at n = 256.
_PARTITION_MIN_N = 32


def _stable_argsort_prefix(a: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(a, axis=1, kind="stable")[:, :k]``, sorting whole rows
    only where needed.

    Partition finds each row's k-th smallest value. Where exactly k entries
    are <= it, they are the sorted prefix's entries, in column order, so a
    stable sort of just those k gives the prefix. A tie at the boundary, or a
    NaN k-th value, leaves some other count; such rows take the full sort.
    """
    if k < 1 or a.shape[1] < _PARTITION_MIN_N:
        return np.argsort(a, axis=1, kind="stable")[:, :k]
    kth = np.partition(a, k - 1, axis=1)[:, k - 1 : k].copy()  # frees the partitioned copy
    keep = a <= kth
    exact = np.count_nonzero(keep, axis=1) == k
    rows = slice(None) if exact.all() else exact  # a slice selects without a copy
    cols = (np.flatnonzero(keep[rows]) % a.shape[1]).reshape(-1, k)
    by_value = np.argsort(np.take_along_axis(a[rows], cols, axis=1), axis=1, kind="stable")
    if rows is not exact:
        return np.take_along_axis(cols, by_value, axis=1)
    out = np.empty((a.shape[0], k), dtype=np.intp)
    out[exact] = np.take_along_axis(cols, by_value, axis=1)
    out[~exact] = np.argsort(a[~exact], axis=1, kind="stable")[:, :k]
    return out


def topk_neighbors(S, k: int) -> GraphTopology:
    """Select each node's k most similar non-self nodes from a similarity
    matrix. Ties break toward the lower node index; rows come back sorted by
    non-increasing similarity. k >= n is clamped to n-1 with a warning. A
    leading batch axis, ``[batch, n, n]``, selects within each image and gives
    the topology's arrays that axis.

    The node itself ranks with the NaN scores, below every number, so a row
    with fewer than k non-NaN scores for other nodes raises
    :class:`DegenerateInputError` rather than picking NaN or a self-loop."""
    sa = _as_array(S)
    if sa.ndim not in (2, 3) or sa.shape[-1] != sa.shape[-2]:
        raise DimensionError(f"similarity matrix must be square, got {sa.shape}")
    n = sa.shape[-1]
    if k < 1:
        raise ConfigError("k must be >= 1")
    if k >= n:
        warnings.warn(f"k={k} >= n={n}; clamping to {n - 1}", stacklevel=2)
        k = n - 1
    # Negated scores with the diagonal at NaN: ascending order is descending
    # similarity, and NaN, the node itself included, sorts last. Float input
    # keeps its dtype; integer input is promoted with float32 as numpy does,
    # which orders it exactly as float64 would.
    neg = np.negative(sa, dtype=np.result_type(sa.dtype, np.float32))
    neg[..., range(n), range(n)] = np.nan
    order = _stable_argsort_prefix(neg.reshape(-1, n), k).reshape(sa.shape[:-1] + (k,))
    short = np.isnan(np.take_along_axis(neg, order, axis=-1)).any(axis=-1)
    if short.any():
        *image, node = np.unravel_index(np.argmax(short), short.shape)
        where = f"image {image[0]} node {node}" if image else f"node {node}"
        raise DegenerateInputError(
            f"{where} has fewer than k={k} non-NaN similarity scores"
            f" ({np.count_nonzero(short)} such rows)"
        )
    sims = np.take_along_axis(sa, order, axis=-1)
    return GraphTopology(n_nodes=n, k=k, neighbor_idx=order, neighbor_sim=sims)


# ---------------------------------------------------------------------------
# Chebyshev window
# ---------------------------------------------------------------------------


def chebyshev_mask(h: int, w: int, r: int) -> Tensor:
    """0/1 matrix over row-major grid nodes: 1 iff max(|drow|, |dcol|) <= r."""
    n = h * w
    rows = np.arange(n) // w
    cols = np.arange(n) % w
    dr = np.abs(rows[:, None] - rows[None, :])
    dc = np.abs(cols[:, None] - cols[None, :])
    mask = ((dr <= r) & (dc <= r)).astype(np.float32)
    return Tensor(mask)


# ---------------------------------------------------------------------------
# progressive channel schedule
# ---------------------------------------------------------------------------


def _round_to_multiple(x: float, m: int) -> int:
    # Half-up, so schedules are platform independent.
    return int(np.floor(x / m + 0.5)) * m


def psgc_schedule(
    total_c: int,
    n_blocks: int,
    start_ratio: float,
    end_ratio: float,
    granularity: int = 16,
) -> ChannelSchedule:
    """Linear ramp of the global-graph width from start_ratio to end_ratio of
    the channel budget, rounded to multiples of ``granularity``.

    The first-order width is pinned at the block-0 global width; everything
    the ramp adds beyond that goes to the second-order branch, and the local
    branch gives up exactly that much.
    """
    if not (0.0 < start_ratio <= end_ratio < 1.0):
        raise ConfigError("need 0 < start_ratio <= end_ratio < 1")
    if total_c % granularity != 0:
        raise ConfigError(f"total_c={total_c} not divisible by granularity {granularity}")
    if n_blocks < 1:
        raise ConfigError("n_blocks must be >= 1")
    triples: list[tuple[int, int, int]] = []
    first_c = None
    for b in range(n_blocks):
        if n_blocks == 1:
            frac = start_ratio
        else:
            frac = start_ratio + (end_ratio - start_ratio) * b / (n_blocks - 1)
        g = _round_to_multiple(total_c * frac, granularity)
        if first_c is None:
            first_c = g
        local_c = total_c - g
        second_c = g - first_c
        if local_c < 0:
            raise ConfigError(f"block {b}: schedule leaves local width negative")
        if first_c < granularity:
            raise ConfigError("first-order width rounds below one granule")
        triples.append((local_c, first_c, second_c))
    return ChannelSchedule(total_c=total_c, per_block=triples)


# ---------------------------------------------------------------------------
# edge export
# ---------------------------------------------------------------------------


def export_edges(path: str | Path, topologies: Sequence[tuple[int, GraphTopology]]) -> None:
    """Write ``block,node,neighbor,rank,similarity`` CSV rows (with header)
    for each (block_index, topology) pair."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "node", "neighbor", "rank", "similarity"])
        for block, topo in topologies:
            for node in range(topo.n_nodes):
                for rank in range(topo.k):
                    writer.writerow(
                        [
                            block,
                            node,
                            int(topo.neighbor_idx[node, rank]),
                            rank,
                            f"{float(topo.neighbor_sim[node, rank]):.8g}",
                        ]
                    )
