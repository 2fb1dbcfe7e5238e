"""Per-block graph structure.

Everything a trident block needs before aggregation: first-order similarity
matrices, top-k neighbor selection, the Chebyshev window mask, the
progressive channel schedule that moves capacity from grid-local mixing
(``tensor.offset_mix``) into the global graph branches, and the direct form
of second-order similarity (affinity between aggregated neighborhoods) used
to cross-check the pipeline.

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
    ``neighbor_sim`` carries the matching scores.
    """

    n_nodes: int
    k: int
    neighbor_idx: np.ndarray
    neighbor_sim: np.ndarray

    def validate(self) -> "GraphTopology":
        if self.neighbor_idx.shape != (self.n_nodes, self.k):
            raise DimensionError("neighbor_idx shape mismatch")
        if self.neighbor_sim.shape != (self.n_nodes, self.k):
            raise DimensionError("neighbor_sim shape mismatch")
        rows = np.arange(self.n_nodes)[:, None]
        if np.any(self.neighbor_idx == rows):
            raise DegenerateInputError("self-loop in topology")
        if self.neighbor_idx.min(initial=0) < 0 or self.neighbor_idx.max(initial=0) >= self.n_nodes:
            raise DimensionError("neighbor index out of range")
        for i in range(self.n_nodes):
            if len(set(self.neighbor_idx[i])) != self.k:
                raise DegenerateInputError(f"duplicate neighbor in row {i}")
        if np.any(np.diff(self.neighbor_sim, axis=1) > 1e-6):
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
    """Symmetric all-pairs similarity of the rows of ``xa``, in its dtype.

    No input checks: the network calls this once per image per branch with
    features of a validated shape and a metric validated at configuration
    time. Cosine floors row norms at 1e-12, so a zero row scores 0 against
    every row instead of dividing by zero.
    """
    if metric == "cosine":
        xa = xa / np.maximum(np.linalg.norm(xa, axis=1, keepdims=True), 1e-12)
    s = xa @ xa.T
    if metric == "neg_euclidean":
        sq = np.sum(xa * xa, axis=1)
        s = -np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * s, 0.0))
    return 0.5 * (s + s.T)


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


# Rows shorter than this take the full sort, which is faster there. On a
# 2-core x86-64 host with numpy 2.4 the two cross near n = 50; 32 calls took
# 0.26 ms sorted vs 1.4 ms partitioned at n = 16, and 96 vs 15 ms at n = 256.
_PARTITION_MIN_N = 64


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
    kth = np.partition(a, k - 1, axis=1)[:, k - 1 : k]
    keep = a <= kth
    exact = np.count_nonzero(keep, axis=1) == k
    out = np.empty((a.shape[0], k), dtype=np.intp)
    cols = np.nonzero(keep[exact])[1].reshape(-1, k)
    by_value = np.argsort(np.take_along_axis(a[exact], cols, axis=1), axis=1, kind="stable")
    out[exact] = np.take_along_axis(cols, by_value, axis=1)
    out[~exact] = np.argsort(a[~exact], axis=1, kind="stable")[:, :k]
    return out


def topk_neighbors(S, k: int) -> GraphTopology:
    """Select each node's k most similar non-self nodes from a similarity
    matrix. Ties break toward the lower node index; rows come back sorted by
    non-increasing similarity. k >= n is clamped to n-1 with a warning.

    The node itself ranks with the NaN scores, below every number, so a row
    with fewer than k non-NaN scores for other nodes raises
    :class:`DegenerateInputError` rather than picking NaN or a self-loop."""
    sa = _as_array(S)
    if sa.ndim != 2 or sa.shape[0] != sa.shape[1]:
        raise DimensionError(f"similarity matrix must be square, got {sa.shape}")
    n = sa.shape[0]
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
    np.fill_diagonal(neg, np.nan)
    order = _stable_argsort_prefix(neg, k)
    short = np.isnan(np.take_along_axis(neg, order, axis=1)).any(axis=1)
    if short.any():
        raise DegenerateInputError(
            f"node {np.argmax(short)} has fewer than k={k} non-NaN similarity scores"
            f" ({np.count_nonzero(short)} such rows)"
        )
    sims = np.take_along_axis(sa, order, axis=1)
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
