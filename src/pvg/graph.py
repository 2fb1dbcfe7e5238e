"""Per-block graph structure.

Everything a trident block needs before aggregation: first-order similarity
matrices and top-k neighbor selection, both batched over images so that one
call per branch serves a whole batch, and the progressive channel schedule
that moves capacity from grid-local mixing (``tensor.offset_mix``) into the
global graph branches.

Similarity computation and neighbor selection are structural: gradients never
flow through them, so they work on plain float arrays internally.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateInputError, DimensionError


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------


@dataclass
class GraphTopology:
    """Per-node neighbor lists with their similarity scores.

    ``neighbor_idx[i]`` holds the k most similar non-self nodes of node i in
    non-increasing similarity order (ties broken toward lower node index);
    ``neighbor_sim`` carries the matching scores. A batched selection gives
    both arrays a leading image axis. ``n_nodes`` and ``k`` are read off
    ``neighbor_idx``'s shape.
    """

    neighbor_idx: np.ndarray
    neighbor_sim: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.neighbor_idx.shape[-2]

    @property
    def k(self) -> int:
        return self.neighbor_idx.shape[-1]


# ---------------------------------------------------------------------------
# similarity and selection
# ---------------------------------------------------------------------------


def similarity_matrix(xa: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """All-pairs cosine similarity of the rows of ``xa``, in its dtype; a
    leading batch axis, ``[batch, n, c]``, scores each image alone. Ranking
    L2-normalised rows by dot product ranks them by cosine, as ViG does.

    Symmetric bit for bit with no symmetrising pass: numpy mirrors one syrk
    triangle of ``xa @ xa^T``, or without BLAS sums the same products in the
    same order for (i, j) and (j, i). No input checks: the network calls this
    once per branch with features of a validated shape. Row norms are floored
    at 1e-12, so a zero row scores 0 against every row instead of dividing
    by zero. ``out``, if given, takes the scores in place of a new array.
    """
    xa = xa / np.maximum(np.linalg.norm(xa, axis=-1, keepdims=True), 1e-12)
    return np.matmul(xa, xa.swapaxes(-1, -2), out=out)


# Rows shorter than this take the full sort, which is faster there. Over the
# rows of 32 images at k = 4 (2-core x86-64, numpy 2.4): 0.18 vs 0.19 ms sorted
# vs partitioned at n = 16, 0.84 vs 0.42 ms at n = 32, 113 vs 13 ms at n = 256.
_PARTITION_MIN_N = 32


def _stable_argsort_prefix(a: np.ndarray, k: int, work: np.ndarray | None = None) -> np.ndarray:
    """``np.argsort(a, axis=1, kind="stable")[:, :k]``, sorting whole rows
    only where needed. ``work``, an array of ``a``'s shape and dtype, takes
    the partitioned copy in place of a new array.

    Partition finds each row's k-th smallest value. Where exactly k entries
    are <= it, they are the sorted prefix's entries, in column order, so a
    stable sort of just those k gives the prefix. A tie at the boundary, or a
    NaN k-th value, leaves some other count; such rows take the full sort.
    """
    if k < 1 or a.shape[1] < _PARTITION_MIN_N:
        return np.argsort(a, axis=1, kind="stable")[:, :k]
    work = np.empty_like(a) if work is None else work
    np.copyto(work, a)
    work.partition(k - 1, axis=1)  # what np.partition does to its copy
    kth = work[:, k - 1 : k].copy()  # frees a partitioned copy of its own
    keep = a <= kth
    exact = np.count_nonzero(keep, axis=1) == k
    keep[~exact] = False
    rows, cols = np.divmod(np.flatnonzero(keep).reshape(-1, k), a.shape[1])
    by_value = np.argsort(a[rows, cols], axis=1, kind="stable")  # gathers no whole row
    if exact.all():
        return np.take_along_axis(cols, by_value, axis=1)
    out = np.empty((a.shape[0], k), dtype=np.intp)
    out[exact] = np.take_along_axis(cols, by_value, axis=1)
    out[~exact] = np.argsort(a[~exact], axis=1, kind="stable")[:, :k]
    return out


def topk_neighbors(S, k: int, scratch: tuple[np.ndarray, np.ndarray] | None = None) -> GraphTopology:
    """Select each node's k most similar non-self nodes from a similarity
    matrix. Ties break toward the lower node index; rows come back sorted by
    non-increasing similarity. k must lie in [1, n - 1] (the model clamps it
    to that in ``ModelConfig.blocks``), else :class:`ConfigError`; fewer
    than two nodes leave no neighbor to select and raise
    :class:`DegenerateInputError`. A leading batch axis, ``[batch, n, n]``,
    selects within each image and gives the topology's arrays that axis.

    The node itself ranks with the NaN scores, below every number, so a row
    with fewer than k non-NaN scores for other nodes raises
    :class:`DegenerateInputError` rather than picking NaN or a self-loop.

    ``scratch``, two arrays of ``S``'s shape in the dtype of the negated
    scores, takes the negated scores and their partitioned copy in place of
    new arrays, so one pair serves a caller's every block of images."""
    sa = np.asarray(S)
    if sa.ndim not in (2, 3) or sa.shape[-1] != sa.shape[-2]:
        raise DimensionError(f"similarity matrix must be square, got {sa.shape}")
    n = sa.shape[-1]
    if k < 1:
        raise ConfigError("k must be >= 1")
    if n < 2:
        raise DegenerateInputError(f"top-k needs at least 2 nodes, got {n}")
    if k >= n:
        raise ConfigError(f"k={k} must be below the node count n={n}")
    # Negated scores with the diagonal at NaN: ascending order is descending
    # similarity, and NaN, the node itself included, sorts last. Float input
    # keeps its dtype; integer input is promoted with float32 as numpy does,
    # which orders it exactly as float64 would.
    neg, work = (None, None) if scratch is None else scratch
    neg = np.negative(sa, out=neg, dtype=np.result_type(sa.dtype, np.float32))
    neg[..., range(n), range(n)] = np.nan
    work = None if work is None else work.reshape(-1, n)
    order = _stable_argsort_prefix(neg.reshape(-1, n), k, work).reshape(sa.shape[:-1] + (k,))
    short = np.isnan(np.take_along_axis(neg, order, axis=-1)).any(axis=-1)
    if short.any():
        *image, node = np.unravel_index(np.argmax(short), short.shape)
        where = f"image {image[0]} node {node}" if image else f"node {node}"
        raise DegenerateInputError(
            f"{where} has fewer than k={k} non-NaN similarity scores"
            f" ({np.count_nonzero(short)} such rows)"
        )
    sims = np.take_along_axis(sa, order, axis=-1)
    return GraphTopology(neighbor_idx=order, neighbor_sim=sims)


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
    granularity: int,
) -> list[tuple[int, int, int]]:
    """Per-block (local, first, second) split of the channel budget: a
    linear ramp of the global-graph width from start_ratio to end_ratio of
    the budget, rounded to multiples of ``granularity``. The model always
    passes ``net.GRANULARITY``; the argument stays so that the schedule's
    invariants can be checked over many granularities.

    The first-order width is pinned at the block-0 global width; everything
    the ramp adds beyond that goes to the second-order branch, and the local
    branch gives up exactly that much. So every triple sums to the budget,
    the second-order width never falls and the local width never rises.
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
    return triples


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
