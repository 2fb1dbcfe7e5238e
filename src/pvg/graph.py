"""Per-block graph structure.

Everything a trident block needs before aggregation: first-order similarity
matrices and top-k neighbor selection (k first-maximum passes over one work
copy of the scores, or a stable sort where k is large against n), both
batched over images so that one call per branch serves a whole batch, and
the progressive channel schedule that moves capacity from grid-local mixing
(``tensor.offset_mix``) into the global graph branches.

Similarity computation and neighbor selection are structural: gradients never
flow through them, so they work on plain float arrays internally.
:func:`export_edges` writes chosen edges as the CSV of ``pvg export-graph``.
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


def _sorted_prefix(rows: np.ndarray, nodes: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    # A stable sort of each row's negated scores (into ``out`` if given) with
    # its own node's at NaN: NaN and the node itself sort last.
    neg = np.negative(rows, out=out, dtype=np.result_type(rows.dtype, np.float32))
    neg[np.arange(len(neg)), nodes] = np.nan
    return np.argsort(neg, axis=1, kind="stable")[:, :k]


def topk_neighbors(S, k: int, work: np.ndarray | None = None) -> GraphTopology:
    """Select each node's k most similar non-self nodes from a similarity
    matrix. Ties break toward the lower node index; rows come back sorted by
    non-increasing similarity. k must lie in [1, n - 1] (the model clamps it
    to that in ``ModelConfig.blocks``), else :class:`ConfigError`; fewer
    than two nodes leave no neighbor to select and raise
    :class:`DegenerateInputError`. A leading batch axis, ``[batch, n, n]``,
    selects within each image and gives the topology's arrays that axis.

    Selection is k ``argmax`` passes over a copy of the scores, the diagonal
    and each pick set to -inf; ``argmax`` takes the first maximum, so ties go
    to the lower index. Where 8k > n, which a sort does faster, and in rows
    whose passes reach NaN (``argmax`` takes it first) or only -inf, a stable
    sort of the negated scores with the node itself at NaN picks instead, in
    the same order. NaN and the node itself rank below every number, so a
    row with fewer than k non-NaN scores for other nodes raises
    :class:`DegenerateInputError` rather than picking NaN or a self-loop.

    ``work``, an array of ``S``'s shape and ``S``'s dtype promoted with
    float32, takes the copy in place of a new array, so one array serves a
    caller's every block of images. ``S`` is not written."""
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
    # Integer input is promoted with float32 as numpy does, which orders it
    # exactly as float64 would.
    rows = sa.reshape(-1, n)
    w = np.empty(rows.shape, np.result_type(sa.dtype, np.float32)) if work is None else work.reshape(-1, n)
    r = np.arange(len(rows))
    nodes = r % n
    if 8 * k > n:
        order = _sorted_prefix(rows, nodes, k, out=w)
    else:
        np.copyto(w, rows)
        w[r, nodes] = -np.inf
        order = np.empty((len(rows), k), np.intp)
        numbers = np.ones(len(rows), bool)
        for j in range(k):
            pick = order[:, j] = np.argmax(w, axis=1)
            numbers &= w[r, pick] > -np.inf  # False at NaN, or once only -inf is left
            w[r, pick] = -np.inf
        if not numbers.all():
            order[~numbers] = _sorted_prefix(rows[~numbers], nodes[~numbers], k)
    order = order.reshape(sa.shape[:-1] + (k,))
    sims = np.take_along_axis(sa, order, axis=-1)
    short = (np.isnan(sims) | (order == nodes.reshape(sa.shape[:-1])[..., None])).any(axis=-1)
    if short.any():
        *image, node = np.unravel_index(np.argmax(short), short.shape)
        where = f"image {image[0]} node {node}" if image else f"node {node}"
        raise DegenerateInputError(
            f"{where} has fewer than k={k} non-NaN similarity scores"
            f" ({np.count_nonzero(short)} such rows)"
        )
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

    The first graph's width is pinned at the block-0 global width;
    everything the ramp adds beyond that goes to the second graph branch,
    and the local branch gives up exactly that much. So every triple sums to
    the budget, the second width never falls and the local width never
    rises. Both graph branches score cosine similarity on their own slice.
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
