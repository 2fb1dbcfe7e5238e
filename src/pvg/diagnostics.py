"""Over-smoothing diagnostics and graph-structure summaries.

The central quantity is node-feature diversity: the mean Euclidean distance
of node features from their common mean. It is zero exactly when every node
carries the same vector, which is the collapsed state deep graph stacks drift
toward; tracing it block by block makes that drift visible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError
from .graph import GraphTopology
from .net import Model


def diversity(x: np.ndarray) -> float:
    """Mean over nodes of || x_i - mean(x) ||_2 for features [n, c]."""
    xa = np.asarray(x, dtype=np.float64)
    center = xa.mean(axis=0, keepdims=True)
    return float(np.linalg.norm(xa - center, axis=1).mean())


@dataclass
class DiversityTrace:
    run_id: str
    per_block: list[tuple[int, float]]


def trace_diversity(model: Model, images, run_id: str = "trace") -> DiversityTrace:
    """Diversity of every block's output, averaged over the batch, from a forward that records no graph."""
    collect: dict = {"blocks": []}
    model.detached().forward(np.asarray(images), collect=collect)
    per_block = []
    for block_index, feats in collect["blocks"]:
        values = [diversity(feats[im]) for im in range(feats.shape[0])]
        per_block.append((block_index, float(np.mean(values))))
    return DiversityTrace(run_id=run_id, per_block=per_block)


def write_trace_csv(path: str | Path, traces) -> None:
    """Write ``run_id,block,diversity`` rows; ``traces`` is one DiversityTrace
    or a sequence of them."""
    if isinstance(traces, DiversityTrace):
        traces = [traces]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "block", "diversity"])
        for trace in traces:
            for block, value in trace.per_block:
                writer.writerow([trace.run_id, block, f"{value:.8g}"])


def graph_stats(topo: GraphTopology, labels=None) -> dict[str, float]:
    """Summary statistics of one topology: in-degree spread, similarity
    quantiles, and (when labels are given) neighbor label purity. A batched
    topology, as ``Model.forward`` collects, is refused rather than pooled
    over its images: index one image first."""
    if topo.neighbor_idx.ndim != 2:
        raise DimensionError(f"graph_stats takes one [n, k] topology, got {topo.neighbor_idx.shape}")
    in_degree = np.bincount(topo.neighbor_idx.reshape(-1), minlength=topo.n_nodes)
    sims = topo.neighbor_sim.reshape(-1)
    stats = {
        "n_nodes": float(topo.n_nodes),
        "out_degree": float(topo.k),
        "in_degree_min": float(in_degree.min()),
        "in_degree_mean": float(in_degree.mean()),
        "in_degree_max": float(in_degree.max()),
        "similarity_q0": float(np.quantile(sims, 0.0)),
        "similarity_q25": float(np.quantile(sims, 0.25)),
        "similarity_q50": float(np.quantile(sims, 0.5)),
        "similarity_q75": float(np.quantile(sims, 0.75)),
        "similarity_q100": float(np.quantile(sims, 1.0)),
    }
    if labels is not None:
        labels = np.asarray(labels)
        same = labels[topo.neighbor_idx] == labels[:, None]
        stats["label_purity"] = float(same.mean())
    return stats
