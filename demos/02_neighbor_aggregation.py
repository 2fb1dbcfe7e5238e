#!/usr/bin/env python3
"""MaxE aggregation on a toy graph, the identity that motivates it, and the
parameter cost of each aggregator.

MaxE summarizes a neighborhood with two sampled points (its mean and its
farthest member relative to the center) next to the node's own features:

    [ x_i  ||  max_j (x_j - x_i)  ||  mean_j x_j ]  ->  one linear map

The max term is not ad hoc: max(z) splits exactly into mean(z) + remainder +
within-class bound. Every aggregation below goes through
``baseline_aggregate``, the call each graph branch of the network makes.
"""

import math

import numpy as np

from pvg import Tensor, baseline_aggregate, maxe_aggregate, similarity_matrix, topk_neighbors
from pvg.net import param_layout, tiny_config

rng = np.random.default_rng(1)

print("=" * 64)
print("1. MaxE on a 5-node toy graph")
print("=" * 64)
x = rng.normal(size=(5, 3)).astype(np.float32)
idx = topk_neighbors(similarity_matrix(x), k=2).neighbor_idx
agg = maxe_aggregate(Tensor(x), idx)
print("x[0]          :", np.round(x[0], 3))
print("neighbors of 0:", idx[0])
print("aggregate[0]  :", np.round(agg.data[0], 3), "(self || max-diff || mean)")

w = rng.normal(size=(9, 3)).astype(np.float32) * 0.3
out = baseline_aggregate("MaxE", Tensor(x), idx, {"W": Tensor(w)})
print("updated[0]    :", np.round(out.data[0], 3))

print("\n" + "=" * 64)
print("2. The max decomposition identity")
print("=" * 64)
z = np.array([1.0, 3.0, 2.0])
top, bar = z.max(), z.mean()
far = z[np.argmax(top - z)]  # the entry farthest below the max
print(f"z = {z}")
print("max(z) = mean + remainder + within-class bound")
print(f"       = {bar}  + ({far} - {bar}) + {np.max(top - z)} = {bar + (far - bar) + np.max(top - z)}")

print("\n" + "=" * 64)
print("3. Parameter accounting (GIN single-linear = 1 unit)")
print("=" * 64)
print("Transform sizes of stage 3's first-order branch (64 channels), read")
print("from param_layout, the table the model draws its parameters from:")
print(f"{'aggregator':>12} {'params':>8} {'ratio':>6}")
counts = {}
for kind in ("GIN", "MRGraphConv", "MaxE", "GraphSAGE", "EdgeConv"):
    layout = param_layout(tiny_config(aggregator=kind))
    counts[kind] = sum(
        math.prod(shape) for name, (shape, _) in layout.items() if name.startswith("stage3.block0.first.")
    )
    print(f"{kind:>12} {counts[kind]:>8} {counts[kind] / counts['GIN']:>6.1f}")
print(
    "\nMaxE carries three summary channels for three units of GIN cost;"
    "\nEdgeConv pays for a per-edge MLP instead."
)

print("\n" + "=" * 64)
print("4. Nesting: MaxE with zeroed mean rows == MR GraphConv")
print("=" * 64)
w_mr = rng.normal(size=(6, 3)).astype(np.float32)
w_nested = np.concatenate([w_mr, np.zeros((3, 3), dtype=np.float32)], axis=0)
out_mr = baseline_aggregate("MRGraphConv", Tensor(x), idx, {"W": Tensor(w_mr)}).data
out_nested = baseline_aggregate("MaxE", Tensor(x), idx, {"W": Tensor(w_nested)}).data
print("max |MaxE(nested W) - MRGraphConv| =", np.max(np.abs(out_mr - out_nested)))
