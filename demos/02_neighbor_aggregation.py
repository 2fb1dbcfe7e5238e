#!/usr/bin/env python3
"""MaxE aggregation on a toy graph, the identity that motivates it, and the
parameter cost of each aggregator.

MaxE summarizes a neighborhood with two sampled points (its mean and its
farthest member relative to the center) next to the node's own features:

    [ x_i  ||  max_j (x_j - x_i)  ||  mean_j x_j ]  ->  one linear map

The max term is not ad hoc: max(z) splits exactly into mean(z) + remainder +
within-class bound, and iterating the split on the residual vector telescopes
like a series expansion. The decomposition check below evaluates that chain
numerically.
"""

import numpy as np

from pvg import (
    Tensor,
    baseline_aggregate,
    decomposition_check,
    make_aggregator,
    maxe_aggregate,
    maxe_update,
    param_count,
    pairwise_similarity,
    topk_neighbors,
)

rng = np.random.default_rng(1)

print("=" * 64)
print("1. MaxE on a 5-node toy graph")
print("=" * 64)
x = rng.normal(size=(5, 3)).astype(np.float32)
topo = topk_neighbors(pairwise_similarity(x, "cosine"), k=2)
agg = maxe_aggregate(Tensor(x), topo)
print("x[0]          :", np.round(x[0], 3))
print("neighbors of 0:", topo.neighbor_idx[0])
print("aggregate[0]  :", np.round(agg.data[0], 3), "(self || max-diff || mean)")

w = rng.normal(size=(9, 3)).astype(np.float32) * 0.3
out = maxe_update(agg, Tensor(w))
print("updated[0]    :", np.round(out.data[0], 3))

print("\n" + "=" * 64)
print("2. The max decomposition identity")
print("=" * 64)
z = np.array([1.0, 3.0, 2.0])
rep = decomposition_check(z, depth=4)
print(f"z = {z}")
print("max(z) = mean + remainder + within-class bound")
print("       = 2.0  + (1.0 - 2.0) + 2.0 = 3.0")
print(f"first-order residual : {rep.first_order_residual:.2e}")
print(f"depth-4 telescoping  : {rep.telescoped_residual:.2e}")

worst = max(
    decomposition_check(np.random.default_rng(s).normal(size=24)).first_order_residual
    for s in range(200)
)
print(f"worst residual over 200 random 24-vectors: {worst:.2e}")

print("\n" + "=" * 64)
print("3. Parameter accounting (GIN single-linear = 1 unit)")
print("=" * 64)
c = 64
print(f"{'aggregator':>12} {'params':>8} {'ratio':>6}")
for kind in ("GIN", "MRGraphConv", "MaxE", "GraphSAGE", "EdgeConv"):
    count, ratio = param_count(kind, c, c)
    print(f"{kind:>12} {count:>8} {ratio:>6.1f}")
print(
    "\nMaxE carries three summary channels for three units of GIN cost;"
    "\nEdgeConv pays for a per-edge MLP instead."
)

print("\n" + "=" * 64)
print("4. Nesting: MaxE with zeroed mean rows == MR GraphConv")
print("=" * 64)
weights_mr = make_aggregator("MRGraphConv", 3, 3, rng)
w_nested = np.concatenate(
    [weights_mr["W"].data, np.zeros((3, 3), dtype=np.float32)], axis=0
)
out_mr = baseline_aggregate("MRGraphConv", Tensor(x), topo, weights_mr).data
out_nested = maxe_update(maxe_aggregate(Tensor(x), topo), Tensor(w_nested)).data
print("max |MaxE(nested W) - MRGraphConv| =", np.max(np.abs(out_mr - out_nested)))
