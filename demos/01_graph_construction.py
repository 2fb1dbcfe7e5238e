#!/usr/bin/env python3
"""Walk through the graph-construction machinery the network runs.

Scores first-order cosine similarity with ``similarity_matrix``, the one
similarity the network builds its graphs from, selects neighbors with
deterministic top-k, shows the Chebyshev window of the local branch as
``offset_mix``'s response to a unit impulse, and prints a progressive
channel schedule moving capacity from the local branch into the global
graph branches.
"""

import numpy as np

from pvg import Tensor, export_edges, psgc_schedule, similarity_matrix, topk_neighbors
from pvg.tensor import offset_mix

rng = np.random.default_rng(0)

print("=" * 64)
print("1. First-order cosine similarity")
print("=" * 64)
x = rng.normal(size=(6, 4)).astype(np.float32)
s = similarity_matrix(x)
print(f"\nS[0, :] = {np.round(s[0], 3)}")
print("Rows are L2-normalised first: S[i, i] is 1 up to rounding, every score lies in [-1, 1].")

print("\n" + "=" * 64)
print("2. Top-k neighbor selection (ties break toward lower index)")
print("=" * 64)
topo = topk_neighbors(s, k=3)
for i in range(topo.n_nodes):
    pairs = ", ".join(
        f"{j} ({v:+.3f})" for j, v in zip(topo.neighbor_idx[i], topo.neighbor_sim[i])
    )
    print(f"node {i}: {pairs}")

export_edges("demo_edges.csv", [(0, topo)])
print("\nwrote demo_edges.csv (block,node,neighbor,rank,similarity)")

print("\n" + "=" * 64)
print("3. The local branch's Chebyshev window on a 6x6 grid, r = 2")
print("=" * 64)
side = 2 * 2 + 1
weights = Tensor(np.ones((side * side, 1)))  # every offset weighs 1
impulse = np.zeros((36, 1))
impulse[2 * 6 + 2] = 1.0  # a unit impulse at node (2, 2)
y = offset_mix(Tensor(impulse), weights, (6, 6), Tensor(np.zeros((side * side, 1))))
print("nodes that see node (2,2) through offset_mix:")
print(y.data.reshape(6, 6).astype(int))
print("\nThe window is clipped at the grid edge: offsets that fall off the grid add nothing.")

print("\n" + "=" * 64)
print("4. Progressive channel schedule, 128 channels over 6 blocks")
print("=" * 64)
sched = psgc_schedule(total_c=128, n_blocks=6, start_ratio=0.25, end_ratio=0.75, granularity=16)
print(f"{'block':>5} {'local':>6} {'first':>6} {'second':>7}")
for b, (local_c, first_c, second_c) in enumerate(sched):
    print(f"{b:>5} {local_c:>6} {first_c:>6} {second_c:>7}")
print(
    "\nThe first graph's width stays pinned while the ramp moves local"
    "\nchannels to the second graph block by block. Both graphs are cosine"
    "\ntop-k on their own channels; moving channels to the second graph is"
    "\nwhat the paper calls introducing second-order similarity."
)
