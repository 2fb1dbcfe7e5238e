"""Graph construction: similarity, top-k selection, Chebyshev locality, the
progressive channel schedule, and second-order equivalence."""

import csv
import math

import numpy as np
import pytest

from pvg.errors import ConfigError, DegenerateInputError, DimensionError
from pvg.graph import (
    ChannelSchedule,
    chebyshev_mask,
    export_edges,
    pairwise_similarity,
    psgc_schedule,
    similarity_matrix,
    topk_neighbors,
)
from pvg.tensor import Tensor, offset_mix


def brute_force_topk(s: np.ndarray, k: int) -> np.ndarray:
    """Full sort per row with the (similarity desc, index asc) key. NaN and
    the node itself rank below every number, so a row's first k are its k
    best other nodes whenever it has k non-NaN scores for them."""
    n = s.shape[0]
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        def key(j: int) -> tuple:
            v = float(s[i, j])
            return (1, 0.0, j) if j == i or math.isnan(v) else (0, -v, j)

        out[i] = sorted(range(n), key=key)[:k]
    return out


class TestPairwiseSimilarity:
    def test_cosine_self_similarity(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 1.0]])  # rows 0,1 parallel
        s = pairwise_similarity(x, "cosine").data
        assert abs(s[0, 1] - 1.0) < 1e-12

    def test_dot_orthogonal(self):
        s = pairwise_similarity(np.array([[1.0, 0.0], [0.0, 1.0]]), "dot").data
        assert s[0, 1] == 0.0

    def test_neg_euclidean_hand_case(self):
        s = pairwise_similarity(np.array([[0.0, 0.0], [3.0, 4.0]]), "neg_euclidean").data
        assert abs(s[0, 1] - (-5.0)) < 1e-12
        assert abs(s[0, 0]) < 1e-12

    @pytest.mark.parametrize("metric", ["dot", "cosine", "neg_euclidean"])
    def test_symmetry(self, metric):
        x = np.random.default_rng(0).normal(size=(7, 5))
        s = pairwise_similarity(x, metric).data
        np.testing.assert_array_equal(s, s.T)
        # Batched float32 at a size where BLAS blocks the product: still exact.
        xb = np.random.default_rng(1).normal(size=(3, 300, 20)).astype(np.float32)
        sb = similarity_matrix(xb, metric)
        np.testing.assert_array_equal(sb, sb.swapaxes(-1, -2))

    def test_cosine_range(self):
        x = np.random.default_rng(1).normal(size=(20, 8))
        s = pairwise_similarity(x, "cosine").data
        assert s.min() >= -1.0 - 1e-6
        assert s.max() <= 1.0 + 1e-6

    def test_cosine_zero_row_degenerate(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DegenerateInputError):
            pairwise_similarity(x, "cosine")

    def test_too_few_nodes(self):
        with pytest.raises(DimensionError):
            pairwise_similarity(np.ones((1, 3)), "dot")

    def test_kernel_scores_zero_row_as_zero_under_cosine(self):
        s = similarity_matrix(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]), "cosine")
        np.testing.assert_array_equal(s[0], 0.0)
        np.testing.assert_array_equal(s[:, 0], 0.0)

    def test_unknown_metric(self):
        with pytest.raises(ConfigError):
            pairwise_similarity(np.ones((2, 3)), "bogus")

    @pytest.mark.parametrize("metric", ["dot", "cosine", "neg_euclidean"])
    def test_integer_input_scored_in_floating_point(self, metric):
        x = [[1, 2], [2, 1], [0, 3]]
        got = pairwise_similarity(np.array(x), metric).data
        want = pairwise_similarity(np.array(x, dtype=np.float64), metric).data
        assert got.dtype.kind == "f"
        np.testing.assert_array_equal(got, want)


class TestTopkNeighbors:
    def test_direct_ordering(self):
        s = np.array(
            [
                [9.0, 0.9, 0.1, 0.5],
                [0.9, 9.0, 0.3, 0.2],
                [0.1, 0.3, 9.0, 0.4],
                [0.5, 0.2, 0.4, 9.0],
            ]
        )
        topo = topk_neighbors(s, 2)
        assert set(topo.neighbor_idx[0]) == {1, 3}
        assert topo.neighbor_idx[0].tolist() == [1, 3]  # sorted by similarity

    def test_all_equal_ties_to_lowest_index(self):
        s = np.ones((5, 5))
        topo = topk_neighbors(s, 2)
        assert topo.neighbor_idx[0].tolist() == [1, 2]
        assert topo.neighbor_idx[3].tolist() == [0, 1]

    def test_rows_non_increasing_and_valid(self):
        s = np.random.default_rng(2).normal(size=(10, 10))
        s = 0.5 * (s + s.T)
        topo = topk_neighbors(s, 4).validate()
        assert np.all(np.diff(topo.neighbor_sim, axis=1) <= 0)
        batched = topk_neighbors(np.stack([s, s[::-1, ::-1]]), 4).validate()
        assert batched.neighbor_idx.shape == (2, 10, 4)
        np.testing.assert_array_equal(batched.neighbor_idx[0], topo.neighbor_idx)

    def test_clamp_warns(self):
        s = np.random.default_rng(3).normal(size=(4, 4))
        with pytest.warns(UserWarning):
            topo = topk_neighbors(s, 10)
        assert topo.k == 3

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError):
            topk_neighbors(np.ones((4, 4)), 0)

    def test_too_few_scores_raises_instead_of_self_loop(self):
        s = np.full((4, 4), np.nan)
        s[0, 1] = 0.5
        with pytest.raises(DegenerateInputError, match="fewer than k=2"):
            topk_neighbors(s, 2)

    def test_minus_inf_scores_rank_above_the_node_itself(self):
        s = np.zeros((4, 4))
        s[0] = [5.0, 1.0, -np.inf, -np.inf]
        topo = topk_neighbors(s, 2).validate()
        assert topo.neighbor_idx[0].tolist() == [1, 2]

    @pytest.mark.parametrize("n", [4, 80])  # the full-sort and the partition path
    def test_row_with_fewer_than_k_scores(self, n):
        s = np.random.default_rng(n).normal(size=(n, n))
        s[2] = np.nan
        s[2, 0] = 0.5  # node 2 has exactly one score
        topk_neighbors(s, 1).validate()
        with pytest.raises(DegenerateInputError, match="node 2 "):
            topk_neighbors(s, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 65))
        s = rng.normal(size=(n, n)).astype(np.float32)
        s = 0.5 * (s + s.T)
        for k in (1, min(3, n - 1), n - 1):
            topo = topk_neighbors(s, k)
            np.testing.assert_array_equal(topo.neighbor_idx, brute_force_topk(s, k))

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(7)
        # quantized scores force plenty of exact ties
        s = np.round(rng.normal(size=(16, 16)) * 2) / 2.0
        s = 0.5 * (s + s.T)
        for k in range(1, 16):
            topo = topk_neighbors(s, k)
            np.testing.assert_array_equal(topo.neighbor_idx, brute_force_topk(s, k))


class TestChebyshevMask:
    def test_threshold_boundary(self):
        mask = chebyshev_mask(8, 8, 3).data
        at = lambda r0, c0, r1, c1: mask[r0 * 8 + c0, r1 * 8 + c1]
        assert at(0, 0, 3, 3) == 1.0  # exactly at the threshold
        assert at(0, 0, 4, 0) == 0.0  # one past it

    def test_symmetric_reflexive(self):
        mask = chebyshev_mask(5, 7, 2).data
        np.testing.assert_array_equal(mask, mask.T)
        np.testing.assert_array_equal(np.diag(mask), np.ones(35))

    @pytest.mark.parametrize("h,w,r", [(8, 8, 3), (16, 16, 1), (16, 16, 2), (16, 16, 3), (4, 9, 2)])
    def test_matches_exhaustive_enumeration(self, h, w, r):
        mask = chebyshev_mask(h, w, r).data
        for i in range(h * w):
            for j in range(h * w):
                dr = abs(i // w - j // w)
                dc = abs(i % w - j % w)
                assert mask[i, j] == (1.0 if max(dr, dc) <= r else 0.0)


def dense_local_oracle(x, alpha, h, w, r):
    """y_i = sum_j mask[i][j] * alpha[offset(i, j)] * x_j via explicit loops."""
    n, c = x.shape
    y = np.zeros_like(x)
    for i in range(n):
        ri, ci = divmod(i, w)
        for j in range(n):
            rj, cj = divmod(j, w)
            dy, dx = rj - ri, cj - ci
            if max(abs(dy), abs(dx)) <= r:
                o = (dy + r) * (2 * r + 1) + (dx + r)
                y[i] += alpha[o] * x[j]
    return y


def chebyshev_neighborhoods(alpha, h, w, r):
    """Per-node in-grid neighbors and their offset weights, in row-major
    offset order, enumerated from (row, col) = divmod(node, w)."""
    nbrs = [[] for _ in range(h * w)]
    ws = [[] for _ in range(h * w)]
    for i in range(h * w):
        ri, ci = divmod(i, w)
        for dy in range(-r, r + 1):
            for dx in range(-r, r + 1):
                if 0 <= ri + dy < h and 0 <= ci + dx < w:
                    nbrs[i].append((ri + dy) * w + ci + dx)
                    ws[i].append(alpha[(dy + r) * (2 * r + 1) + (dx + r)])
    return nbrs, ws


def second_order_similarity(x, neighborhoods, agg_weights) -> np.ndarray:
    """Affinity between aggregated neighborhoods, computed definitionally.

    For each node, phi_i = sum over its neighbors t of w_it * x_t (weights
    may be scalars or per-channel vectors); the result is the float64
    dot-product similarity S2[i][j] = sum over channels of phi_i * phi_j. It
    equals the first-order similarity of local-branch outputs when the
    neighborhoods and weights come from the same Chebyshev structure.
    """
    xa = np.asarray(x, dtype=np.float64)
    n, c = xa.shape
    if len(neighborhoods) != n or len(agg_weights) != n:
        raise DimensionError("one neighborhood and weight list required per node")
    agg = np.zeros((n, c), dtype=np.float64)
    for i, (nbrs, ws) in enumerate(zip(neighborhoods, agg_weights)):
        if len(nbrs) == 0:
            raise DegenerateInputError(f"node {i} has an empty neighborhood")
        for j, wj in zip(nbrs, np.asarray(ws, dtype=np.float64)):
            agg[i] += wj * xa[j]
    s2 = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            s2[i, j] = float(np.dot(agg[i], agg[j]))
    return s2


class TestLocalBranch:
    def test_delta_weights_identity(self):
        r, c = 2, 3
        alpha = np.zeros(((2 * r + 1) ** 2, c), dtype=np.float32)
        alpha[(2 * r + 1) ** 2 // 2] = 1.0  # center offset only
        x = Tensor(np.random.default_rng(4).normal(size=(20, c)).astype(np.float32))
        y = offset_mix(x, Tensor(alpha), (4, 5))
        np.testing.assert_array_equal(y.data, x.data)

    def test_uniform_weights_interior_mean(self):
        r, c = 1, 2
        n_off = (2 * r + 1) ** 2
        alpha = np.full((n_off, c), 1.0 / n_off, dtype=np.float32)
        x = np.random.default_rng(5).normal(size=(25, c)).astype(np.float32)
        y = offset_mix(Tensor(x), Tensor(alpha), (5, 5))
        # node 12 = center of the 5x5 grid; its 3x3 patch is rows 6..8 etc.
        patch = [6, 7, 8, 11, 12, 13, 16, 17, 18]
        np.testing.assert_allclose(y.data[12], x[patch].mean(axis=0), rtol=1e-5)

    def test_random_weights_match_dense_oracle(self):
        r, c = 3, 4
        rng = np.random.default_rng(6)
        alpha = rng.normal(size=((2 * r + 1) ** 2, c)).astype(np.float32)
        x = rng.normal(size=(25, c)).astype(np.float32)
        y = offset_mix(Tensor(x), Tensor(alpha), (5, 5))
        np.testing.assert_allclose(y.data, dense_local_oracle(x, alpha, 5, 5, r), rtol=2e-5, atol=1e-6)

    @pytest.mark.parametrize("h, w, r", [(2, 2, 5), (3, 5, 1)])
    def test_small_and_oblong_grids_match_dense_oracle(self, h, w, r):
        # (2, 2, 5): all but 9 of the 121 offsets fall off the grid
        c = 3
        rng = np.random.default_rng(h * 10 + w)
        alpha = rng.normal(size=((2 * r + 1) ** 2, c))
        x = rng.normal(size=(h * w, c))
        y = offset_mix(Tensor(x), Tensor(alpha), (h, w))
        np.testing.assert_allclose(y.data, dense_local_oracle(x, alpha, h, w, r), rtol=1e-12, atol=1e-12)

    def test_gradients_match_dense_loop_on_a_grid_smaller_than_the_window(self):
        # r = 3 on a 2x2 grid: 40 of the 49 offsets never reach the grid.
        batch, h, w, r, c = 2, 2, 2, 3, 3
        side = 2 * r + 1
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(batch * h * w, c)), requires_grad=True)
        alpha = Tensor(rng.normal(size=(side * side, c)), requires_grad=True)
        bias = Tensor(rng.normal(size=(side * side, c)), requires_grad=True)
        g = rng.normal(size=(batch * h * w, c))
        offset_mix(x, alpha, (h, w), bias=bias).backward(g)

        xg, gg = x.data.reshape(batch, h, w, c), g.reshape(batch, h, w, c)
        gx, gw, gb = np.zeros_like(xg), np.zeros_like(alpha.data), np.zeros_like(bias.data)
        for o in range(side * side):
            dy, dx = o // side - r, o % side - r
            for b in range(batch):
                for i in range(h):
                    for j in range(w):
                        si, sj = i + dy, j + dx
                        if 0 <= si < h and 0 <= sj < w:
                            gx[b, si, sj] += alpha.data[o] * gg[b, i, j]
                            gw[o] += gg[b, i, j] * xg[b, si, sj]
                            gb[o] += gg[b, i, j]
        np.testing.assert_allclose(x.grad, gx.reshape(x.shape), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(alpha.grad, gw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(bias.grad, gb, rtol=1e-12, atol=1e-12)
        assert np.count_nonzero(gb.any(axis=1)) == 9

    def test_batch_stacks_per_image_results(self):
        h, w, r, c = 4, 3, 1, 2
        rng = np.random.default_rng(10)
        alpha = Tensor(rng.normal(size=((2 * r + 1) ** 2, c)))
        bias = Tensor(rng.normal(size=((2 * r + 1) ** 2, c)))
        x = rng.normal(size=(3, h * w, c))
        batched = offset_mix(Tensor(x.reshape(-1, c)), alpha, (h, w), bias=bias).data
        per_image = [offset_mix(Tensor(img), alpha, (h, w), bias=bias).data for img in x]
        np.testing.assert_array_equal(batched, np.concatenate(per_image))

    def test_grid_mismatch(self):
        alpha = Tensor(np.zeros((9, 2), dtype=np.float32))
        for rows in (7, 13):  # neither fills whole 2 x 3 grids
            with pytest.raises(DimensionError):
                offset_mix(Tensor(np.zeros((rows, 2))), alpha, (2, 3))

    def test_offset_weight_table_size_enforced(self):
        with pytest.raises(DimensionError):
            offset_mix(Tensor(np.zeros((9, 2))), Tensor(np.zeros((8, 2))), (3, 3))
        with pytest.raises(DimensionError):  # a square, but of even side
            offset_mix(Tensor(np.zeros((9, 2))), Tensor(np.zeros((4, 2))), (3, 3))


class TestPsgcSchedule:
    def test_worked_example(self):
        sched = psgc_schedule(64, 3, 0.25, 0.75, 16)
        assert sched.per_block == [(48, 16, 0), (32, 16, 16), (16, 16, 32)]

    def test_single_block(self):
        sched = psgc_schedule(64, 1, 0.25, 0.75, 16)
        assert sched.per_block == [(48, 16, 0)]

    def test_constant_schedule_no_second_order(self):
        sched = psgc_schedule(128, 4, 0.5, 0.5, 16)
        assert all(t[2] == 0 for t in sched.per_block)

    def test_triples_sum_and_monotone(self):
        sched = psgc_schedule(256, 7, 0.25, 0.7, 16)
        seconds = [t[2] for t in sched.per_block]
        locals_ = [t[0] for t in sched.per_block]
        assert all(sum(t) == 256 for t in sched.per_block)
        assert seconds == sorted(seconds)
        assert locals_ == sorted(locals_, reverse=True)

    def test_bad_ratios(self):
        with pytest.raises(ConfigError):
            psgc_schedule(64, 3, 0.75, 0.25, 16)
        with pytest.raises(ConfigError):
            psgc_schedule(64, 3, 0.0, 0.5, 16)

    def test_indivisible_width(self):
        with pytest.raises(ConfigError):
            psgc_schedule(60, 3, 0.25, 0.75, 16)

    def test_first_width_below_granule(self):
        with pytest.raises(ConfigError):
            psgc_schedule(256, 2, 0.01, 0.9, 16)

    def test_schedule_type_invariants(self):
        with pytest.raises(ConfigError):
            ChannelSchedule(total_c=32, per_block=[(16, 16, 0), (8, 16, 4)])
        with pytest.raises(ConfigError):
            ChannelSchedule(total_c=32, per_block=[(0, 16, 16), (16, 16, 0)])


class TestSecondOrderSimilarity:
    def test_identical_neighborhoods(self):
        x = np.random.default_rng(8).normal(size=(4, 3))
        nbrs = [[1, 2], [1, 2], [0, 3], [0, 1]]
        ws = [[0.5, 0.5]] * 4
        s2 = second_order_similarity(x, nbrs, ws)
        assert abs(s2[0, 1] - s2[0, 0]) < 1e-12  # nodes 0,1 aggregate identically

    def test_path_graph_hand_case(self):
        # 4-node path 0-1-2-3, mean over the 2 interior neighbors of node 1 and 2
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        nbrs = [[1], [0, 2], [1, 3], [2]]
        ws = [[1.0], [0.5, 0.5], [0.5, 0.5], [1.0]]
        s2 = second_order_similarity(x, nbrs, ws)
        # phi = [2, 2, 3, 3]; s2[1][2] = 2*3
        assert s2[1, 2] == 6.0
        assert s2[0, 0] == 4.0

    def test_empty_neighborhood(self):
        with pytest.raises(DegenerateInputError):
            second_order_similarity(np.ones((2, 2)), [[1], []], [[1.0], []])

    @pytest.mark.parametrize("seed", range(6))
    def test_two_path_equivalence(self, seed):
        """Aggregate-then-first-order equals direct second-order similarity."""
        rng = np.random.default_rng(seed)
        h = w = 4
        r = 1
        c = 3
        alpha = rng.normal(size=((2 * r + 1) ** 2, c)).astype(np.float32)
        x = rng.normal(size=(h * w, c)).astype(np.float32)

        # path 1: local aggregation then plain dot-product similarity
        agg = offset_mix(Tensor(x), Tensor(alpha), (h, w))
        s_pipeline = pairwise_similarity(agg, "dot").data

        # path 2: definitional neighborhoods from the same Chebyshev structure
        nbrs, ws = chebyshev_neighborhoods(alpha, h, w, r)
        s_direct = second_order_similarity(x, nbrs, ws)

        denom = np.maximum(np.abs(s_direct), 1.0)
        assert np.max(np.abs(s_pipeline - s_direct) / denom) <= 1e-5


class TestExportEdges:
    def test_csv_schema(self, tmp_path):
        s = np.random.default_rng(9).normal(size=(5, 5))
        topo = topk_neighbors(0.5 * (s + s.T), 2)
        path = tmp_path / "edges.csv"
        export_edges(path, [(3, topo)])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["block", "node", "neighbor", "rank", "similarity"]
        assert len(rows) == 1 + 5 * 2
        assert rows[1][0] == "3"
        ranks = [int(r[3]) for r in rows[1:]]
        assert set(ranks) == {0, 1}
