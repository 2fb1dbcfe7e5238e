"""Graph construction: similarity, top-k selection, the Chebyshev window of
the local branch, and the progressive channel schedule."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from pvg.errors import ConfigError, DegenerateInputError, DimensionError
from pvg.graph import (
    export_edges,
    psgc_schedule,
    similarity_matrix,
    topk_neighbors,
)
from pvg.tensor import Tensor, _grid_windows, offset_mix

from oracles import checked_topology, offset_mix_einsums


def zero_bias(weights: Tensor) -> Tensor:
    """An all-zero offset bias table: ``offset_mix`` then applies its
    weights alone."""
    return Tensor(np.zeros_like(weights.data))


def impulse_response(h: int, w: int, r: int) -> np.ndarray:
    """``offset_mix`` on unit impulses: ``resp[p, q]`` is node q's output
    when the impulse sits at node p of an h x w grid. Offset o weighs o + 1
    and the bias is zero. One image per impulse position, one channel."""
    n = h * w
    weights = Tensor(np.arange(1.0, (2 * r + 1) ** 2 + 1.0)[:, None])
    impulses = Tensor(np.eye(n).reshape(n * n, 1))
    return offset_mix(impulses, weights, (h, w), zero_bias(weights)).data.reshape(n, n)


def chebyshev_window_oracle(h: int, w: int, r: int) -> np.ndarray:
    """Exhaustive pair enumeration: node q sees the impulse at p through the
    offset p - q, weighed by that offset's row index + 1, when
    max(|drow|, |dcol|) <= r, and sees nothing otherwise."""
    n = h * w
    want = np.zeros((n, n))
    for p in range(n):
        for q in range(n):
            dy, dx = p // w - q // w, p % w - q % w
            if max(abs(dy), abs(dx)) <= r:
                want[p, q] = (dy + r) * (2 * r + 1) + (dx + r) + 1
    return want


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
    """``similarity_matrix``, the all-pairs scoring the graph build runs."""

    def test_cosine_self_similarity(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 1.0]])  # rows 0,1 parallel
        s = similarity_matrix(x)
        assert abs(s[0, 1] - 1.0) < 1e-12

    def test_symmetry(self):
        x = np.random.default_rng(0).normal(size=(7, 5))
        s = similarity_matrix(x)
        np.testing.assert_array_equal(s, s.T)
        # Batched float32 at a size where BLAS blocks the product: still exact.
        xb = np.random.default_rng(1).normal(size=(3, 300, 20)).astype(np.float32)
        sb = similarity_matrix(xb)
        np.testing.assert_array_equal(sb, sb.swapaxes(-1, -2))

    def test_cosine_range(self):
        x = np.random.default_rng(1).normal(size=(20, 8))
        s = similarity_matrix(x)
        assert s.min() >= -1.0 - 1e-6
        assert s.max() <= 1.0 + 1e-6

    def test_cosine_zero_row_degenerate(self):
        # A zero row scores 0 against every node, so it still selects k
        # neighbors, ties toward the lower index, and nothing selects it
        # over a positive score.
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [1.0, 2.0]])
        topo = checked_topology(topk_neighbors(similarity_matrix(x), 2))
        assert topo.neighbor_idx[0].tolist() == [1, 2]
        assert not np.any(topo.neighbor_idx[1:] == 0)

    def test_too_few_nodes(self):
        # One node has no other node to select, whatever k: top-k refuses it,
        # unbatched and batched, instead of returning empty neighbor rows.
        for shape in ((1, 1), (3, 1, 1)):
            with pytest.raises(DegenerateInputError, match="at least 2 nodes, got 1"):
                topk_neighbors(np.ones(shape), 4)

    def test_kernel_scores_zero_row_as_zero_under_cosine(self):
        s = similarity_matrix(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(s[0], 0.0)
        np.testing.assert_array_equal(s[:, 0], 0.0)



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
        topo = checked_topology(topk_neighbors(s, 4))
        assert np.all(np.diff(topo.neighbor_sim, axis=1) <= 0)
        batched = checked_topology(topk_neighbors(np.stack([s, s[::-1, ::-1]]), 4))
        assert batched.neighbor_idx.shape == (2, 10, 4)
        np.testing.assert_array_equal(batched.neighbor_idx[0], topo.neighbor_idx)

    @pytest.mark.parametrize("k", [4, 10])
    def test_k_of_n_or_more_rejected(self, k):
        # ModelConfig.blocks() clamps the model's k; a direct caller's is checked.
        s = np.random.default_rng(3).normal(size=(4, 4))
        with pytest.raises(ConfigError, match=f"k={k} must be below the node count n=4"):
            topk_neighbors(s, k)

    def test_k_must_be_positive(self):
        with pytest.raises(ConfigError):
            topk_neighbors(np.ones((4, 4)), 0)

    def test_too_few_scores_raises_instead_of_self_loop(self):
        s = np.full((4, 4), np.nan)
        s[0, 1] = 0.5
        with pytest.raises(DegenerateInputError, match="fewer than k=2"):
            topk_neighbors(s, 2)

    @pytest.mark.parametrize("n", [4, 64])  # the sort (8k > n) and the argmax passes
    def test_minus_inf_scores_rank_above_the_node_itself(self, n):
        # Node 0 has one finite score for another node, so its second pick
        # is its first -inf score, never itself or its first pick again.
        s = np.zeros((n, n))
        s[0] = -np.inf
        s[0, :2] = [5.0, 1.0]
        topo = checked_topology(topk_neighbors(s, 2))
        assert topo.neighbor_idx[0].tolist() == [1, 2]
        np.testing.assert_array_equal(topo.neighbor_idx, brute_force_topk(s, 2))

    @pytest.mark.parametrize("n", [16, 64])  # k = 4: the sort and the argmax passes
    def test_short_row_names_image_and_node(self, n):
        # The cosine of finite features is finite, so only a direct caller
        # can pass NaN scores: in image 1 only, nodes 2..n-1 keep two scores
        # each; images 0 and 2 alone select.
        s = similarity_matrix(np.random.default_rng(1).normal(size=(3, n, 8)).astype(np.float32))
        s[1, 2:, 2:] = np.nan
        with pytest.raises(DegenerateInputError, match=f"image 1 node 2 has fewer than k=4 .*\\({n - 2} such rows\\)"):
            topk_neighbors(s, 4)
        checked_topology(topk_neighbors(s[::2], 4))

    @pytest.mark.parametrize("seed", range(4))
    def test_infinite_scores_match_brute_force(self, seed):
        # n = 64 and k <= 8, so every row starts on the argmax passes. Rows
        # hold +inf and -inf scores; in some, fewer than k scores exceed
        # -inf, so their picks reach -inf and they take the sort.
        rng = np.random.default_rng(seed)
        n = 64
        s = rng.normal(size=(n, n))
        s[rng.random((n, n)) < 0.1] = np.inf
        s[rng.random((n, n)) < 0.3] = -np.inf
        sparse = rng.random(n) < 0.25
        s[sparse] = np.where(rng.random((np.count_nonzero(sparse), n)) < 0.05, np.inf, -np.inf)
        s[sparse, rng.integers(0, n, np.count_nonzero(sparse))] = 0.5
        for dtype in (np.float32, np.float64):
            for k in range(1, 9):
                topo = topk_neighbors(s.astype(dtype), k)
                with np.errstate(invalid="ignore"):  # +inf - +inf along a row
                    checked_topology(topo)
                np.testing.assert_array_equal(topo.neighbor_idx, brute_force_topk(s, k))

    @pytest.mark.parametrize("n, k", [(16, 4), (64, 4)])  # the sort and the argmax passes
    def test_work_array_gives_the_same_bytes_and_leaves_scores_unchanged(self, n, k):
        rng = np.random.default_rng(n)
        s = rng.normal(size=(3, n, n)).astype(np.float32)
        s[0] = np.round(s[0])  # ties
        s[1, 3:6] = -np.inf  # one finite score each: their picks reach -inf
        s[1, 3:6, 0] = 0.5
        s[1, 9, 7] = np.nan  # argmax would pick it first
        before = s.tobytes()
        plain = topk_neighbors(s, k)
        work = np.full_like(s, 7.0)
        given = topk_neighbors(s, k, work=work)
        assert s.tobytes() == before
        assert plain.neighbor_idx.tobytes() == given.neighbor_idx.tobytes()
        assert plain.neighbor_sim.tobytes() == given.neighbor_sim.tobytes()
        for image in range(3):
            np.testing.assert_array_equal(plain.neighbor_idx[image], brute_force_topk(s[image], k))

    @pytest.mark.parametrize("n", [4, 80])  # the sort and the argmax passes
    def test_row_with_fewer_than_k_scores(self, n):
        s = np.random.default_rng(n).normal(size=(n, n))
        s[2] = np.nan
        s[2, 0] = 0.5  # node 2 has exactly one score
        checked_topology(topk_neighbors(s, 1))
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
    """The local branch's Chebyshev window, probed through ``offset_mix``'s
    impulse response."""

    def test_threshold_boundary(self):
        resp = impulse_response(8, 8, 3)
        at = lambda r0, c0, r1, c1: resp[r0 * 8 + c0, r1 * 8 + c1]
        assert at(3, 3, 0, 0) == 49.0  # exactly at the threshold: offset (3, 3)
        assert at(4, 0, 0, 0) == 0.0  # one past it

    def test_symmetric_reflexive(self):
        # Reversing a pair reverses the offset, row o becoming row 24 - o.
        resp = impulse_response(5, 7, 2)
        np.testing.assert_array_equal(resp != 0, (resp != 0).T)
        np.testing.assert_array_equal(resp + resp.T, np.where(resp != 0, 26.0, 0.0))
        np.testing.assert_array_equal(np.diag(resp), np.full(35, 13.0))  # the center offset

    @pytest.mark.parametrize(
        "h,w,r",
        [(8, 8, 3), (16, 16, 1), (16, 16, 2), (16, 16, 3), (4, 9, 2), (5, 7, 0), (2, 2, 3)],
    )
    def test_matches_exhaustive_enumeration(self, h, w, r):
        np.testing.assert_array_equal(impulse_response(h, w, r), chebyshev_window_oracle(h, w, r))


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


class TestLocalBranch:
    @pytest.mark.parametrize("merge", ["column", "offset"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("h, w, ry, rx", [(4, 5, 1, 2), (3, 3, 0, 0), (2, 3, 2, 5), (1, 4, 3, 0)])
    def test_grid_windows_equal_pad_and_sliding_window_view(self, dtype, h, w, ry, rx, merge):
        # Byte for byte, strides included, with radii at and beyond the grid side:
        # the sliding windows with (column, channel) or (column offset, channel)
        # merged, which numpy reshapes as a view.
        batch, c = 2, 3
        a = np.random.default_rng(h * w + ry).normal(size=(batch, h, w, c)).astype(dtype)
        a[0, 0, 0] = [np.nan, np.inf, -0.0]
        want = np.lib.stride_tricks.sliding_window_view(
            np.pad(a, ((0, 0), (ry, ry), (rx, rx), (0, 0))), (2 * ry + 1, 2 * rx + 1), axis=(1, 2)
        )
        if merge == "column":
            want = want.reshape(batch, h, w * c, 2 * ry + 1, 2 * rx + 1)
        else:
            want = want.transpose(0, 1, 2, 4, 5, 3).reshape(batch, h, w, 2 * ry + 1, (2 * rx + 1) * c)
        assert not want.flags.owndata
        got = _grid_windows(a, ry, rx, merge)
        assert got.dtype == want.dtype and got.shape == want.shape
        # reshape may give an axis of length 1 any stride
        assert [st for n, st in zip(got.shape, got.strides) if n > 1] == [
            st for n, st in zip(want.shape, want.strides) if n > 1
        ]
        assert not got.flags.writeable
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 16, 48])
    @pytest.mark.parametrize("r", [0, 1, 3])
    @pytest.mark.parametrize("h, w", [(16, 16), (4, 4), (2, 3), (1, 5)])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_equals_the_unmerged_einsums_bit_for_bit(self, batch, h, w, r, c, dtype):
        # The value and every gradient are the bytes of one einsum over the
        # unmerged windows, on windows that the grid clips (r = 3 on 4 x 4, 2 x 3,
        # 1 x 5, where ry != rx) and at c = 1, where the repeated kernel and
        # gradient are zero-stride views.
        side = 2 * r + 1
        rng = np.random.default_rng(1000 * h + 100 * w + 10 * r + c)
        x, weights, bias = (
            rng.normal(size=shape).astype(dtype)
            for shape in ((batch * h * w, c), (side * side, c), (side * side, c))
        )
        g = rng.normal(size=x.shape).astype(dtype)
        leaves = [Tensor(a, requires_grad=True) for a in (x, weights, bias)]
        y = offset_mix(leaves[0], leaves[1], (h, w), bias=leaves[2])
        got = [y.data.tobytes()]
        y.backward(g)
        got += [t.grad.tobytes() for t in leaves]
        assert got == [a.tobytes() for a in offset_mix_einsums(x, weights, bias, (h, w), g)]

    def test_forward_and_backward_at_tiny_stage_0_peak_at_most_12_5_gradients(self):
        # Batch 32, 16 x 16, c = 16, r = 3. The weight gradient repeats g over
        # the 7 column offsets, and the padded grid is 1.9 times x: the peak
        # reads 11.9 times g (the unmerged einsums read 4.9). An einsum that
        # copied its windows out would hold 49 times x.
        batch, h, w, c, r = 32, 16, 16, 16, 3
        rng = np.random.default_rng(16)
        x, weights, bias = (
            Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
            for shape in ((batch * h * w, c), ((2 * r + 1) ** 2, c), ((2 * r + 1) ** 2, c))
        )
        g = rng.normal(size=x.shape).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            offset_mix(x, weights, (h, w), bias=bias).backward(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert all(t.grad is not None for t in (x, weights, bias))
        assert peak <= 12.5 * g.nbytes, peak / g.nbytes

    def test_delta_weights_identity(self):
        r, c = 2, 3
        alpha = np.zeros(((2 * r + 1) ** 2, c), dtype=np.float32)
        alpha[(2 * r + 1) ** 2 // 2] = 1.0  # center offset only
        x = Tensor(np.random.default_rng(4).normal(size=(20, c)).astype(np.float32))
        y = offset_mix(x, Tensor(alpha), (4, 5), Tensor(np.zeros_like(alpha)))
        np.testing.assert_array_equal(y.data, x.data)

    def test_uniform_weights_interior_mean(self):
        r, c = 1, 2
        n_off = (2 * r + 1) ** 2
        alpha = np.full((n_off, c), 1.0 / n_off, dtype=np.float32)
        x = np.random.default_rng(5).normal(size=(25, c)).astype(np.float32)
        y = offset_mix(Tensor(x), Tensor(alpha), (5, 5), Tensor(np.zeros_like(alpha)))
        # node 12 = center of the 5x5 grid; its 3x3 patch is rows 6..8 etc.
        patch = [6, 7, 8, 11, 12, 13, 16, 17, 18]
        np.testing.assert_allclose(y.data[12], x[patch].mean(axis=0), rtol=1e-5)

    def test_random_weights_match_dense_oracle(self):
        r, c = 3, 4
        rng = np.random.default_rng(6)
        alpha = rng.normal(size=((2 * r + 1) ** 2, c)).astype(np.float32)
        x = rng.normal(size=(25, c)).astype(np.float32)
        y = offset_mix(Tensor(x), Tensor(alpha), (5, 5), Tensor(np.zeros_like(alpha)))
        np.testing.assert_allclose(y.data, dense_local_oracle(x, alpha, 5, 5, r), rtol=2e-5, atol=1e-6)

    @pytest.mark.parametrize("h, w, r", [(2, 2, 5), (3, 5, 1)])
    def test_small_and_oblong_grids_match_dense_oracle(self, h, w, r):
        # (2, 2, 5): all but 9 of the 121 offsets fall off the grid
        c = 3
        rng = np.random.default_rng(h * 10 + w)
        alpha = rng.normal(size=((2 * r + 1) ** 2, c))
        x = rng.normal(size=(h * w, c))
        y = offset_mix(Tensor(x), Tensor(alpha), (h, w), Tensor(np.zeros_like(alpha)))
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
                offset_mix(Tensor(np.zeros((rows, 2))), alpha, (2, 3), zero_bias(alpha))

    def test_offset_weight_table_size_enforced(self):
        for rows in (8, 4):  # not a square; a square, but of even side
            table = Tensor(np.zeros((rows, 2)))
            with pytest.raises(DimensionError):
                offset_mix(Tensor(np.zeros((9, 2))), table, (3, 3), zero_bias(table))
        with pytest.raises(DimensionError):  # a bias table of another shape
            offset_mix(Tensor(np.zeros((9, 2))), Tensor(np.zeros((9, 2))), (3, 3), Tensor(np.zeros((9, 1))))


class TestPsgcSchedule:
    def test_worked_example(self):
        assert psgc_schedule(64, 3, 0.25, 0.75, 16) == [(48, 16, 0), (32, 16, 16), (16, 16, 32)]

    def test_single_block(self):
        assert psgc_schedule(64, 1, 0.25, 0.75, 16) == [(48, 16, 0)]

    def test_constant_schedule_no_second_order(self):
        assert all(t[2] == 0 for t in psgc_schedule(128, 4, 0.5, 0.5, 16))

    def test_triples_sum_and_monotone(self):
        sched = psgc_schedule(256, 7, 0.25, 0.7, 16)
        seconds = [t[2] for t in sched]
        locals_ = [t[0] for t in sched]
        assert all(sum(t) == 256 for t in sched)
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

    def test_invariants_over_random_schedules(self):
        # Every schedule psgc_schedule returns splits the budget exactly, into
        # non-negative granule multiples, with a constant first-order width of
        # at least one granule, a non-decreasing second width and a
        # non-increasing local width.
        rng = np.random.default_rng(0)
        valid = 0
        for _ in range(3000):
            g = int(rng.choice([1, 4, 8, 16, 32]))
            total = g * int(rng.integers(1, 33))
            start, end = sorted(rng.uniform(0.0, 1.0, size=2))
            try:
                sched = psgc_schedule(total, int(rng.integers(1, 12)), start, end, g)
            except ConfigError:
                continue
            valid += 1
            local, first, second = (np.array(t) for t in zip(*sched))
            assert np.all(local + first + second == total)
            assert np.all(np.array(sched) % g == 0) and np.all(np.array(sched) >= 0)
            assert np.all(first == first[0]) and first[0] >= g
            assert np.all(np.diff(second) >= 0) and np.all(np.diff(local) <= 0)
        assert valid > 1000


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
