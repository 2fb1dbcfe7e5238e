"""MaxE, the comparison aggregators, the max decomposition identity, and
parameter accounting (the last two against the oracles in oracles.py)."""

import math

import numpy as np
import pytest

from pvg.aggregators import AGGREGATOR_KINDS, AGGREGATOR_WEIGHTS, baseline_aggregate, maxe_aggregate
from pvg.errors import ConfigError, DegenerateInputError, DimensionError
from pvg.gradcheck import grad_check
from pvg.graph import topk_neighbors
from pvg.net import ModelConfig, he_normal
from pvg.tensor import Tensor, concat, gather_rows, linear, reduce_max, reduce_mean, sub

from oracles import decomposition_check, param_count


def _topo(idx):
    return np.asarray(idx, dtype=np.int64)


def weight_shapes(kind, c) -> dict[str, tuple[int, int]]:
    """Each weight's shape for a branch of width c, as AGGREGATOR_WEIGHTS gives it."""
    return {name: (rows * c, cols * c) for name, (rows, cols, _) in AGGREGATOR_WEIGHTS[kind].items()}


def draw_weights(kind, c, rng, dtype=np.float32) -> dict[str, Tensor]:
    """He-scaled weights of one aggregator over c channels, drawn in
    AGGREGATOR_WEIGHTS order as the model's initialisation draws them."""
    return {
        name: Tensor(he_normal(rng, shape).astype(dtype), requires_grad=True)
        for name, shape in weight_shapes(kind, c).items()
    }


class TestMaxEAggregate:
    def test_hand_case(self):
        x = Tensor(np.array([[0.0], [1.0], [3.0]]))
        agg = maxe_aggregate(x, _topo([[1, 2], [0, 2], [0, 1]]))
        np.testing.assert_allclose(agg.data[0], [0.0, 3.0, 2.0])

    def test_all_neighbors_equal_self(self):
        x = Tensor(np.array([[2.0, -1.0], [2.0, -1.0], [2.0, -1.0]]))
        agg = maxe_aggregate(x, _topo([[1, 2], [0, 2], [0, 1]]))
        np.testing.assert_allclose(agg.data[0], [2.0, -1.0, 0.0, 0.0, 2.0, -1.0])

    def test_single_neighbor_collapse(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3))
        agg = maxe_aggregate(Tensor(x), _topo([[1], [0]]))
        np.testing.assert_allclose(agg.data[0], np.concatenate([x[0], x[1] - x[0], x[1]]), rtol=1e-6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(6, 4)).astype(np.float32))
        idx = np.array([[1, 2, 3], [0, 2, 5], [4, 1, 0], [5, 0, 1], [3, 2, 1], [0, 1, 2]])
        base = maxe_aggregate(x, idx).data
        for seed in range(5):
            shuffled = idx.copy()
            perm_rng = np.random.default_rng(seed)
            for row in shuffled:
                perm_rng.shuffle(row)
            # equality up to f32 summation-order rounding in the mean part
            np.testing.assert_allclose(
                maxe_aggregate(x, shuffled).data, base, rtol=1e-6, atol=1e-7
            )

    def test_accepts_graph_topology(self):
        # A topology's neighbor indices feed the aggregator as they come.
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(8, 4))
        s = feats @ feats.T
        topo = topk_neighbors(s, 3)
        agg = maxe_aggregate(Tensor(feats), topo.neighbor_idx)
        assert agg.shape == (8, 12)


# Each malformed [n, k] neighbor index of a 4-node graph, and the error it raises.
MALFORMED_INDICES = {
    "rank-3": (np.zeros((4, 2, 1), dtype=np.int64), DimensionError),
    "one-row-short": (np.array([[1, 2], [0, 2], [0, 1]]), DimensionError),
    "k-zero": (np.zeros((4, 0), dtype=np.int64), DegenerateInputError),
    "index-past-n": (np.array([[1, 2], [0, 2], [0, 1], [4, 0]]), DimensionError),
    "float": (np.array([[1.0, 2.0], [0.0, 2.0], [0.0, 1.0], [1.7, 0.0]]), DimensionError),
    "bool": (np.array([[True, False]] * 4), DimensionError),
}


@pytest.mark.parametrize("case", MALFORMED_INDICES)
@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
def test_malformed_neighbor_index_rejected(kind, case):
    idx, error = MALFORMED_INDICES[case]
    x = Tensor(np.random.default_rng(14).normal(size=(4, 3)), requires_grad=True)
    with pytest.raises(error):
        baseline_aggregate(kind, x, idx, draw_weights(kind, 3, np.random.default_rng(15)))
    if kind == "MaxE":
        with pytest.raises(error):
            maxe_aggregate(x, idx)


def gather_and_subtract(x, nbh, idx):
    """max_j (x_j - x_i) as the max of differences against gathered self rows."""
    n, k = idx.shape
    own = gather_rows(x, np.repeat(np.arange(n)[:, None], k, axis=1))
    return reduce_max(sub(nbh, own), axis=1)


class TestMaxRelative:
    """The max term is max_j x_j - x_i; rounding is monotone, so it equals the
    max of the rounded differences exactly."""

    @staticmethod
    def _case(dtype):
        rng = np.random.default_rng(12)
        n, k, c = 40, 6, 8
        x0 = rng.normal(size=(n, c)).astype(dtype)
        x0[:10] = np.round(x0[:10])  # exact ties between neighbors
        idx = np.stack([rng.choice(np.delete(np.arange(n), i), k, replace=False) for i in range(n)])
        return rng, x0, idx

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_outputs_equal_gather_and_subtract(self, dtype):
        rng, x0, idx = self._case(dtype)
        c = x0.shape[1]
        x = Tensor(x0)
        want = gather_and_subtract(x, gather_rows(x, idx), idx)
        assert maxe_aggregate(x, idx).data[:, c : 2 * c].tobytes() == want.data.tobytes()
        weights = draw_weights("MRGraphConv", c, rng, dtype=dtype)
        got = baseline_aggregate("MRGraphConv", x, idx, weights).data
        assert got.tobytes() == linear(concat([x, want], axis=1), weights["W"]).data.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxe_gradient_equals_gather_and_subtract(self, dtype):
        _, x0, idx = self._case(dtype)
        g = np.random.default_rng(13).normal(size=(x0.shape[0], 3 * x0.shape[1])).astype(dtype)
        x = Tensor(x0, requires_grad=True)
        maxe_aggregate(x, idx).backward(seed=g)
        ref = Tensor(x0, requires_grad=True)
        nbh = gather_rows(ref, idx)
        concat([ref, gather_and_subtract(ref, nbh, idx), reduce_mean(nbh, axis=1)], axis=1).backward(seed=g)
        assert x.grad.tobytes() == ref.grad.tobytes()

    def test_rounding_tie_routes_to_largest_neighbor(self):
        # 0 - 2^24 and 0.5 - 2^24 both round to -2^24 in float32: the
        # differences tie although the neighbors do not, so the subgradient
        # goes to the larger neighbor (row 2), not the lower index (row 1).
        x = Tensor(np.array([[2.0**24], [0.0], [0.5]], dtype=np.float32), requires_grad=True)
        idx = np.array([[1, 2], [0, 2], [0, 1]])
        out = maxe_aggregate(x, idx)
        assert out.data[0, 1] == np.float32(-(2.0**24))
        seed = np.zeros((3, 3), dtype=np.float32)
        seed[0, 1] = 1.0
        out.backward(seed=seed)
        np.testing.assert_array_equal(x.grad[:, 0], [-1.0, 0.0, 1.0])


class TestMaxEUpdate:
    """The MaxE node update: one linear map of the concatenated aggregate."""

    def test_block_identity_weights(self):
        c = 4
        w = np.zeros((3 * c, c), dtype=np.float32)
        w[:c, :] = np.eye(c)
        x = Tensor(np.random.default_rng(3).normal(size=(5, c)).astype(np.float32))
        out = baseline_aggregate("MaxE", x, _topo([[1, 2]] * 5), {"W": Tensor(w)})
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_weights(self):
        x = Tensor(np.random.default_rng(15).normal(size=(3, 2)))
        out = baseline_aggregate("MaxE", x, _topo([[1], [2], [0]]), {"W": Tensor(np.zeros((6, 2)))})
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_matches_per_node_matmul_oracle(self):
        rng = np.random.default_rng(4)
        n, c = 5, 4
        x = rng.normal(size=(n, c)).astype(np.float32)
        idx = np.array([[1, 2], [0, 3], [4, 0], [2, 1], [3, 2]])
        w = rng.normal(size=(3 * c, c)).astype(np.float32)
        out = baseline_aggregate("MaxE", Tensor(x), idx, {"W": Tensor(w)}).data
        for i in range(n):
            nb = x[idx[i]]
            row = np.concatenate([x[i], (nb - x[i]).max(axis=0), nb.mean(axis=0)])
            np.testing.assert_allclose(out[i], row @ w, rtol=1e-5, atol=1e-6)

    def test_width_mismatch(self):
        # A 6-wide aggregate of 2 channels against a 5-row transform.
        with pytest.raises(DimensionError):
            baseline_aggregate("MaxE", Tensor(np.ones((2, 2))), _topo([[1], [0]]), {"W": Tensor(np.ones((5, 2)))})


class TestBaselines:
    def test_mr_graphconv_zero_difference(self):
        rng = np.random.default_rng(5)
        c = 3
        x_row = rng.normal(size=c).astype(np.float32)
        x = Tensor(np.tile(x_row, (4, 1)))
        weights = draw_weights("MRGraphConv", c, rng)
        out = baseline_aggregate("MRGraphConv", x, _topo([[1, 2]] * 4), weights)
        expected = np.concatenate([x_row, np.zeros(c)]) @ weights["W"].data
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-5)

    def test_gin_single_neighbor(self):
        rng = np.random.default_rng(6)
        c = 3
        x = rng.normal(size=(2, c)).astype(np.float32)
        weights = draw_weights("GIN", c, rng)
        out = baseline_aggregate("GIN", Tensor(x), _topo([[1], [0]]), weights)
        np.testing.assert_allclose(out.data[0], (x[0] + x[1]) @ weights["W"].data, rtol=1e-5)

    def test_edgeconv_matches_per_edge_oracle(self):
        rng = np.random.default_rng(7)
        c = 3
        x = rng.normal(size=(3, c)).astype(np.float32)
        idx = np.array([[1, 2], [0, 2], [0, 1]])
        weights = draw_weights("EdgeConv", c, rng)
        out = baseline_aggregate("EdgeConv", Tensor(x), idx, weights).data
        w1, w2 = weights["W1"].data, weights["W2"].data
        for i in range(3):
            per_edge = []
            for j in idx[i]:
                e = np.concatenate([x[i], x[j] - x[i]])
                per_edge.append(np.maximum(e @ w1, 0.0) @ w2)
            np.testing.assert_allclose(out[i], np.max(per_edge, axis=0), rtol=1e-5, atol=1e-6)

    def test_graphsage_transforms_neighbors(self):
        rng = np.random.default_rng(8)
        c = 3
        x = rng.normal(size=(3, c)).astype(np.float32)
        idx = np.array([[1, 2], [0, 2], [0, 1]])
        weights = draw_weights("GraphSAGE", c, rng)
        out = baseline_aggregate("GraphSAGE", Tensor(x), idx, weights).data
        wn, w = weights["Wn"].data, weights["W"].data
        for i in range(3):
            mean_t = (x[idx[i]] @ wn).mean(axis=0)
            np.testing.assert_allclose(out[i], np.concatenate([x[i], mean_t]) @ w, rtol=1e-5, atol=1e-6)

    def test_maxe_nests_mr_graphconv(self):
        """Zeroing the mean-part rows of the MaxE transform reproduces
        MR GraphConv exactly."""
        rng = np.random.default_rng(9)
        c = 4
        x = Tensor(rng.normal(size=(6, c)).astype(np.float32))
        idx = np.array([[1, 2], [0, 3], [4, 5], [2, 1], [0, 5], [3, 4]])
        w_mr = rng.normal(size=(2 * c, c)).astype(np.float32)
        w_maxe = np.concatenate([w_mr, np.zeros((c, c), dtype=np.float32)], axis=0)
        out_mr = baseline_aggregate("MRGraphConv", x, idx, {"W": Tensor(w_mr)}).data
        out_maxe = baseline_aggregate("MaxE", x, idx, {"W": Tensor(w_maxe)}).data
        np.testing.assert_array_equal(out_maxe, out_mr)

    @pytest.mark.parametrize("kind", ["MaxE", "MRGraphConv", "EdgeConv", "GraphSAGE", "GIN"])
    def test_gradients(self, kind):
        rng = np.random.default_rng(10)
        c = 3
        idx = np.array([[1, 2], [0, 2], [3, 1], [2, 0]])
        weights = draw_weights(kind, c, rng, dtype=np.float64)

        def fn(x):
            return baseline_aggregate(kind, x, idx, weights)

        x0 = Tensor(rng.normal(size=(4, c)))
        report = grad_check(fn, x0, probes=20, op_name=f"{kind}-features")
        assert report.passed, str(report)

        x_fixed = Tensor(rng.normal(size=(4, c)))
        for wname in weights:
            def fw(wvar, _wname=wname):
                trial = {k: (wvar if k == _wname else v) for k, v in weights.items()}
                return baseline_aggregate(kind, x_fixed, idx, trial)

            report = grad_check(fw, weights[wname], probes=20, op_name=f"{kind}-{wname}")
            assert report.passed, str(report)


class TestDecomposition:
    def test_hand_chain(self):
        rep = decomposition_check([1.0, 3.0, 2.0])
        assert rep.first_order_residual == 0.0
        # z' = 3, z_bar = 2, z'' = 1, bound = 2 -> 2 + (1 - 2) + 2 = 3

    def test_constant_vector(self):
        rep = decomposition_check([5.0] * 8)
        assert rep.first_order_residual == 0.0
        assert rep.telescoped_residual == 0.0

    def test_random_vectors(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(1, 33))
            z = rng.normal(size=k)
            rep = decomposition_check(z)
            worst = max(worst, rep.first_order_residual)
        assert worst <= 1e-12

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_recursion_telescopes(self, depth):
        rng = np.random.default_rng(12)
        for _ in range(200):
            z = rng.normal(size=int(rng.integers(1, 33)))
            rep = decomposition_check(z, depth=depth)
            assert rep.telescoped_residual <= 1e-12


class TestParamCount:
    def test_maxe_ratio(self):
        count, ratio = param_count("MaxE", 16, 16)
        assert count == 3 * 16 * 16
        assert ratio == 3.0

    def test_mr_ratio(self):
        _, ratio = param_count("MRGraphConv", 32, 32)
        assert ratio == 2.0

    def test_gin_unit(self):
        count, ratio = param_count("GIN", 8, 8)
        assert count == 64
        assert ratio == 1.0

    def test_reported_baseline_ratios(self):
        # our EdgeConv/GraphSAGE configurations; reported, not a published target
        _, edge = param_count("EdgeConv", 16, 16)
        _, sage = param_count("GraphSAGE", 16, 16)
        assert edge == 6.0
        assert sage == 3.0
        assert edge > 3.0  # costlier than MaxE, as intended

    @pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
    def test_formula_matches_actual_weights(self, kind):
        for c in (8, 4, 12):
            shapes = weight_shapes(kind, c).values()
            assert sum(math.prod(s) for s in shapes) == param_count(kind, c, c)[0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(aggregator="GAT")
        with pytest.raises(ConfigError):
            param_count("GAT", 8, 8)
        with pytest.raises(ConfigError):
            baseline_aggregate("GAT", Tensor(np.ones((2, 2))), _topo([[1], [0]]), {})
