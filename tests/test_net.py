"""Network assembly: stem, trident blocks, pyramid, counting, checkpoints.

The block test re-implements one full trident block as straight-line numpy
(its own layer norm, cosine top-k with python sorts, MaxE loops, erf gating)
and demands agreement with the composed implementation.
"""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf as sp_erf

from pvg import net
from pvg.aggregators import AGGREGATOR_KINDS, param_count
from pvg.errors import (
    CheckpointError,
    ConfigError,
    DegenerateInputError,
    DimensionError,
    NonFiniteError,
)
from pvg.gradcheck import grad_check
from pvg.graph import similarity_matrix, topk_neighbors
from pvg.net import (
    Model,
    ModelConfig,
    count_params_flops,
    deep_tiny_config,
    load_checkpoint,
    node_embedding,
    save_checkpoint,
    tiny_config,
)
from pvg.tensor import DIFFERENTIABLE_OPS, Tensor, reshape, softmax_cross_entropy

from test_tensor import graph_nodes


def zero_residual_outputs(model: Model) -> None:
    """Zero every fusion transform and FFN output layer: all blocks become
    exact identity maps."""
    for name, t in model.params.items():
        if name.endswith(("fuse.weight", "fuse.bias", "ffn.w2", "ffn.b2")):
            t.data[:] = 0.0


class TestNodeEmbedding:
    def test_shape(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(4 * 4 * 3, 32)).astype(np.float32))
        b = Tensor(np.zeros(32, dtype=np.float32))
        img = rng.uniform(size=(32, 32, 3)).astype(np.float32)
        out = node_embedding(img[None], w, b, patch_size=4)
        assert out.shape == (64, 32)

    def test_constant_image_identical_nodes(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(4 * 4 * 3, 16)).astype(np.float32))
        b = Tensor(rng.normal(size=16).astype(np.float32))
        img = np.full((16, 16, 3), 0.37, dtype=np.float32)
        out = node_embedding(img[None], w, b, patch_size=4).data
        np.testing.assert_array_equal(out, np.tile(out[0], (16, 1)))

    def test_identity_projection_recovers_patches(self):
        p = 2
        img = np.arange(36, dtype=np.float32).reshape(6, 6, 1)
        w = Tensor(np.eye(p * p, dtype=np.float32))
        b = Tensor(np.zeros(p * p, dtype=np.float32))
        out = node_embedding(img[None], w, b, patch_size=p).data
        # reshape oracle: explicit gathering of each patch
        gh = 6 // p
        for node in range(gh * gh):
            r, c = divmod(node, gh)
            patch = img[r * p : (r + 1) * p, c * p : (c + 1) * p, 0].reshape(-1)
            np.testing.assert_array_equal(out[node], patch)

    def test_indivisible_geometry(self):
        w = Tensor(np.zeros((12, 4), dtype=np.float32))
        b = Tensor(np.zeros(4, dtype=np.float32))
        with pytest.raises(ConfigError):
            node_embedding(np.zeros((1, 5, 5, 3), dtype=np.float32), w, b, patch_size=2)

    def test_batch_stacks_per_image_embeddings(self):
        rng = np.random.default_rng(21)
        w = Tensor(rng.normal(size=(2 * 2 * 3, 8)).astype(np.float32))
        b = Tensor(rng.normal(size=8).astype(np.float32))
        imgs = rng.uniform(size=(2, 8, 8, 3)).astype(np.float32)
        batched = node_embedding(imgs, w, b, patch_size=2).data
        singles = [node_embedding(imgs[i : i + 1], w, b, patch_size=2).data for i in range(2)]
        np.testing.assert_array_equal(batched, np.concatenate(singles))


def stage_transition(h: Tensor, grid: int, weight: Tensor, bias: Tensor) -> Tensor:
    """The model's stage transition: node rows [batch * grid^2, c] viewed as
    a grid and embedded in 2x2 patches."""
    n, c = h.shape
    return node_embedding(reshape(h, (n // (grid * grid), grid, grid, c)), weight, bias, 2)


class TestDownsample:
    """The stage transition, run as the forward runs it."""

    def test_shape(self):
        rng = np.random.default_rng(2)
        h = Tensor(rng.normal(size=(64, 8)).astype(np.float32))
        w = Tensor(rng.normal(size=(32, 12)).astype(np.float32))
        b = Tensor(np.zeros(12, dtype=np.float32))
        assert stage_transition(h, 8, w, b).shape == (16, 12)

    def test_constant_field_stays_constant(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(8, 6)).astype(np.float32))
        b = Tensor(rng.normal(size=6).astype(np.float32))
        h = Tensor(np.tile(np.array([1.5, -2.0], dtype=np.float32), (16, 1)))
        out = stage_transition(h, 4, w, b).data
        np.testing.assert_allclose(out, np.tile(out[0], (4, 1)), rtol=1e-6)

    def test_matches_gather_oracle(self):
        rng = np.random.default_rng(4)
        g, c, c2 = 6, 5, 7
        h = rng.normal(size=(g * g, c)).astype(np.float32)
        w = rng.normal(size=(4 * c, c2)).astype(np.float32)
        b = rng.normal(size=c2).astype(np.float32)
        out = stage_transition(Tensor(h), g, Tensor(w), Tensor(b)).data
        for node in range((g // 2) ** 2):
            r, col = divmod(node, g // 2)
            gathered = np.concatenate(
                [
                    h[(2 * r) * g + 2 * col],
                    h[(2 * r) * g + 2 * col + 1],
                    h[(2 * r + 1) * g + 2 * col],
                    h[(2 * r + 1) * g + 2 * col + 1],
                ]
            )
            np.testing.assert_allclose(out[node], gathered @ w + b, rtol=1e-5, atol=1e-6)

    def test_odd_grid(self):
        with pytest.raises(ConfigError):
            stage_transition(Tensor(np.zeros((9, 2))), 3, Tensor(np.zeros((8, 2))), Tensor(np.zeros(2)))


class TestConfig:
    def test_grid_must_survive_three_halvings(self):
        with pytest.raises(ConfigError):
            ModelConfig(image_size=32, patch_size=8)  # grid 4 halves twice only

    @pytest.mark.parametrize(
        "image_size, patch_size",
        [(16, 2), (8, 1), (32, 4), (0, 2)],
        ids=["16-2", "8-1", "32-4", "empty"],
    )
    def test_last_stage_below_2x2_rejected(self, image_size, patch_size):
        # Each grid halves three times to 1x1 (or 0x0), which used to fail
        # only at the first forward, in the graph build.
        with pytest.raises(ConfigError, match="image_size .* patch_size"):
            ModelConfig(image_size=image_size, patch_size=patch_size)

    def test_smallest_grid_accepted(self):
        cfg = ModelConfig(image_size=16, patch_size=1)
        assert [cfg.stage_grid(s) for s in range(4)] == [16, 8, 4, 2]
        logits = Model(cfg, seed=0).forward(np.zeros((1, 16, 16, 3), np.float32))
        assert logits.shape == (1, cfg.num_classes)

    def test_width_granularity(self):
        with pytest.raises(ConfigError):
            ModelConfig(stage_widths=[24, 64, 128, 256])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"stage_depth": [1, 1, 1, 1]})

    def test_roundtrip(self):
        cfg = tiny_config(num_classes=5)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "overrides",
        [
            {"graph_metric": "bogus"},
            {"radius": -1},
            {"ffn_ratio": 0},
            {"layer_scale_blocks": -1},
            {"layer_scale_blocks": 6},  # the tiny config has 5 blocks
            {"stage_k": [4, 0, 8, 8]},
            {"patch_size": 0},
            {"granularity": 0},
            {"schedule_start": [0.25, 0.25]},
            {"schedule_end": [0.75, 0.75, 0.75, 0.75, 0.75]},
            {"aggregator": "Foo"},
            {"radius": 1.5},
            {"radius": True},
            {"image_size": "32"},
            {"epsilon_shared": "no"},
            {"epsilon_shared": 0},
            {"stage_k": [4, 4, 8.5, 8]},
            {"stage_depths": (1, 1, 2, 1)},
            {"ffn_ratio": 2.5},
            {"layer_scale_init": "1e-5"},
            {"schedule_start": [0.25, 0.25, None, 0.25]},
            {"graph_mode": 1},
        ],
        ids=[
            "metric", "radius", "ffn-ratio", "layer-scale-low", "layer-scale-high", "stage-k",
            "patch-size", "granularity", "schedule-start-length", "schedule-end-length",
            "aggregator", "radius-float", "radius-bool", "image-size-str", "epsilon-shared-str",
            "epsilon-shared-int", "stage-k-float", "stage-depths-tuple", "ffn-ratio-float",
            "layer-scale-init-str", "schedule-start-none", "graph-mode-int",
        ],
    )
    def test_invalid_value_rejected_at_construction(self, overrides):
        with pytest.raises(ConfigError):
            tiny_config(**overrides)

    def test_layer_scale_on_every_block_accepted(self):
        model = Model(tiny_config(layer_scale_blocks=5), seed=0)
        assert "stage0.block0.scale1" in model.params


class TestForward:
    def test_non_finite_features_stop_the_graph_build(self):
        model = Model(tiny_config(), seed=0)
        model.params["stem.weight"].data[:] = 3e38  # the patch embedding overflows
        with pytest.raises(NonFiniteError, match="graph build"), np.errstate(all="ignore"):
            model.forward(np.ones((1, 32, 32, 3), np.float32))

    def test_tiny_logits_shape(self):
        cfg = tiny_config(num_classes=7)
        model = Model(cfg, seed=0)
        imgs = np.random.default_rng(5).uniform(size=(3, 32, 32, 3)).astype(np.float32)
        assert model.forward(imgs).shape == (3, 7)

    def test_identical_images_identical_logits(self):
        cfg = tiny_config(num_classes=4)
        model = Model(cfg, seed=1)
        img = np.random.default_rng(6).uniform(size=(32, 32, 3)).astype(np.float32)
        batch = np.stack([img, img])
        logits = model.forward(batch).data
        np.testing.assert_array_equal(logits[0], logits[1])
        again = model.forward(batch).data
        np.testing.assert_array_equal(logits, again)

    def test_constant_image_runs(self):
        # degenerate cosine similarities must not error inside the network
        cfg = tiny_config()
        model = Model(cfg, seed=2)
        imgs = np.full((1, 32, 32, 3), 0.5, dtype=np.float32)
        out = model.forward(imgs)
        assert np.all(np.isfinite(out.data))

    def test_bad_geometry(self):
        model = Model(tiny_config(), seed=0)
        with pytest.raises(DimensionError):
            model.forward(np.zeros((1, 16, 16, 3), dtype=np.float32))

    def test_empty_batch(self):
        model = Model(tiny_config(), seed=0)
        with pytest.raises(DimensionError):
            model.forward(np.zeros((0, 32, 32, 3), dtype=np.float32))

    def test_vig_style_collapse(self):
        # constant schedule: no second-order branch anywhere
        cfg = tiny_config(schedule_start=0.5, schedule_end=0.5)
        model = Model(cfg, seed=3)
        assert not any(".second." in name for name in model.params)
        imgs = np.random.default_rng(7).uniform(size=(2, 32, 32, 3)).astype(np.float32)
        assert model.forward(imgs).shape == (2, 2)

    def test_shared_graph_mode(self):
        cfg = tiny_config(graph_mode="shared")
        model = Model(cfg, seed=4)
        imgs = np.random.default_rng(8).uniform(size=(2, 32, 32, 3)).astype(np.float32)
        assert np.all(np.isfinite(model.forward(imgs).data))

    def test_fully_transferred_local_branch(self):
        # schedule end high enough that rounding hands every local channel to
        # the graph branches in the last stage-2 block
        cfg = tiny_config(schedule_end=0.95)
        assert cfg.stage_schedule(2).per_block[1][0] == 0  # local width gone
        model = Model(cfg, seed=5)
        assert "stage2.block1.local.alpha" not in model.params
        imgs = np.random.default_rng(9).uniform(size=(2, 32, 32, 3)).astype(np.float32)
        assert np.all(np.isfinite(model.forward(imgs).data))
        params, _ = count_params_flops(cfg)
        assert params == sum(t.size for t in model.params.values())


class TestAutogradGraph:
    @pytest.mark.parametrize("graph_mode", net.GRAPH_MODES)
    @pytest.mark.parametrize("activation", net.ACTIVATIONS)
    @pytest.mark.parametrize("aggregator", AGGREGATOR_KINDS)
    def test_every_model_op_is_registered(self, aggregator, activation, graph_mode):
        # Gradient certification and the benchmark's per-op backward table
        # both cover exactly DIFFERENTIABLE_OPS.
        cfg = tiny_config(aggregator=aggregator, activation=activation, graph_mode=graph_mode)
        model = Model(cfg, seed=0)
        imgs = np.random.default_rng(30).uniform(size=(1, 32, 32, 3)).astype(np.float32)
        ops = {node.op for node in graph_nodes(model.forward(imgs))} - {"leaf"}
        assert "linear" in ops and "matmul" in ops
        assert ops <= set(DIFFERENTIABLE_OPS), ops - set(DIFFERENTIABLE_OPS)

    def test_tiny_forward_at_batch_32_holds_at_most_70_mib(self):
        # numpy's buffers are traced by tracemalloc. What the logits keep
        # alive is the autograd graph a train step's backward will sweep.
        model = Model(tiny_config(), seed=0)
        imgs = np.random.default_rng(3).random((32, 32, 32, 3)).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            logits = model.forward(imgs)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert logits.shape == (32, 2)
        assert held <= 70 * 2**20, held / 2**20


class TestInNetworkGraphs:
    @pytest.mark.parametrize("metric", ["dot", "cosine", "neg_euclidean"])
    def test_build_graphs_matches_per_image_pipeline(self, metric):
        # One batched call per branch must equal scoring and selecting each
        # image alone, bit for bit, on both selection paths (full sort below
        # n = 64, partition above) and under heavy ties.
        model = Model(tiny_config(graph_metric=metric), seed=0)
        batch = 3
        for n, k in ((16, 4), (256, 8)):
            rng = np.random.default_rng(n)
            feats = rng.normal(size=(batch, n, 8)).astype(np.float32)
            feats[1] = rng.integers(-1, 2, size=(n, 8))  # many identical rows: ties
            feats[2] = 0.5  # constant image: every score ties
            idx, topos = model._build_graphs(feats.reshape(batch * n, 8), batch, n, k)
            assert idx.shape == (batch * n, k) and len(topos) == batch
            for im in range(batch):
                want = topk_neighbors(similarity_matrix(feats[im], metric), k)
                assert topos[im].n_nodes == n and topos[im].k == k
                assert idx[im * n : (im + 1) * n].tobytes() == (want.neighbor_idx + im * n).tobytes()
                assert topos[im].neighbor_idx.tobytes() == want.neighbor_idx.tobytes()
                assert topos[im].neighbor_sim.tobytes() == want.neighbor_sim.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the deliberate overflow
    def test_short_row_names_image_and_node(self):
        # Squared distances between rows of 1e20 overflow float32 to inf, and
        # inf - inf scores NaN: in image 1, nodes 2..15 keep two scores each.
        model = Model(tiny_config(graph_metric="neg_euclidean"), seed=0)
        n = 16
        feats = np.random.default_rng(1).normal(size=(3, n, 8)).astype(np.float32)
        feats[1, 2:] = 1e20
        with pytest.raises(DegenerateInputError, match="image 1 node 2 .*fewer than k=4"):
            model._build_graphs(feats.reshape(3 * n, 8), 3, n, 4)


class TestResidualIdentity:
    def test_blocks_are_exact_identity_when_zeroed(self):
        cfg = tiny_config()
        model = Model(cfg, seed=5)
        zero_residual_outputs(model)
        rng = np.random.default_rng(9)
        h = Tensor(rng.normal(size=(16, 128)).astype(np.float32))
        out = model.block_forward(h, s=2, b=1, batch=1, grid=4)
        assert np.array_equal(out.data, h.data)  # bit-exact

    def test_every_block_identity_in_full_forward(self):
        cfg = tiny_config()
        model = Model(cfg, seed=6)
        zero_residual_outputs(model)
        collect = {"blocks": []}
        imgs = np.random.default_rng(10).uniform(size=(2, 32, 32, 3)).astype(np.float32)
        model.forward(imgs, collect=collect)
        # per stage, the block outputs never change within the stage
        by_stage: dict[int, list[np.ndarray]] = {}
        depths = cfg.stage_depths
        boundaries = np.cumsum(depths)
        for block_idx, feats in collect["blocks"]:
            stage = int(np.searchsorted(boundaries, block_idx, side="right"))
            by_stage.setdefault(stage, []).append(feats)
        for stage, feats_list in by_stage.items():
            for other in feats_list[1:]:
                np.testing.assert_array_equal(feats_list[0], other)


class TestMonolithicBlockOracle:
    def _oracle_block(self, h, model, s, b, grid):
        """Straight-line numpy re-implementation of one trident block."""
        cfg = model.config
        P = {k: v.data for k, v in model.params.items()}
        pre = f"stage{s}.block{b}."
        local_c, first_c, second_c = model.schedules[s].per_block[b]
        r = cfg.radius
        n = grid * grid

        def ln(x, g, be):
            mu = x.mean(axis=1, keepdims=True)
            var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
            return (x - mu) / np.sqrt(var + 1e-5) * g + be

        def act(x, eps):
            return 0.5 * x * (1.0 + sp_erf(x / (np.sqrt(2.0) * (1.0 + eps))))

        def knn(feats, k):
            norms = np.maximum(np.linalg.norm(feats, axis=1, keepdims=True), 1e-12)
            u = feats / norms
            sim = u @ u.T
            sim = 0.5 * (sim + sim.T)
            idx = np.empty((n, k), dtype=np.int64)
            for i in range(n):
                cands = [j for j in range(n) if j != i]
                cands.sort(key=lambda j: (-float(sim[i, j]), j))
                idx[i] = cands[:k]
            return idx

        def maxe_branch(x, idx, w, eps):
            out = np.empty_like(x)
            upd = np.empty((n, 3 * x.shape[1]), dtype=x.dtype)
            for i in range(n):
                nb = x[idx[i]]
                upd[i] = np.concatenate([x[i], (nb - x[i]).max(axis=0), nb.mean(axis=0)])
            return act(upd @ w, eps)

        z = ln(h, P[pre + "norm1.gamma"], P[pre + "norm1.beta"])
        x_loc = z[:, :local_c]
        x_f = z[:, local_c : local_c + first_c]
        x_s = z[:, local_c + first_c :]

        y_loc = np.zeros_like(x_loc)
        alpha = P[pre + "local.alpha"]
        pos = P[pre + "local.pos_bias"]
        for i in range(n):
            ri, ci = divmod(i, grid)
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    rj, cj = ri + dy, ci + dx
                    if 0 <= rj < grid and 0 <= cj < grid:
                        o = (dy + r) * (2 * r + 1) + (dx + r)
                        y_loc[i] += alpha[o] * x_loc[rj * grid + cj] + pos[o]

        k_eff = min(cfg.stage_k[s], n - 1)
        eps1 = float(P[pre + "act1.epsilon"][0])
        y_f = maxe_branch(x_f, knn(x_f, k_eff), P[pre + "first.W"], eps1)
        y_s = maxe_branch(x_s, knn(x_s, k_eff), P[pre + "second.W"], eps1)

        fused = np.concatenate([y_loc, y_f, y_s], axis=1)
        y = fused @ P[pre + "fuse.weight"] + P[pre + "fuse.bias"]
        if pre + "scale1" in P:
            y = y * P[pre + "scale1"]
        h = h + y

        z2 = ln(h, P[pre + "norm2.gamma"], P[pre + "norm2.beta"])
        eps2 = float(P[pre + "act2.epsilon"][0])
        f = act(z2 @ P[pre + "ffn.w1"] + P[pre + "ffn.b1"], eps2)
        f = f @ P[pre + "ffn.w2"] + P[pre + "ffn.b2"]
        if pre + "scale2" in P:
            f = f * P[pre + "scale2"]
        return h + f

    def test_block_matches_straight_line_oracle(self):
        cfg = tiny_config()
        model = Model(cfg, seed=7).astype(np.float64)
        # stage 2 block 1: all three branches live (schedule (32, 32, 64)),
        # LayerScale active, grid 4 -> 16 nodes
        assert model.schedules[2].per_block[1] == (32, 32, 64)
        rng = np.random.default_rng(11)
        h = rng.normal(size=(16, 128))
        got = model.block_forward(Tensor(h), s=2, b=1, batch=1, grid=4).data
        want = self._oracle_block(h, model, s=2, b=1, grid=4)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        assert np.max(np.abs(got - want)) <= 1e-6


class TestPermutationConsistency:
    def test_graph_block_output_permutes_with_nodes(self):
        # stage 2 block 1 of this config has no local width, so no grid
        # position enters the block: only the graph branches mix nodes
        cfg = tiny_config(schedule_end=0.95)
        model = Model(cfg, seed=8).astype(np.float64)
        assert model.schedules[2].per_block[1][0] == 0
        grid = 4
        n = grid * grid
        rng = np.random.default_rng(12)
        h = rng.normal(size=(n, 128))

        out_base = model.block_forward(Tensor(h), s=2, b=1, batch=1, grid=grid).data
        perm = rng.permutation(n)
        out_perm = model.block_forward(Tensor(h[perm]), s=2, b=1, batch=1, grid=grid).data
        np.testing.assert_allclose(out_perm, out_base[perm], rtol=1e-10, atol=1e-12)


class TestLayerScalePlacement:
    def test_exactly_last_two_blocks_of_final_stage(self):
        model = Model(tiny_config(), seed=9)
        scaled = sorted(name for name in model.params if ".scale" in name)
        # 5 blocks total; indices 3 (stage2.block1) and 4 (stage3.block0)
        assert scaled == [
            "stage2.block1.scale1",
            "stage2.block1.scale2",
            "stage3.block0.scale1",
            "stage3.block0.scale2",
        ]

    def test_deeper_final_stage(self):
        cfg = tiny_config(stage_depths=[1, 1, 1, 3])
        model = Model(cfg, seed=10)
        scaled = {name for name in model.params if ".scale" in name}
        assert scaled == {
            "stage3.block1.scale1",
            "stage3.block1.scale2",
            "stage3.block2.scale1",
            "stage3.block2.scale2",
        }


def analytic_param_count(cfg: ModelConfig) -> int:
    """The parameter count written out by hand, block by block: an oracle
    that shares no code with ``param_layout``."""
    params = cfg.patch_size**2 * cfg.in_channels * cfg.stage_widths[0] + cfg.stage_widths[0]
    n_offsets = (2 * cfg.radius + 1) ** 2
    uses_graphlu = cfg.activation == "graphlu"
    ls_from = cfg.total_blocks() - cfg.layer_scale_blocks
    block_index = 0
    for s in range(4):
        c = cfg.stage_widths[s]
        for local_c, first_c, second_c in cfg.stage_schedule(s).per_block:
            params += 4 * c  # two norms, scale and shift each
            params += 2 * n_offsets * local_c  # offset weights and biases
            for width in (first_c, second_c):
                if width:
                    params += param_count(cfg.aggregator, width, width)[0]
            if uses_graphlu and not cfg.epsilon_shared:
                params += 2
            params += c * c + c  # fusion
            hidden = cfg.ffn_ratio * c
            params += c * hidden + hidden + hidden * c + c
            if block_index >= ls_from:
                params += 2 * c
            block_index += 1
        if s < 3:
            nxt = cfg.stage_widths[s + 1]
            params += 4 * c * nxt + nxt
    params += cfg.stage_widths[-1] * cfg.num_classes + cfg.num_classes
    if uses_graphlu and cfg.epsilon_shared:
        params += 1
    return params


class TestCounting:
    def test_analytic_equals_enumeration(self):
        for cfg in (
            tiny_config(),
            tiny_config(aggregator="MRGraphConv"),
            tiny_config(aggregator="EdgeConv", num_classes=5),
            tiny_config(aggregator="GraphSAGE"),
            tiny_config(aggregator="GIN", activation="gelu"),
            tiny_config(activation="relu", graph_mode="shared"),
            tiny_config(epsilon_shared=True),
            deep_tiny_config(21),
            tiny_config(radius=0),
            tiny_config(layer_scale_blocks=5, schedule_end=0.95),
        ):
            params, _ = count_params_flops(cfg)
            assert params == analytic_param_count(cfg), cfg
            assert params == sum(t.size for t in Model(cfg, seed=0).params.values()), cfg

    def test_doubling_widths_roughly_quadruples(self):
        base, _ = count_params_flops(tiny_config())
        doubled, _ = count_params_flops(tiny_config(stage_widths=[64, 128, 256, 512]))
        assert 3.5 < doubled / base < 4.05

    def test_flops_positive_and_scale(self):
        _, f1 = count_params_flops(tiny_config())
        _, f2 = count_params_flops(tiny_config(stage_widths=[64, 128, 256, 512]))
        assert 0 < f1 < f2


class TestFullForwardGradient:
    def test_input_gradient_matches_central_differences(self):
        cfg = tiny_config(num_classes=3)
        model = Model(cfg, seed=11).astype(np.float64)
        rng = np.random.default_rng(14)
        img = rng.uniform(0.2, 0.8, size=(1, 32, 32, 3))
        labels = np.array([1])

        def fn(x):
            return softmax_cross_entropy(model.forward(x), labels)

        # h = 1e-5: the five-block composition has enough curvature that the
        # h^2 truncation term at 1e-4 dwarfs the 1e-4 relative tolerance on
        # small-magnitude gradient entries
        report = grad_check(fn, Tensor(img), probes=20, seed=15, h=1e-5, op_name="pvg-forward/input")
        assert report.passed, str(report)

    def test_parameter_gradients_match_central_differences(self):
        cfg = tiny_config(num_classes=3)
        model = Model(cfg, seed=12).astype(np.float64)
        # The tiny config's only second-order branch is in a LayerScale block;
        # this model leaves that block unscaled so its weights can be probed.
        shallow_scale = Model(tiny_config(num_classes=3, layer_scale_blocks=1), seed=12).astype(np.float64)
        rng = np.random.default_rng(16)
        img = rng.uniform(0.2, 0.8, size=(1, 32, 32, 3))
        labels = np.array([2])
        # stage2.block0 fuse is not LayerScale-suppressed; inside LayerScale
        # blocks the scale vector itself is probed (params upstream of a 1e-5
        # scale have gradients at the finite-difference noise floor)
        for probed, pname in (
            (model, "stem.weight"),
            (model, "stage0.block0.first.W"),
            (model, "stage2.block0.fuse.weight"),
            (model, "stage2.block1.act1.epsilon"),
            (model, "stage2.block1.scale1"),
            (model, "head.weight"),
            (shallow_scale, "stage2.block1.second.W"),
        ):
            original = probed.params[pname]

            def fn(w):
                probed.params[pname] = w
                try:
                    return softmax_cross_entropy(probed.forward(img), labels)
                finally:
                    probed.params[pname] = original

            report = grad_check(fn, original, probes=10, seed=17, h=1e-5, op_name=f"pvg-forward/{pname}")
            assert report.passed, str(report)


class TestParamsAreTheOnlySource:
    """Every tensor the forward uses is looked up in ``Model.params``."""

    def test_fresh_copies_take_over_forward_and_backward(self):
        model = Model(tiny_config(), seed=3)
        imgs = np.random.default_rng(19).uniform(size=(2, 32, 32, 3)).astype(np.float32)
        want = model.forward(imgs).data
        old = dict(model.params)
        for name, t in old.items():
            model.params[name] = Tensor(t.data.copy(), requires_grad=True)
        logits = model.forward(imgs)
        assert logits.data.tobytes() == want.tobytes()
        softmax_cross_entropy(logits, np.array([0, 1])).backward()
        assert [n for n, t in model.params.items() if t.grad is None] == []
        assert [n for n, t in old.items() if t.grad is not None] == []

    @pytest.mark.parametrize("name", ["stage0.block0.first.W", "stage2.block1.second.W"])
    def test_replaced_aggregator_weight_changes_logits(self, name):
        model = Model(tiny_config(), seed=3)
        imgs = np.random.default_rng(20).uniform(size=(1, 32, 32, 3)).astype(np.float32)
        before = model.forward(imgs).data
        model.params[name] = Tensor(np.zeros_like(model.params[name].data), requires_grad=True)
        assert not np.array_equal(model.forward(imgs).data, before)


class TestDeadParameters:
    def test_every_parameter_touched_by_some_batch(self):
        cfg = tiny_config(num_classes=2)
        model = Model(cfg, seed=13)
        rng = np.random.default_rng(18)
        alive = {name: False for name in model.params}
        for trial in range(3):
            imgs = rng.uniform(size=(4, 32, 32, 3)).astype(np.float32)
            labels = rng.integers(0, 2, size=4)
            model.zero_grad()
            loss = softmax_cross_entropy(model.forward(imgs), labels)
            loss.backward()
            for name, t in model.params.items():
                if t.grad is not None and np.any(t.grad != 0):
                    alive[name] = True
        dead = [name for name, ok in alive.items() if not ok]
        assert not dead, f"dead parameters: {dead}"

    def test_shared_epsilon_accumulates_from_all_sites(self):
        cfg = tiny_config(num_classes=2, epsilon_shared=True)
        model = Model(cfg, seed=14)
        assert "shared.epsilon" in model.params
        assert not any(name.endswith("act1.epsilon") for name in model.params)
        rng = np.random.default_rng(20)
        imgs = rng.uniform(size=(2, 32, 32, 3)).astype(np.float32)
        loss = softmax_cross_entropy(model.forward(imgs), rng.integers(0, 2, size=2))
        loss.backward()
        assert model.params["shared.epsilon"].grad is not None
        assert np.any(model.params["shared.epsilon"].grad != 0)


class TestCheckpoint:
    def test_roundtrip_bit_exact_and_same_logits(self, tmp_path):
        cfg = tiny_config(num_classes=3)
        model = Model(cfg, seed=14)
        imgs = np.random.default_rng(19).uniform(size=(2, 32, 32, 3)).astype(np.float32)
        before = model.forward(imgs).data
        save_checkpoint(model, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        for name, t in model.params.items():
            assert np.array_equal(t.data, loaded.params[name].data), name
        np.testing.assert_array_equal(loaded.forward(imgs).data, before)

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        model = Model(tiny_config(num_classes=3), seed=17)
        imgs = np.random.default_rng(23).uniform(size=(2, 32, 32, 3)).astype(np.float32)
        before = model.forward(imgs).data
        save_checkpoint(model, tmp_path / "ckpt")

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(net, "he_normal", no_draw)
        monkeypatch.setattr(net.np.random, "default_rng", no_draw)
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert list(loaded.params) == list(model.params)
        for name, t in model.params.items():
            assert t.data.tobytes() == loaded.params[name].data.tobytes(), name
        assert loaded.forward(imgs).data.tobytes() == before.tobytes()

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "replacing"])
    def test_failed_save_leaves_no_partial_checkpoint(self, tmp_path, monkeypatch, earlier):
        ckpt = tmp_path / "ckpt"
        old = Model(tiny_config(), seed=19)
        if earlier:
            save_checkpoint(old, ckpt)
        written = []
        write_tensor = net.write_tensor

        def fail_after_three(path, array):
            if len(written) == 3:
                raise OSError("disk full")
            write_tensor(path, array)
            written.append(path)

        monkeypatch.setattr(net, "write_tensor", fail_after_three)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(Model(tiny_config(), seed=20), ckpt)
        assert len(written) == 3
        assert [p.name for p in tmp_path.iterdir()] == (["ckpt"] if earlier else [])
        if earlier:
            loaded = load_checkpoint(ckpt)
            for name, t in old.params.items():
                assert t.data.tobytes() == loaded.params[name].data.tobytes(), name

    def test_save_replaces_an_earlier_checkpoint(self, tmp_path):
        save_checkpoint(Model(tiny_config(), seed=21), tmp_path / "ckpt")
        new = Model(tiny_config(), seed=22)
        save_checkpoint(new, tmp_path / "ckpt")
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        loaded = load_checkpoint(tmp_path / "ckpt")
        for name, t in new.params.items():
            assert t.data.tobytes() == loaded.params[name].data.tobytes(), name

    def test_save_refuses_to_replace_a_non_checkpoint(self, tmp_path):
        (tmp_path / "ckpt").mkdir()
        (tmp_path / "ckpt" / "notes.txt").write_text("keep me")
        with pytest.raises(CheckpointError, match="neither a checkpoint nor empty"):
            save_checkpoint(Model(tiny_config(), seed=23), tmp_path / "ckpt")
        assert (tmp_path / "ckpt" / "notes.txt").read_text() == "keep me"
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]

    def test_manifest_mismatch(self, tmp_path):
        model = Model(tiny_config(), seed=15)
        save_checkpoint(model, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        manifest["params"].pop("head.bias")
        (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "ckpt")

    def test_shape_mismatch(self, tmp_path):
        model = Model(tiny_config(), seed=16)
        save_checkpoint(model, tmp_path / "ckpt")
        from pvg.pvgt import write_tensor

        write_tensor(tmp_path / "ckpt" / "head__bias.pvgt", np.zeros(5, dtype=np.float32))
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "ckpt")
