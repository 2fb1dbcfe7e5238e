"""Network assembly: stem, trident blocks, pyramid, counting, checkpoints.

The block test re-implements one full trident block as straight-line numpy
(its own layer norm, cosine top-k with python sorts, MaxE loops, erf gating)
and demands agreement with the composed implementation.
"""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf as sp_erf

from pvg import net
from pvg.aggregators import AGGREGATOR_KINDS
from pvg.errors import (
    CheckpointError,
    ConfigError,
    DimensionError,
    NonFiniteError,
)
from pvg.gradcheck import grad_check
from pvg.graph import psgc_schedule, similarity_matrix, topk_neighbors
from pvg.net import (
    GATE_BLOCK,
    Model,
    ModelConfig,
    count_params_flops,
    deep_tiny_config,
    load_checkpoint,
    node_embedding,
    save_checkpoint,
    tiny_config,
)
from pvg.train import OptimizerConfig, RunConfig, ScheduleConfig
from pvg import tensor as T
from pvg.tensor import (
    DIFFERENTIABLE_OPS,
    Tensor,
    reshape,
    softmax_cross_entropy,
)

from oracles import cast_model, param_count
from test_graphlu import eight_op_chain
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

    def test_stage0_node_cap(self):
        # The paper's 224 / 4 (n = 3136) is admitted; one more step of the
        # grid is not, and the cap holds whatever the parameter count.
        assert ModelConfig(image_size=224, patch_size=4).blocks()[0].grid ** 2 == 3136 <= net.MAX_NODES
        assert ModelConfig(image_size=128, patch_size=2).blocks()[0].grid ** 2 == net.MAX_NODES
        for image_size, patch_size in ((264, 4), (2**40, 1)):
            with pytest.raises(ConfigError, match="stage-0 nodes per image, more than MAX_NODES"):
                ModelConfig(image_size=image_size, patch_size=patch_size)

    def test_smallest_grid_accepted(self):
        cfg = ModelConfig(image_size=16, patch_size=1)
        assert [p.grid for p in cfg.blocks()] == [16, 8, 4, 4, 2]
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
        run = RunConfig(
            model=cfg,
            optimizer=OptimizerConfig(lr=0.5, weight_decay=0.0),
            schedule=ScheduleConfig(warmup_steps=1, total_steps=4),
            batch_size=3,
            seed=2,
            output_dir="out",
        )
        for config in (cfg, run.optimizer, run.schedule, run):
            # Through JSON text.
            assert type(config).from_dict(json.loads(json.dumps(config.to_dict()))) == config

    @pytest.mark.parametrize(
        "overrides",
        [
            {"stage_k": [4, 0, 8, 8]},
            {"patch_size": 0},
            {"schedule_start": [0.25, 0.25, 0.25, 0.25]},
            {"schedule_end": [0.75, 0.75, 0.75, 0.75]},
            {"schedule_start": None},
            {"activation": "relu"},
            {"aggregator": "Foo"},
            {"patch_size": 1.5},
            {"patch_size": True},
            {"image_size": "32"},
            {"stage_k": [4, 4, 8.5, 8]},
            {"stage_depths": (1, 1, 2, 1)},
            {"schedule_start": 0.8, "schedule_end": 0.5},
            {"num_classes": 1},
            {"num_classes": net.MAX_CLASSES + 1},
            {"num_classes": 10**30},
        ],
        ids=[
            "stage-k",
            "patch-size", "schedule-start-list", "schedule-end-list",
            "schedule-start-none", "activation-relu", "aggregator", "patch-size-float",
            "patch-size-bool", "image-size-str", "stage-k-float", "stage-depths-tuple",
            "schedule-ratios-reversed",
            "num-classes-one", "num-classes-above-max", "num-classes-1e30",
        ],
    )
    def test_invalid_value_rejected_at_construction(self, overrides):
        with pytest.raises(ConfigError):
            tiny_config(**overrides)

    def test_num_classes_at_the_bound_accepted(self):
        assert tiny_config(num_classes=net.MAX_CLASSES).num_classes == net.MAX_CLASSES

    def test_parameter_cap(self):
        assert 19.7e6 < net.param_count(vig_s_config()) < 19.8e6  # fits under the cap
        assert net.param_count(tiny_config(num_classes=net.MAX_CLASSES)) <= net.MAX_PARAMS
        # 2,476,514,476 parameters: one [16384, 65536] FFN weight alone is 4 GiB.
        with pytest.raises(ConfigError, match="2,476,514,476 parameters, more than MAX_PARAMS"):
            tiny_config(stage_widths=[32, 64, 128, 16384])


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
        # constant schedule: no second graph branch anywhere
        cfg = tiny_config(schedule_start=0.5, schedule_end=0.5)
        model = Model(cfg, seed=3)
        assert not any(".second." in name for name in model.params)
        imgs = np.random.default_rng(7).uniform(size=(2, 32, 32, 3)).astype(np.float32)
        assert model.forward(imgs).shape == (2, 2)

    def test_fully_transferred_local_branch(self):
        # schedule end high enough that rounding hands every local channel to
        # the graph branches in the last stage-2 block
        cfg = tiny_config(schedule_end=0.95)
        model = Model(cfg, seed=5)
        assert model.plans[2, 1].widths[0] == 0  # local width gone
        assert "stage2.block1.local.alpha" not in model.params
        imgs = np.random.default_rng(9).uniform(size=(2, 32, 32, 3)).astype(np.float32)
        assert np.all(np.isfinite(model.forward(imgs).data))
        params, _ = count_params_flops(cfg)
        assert params == sum(t.size for t in model.params.values())


# Block layouts that take different paths through Model.block_forward.
def pass_through(fn, inputs):
    """``net.recompute`` without the recompute: ``fn``'s own graph, op by op."""
    return fn(*inputs)


def ffn_blocks(root, rows: int | None) -> list:
    """The FFN's recompute nodes in ``root``'s graph: those whose input rows
    are narrowed from a residual add's output, of ``rows`` rows if given."""
    return [
        node for node in graph_nodes(root)
        if node.op == "recompute" and node._parents[0].op == "narrow"
        and node._parents[0]._parents[0].op == "add" and rows in (None, node._parents[0]._parents[0].shape[0])
    ]


SWEPT_LAYOUTS = {
    "tiny": {},  # a second graph branch in one block only
    "no-second": {"schedule_start": 0.5, "schedule_end": 0.5},  # local and first-order only
    "no-local": {"schedule_end": 0.95},  # a block without a local branch
}


class TestAutogradGraph:
    @pytest.mark.parametrize("layout", SWEPT_LAYOUTS)
    @pytest.mark.parametrize("activation", net.ACTIVATIONS)
    @pytest.mark.parametrize("aggregator", AGGREGATOR_KINDS)
    def test_every_model_op_is_registered(self, monkeypatch, aggregator, activation, layout):
        # Gradient certification and the benchmark's per-op backward table
        # both cover exactly DIFFERENTIABLE_OPS. The graph branches' ops run
        # inside recompute nodes; the pass-through form shows them.
        cfg = tiny_config(aggregator=aggregator, activation=activation, **SWEPT_LAYOUTS[layout])
        model = Model(cfg, seed=0)
        imgs = np.random.default_rng(30).uniform(size=(1, 32, 32, 3)).astype(np.float32)
        ops = {node.op for node in graph_nodes(model.forward(imgs))} - {"leaf"}
        assert "linear" in ops and "recompute" in ops
        assert ops <= set(DIFFERENTIABLE_OPS), ops - set(DIFFERENTIABLE_OPS)
        monkeypatch.setattr(net, "recompute", pass_through)
        ops = {node.op for node in graph_nodes(model.forward(imgs))} - {"leaf"}
        assert "linear" in ops and "gather_rows" in ops
        assert ops <= set(DIFFERENTIABLE_OPS), ops - set(DIFFERENTIABLE_OPS)

    @pytest.mark.parametrize("activation", net.ACTIVATIONS)
    @pytest.mark.parametrize("aggregator", AGGREGATOR_KINDS)
    def test_every_gate_runs_inside_a_recompute_node(self, monkeypatch, aggregator, activation):
        # The gate's backward is one chain over its whole input. Its
        # temporaries stay small because every gate runs on one graph branch
        # or one FFN row block inside a recompute node, so the model's own
        # graph holds no gate; the pass-through form shows them.
        model = Model(tiny_config(aggregator=aggregator, activation=activation), seed=0)
        imgs = np.random.default_rng(35).uniform(size=(2, 32, 32, 3)).astype(np.float32)
        ops = [node.op for node in graph_nodes(model.forward(imgs))]
        assert "recompute" in ops and "cdf_gate" not in ops
        monkeypatch.setattr(net, "recompute", pass_through)
        assert "cdf_gate" in {node.op for node in graph_nodes(model.forward(imgs))}

    @pytest.mark.parametrize("layout", SWEPT_LAYOUTS)
    @pytest.mark.parametrize("activation", net.ACTIVATIONS)
    @pytest.mark.parametrize("aggregator", AGGREGATOR_KINDS)
    def test_detached_forward_is_byte_equal_and_builds_no_graph(self, aggregator, activation, layout):
        cfg = tiny_config(aggregator=aggregator, activation=activation, **SWEPT_LAYOUTS[layout])
        imgs = np.random.default_rng(32).uniform(size=(2, 32, 32, 3))
        for dtype in (np.float32, np.float64):
            model = cast_model(Model(cfg, seed=0), dtype)
            detached = model.detached()
            assert all(np.shares_memory(t.data, detached.params[n].data) for n, t in model.params.items())
            runs = []
            for m in (model, detached):
                collect: dict = {"blocks": [], "graphs": []}
                runs.append((m.forward(imgs.astype(dtype), collect=collect), collect))
            (recorded, rec_collect), (free, free_collect) = runs
            assert len(graph_nodes(recorded)) > 1 and graph_nodes(free) == [free]
            assert free.data.dtype == dtype and free.data.tobytes() == recorded.data.tobytes()
            assert [(b, f.tobytes()) for b, f in free_collect["blocks"]] == [
                (b, f.tobytes()) for b, f in rec_collect["blocks"]
            ]
            assert [
                (b, br, t.neighbor_idx.tobytes(), t.neighbor_sim.tobytes()) for b, br, t in free_collect["graphs"]
            ] == [(b, br, t.neighbor_idx.tobytes(), t.neighbor_sim.tobytes()) for b, br, t in rec_collect["graphs"]]

    def test_every_registered_op_is_reached_by_some_model(self, monkeypatch):
        # The registry holds no op that only tests call: each one is in the
        # loss graph of at least one aggregator x activation, as the model
        # runs or with its recompute nodes in pass-through form.
        imgs = np.random.default_rng(31).uniform(size=(1, 32, 32, 3)).astype(np.float32)
        reached = set()
        for form in (net.recompute, pass_through):
            monkeypatch.setattr(net, "recompute", form)
            for aggregator, activation in itertools.product(AGGREGATOR_KINDS, net.ACTIVATIONS):
                cfg = tiny_config(aggregator=aggregator, activation=activation)
                loss = softmax_cross_entropy(Model(cfg, seed=0).forward(imgs), np.array([1]))
                reached |= {node.op for node in graph_nodes(loss)} - {"leaf"}
        assert reached == set(DIFFERENTIABLE_OPS), set(DIFFERENTIABLE_OPS) ^ reached

    @pytest.mark.parametrize("layout", SWEPT_LAYOUTS)
    @pytest.mark.parametrize("activation", net.ACTIVATIONS)
    @pytest.mark.parametrize("aggregator", AGGREGATOR_KINDS)
    def test_recompute_equals_the_pass_through_in_the_model(self, monkeypatch, aggregator, activation, layout):
        # Logits and every gradient, input included, bit for bit in both
        # dtypes, with each graph branch and each FFN row block as one
        # recompute node and as its ops. Stage 0 at batch 3 (768 rows, 512 a
        # block) runs its FFN in two blocks.
        cfg = tiny_config(aggregator=aggregator, activation=activation, **SWEPT_LAYOUTS[layout])
        imgs = np.random.default_rng(34).uniform(size=(3, 32, 32, 3))
        for dtype in (np.float32, np.float64):
            runs = []
            for form in (net.recompute, pass_through):
                monkeypatch.setattr(net, "recompute", form)
                model = cast_model(Model(cfg, seed=1), dtype)
                x = Tensor(imgs.astype(dtype), requires_grad=True)
                logits = model.forward(x)
                if form is not pass_through:
                    assert len(ffn_blocks(logits, rows=768)) >= 2
                softmax_cross_entropy(logits, np.array([0, 1, 1])).backward()
                grads = {name: t.grad.tobytes() for name, t in model.params.items()}
                runs.append((logits.data.tobytes(), x.grad.tobytes(), grads))
            assert runs[0] == runs[1]

    def test_tiny_forward_at_batch_32_holds_at_most_13_mib(self):
        # numpy's buffers are traced by tracemalloc. What the logits keep
        # alive is what a train step's backward will read: 12.0 MiB. Each
        # FFN row block and each graph branch keeps its inputs, not its
        # hidden-width values or its aggregate.
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
        assert held <= 13 * 2**20, held / 2**20

    @staticmethod
    def tiny_step_peak(model: Model) -> int:
        """Traced bytes above the start at the peak of a tiny batch-32
        forward and backward."""
        imgs = np.random.default_rng(3).random((32, 32, 32, 3)).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            softmax_cross_entropy(model.forward(imgs), np.arange(32) % 2).backward()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_tiny_forward_and_backward_at_batch_32_peak_at_most_16_5_mib(self):
        # Every parameter gradient stays on its leaf, so the peak is set
        # late in backward, in stage 1's local branch (offset_mix's
        # backward), on top of what the forward kept and the gradients so
        # far. It reads 16.4 MiB above the start; a single FFN node over
        # all rows, with two arrays of the whole hidden width, read 21.0.
        model = Model(tiny_config(), seed=0)
        peak = self.tiny_step_peak(model)
        assert all(t.grad is not None for t in model.params.values())
        assert peak <= 16.5 * 2**20, peak / 2**20

    def test_tiny_step_with_parameter_hooks_at_batch_32_peaks_at_most_15_75_mib(self):
        # Hooks take each gradient out of the sweep once it is final, as
        # train() does. The peak is then set early in backward, by the
        # re-run of stage 3's FFN, one block of 128 rows (c = 256): 15.4
        # MiB. Two blocks of 64 rows, each adding partial w1 and w2
        # gradients of 1 MiB, larger than its hidden-width arrays, read 16.5.
        model = Model(tiny_config(), seed=0)
        final = []
        for t in model.params.values():
            t.hook = lambda grad: final.append(grad is not None)
        peak = self.tiny_step_peak(model)
        assert len(final) == len(model.params) and all(final)
        assert peak <= 15.75 * 2**20, peak / 2**20

    @pytest.mark.parametrize("form", ["recompute", "pass-through"])
    def test_graph_keeps_no_value_that_no_backward_reads(self, monkeypatch, form):
        # No backward reads the output of these ops, so once the forward has
        # returned only the loss holds the graph and their values are gone,
        # with these exceptions. The head's linear reads the pooled mean.
        # With recompute, each FFN row block keeps its input rows, which are
        # a view of the block's first residual add: one add per block. And
        # LayerScale's mul_rowvec reads the FFN's recompute output in the
        # two scaled blocks. Every tiny block concatenates its branches, so
        # no linear reads a graph branch's recompute output. In pass-through
        # form the FFN and branch ops show, and only the pooled mean is held.
        unread = {"reduce_mean", "add", "offset_mix", "mul_rowvec"}
        if form == "recompute":
            unread |= {"recompute"}
        else:
            monkeypatch.setattr(net, "recompute", pass_through)
            unread |= {"gather_rows", "reduce_max", "sub"}
        model = Model(tiny_config(), seed=0)
        imgs = np.random.default_rng(4).random((2, 32, 32, 3)).astype(np.float32)
        loss = softmax_cross_entropy(model.forward(imgs), np.array([0, 1]))
        (head,) = [p for p in loss._parents if p.op == "linear"]
        pooled = head._parents[0]
        assert pooled.op == "reduce_mean" and pooled.data.shape == (2, model.config.stage_widths[-1])
        graph = graph_nodes(loss)
        nodes = [node for node in graph if node.op in unread]
        assert {node.op for node in nodes} == unread
        want = [pooled]
        if form == "recompute":
            ffn_inputs = [node._parents[0]._parents[0] for node in ffn_blocks(loss, rows=None)]
            scaled = [node._parents[0] for node in graph if node.op == "mul_rowvec" and node._parents[0].op == "recompute"]
            assert len(ffn_inputs) == model.config.total_blocks() and len(scaled) == 2
            want += ffn_inputs + scaled
        held = [node for node in nodes if node.data.size]
        assert {id(node) for node in held} == {id(node) for node in want}, [node.op for node in held]


class TestFfnSublayer:
    """A block's FFN: ``_ffn`` (layer_norm, linear, gate, linear) as one
    recompute node, and ``_ffn_sublayer``, which runs it in row blocks of
    GATE_BLOCK hidden-width entries, or of ``w1``'s size where that is more,
    as the model does."""

    NAMES = ("h", "gamma", "beta", "w1", "b1", "w2", "b2", "eps")

    @staticmethod
    def leaves(dtype, seed=7):
        rng = np.random.default_rng(seed)
        arrays = {
            "h": rng.normal(size=(9, 4)),
            "gamma": 0.5 + rng.uniform(size=4),
            "beta": rng.normal(size=4),
            "w1": rng.normal(size=(4, 16)),
            "b1": rng.normal(size=16),
            "w2": rng.normal(size=(16, 4)),
            "b2": rng.normal(size=4),
            "eps": np.array([0.25]),
        }
        return {name: Tensor(a.astype(dtype), requires_grad=True) for name, a in arrays.items()}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("gate", ["graphlu", "gelu"])
    @pytest.mark.parametrize("with_prior", [False, True], ids=["fresh", "prior-grad"])
    def test_recompute_matches_the_op_chain_bit_for_bit(self, dtype, gate, with_prior):
        g = np.random.default_rng(8).normal(size=(9, 4)).astype(dtype)
        g[0] = -0.0  # a zero row: signed zeros reach every gradient
        results = []
        for form in (pass_through, T.recompute):
            leaves = self.leaves(dtype)
            if gate == "gelu":
                leaves["eps"] = Tensor(np.zeros(1, dtype))
            if with_prior:
                leaves["h"].grad = np.random.default_rng(9).normal(size=(9, 4)).astype(dtype)
            out = form(net._ffn, list(leaves.values()))
            got = [out.data.copy()]
            out.backward(seed=g)
            got += [t.grad for t in leaves.values() if t.requires_grad]
            assert leaves["eps"].grad is None or gate == "graphlu"
            results.append(got)
        want, node = results
        assert len(node) == len(want) == (9 if gate == "graphlu" else 8)
        for got, ref in zip(node, want):
            assert got.dtype == ref.dtype == dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    def test_one_node_over_every_argument(self):
        leaves = self.leaves(np.float64)
        out = T.recompute(net._ffn, list(leaves.values()))
        assert out.op == "recompute" and out.shape == (9, 4)
        assert all(p is q._node for p, q in zip(out._parents, leaves.values(), strict=True))
        assert len(graph_nodes(out)) == 9
        zero = Tensor(np.zeros(1))
        gelu = T.recompute(net._ffn, [*list(leaves.values())[:-1], zero])
        assert gelu._parents[-1] is zero._node and not zero.requires_grad

    @pytest.mark.parametrize(
        "name, shape",
        [("h", (9, 4, 1)), ("gamma", (3,)), ("w1", (5, 16)), ("b1", (15,)), ("w2", (15, 4)), ("b2", (16,)), ("eps", (2,))],
    )
    def test_shape_mismatch(self, name, shape):
        leaves = self.leaves(np.float64)
        leaves[name] = Tensor(np.zeros(shape))
        with pytest.raises(DimensionError):
            T.recompute(net._ffn, list(leaves.values()))

    # (rows, c, ffn ratio, blocks): blocks of max(GATE_BLOCK, c * ratio c)
    # // (ratio c) rows, so at least c rows, the last block short.
    SHAPES = {
        "blocks": (3100, 16, 4, 4),  # blocks of 1024 rows, the last of 28
        "short-tail": (2 * 64 + 1, 256, 4, 1),  # tiny's stage 3 at batch 32 plus a row: one block
        "under-8-rows": (4, 256, 4, 1),  # stage 3 at batch 1: one block of 4 rows
        "ratio-3": (2000, 24, 3, 3),  # blocks of 910 rows, the last of 180
        "w1-sized": (2 * 256 + 1, 256, 4, 3),  # w1 sets the block: 256 rows, the last of 1
    }

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("eps", [0.3, None], ids=["eps", "gelu"])
    def test_row_blocks_equal_the_elementwise_chain(self, dtype, eps, shape):
        # Per row block: layer_norm and linear as ops, the gate as the
        # elementwise chain in numpy, and the second linear by hand. Each
        # parameter's gradient is the sum of the blocks' terms, first block
        # first; each row's output and input gradient are its block's.
        rng = np.random.default_rng(22)
        rows, c, ratio, n_blocks = self.SHAPES[shape]
        width = ratio * c
        step = max(GATE_BLOCK, c * width) // width
        starts = range(0, rows, step)
        assert len(starts) == n_blocks and rows % step
        arrays = {
            "h": rng.normal(size=(rows, c)),
            "gamma": 0.5 + rng.uniform(size=c),
            "beta": rng.normal(size=c),
            "w1": rng.normal(size=(c, width)) * 0.5,
            "b1": rng.normal(size=width),
            "w2": rng.normal(size=(width, c)) * 0.5,
            "b2": rng.normal(size=c),
            "eps": np.array([0.0 if eps is None else eps]),
        }
        names = list(arrays)
        g = rng.normal(size=(rows, c)).astype(dtype)

        def leaves():
            # GELU's eps is a fixed zero that needs no gradient.
            return {
                name: Tensor(arrays[name].astype(dtype), requires_grad=eps is not None or name != "eps")
                for name in names
            }

        run = leaves()
        out = net._ffn_sublayer(run["h"], [run[name] for name in names[1:]])
        blocks = [out] if out.op == "recompute" else [p for p in out._parents]
        assert [b.op for b in blocks] == ["recompute"] * len(starts)
        out.backward(seed=g)

        ref = leaves()
        want_out, d_h = [], []
        sums = dict.fromkeys(names[1:])

        def add_term(name, term):
            sums[name] = term + 0.0 if sums[name] is None else sums[name] + term

        for lo in starts:
            h_k = Tensor(ref["h"].data[lo : lo + step], requires_grad=True)
            g_k = g[lo : lo + step]
            pre = T.linear(T.layer_norm(h_k, ref["gamma"], ref["beta"]), ref["w1"], ref["b1"])
            eps0 = None if eps is None else ref["eps"].data
            gate_y, d_pre, d_eps = eight_op_chain(pre.data, eps0, (g_k @ ref["w2"].data.T) + 0.0)
            out_k = gate_y @ ref["w2"].data
            out_k += ref["b2"].data
            want_out.append(out_k)
            pre.backward(seed=d_pre)
            d_h.append(h_k.grad)
            add_term("w2", gate_y.T @ g_k)
            add_term("b2", g_k.sum(axis=0))
            if eps is not None:
                add_term("eps", d_eps)
        for name in ("gamma", "beta", "w1", "b1"):
            sums[name] = ref[name].grad
        sums["h"] = np.concatenate(d_h)

        assert out.data.tobytes() == np.concatenate(want_out).tobytes()
        for name, t in run.items():
            if eps is None and name == "eps":
                assert t.grad is None
                continue
            assert t.grad.dtype == dtype and t.grad.tobytes() == sums[name].tobytes(), name

    def test_row_blocks_hold_no_array_of_the_whole_hidden_width(self):
        # Stage 0 of tiny at batch 32: 8192 rows of c = 32, hidden width
        # 4c, 16 blocks of 512 rows. Above the state before the call, the
        # forward and backward together peak at 4.2 arrays of [rows, c]:
        # the output, its gradient, the input's gradient and a narrow's
        # zero-padded term, plus one block's hidden-width temporaries. One
        # recompute node over all rows, whose temporaries are [rows, 4c]
        # arrays, read 20.1.
        rng = np.random.default_rng(23)
        rows, c = 8192, 32
        args = [
            rng.normal(size=(rows, c)),
            0.5 + rng.uniform(size=c),
            rng.normal(size=c),
            rng.normal(size=(c, 4 * c)) * 0.2,
            rng.normal(size=4 * c),
            rng.normal(size=(4 * c, c)) * 0.2,
            rng.normal(size=c),
            np.array([0.3]),
        ]
        leaves = [Tensor(a.astype(np.float32), requires_grad=True) for a in args]
        g = rng.normal(size=(rows, c)).astype(np.float32)
        unit = rows * c * np.dtype(np.float32).itemsize
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            net._ffn_sublayer(leaves[0], leaves[1:]).backward(seed=g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert all(t.grad is not None for t in leaves)
        assert peak <= 4.5 * unit, peak / unit


class TestInNetworkGraphs:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_build_graphs_matches_per_image_pipeline(self, dtype):
        # Scoring and selecting a block of images per call must equal doing
        # each image alone, bit for bit, on both selection paths (the sort at
        # n = 16, k = 4, where 8k > n, and the argmax passes at n = 256, k =
        # 8), under heavy ties, in either dtype,
        # and at n = 256 over a batch of several blocks, the last one short.
        model = Model(tiny_config(), seed=0)
        per_block = net.GRAPH_BLOCK // 256**2
        assert per_block >= 2
        for n, k, batch in ((16, 4, 3), (256, 8, 2 * per_block + 1)):
            rng = np.random.default_rng(n)
            feats = rng.normal(size=(batch, n, 8)).astype(dtype)
            feats[1] = rng.integers(-1, 2, size=(n, 8))  # many identical rows: ties
            feats[2] = 0.5  # constant image: every score ties
            topo = model._build_graphs(feats, k)
            assert (topo.n_nodes, topo.k) == (n, k)
            assert topo.neighbor_idx.shape == topo.neighbor_sim.shape == (batch, n, k)
            for im in range(batch):
                want = topk_neighbors(similarity_matrix(feats[im]), k)
                assert topo.neighbor_idx[im].tobytes() == want.neighbor_idx.tobytes()
                assert topo.neighbor_sim[im].tobytes() == want.neighbor_sim.tobytes()

    def test_build_graphs_at_batch_32_and_n_256_peaks_below_4_mib(self):
        # One image's 256 x 256 float32 scores are 0.25 MiB; the whole batch's
        # would be 8 MiB, and selection copies them once.
        model = Model(tiny_config(), seed=0)
        feats = np.random.default_rng(5).normal(size=(32, 256, 8)).astype(np.float32)
        model._build_graphs(feats, 4)  # first-call allocations stay out of the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            topo = model._build_graphs(feats, 4)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert topo.neighbor_idx.shape == (32, 256, 4)
        assert peak <= 4 * 2**20, peak / 2**20

    def test_collected_graphs_are_the_batched_selections(self):
        # Each collected topology holds every image's graph, and each global
        # branch selects its own.
        model = Model(tiny_config(), seed=0)
        imgs = np.random.default_rng(2).uniform(size=(2, 32, 32, 3)).astype(np.float32)
        collect = {"graphs": []}
        model.forward(imgs, collect=collect)
        branches = [(i, br) for i, br, _ in collect["graphs"]]
        assert branches == [(0, "first"), (1, "first"), (2, "first"), (3, "first"), (3, "second"), (4, "first")]
        for index, _, topo in collect["graphs"]:
            plan = model.config.blocks()[index]
            assert (topo.n_nodes, topo.k) == (plan.grid**2, plan.k)
            assert topo.neighbor_idx.shape == (2, plan.grid**2, plan.k)
        first, second = (t for i, _, t in collect["graphs"] if i == 3)
        assert first is not second


class TestResidualIdentity:
    def test_blocks_are_exact_identity_when_zeroed(self):
        cfg = tiny_config()
        model = Model(cfg, seed=5)
        zero_residual_outputs(model)
        rng = np.random.default_rng(9)
        h = Tensor(rng.normal(size=(16, 128)).astype(np.float32))
        out = model.block_forward(h, s=2, b=1, batch=1)
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
        local_c, first_c, second_c = model.plans[s, b].widths
        r = net.RADIUS
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
        model = cast_model(Model(cfg, seed=7), np.float64)
        # stage 2 block 1: all three branches live (schedule (32, 32, 64)),
        # LayerScale active, grid 4 -> 16 nodes
        assert model.plans[2, 1].widths == (32, 32, 64)
        rng = np.random.default_rng(11)
        h = rng.normal(size=(16, 128))
        got = model.block_forward(Tensor(h), s=2, b=1, batch=1).data
        want = self._oracle_block(h, model, s=2, b=1, grid=4)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        assert np.max(np.abs(got - want)) <= 1e-6


class TestPermutationConsistency:
    def test_graph_block_output_permutes_with_nodes(self):
        # stage 2 block 1 of this config has no local width, so no grid
        # position enters the block: only the graph branches mix nodes
        cfg = tiny_config(schedule_end=0.95)
        model = cast_model(Model(cfg, seed=8), np.float64)
        assert model.plans[2, 1].widths[0] == 0
        grid = 4
        n = grid * grid
        rng = np.random.default_rng(12)
        h = rng.normal(size=(n, 128))

        out_base = model.block_forward(Tensor(h), s=2, b=1, batch=1).data
        perm = rng.permutation(n)
        out_perm = model.block_forward(Tensor(h[perm]), s=2, b=1, batch=1).data
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

    @pytest.mark.parametrize("scaled", [0, 1, 2, 3, 5])
    def test_the_constant_counts_scaled_blocks_from_the_end(self, monkeypatch, scaled):
        # blocks() and param_layout read LAYER_SCALE_BLOCKS when called, so
        # the constant is the one place the placement is set.
        monkeypatch.setattr(net, "LAYER_SCALE_BLOCKS", scaled)
        cfg = tiny_config()
        plans = cfg.blocks()
        assert [p.layer_scaled for p in plans] == [i >= 5 - scaled for i in range(5)]
        names = {name for name in net.param_layout(cfg) if ".scale" in name}
        assert names == {p.prefix + s for p in plans if p.layer_scaled for s in ("scale1", "scale2")}

    def test_scales_start_at_the_constant_in_float32(self):
        model = Model(tiny_config(), seed=9)
        scales = [t.data for name, t in model.params.items() if ".scale" in name]
        assert len(scales) == 2 * net.LAYER_SCALE_BLOCKS
        for data in scales:
            assert data.dtype == np.float32
            assert np.all(data == np.float32(net.LAYER_SCALE_INIT))


class TestModelDtype:
    def test_drawn_parameters_are_float32(self):
        model = Model(tiny_config(), seed=3)
        assert model.dtype == np.float32
        assert {t.data.dtype for t in model.params.values()} == {np.dtype(np.float32)}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_is_that_of_the_given_parameters(self, dtype):
        model = cast_model(Model(tiny_config(), seed=3), dtype)
        assert model.dtype == dtype
        assert model.detached().dtype == dtype
        logits = model.detached().forward(np.full((1, 32, 32, 3), 0.5, np.float32))
        assert logits.data.dtype == dtype


def analytic_param_count(cfg: ModelConfig) -> int:
    """The parameter count written out by hand, block by block: an oracle
    that shares no code with ``param_layout``."""
    params = cfg.patch_size**2 * net.IN_CHANNELS * cfg.stage_widths[0] + cfg.stage_widths[0]
    n_offsets = (2 * net.RADIUS + 1) ** 2
    uses_graphlu = cfg.activation == "graphlu"
    ls_from = cfg.total_blocks() - net.LAYER_SCALE_BLOCKS
    block_index = 0
    for s in range(4):
        c = cfg.stage_widths[s]
        ratios = cfg.schedule_start, cfg.schedule_end
        schedule = psgc_schedule(c, cfg.stage_depths[s], *ratios, net.GRANULARITY)
        for local_c, first_c, second_c in schedule:
            params += 4 * c  # two norms, scale and shift each
            params += 2 * n_offsets * local_c  # offset weights and biases
            for width in (first_c, second_c):
                if width:
                    params += param_count(cfg.aggregator, width, width)[0]
            if uses_graphlu:
                params += 2
            params += c * c + c  # fusion
            hidden = net.FFN_RATIO * c
            params += c * hidden + hidden + hidden * c + c
            if block_index >= ls_from:
                params += 2 * c
            block_index += 1
        if s < 3:
            nxt = cfg.stage_widths[s + 1]
            params += 4 * c * nxt + nxt
    params += cfg.stage_widths[-1] * cfg.num_classes + cfg.num_classes
    return params


COUNTED_CONFIGS = {
    "tiny": tiny_config,
    "mrgraphconv": lambda: tiny_config(aggregator="MRGraphConv"),
    "edgeconv": lambda: tiny_config(aggregator="EdgeConv", num_classes=5),
    "graphsage": lambda: tiny_config(aggregator="GraphSAGE"),
    "gin-gelu": lambda: tiny_config(aggregator="GIN", activation="gelu"),
    "vig-collapse": lambda: tiny_config(schedule_start=0.5, schedule_end=0.5),
    "ratios-scalar": lambda: tiny_config(schedule_start=0.375, schedule_end=0.625),
    "deep21": lambda: deep_tiny_config(21),
    "radius0": tiny_config,  # with RADIUS = 0 (PATCHED_CONSTANTS)
    "layer-scale-all": lambda: tiny_config(schedule_end=0.95),  # with LAYER_SCALE_BLOCKS = 5
    # k at or above n - 1 in the first three stages: 256, 64 and 16 nodes.
    "k-clamped": lambda: tiny_config(image_size=16, patch_size=1, stage_k=[300, 64, 16, 8]),
    # Per-edge transforms cost n·k rows: clamped k in EdgeConv, and GraphSAGE's
    # neighbor transform over a deep stack.
    "edgeconv-k-clamped": lambda: tiny_config(
        aggregator="EdgeConv", image_size=16, patch_size=1, stage_k=[300, 64, 16, 8]
    ),
    "graphsage-deep21": lambda: deep_tiny_config(21, aggregator="GraphSAGE"),
    # A second graph branch at n = 64 (stage 1, block 1), as well as at n = 16.
    "second-n64": lambda: tiny_config(stage_depths=[1, 2, 2, 1]),
}
# Counted layouts that a module constant fixes, reached by patching it.
PATCHED_CONSTANTS = {"radius0": {"RADIUS": 0}, "layer-scale-all": {"LAYER_SCALE_BLOCKS": 5}}


def counted_config(name: str, monkeypatch) -> ModelConfig:
    """``COUNTED_CONFIGS[name]``, with its ``PATCHED_CONSTANTS`` set in
    ``pvg.net`` through ``monkeypatch``."""
    for constant, value in PATCHED_CONSTANTS.get(name, {}).items():
        monkeypatch.setattr(net, constant, value)
    return COUNTED_CONFIGS[name]()


def vig_s_config(**overrides) -> ModelConfig:
    """Pyramid ViG-S's shape (Han et al., arXiv 2206.00272): depths
    [2, 2, 6, 2], widths [80, 160, 400, 640], k = 9, 224 / 4, 1000 classes."""
    shape = dict(
        stage_depths=[2, 2, 6, 2], stage_widths=[80, 160, 400, 640], stage_k=[9] * 4,
        image_size=224, patch_size=4, num_classes=1000,
    )
    return ModelConfig(**{**shape, **overrides})


class TestCounting:
    def test_analytic_equals_enumeration(self, monkeypatch):
        for name in COUNTED_CONFIGS:
            with monkeypatch.context() as patch:
                cfg = counted_config(name, patch)
                params, _ = count_params_flops(cfg)
                assert params == analytic_param_count(cfg), name
                assert params == sum(t.size for t in Model(cfg, seed=0).params.values()), name

    @pytest.mark.parametrize(
        "name, want",
        [
            ("tiny", (1180972, 15500800)),
            ("mrgraphconv", (1170220, 15304192)),
            ("edgeconv", (1213999, 21891328)),
            ("graphsage", (1180972, 16467456)),
            ("gin-gelu", (1159458, 15107584)),
            ("vig-collapse", (1218444, 15928576)),
            ("ratios-scalar", (1192396, 15719680)),
            ("deep21", (863244, 16688256)),
            ("radius0", (1144108, 15222016)),
            ("layer-scale-all", (1193644, 15775232)),
            ("k-clamped", (1180684, 15427072)),
            ("edgeconv-k-clamped", (1212940, 130442752)),
            ("graphsage-deep21", (863244, 18254976)),
            ("second-n64", (1223886, 18333440)),
        ],
    )
    def test_counts_are_pinned(self, monkeypatch, name, want):
        # (params, mult-adds) as the counting gave them before the block walk
        # was shared with the forward; a change here is a change of model.
        assert count_params_flops(counted_config(name, monkeypatch)) == want

    @pytest.mark.parametrize(
        "aggregator, want",
        [("MaxE", (19762592, 4062016448)), ("MRGraphConv", (19445920, 4007776192))],
        ids=["MaxE", "MRGraphConv"],
    )
    def test_paper_shape_counts_are_pinned(self, aggregator, want):
        # What `pvg count` gives at the shape the README cites, counted
        # without building the model's 19.76 M parameters.
        cfg = vig_s_config(aggregator=aggregator)
        assert count_params_flops(cfg) == want
        assert want[0] == analytic_param_count(cfg)

    @pytest.mark.parametrize("activation", ["graphlu", "gelu"])
    @pytest.mark.parametrize("aggregator", AGGREGATOR_KINDS)
    def test_paper_shape_layout_equals_the_analytic_count(self, aggregator, activation):
        # Widths 400 and 640 split into 16-channel granules unlike tiny's;
        # checked against the hand count and the layout's shapes, still
        # without building the model.
        cfg = vig_s_config(aggregator=aggregator, activation=activation)
        params, _ = count_params_flops(cfg)
        assert params == analytic_param_count(cfg)
        assert params == sum(math.prod(shape) for shape, _ in net.param_layout(cfg).values())

    def test_doubling_widths_roughly_quadruples(self):
        base, _ = count_params_flops(tiny_config())
        doubled, _ = count_params_flops(tiny_config(stage_widths=[64, 128, 256, 512]))
        assert 3.5 < doubled / base < 4.05

    def test_flops_positive_and_scale(self):
        _, f1 = count_params_flops(tiny_config())
        _, f2 = count_params_flops(tiny_config(stage_widths=[64, 128, 256, 512]))
        assert 0 < f1 < f2


class RecordingParams(dict):
    """A parameter dict that remembers every name looked up in it."""

    def __init__(self, params):
        super().__init__(params)
        self.read: set[str] = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


class TestBlockPlans:
    def test_tiny_plans(self):
        plans = tiny_config().blocks()
        assert [(p.stage, p.block, p.index) for p in plans] == [
            (0, 0, 0), (1, 0, 1), (2, 0, 2), (2, 1, 3), (3, 0, 4)
        ]
        assert [p.grid for p in plans] == [16, 8, 4, 4, 2]
        assert [p.k for p in plans] == [4, 4, 8, 8, 3]  # a 2x2 grid has 3 other nodes
        assert [p.layer_scaled for p in plans] == [False, False, False, True, True]
        assert [p.widths for p in plans] == [
            (16, 16, 0), (48, 16, 0), (96, 32, 0), (32, 32, 64), (192, 64, 0)
        ]
        assert plans[3].prefix == "stage2.block1."

    def test_scalar_ratios_apply_to_every_stage(self):
        cfg = tiny_config(schedule_start=0.375, schedule_end=0.625)
        want = [
            w for c, d in zip(cfg.stage_widths, cfg.stage_depths) for w in psgc_schedule(c, d, 0.375, 0.625, 16)
        ]
        assert [p.widths for p in cfg.blocks()] == want
        assert want[2:4] == [(80, 48, 0), (48, 48, 32)]

    @pytest.mark.parametrize("name", COUNTED_CONFIGS)
    def test_forward_reads_exactly_the_layout(self, monkeypatch, name):
        cfg = counted_config(name, monkeypatch)
        model = Model(cfg, seed=0)
        model.params = RecordingParams(model.params)
        model.forward(np.zeros((1, cfg.image_size, cfg.image_size, 3), np.float32))
        assert model.params.read == set(net.param_layout(cfg))


class TestFullForwardGradient:
    def test_input_gradient_matches_central_differences(self):
        cfg = tiny_config(num_classes=3)
        model = cast_model(Model(cfg, seed=11), np.float64)
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

    def test_parameter_gradients_match_central_differences(self, monkeypatch):
        cfg = tiny_config(num_classes=3)
        model = cast_model(Model(cfg, seed=12), np.float64)
        # The tiny config's only second graph branch is in a LayerScale block;
        # this model leaves that block unscaled so its weights can be probed.
        with monkeypatch.context() as patch:
            patch.setattr(net, "LAYER_SCALE_BLOCKS", 1)
            shallow_scale = cast_model(Model(cfg, seed=12), np.float64)
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

    def test_missing_parameter_file(self, tmp_path):
        model = Model(tiny_config(), seed=15)
        save_checkpoint(model, tmp_path / "ckpt")
        (tmp_path / "ckpt" / "head__bias.pvgt").unlink()
        with pytest.raises(CheckpointError, match="head__bias.pvgt for head.bias"):
            load_checkpoint(tmp_path / "ckpt")

    def test_shape_mismatch(self, tmp_path):
        model = Model(tiny_config(), seed=16)
        save_checkpoint(model, tmp_path / "ckpt")
        from pvg.pvgt import write_tensor

        write_tensor(tmp_path / "ckpt" / "head__bias.pvgt", np.zeros(5, dtype=np.float32))
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "ckpt")

    def test_manifest_with_a_params_table_is_refused_reading_nothing(self, tmp_path, monkeypatch):
        # The layout the config implies names every file, so a manifest
        # that lists files, as checkpoints once did, is refused whole.
        save_checkpoint(Model(tiny_config(), seed=17), tmp_path / "ckpt")
        from pvg.pvgt import write_tensor

        write_tensor(tmp_path / "outside.pvgt", np.zeros(2, dtype=np.float32))
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        manifest["params"] = {"head.bias": "../outside.pvgt"}
        (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
        read = []
        monkeypatch.setattr(net, "read_tensor", read.append)
        with pytest.raises(CheckpointError, match='holding only a "config" object'):
            load_checkpoint(tmp_path / "ckpt")
        assert read == []

    def test_manifest_holds_only_the_config(self, tmp_path):
        model = Model(tiny_config(num_classes=3), seed=18)
        save_checkpoint(model, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert manifest == {"config": model.config.to_dict()}
        files = sorted(p.name for p in (tmp_path / "ckpt").iterdir())
        assert files == sorted([net.param_file(name) for name in model.params] + ["manifest.json"])
