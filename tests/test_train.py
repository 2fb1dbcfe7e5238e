"""Dataset ingestion, AdamW, the LR schedule, training determinism, and the
CLI surface."""

import csv
import importlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pvg import tensor as tensor_mod
from pvg.cli import main as cli_main
from pvg.data import (
    Dataset,
    load_dataset,
    make_two_class_patches,
    oracle_linear_accuracy,
    save_dataset,
)
from pvg.diagnostics import trace_diversity
from pvg.errors import (
    CheckpointError,
    ConfigError,
    CountMismatchError,
    DegenerateInputError,
    FileFormatError,
    LabelRangeError,
    NonFiniteError,
)
from pvg.net import Model, ModelConfig, save_checkpoint
from pvg.optim import AdamWState, adamw_step, cosine_lr
from pvg.pvgt import write_tensor
from pvg.tensor import Tensor, softmax_cross_entropy
from pvg.train import (
    EpochMetrics,
    OptimizerConfig,
    RunConfig,
    ScheduleConfig,
    _write_metrics_csv,
    evaluate,
    train,
)


# Run configs with a section that is not a JSON object or that holds an
# unknown key, and what the error names.
BAD_SECTION_ERRORS = {
    json.dumps({"model": 3}): "'model' must be an object, got int",
    json.dumps({"model": "abc"}): "'model' must be an object, got str",
    json.dumps({"optimizer": "x"}): "'optimizer' must be an object, got str",
    json.dumps({"schedule": [1]}): "'schedule' must be an object, got list",
    json.dumps({"optimizer": {"lrate": 0.1}}): "'optimizer' has unknown keys ['lrate']",
    json.dumps({"schedule": {"warmup": 1}}): "'schedule' has unknown keys ['warmup']",
}
# Other bad run configs whose error must name the field.
NAMED_FIELD_ERRORS = {
    json.dumps({"model": {"ffn_ratio": 2.5}}): "'model' has unknown keys ['ffn_ratio']",
    json.dumps({"model": {"in_channels": 0}}): "'model' has unknown keys ['in_channels']",
    json.dumps({"model": {"in_channels": -1}}): "'model' has unknown keys ['in_channels']",
    json.dumps({"model": {"granularity": 16}}): "'model' has unknown keys ['granularity']",
    json.dumps({"model": {"num_classes": 10**30}}): f"num_classes must lie in [2, 65536], got {10**30}",
}


def small_dataset(n=64, seed=0):
    return make_two_class_patches(n_images=n, size=32, seed=seed)


def quick_run(tmp_path, n=64, epochs=2, batch_size=16, seed=0, **model_kw):
    steps = (n + batch_size - 1) // batch_size * epochs
    model_kw.setdefault("num_classes", 2)
    return RunConfig(
        model=ModelConfig(**model_kw),
        optimizer=OptimizerConfig(),
        schedule=ScheduleConfig(warmup_steps=min(2, steps), total_steps=steps),
        batch_size=batch_size,
        seed=seed,
        output_dir=str(tmp_path),
    )


class TestDatasetIO:
    def test_roundtrip_bit_identical(self, tmp_path):
        ds = small_dataset(24, seed=1)
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", ds)
        back = load_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", 2)
        assert np.array_equal(back.images, ds.images)
        assert np.array_equal(back.labels, ds.labels)

    def test_truncated_file_is_checked_error(self, tmp_path):
        ds = small_dataset(8)
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", ds)
        raw = (tmp_path / "x.pvgt").read_bytes()
        (tmp_path / "x.pvgt").write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FileFormatError):
            load_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", 2)

    def test_bad_rank(self, tmp_path):
        write_tensor(tmp_path / "x.pvgt", np.zeros((4, 8, 8), dtype=np.float32))
        (tmp_path / "y.csv").write_text("index,label\n0,0\n")
        with pytest.raises(FileFormatError):
            load_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", 2)

    def test_label_out_of_range_names_row(self, tmp_path):
        ds = small_dataset(3)
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", ds)
        (tmp_path / "y.csv").write_text("index,label\n0,0\n1,2\n2,1\n")
        with pytest.raises(LabelRangeError, match="row 3"):
            load_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", 2)

    def test_count_mismatch(self, tmp_path):
        ds = small_dataset(4)
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", ds)
        (tmp_path / "y.csv").write_text("index,label\n0,0\n1,1\n")
        with pytest.raises(CountMismatchError):
            load_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", 2)

    def test_pixels_outside_unit_interval(self, tmp_path):
        write_tensor(tmp_path / "x.pvgt", np.full((2, 8, 8, 3), 1.5, dtype=np.float32))
        (tmp_path / "y.csv").write_text("index,label\n0,0\n1,1\n")
        with pytest.raises(FileFormatError):
            load_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", 2)

    def test_nan_pixel_rejected(self, tmp_path):
        # NaN compares False against both bounds; the range check must still fail it.
        images = np.full((2, 8, 8, 3), 0.5, dtype=np.float32)
        images[1, 3, 4, 2] = np.nan
        write_tensor(tmp_path / "x.pvgt", images)
        (tmp_path / "y.csv").write_text("index,label\n0,0\n1,1\n")
        with pytest.raises(FileFormatError, match="outside"):
            load_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", 2)

    @pytest.mark.parametrize("row", ["7,1.0", "x,1", "1,"], ids=["float-label", "word-index", "empty-label"])
    def test_non_integer_cell_names_file_and_row(self, tmp_path, row):
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", small_dataset(3))
        (tmp_path / "y.csv").write_text(f"index,label\n0,0\n{row}\n2,1\n")
        with pytest.raises(FileFormatError, match=r"y\.csv: row 3 has a non-integer cell"):
            load_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", 2)

    def test_repeated_index_names_its_row_and_image(self, tmp_path):
        # Image 1 labelled twice and image 2 not at all: four rows for four
        # images, so only the repeat shows what is wrong.
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", small_dataset(4))
        (tmp_path / "y.csv").write_text("index,label\n0,0\n1,1\n1,0\n3,1\n")
        with pytest.raises(CountMismatchError, match=r"y\.csv: row 4 labels image 1 again, after row 3"):
            load_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", 2)

    def test_oracle_certifies_learnability(self):
        assert oracle_linear_accuracy(make_two_class_patches(512, 32, seed=0)) >= 0.99


class TestAdamW:
    def test_zero_gradient_zero_decay_fixed_point(self):
        w = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        before = w.data.copy()
        adamw_step("w", w, np.zeros((1, 2)), AdamWState.zeros({"w": w}), lr_t=0.1, t=1, weight_decay=0.0)
        np.testing.assert_array_equal(w.data, before)

    def test_none_gradient_changes_nothing(self):
        w = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        before = w.data.copy()
        state = AdamWState.zeros({"w": w})
        adamw_step("w", w, None, state, lr_t=0.1, t=1)
        np.testing.assert_array_equal(w.data, before)
        assert not state.m["w"].any() and not state.v["w"].any()

    def test_descends_quadratic(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        adamw_step("w", w, 2.0 * w.data, AdamWState.zeros({"w": w}), lr_t=0.01, t=1, weight_decay=0.0)
        assert w.data[0] < 1.0

    def test_matches_scalar_oracle(self):
        """Ten steps against an independent scalar re-implementation."""
        lr, b1, b2, eps, wd = 0.37, 0.9, 0.999, 1e-8, 0.04

        w = Tensor(np.array([[0.5]], dtype=np.float64), requires_grad=True)
        state = AdamWState.zeros({"w": w})

        # scalar reference, written from the update equations
        sw, sm, sv = 0.5, 0.0, 0.0
        rng = np.random.default_rng(0)
        for t in range(1, 11):
            g = float(rng.normal())
            adamw_step("w", w, np.array([[g]]), state, lr_t=lr, t=t, betas=(b1, b2), weight_decay=wd)
            sm = b1 * sm + (1 - b1) * g
            sv = b2 * sv + (1 - b2) * g * g
            mhat = sm / (1 - b1**t)
            vhat = sv / (1 - b2**t)
            sw *= 1 - lr * wd
            sw -= lr * mhat / (np.sqrt(vhat) + eps)
            assert abs(w.data[0, 0] - sw) <= 1e-10

    def test_decay_exempts_vectors(self):
        # A zero gradient leaves only the decay: a matrix scales by exactly
        # 1 - lr * wd, and a vector keeps its values.
        lr, wd = 0.1, 0.5
        for name, shape, want in (("m", (2, 2), 3.0 * (1.0 - lr * wd)), ("v", (2,), 3.0)):
            p = Tensor(np.full(shape, 3.0), requires_grad=True)
            adamw_step(name, p, np.zeros(shape), AdamWState.zeros({name: p}), lr_t=lr, t=1, weight_decay=wd)
            np.testing.assert_array_equal(p.data, np.full(shape, want))


def train_updating_after_the_sweep(run: RunConfig, dataset: Dataset) -> Model:
    """``train()``'s steps and metrics.csv, with each step's update after its
    whole backward sweep: ``adamw_step`` over every gradient in turn."""
    model = Model(run.model, seed=run.seed)
    rng = np.random.default_rng(run.seed)
    state, opt = AdamWState.zeros(model.params), run.optimizer
    total_steps = run.schedule.total_steps
    metrics, step, epoch = [], 0, 0
    while step < total_steps:
        order = rng.permutation(len(dataset))
        losses = []
        for start in range(0, len(dataset), run.batch_size):
            if step >= total_steps:
                break
            batch = order[start : start + run.batch_size]
            model.zero_grad()
            loss = softmax_cross_entropy(model.forward(dataset.images[batch]), dataset.labels[batch])
            loss.backward()
            lr_t = cosine_lr(step, run.optimizer.lr, run.schedule.warmup_steps, total_steps)
            for name, p in model.params.items():
                adamw_step(name, p, p.grad, state, lr_t, step + 1, opt.betas, opt.weight_decay)
            model.clamp_activation_params()
            losses.append(loss.item())
            step += 1
        acc, _ = evaluate(model, dataset, run.batch_size)
        metrics.append(EpochMetrics(epoch, step, float(np.mean(losses)), acc, lr_t))
        epoch += 1
    out_dir = Path(run.output_dir)
    out_dir.mkdir(parents=True)
    _write_metrics_csv(out_dir / "metrics.csv", metrics)
    return model


class TestUpdateInBackward:
    """``train()`` updates each parameter inside the backward sweep, once its
    gradient is final. That gives the bits of updating after the sweep."""

    def test_equals_updating_after_the_sweep(self, tmp_path):
        # Tiny's stage-2 block 1 reads its act1.epsilon in both graph
        # branches, so an update after the first of them would show here.
        ds = small_dataset(48, seed=13)
        runs = [quick_run(tmp_path / side, n=48, epochs=2, batch_size=16, seed=5) for side in ("hooked", "ref")]
        model, _ = train(runs[0], ds)
        ref = train_updating_after_the_sweep(runs[1], ds)
        assert (tmp_path / "hooked" / "metrics.csv").read_bytes() == (tmp_path / "ref" / "metrics.csv").read_bytes()
        assert {n: t.data.tobytes() for n, t in model.params.items()} == {
            n: t.data.tobytes() for n, t in ref.params.items()
        }

    def test_returned_model_carries_no_hook(self, tmp_path):
        model, _ = train(quick_run(tmp_path, n=16, epochs=1, batch_size=8, seed=6), small_dataset(16, seed=14))
        assert [name for name, t in model.params.items() if t.hook is not None] == []
        before = {name: t.data.copy() for name, t in model.params.items()}
        images = small_dataset(2, seed=15).images
        softmax_cross_entropy(model.forward(images), np.array([0, 1])).backward()
        for name, t in model.params.items():
            assert t.grad is not None, name
            assert t.data.tobytes() == before[name].tobytes(), name


def count_subnormal_gradients(monkeypatch) -> list[int]:
    """From now on, the subnormal entries of every interior gradient a
    backward sweep computes, in a one-element list: each closure's gradient
    as it enters, every contribution to a non-leaf node, and the gate's
    output and input gradients in ``_gate_bw``, where ``cdf_gate`` writes
    the input's gradient without ``Node._accumulate``."""
    tiny = np.finfo(np.float32).tiny
    found = [0]

    def count(g) -> None:
        g = np.asarray(g)
        found[0] += int(np.count_nonzero((np.abs(g) < tiny) & (g != 0)))

    set_backward, accumulate, gate_bw = tensor_mod._set_backward, tensor_mod.Node._accumulate, tensor_mod._gate_bw

    def counted_closure(out, fn):
        set_backward(out, lambda g: (count(g), fn(g)))

    def counted_accumulate(node, g, owned=False):
        if node.op != "leaf":
            count(g)
        accumulate(node, g, owned)

    def counted_gate_bw(g, e, xd, s, shifted, x, eps):
        count(g)
        gate_bw(g, e, xd, s, shifted, x, eps)
        count(x.grad if x.grad is not None else 0.0)

    monkeypatch.setattr(tensor_mod, "_set_backward", counted_closure)
    monkeypatch.setattr(tensor_mod.Node, "_accumulate", counted_accumulate)
    monkeypatch.setattr(tensor_mod, "_gate_bw", counted_gate_bw)
    return found


class TestLossScale:
    """``train()`` seeds backward with ``LOSS_SCALE`` and unscales each
    gradient in its parameter's hook."""

    def test_confident_step_sweeps_no_subnormal_gradient_and_updates_the_same_bits(
        self, tmp_path, monkeypatch
    ):
        # A confident state: labels are the predictions, and the head's
        # weights and biases times 20 put the logit margins at 35 to 164, so
        # softmax's gradients start at 1e-16 or below and fall below
        # float32's smallest normal number on their way down the unscaled
        # sweep (871,070 entries); the scaled sweep meets none.
        train_mod = importlib.import_module("pvg.train")
        run = quick_run(tmp_path, n=8, epochs=1, batch_size=8, seed=3)
        images = small_dataset(8, seed=21).images
        logits = Model(run.model, seed=run.seed).detached().forward(images).data
        labels = np.argmax(logits, axis=1)

        class Confident(Model):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                for name in ("head.weight", "head.bias"):
                    self.params[name].data *= 20

        monkeypatch.setattr(train_mod, "Model", Confident)
        found = count_subnormal_gradients(monkeypatch)
        params, subnormal = [], []
        for scale in (train_mod.LOSS_SCALE, 1.0):
            monkeypatch.setattr(train_mod, "LOSS_SCALE", scale)
            found[0] = 0
            run.output_dir = str(tmp_path / f"scale{scale:g}")
            model, metrics = train(run, Dataset(images, labels, 2))
            assert metrics[-1].train_loss < 1e-18
            params.append({name: t.data.tobytes() for name, t in model.params.items()})
            subnormal.append(found[0])
        assert subnormal[0] == 0 and subnormal[1] > 1000, subnormal
        assert params[0] == params[1]

    def test_non_finite_scaled_gradient_stops_the_run(self, tmp_path, monkeypatch):
        # A scaled gradient that overflows is never skipped: the hook raises
        # with the step, and the run returns no model.
        train_mod = importlib.import_module("pvg.train")
        monkeypatch.setattr(train_mod, "LOSS_SCALE", 2.0**127)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="non-finite gradient of .* at step 0"):
            train(quick_run(tmp_path, n=8, epochs=1, batch_size=8, seed=3), small_dataset(8, seed=21))


class TestCosineSchedule:
    def test_endpoints(self):
        base, warm, total = 1e-3, 10, 110
        assert cosine_lr(warm, base, warm, total) == pytest.approx(base)
        assert cosine_lr(total, base, warm, total) == pytest.approx(0.0, abs=1e-18)

    def test_warmup_is_linear(self):
        vals = [cosine_lr(s, 1.0, 4, 100) for s in range(4)]
        assert vals == pytest.approx([0.25, 0.5, 0.75, 1.0])

    def test_monotone_after_warmup(self):
        vals = [cosine_lr(s, 1.0, 5, 50) for s in range(5, 51)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_no_warmup(self):
        assert cosine_lr(0, 2.0, 0, 10) == pytest.approx(2.0)

    def test_invalid_span(self):
        with pytest.raises(ConfigError):
            cosine_lr(0, 1.0, 10, 5)


class TestTraining:
    def test_fixed_seed_bitwise_identical_metrics(self, tmp_path):
        ds = small_dataset(32, seed=2)
        outs = []
        for sub in ("a", "b"):
            run = quick_run(tmp_path / sub, n=32, epochs=2, seed=7)
            train(run, ds)
            outs.append((tmp_path / sub / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_lr_zero_full_batch_loss_constant(self, tmp_path):
        ds = small_dataset(16, seed=3)
        run = RunConfig(
            model=ModelConfig(num_classes=2),
            optimizer=OptimizerConfig(lr=0.0),
            schedule=ScheduleConfig(warmup_steps=0, total_steps=3),
            batch_size=16,  # full batch: every step sees the same data
            seed=1,
            output_dir=str(tmp_path),
        )
        _, metrics = train(run, ds)
        losses = {m.train_loss for m in metrics}
        assert len(losses) == 1

    def test_evaluate_reproduces_final_train_acc(self, tmp_path):
        ds = small_dataset(32, seed=4)
        run = quick_run(tmp_path, n=32, epochs=2, seed=2)
        model, metrics = train(run, ds)
        acc, _ = evaluate(model, ds, batch_size=run.batch_size)
        assert acc == metrics[-1].train_acc
        acc_ckpt, _ = evaluate(tmp_path / "checkpoint", ds, batch_size=8)
        assert acc_ckpt == metrics[-1].train_acc

    def test_random_init_accuracy_near_chance(self):
        ds = small_dataset(256, seed=5)
        model = Model(ModelConfig(num_classes=2), seed=11)
        acc, _ = evaluate(model, ds, batch_size=64)
        # binomial: |acc - 0.5| <= 4.5 * sqrt(0.25/256) ~ 0.14
        assert abs(acc - 0.5) <= 0.15

    def test_outputs_written(self, tmp_path):
        ds = small_dataset(16, seed=6)
        run = quick_run(tmp_path, n=16, epochs=1, batch_size=8, seed=3)
        train(run, ds)
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "diversity.csv").exists()
        assert (tmp_path / "checkpoint" / "manifest.json").exists()
        rows = list(csv.reader(open(tmp_path / "metrics.csv")))
        assert rows[0] == ["epoch", "step", "train_loss", "train_acc", "lr"]
        assert len(rows) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate blow-up
    def test_non_finite_loss_aborts_with_step(self, tmp_path):
        ds = small_dataset(16, seed=7)
        run = RunConfig(
            model=ModelConfig(num_classes=2),
            optimizer=OptimizerConfig(lr=1e30),  # guaranteed blow-up
            schedule=ScheduleConfig(warmup_steps=0, total_steps=8),
            batch_size=8,
            seed=4,
            output_dir=str(tmp_path),
        )
        with pytest.raises(NonFiniteError, match="step"):
            train(run, ds)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows are the point
    @pytest.mark.parametrize(
        "scale, what", [(1e30, "gradient of head.weight"), (3.4e38, "node features reached the graph build")]
    )
    def test_overflowing_layer_scale_stops_at_step_0(self, tmp_path, scale, what):
        # A LayerScale this large is finite in float32, so the config takes
        # it; the first step's gradients (1e30) or node features (3.4e38)
        # overflow, and the run stops there. A large but sane scale runs.
        ds = small_dataset(8, seed=21)
        with pytest.raises(NonFiniteError, match=f"^non-finite {what} at step 0$"):
            train(quick_run(tmp_path / "huge", n=8, epochs=1, batch_size=8, seed=3, layer_scale_init=scale), ds)
        _, metrics = train(quick_run(tmp_path / "sane", n=8, epochs=1, batch_size=8, seed=3, layer_scale_init=1e6), ds)
        assert np.isfinite(metrics[-1].train_loss)

    def test_class_count_mismatch(self, tmp_path):
        ds = small_dataset(16, seed=8)
        run = quick_run(tmp_path, n=16, epochs=1, num_classes=3)
        with pytest.raises(ConfigError):
            train(run, ds)

    @pytest.mark.parametrize(
        "kw",
        [
            {"stop_accuracy": float("nan")},
            {"stop_accuracy": 95.0},
            {"stop_accuracy": -0.1},
        ],
        ids=["stop-nan", "stop-percent", "stop-negative"],
    )
    def test_bad_arguments_rejected_before_anything_is_built(self, tmp_path, monkeypatch, kw):
        def no_model(*args, **kwargs):
            raise AssertionError("model built before the arguments were checked")

        # pvg/__init__.py re-exports the train function over the module name.
        monkeypatch.setattr(importlib.import_module("pvg.train"), "Model", no_model)
        with pytest.raises(ConfigError):
            train(quick_run(tmp_path / "out", n=16, epochs=1), small_dataset(16), **kw)
        assert not (tmp_path / "out").exists()

    def test_empty_dataset_rejected_before_anything_is_written(self, tmp_path):
        with pytest.raises(DegenerateInputError, match="no images"):
            train(quick_run(tmp_path / "out", n=16, epochs=1), small_dataset(0))
        assert not (tmp_path / "out").exists()
        with pytest.raises(DegenerateInputError, match="no images"):
            evaluate(Model(ModelConfig(), seed=0), small_dataset(0))

    def test_run_config_json_roundtrip(self, tmp_path):
        run = quick_run(tmp_path, n=16, epochs=1)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(run.to_dict()))
        back = RunConfig.from_json(path)
        assert back.model == run.model
        assert back.optimizer == run.optimizer
        assert back.schedule == run.schedule

    def test_unknown_config_key(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"modle": {}})

    def test_json_numbers_accepted_where_types_allow(self):
        # JSON writes 1e-3 as a float but 1 as an int, and has no tuples.
        run = RunConfig.from_dict({
            "model": {"layer_scale_init": 1, "schedule_start": 0.5},
            "optimizer": {"lr": 1, "betas": [0.9, 0.999], "weight_decay": 0},
        })
        assert run.optimizer.betas == (0.9, 0.999)
        assert run.model.layer_scale_init == 1
        assert run.model.schedule_start == 0.5

    @pytest.mark.parametrize(
        "kw",
        [
            {"betas": (1.0, 0.999)},
            {"betas": (0.9, 1.5)},
            {"weight_decay": -1.0},
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"lr": 10**400},
            {"weight_decay": 2**1100},
        ],
        ids=[
            "beta1-one", "beta2-above-one", "weight-decay-negative", "lr-nan", "lr-inf",
            "lr-beyond-float64", "weight-decay-beyond-float64",
        ],
    )
    def test_invalid_optimizer_values_rejected(self, kw):
        with pytest.raises(ConfigError):
            OptimizerConfig(**kw)
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"optimizer": kw})

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(batch_size=0)
        with pytest.raises(ConfigError):
            evaluate(Model(ModelConfig(), seed=0), small_dataset(4), batch_size=0)


def traced_memory(fn) -> tuple[int, int]:
    """Peak bytes traced by tracemalloc while ``fn`` runs, and the bytes still
    held once it has returned, both above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        held, peak = tracemalloc.get_traced_memory()
        return peak - base, held - base
    finally:
        tracemalloc.stop()


class TestMemoryHeld:
    """Training holds one step's autograd graph at a time and a forward-only
    pass holds none: numpy's buffers are traced by tracemalloc, so peaks are
    deterministic byte counts."""

    def test_forward_pass_holds_no_graph(self):
        # A recording forward of this batch peaks at 44.2 MiB and its logits
        # hold 43.3 MiB of graph; without a graph the pass peaks at 27.5 MiB.
        ds = small_dataset(32, seed=10)
        model = Model(ModelConfig(num_classes=2), seed=0)
        evaluate(model, ds, 32)  # first-call allocations stay out of the measurement
        peak, held = traced_memory(lambda: evaluate(model, ds, 32))
        assert peak <= 30 * 2**20, peak / 2**20
        assert held <= 2**20, held / 2**20

    def test_train_steps_hold_one_step_graph(self, tmp_path, monkeypatch):
        # Memory held as each step begins, just after zero_grad. Every step
        # starts with the parameters and AdamW's two moments per parameter,
        # allocated before step 1; nothing a step built outlives it. The
        # least a step could leak, its gradients, is 4.5 MiB. Each
        # parameter's hook drops its gradient in the sweep, so the returned
        # model holds none.
        held = []
        zero_grad = Model.zero_grad

        def step_start(model):
            zero_grad(model)
            held.append(tracemalloc.get_traced_memory()[0])

        monkeypatch.setattr(Model, "zero_grad", step_start)
        cfg = RunConfig(
            model=ModelConfig(num_classes=2),
            schedule=ScheduleConfig(total_steps=4),
            batch_size=8,
            output_dir=str(tmp_path),
        )
        tracemalloc.start()
        try:
            model, _ = train(cfg, small_dataset(32, seed=11))
        finally:
            tracemalloc.stop()
        params_and_moments = 3 * sum(t.data.nbytes for t in model.params.values())
        assert held[0] >= params_and_moments, (held[0] / 2**20, params_and_moments / 2**20)
        grown = np.diff(held)
        assert len(grown) == 3 and np.all(np.abs(grown) <= 2**20), grown / 2**20
        assert [name for name, t in model.params.items() if t.grad is not None] == []

    def test_train_step_peaks_at_most_17_5_mib(self, tmp_path, monkeypatch):
        # One tiny batch-32 step, its moments allocated before step 1.
        # Updating each parameter as soon as its gradient is final drops the
        # gradients as the sweep goes, and each graph branch and FFN row
        # block keeps its inputs, not its aggregate or hidden-width values:
        # 16.5 MiB, set in the backward re-run of stage 3's FFN (18.9 MiB
        # when the branches kept their graphs, 23.0 MiB updating after the
        # sweep).
        starts, peaks = [], []
        zero_grad, clamp = Model.zero_grad, Model.clamp_activation_params

        def step_start(model):
            zero_grad(model)
            tracemalloc.reset_peak()
            starts.append(tracemalloc.get_traced_memory()[0])

        def step_end(model):
            clamp(model)
            peaks.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(Model, "zero_grad", step_start)
        monkeypatch.setattr(Model, "clamp_activation_params", step_end)
        cfg = RunConfig(
            model=ModelConfig(num_classes=2),
            schedule=ScheduleConfig(total_steps=2),
            batch_size=32,
            output_dir=str(tmp_path),
        )
        tracemalloc.start()
        try:
            train(cfg, small_dataset(64, seed=16))
        finally:
            tracemalloc.stop()
        rise = peaks[1] - starts[1]
        assert rise <= 17.5 * 2**20, rise / 2**20


def attached_closures(monkeypatch) -> list[str]:
    """The ops, by name, that attach a backward closure from now on."""
    attached: list[str] = []
    set_backward = tensor_mod._set_backward

    def recording(out, fn):
        set_backward(out, fn)
        if out._node._backward is not None:
            attached.append(out._node.op)

    monkeypatch.setattr(tensor_mod, "_set_backward", recording)
    return attached


FORWARD_ONLY_PASSES = {
    "evaluate-model": lambda model, ds, tp: evaluate(model, ds, batch_size=4),
    "evaluate-checkpoint": lambda model, ds, tp: evaluate(tp / "ckpt", ds, batch_size=4),
    "trace-diversity": lambda model, ds, tp: trace_diversity(model, ds.images),
    "export-graph": lambda model, ds, tp: cli_main([
        "export-graph", "--checkpoint", str(tp / "ckpt"), "--data", str(tp / "x.pvgt"),
        "--image", "1", "--block", "0", "--out", str(tp / "edges.csv"),
    ]) == 0,
}


class TestForwardOnlyPasses:
    """Passes that never run backward run on ``Model.detached``: no op of
    theirs records a closure."""

    @pytest.fixture()
    def workspace(self, tmp_path):
        ds = small_dataset(8, seed=12)
        model = Model(ModelConfig(num_classes=2), seed=0)
        save_checkpoint(model, tmp_path / "ckpt")
        write_tensor(tmp_path / "x.pvgt", ds.images)
        return model, ds, tmp_path

    def test_a_recording_forward_attaches_closures(self, workspace, monkeypatch):
        model, ds, _ = workspace
        attached = attached_closures(monkeypatch)
        model.forward(ds.images[:1])
        assert "linear" in attached

    @pytest.mark.parametrize("name", FORWARD_ONLY_PASSES)
    def test_pass_attaches_no_closure(self, workspace, monkeypatch, name):
        attached = attached_closures(monkeypatch)
        assert FORWARD_ONLY_PASSES[name](*workspace)
        assert attached == []


class TestCli:
    @pytest.fixture()
    def workspace(self, tmp_path):
        ds = small_dataset(16, seed=9)
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", ds)
        run = quick_run(tmp_path / "run", n=16, epochs=1, batch_size=8)
        (tmp_path / "run.json").write_text(json.dumps(run.to_dict()))
        return tmp_path

    def test_train_eval_diag_export_count(self, workspace, capsys):
        tp = workspace
        assert cli_main(["train", "--config", str(tp / "run.json"), "--data", str(tp / "x.pvgt"), "--labels", str(tp / "y.csv")]) == 0
        ckpt = tp / "run" / "checkpoint"

        assert cli_main(["eval", "--checkpoint", str(ckpt), "--data", str(tp / "x.pvgt"), "--labels", str(tp / "y.csv")]) == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out

        assert cli_main(["diag", "--checkpoint", str(ckpt), "--data", str(tp / "x.pvgt"), "--out", str(tp / "trace.csv")]) == 0
        rows = list(csv.reader(open(tp / "trace.csv")))
        assert rows[0] == ["run_id", "block", "diversity"]
        assert len(rows) == 1 + 5  # five blocks in the tiny config

        assert cli_main([
            "export-graph", "--checkpoint", str(ckpt), "--data", str(tp / "x.pvgt"),
            "--image", "0", "--block", "2", "--out", str(tp / "edges.csv"),
        ]) == 0
        rows = list(csv.reader(open(tp / "edges.csv")))
        assert rows[0] == ["block", "node", "neighbor", "rank", "similarity"]
        assert all(r[0] == "2" for r in rows[1:])

        assert cli_main(["count", "--config", str(tp / "run.json")]) == 0
        out = capsys.readouterr().out
        assert "params=" in out

    def test_error_is_single_line_with_category(self, workspace, capsys):
        tp = workspace
        (tp / "bad.pvgt").write_bytes(b"JUNKJUNKJUNK")
        code = cli_main([
            "eval", "--checkpoint", str(tp / "nonexistent"), "--data", str(tp / "bad.pvgt"), "--labels", str(tp / "y.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:checkpoint:")
        assert "\n" not in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"model": ',
            json.dumps({"model": {"stage_depths": 3}}),
            "3",
            json.dumps({"model": {"patch_size": 0}}),
            json.dumps({"model": {"image_size": 16}}),
            json.dumps({"model": {"aggregator": "Foo"}}),
            json.dumps({"model": {"radius": 1.5}}),
            json.dumps({"model": {"radius": 100000}}),
            '{"model": {"layer_scale_init": NaN}}',
            '{"model": {"layer_scale_init": Infinity}}',
            json.dumps({"model": {"graph_mode": "shared"}}),
            json.dumps({"model": {"activation": "relu"}}),
            json.dumps({"model": {"schedule_end": [0.75, 0.75, 0.75, 0.75]}}),
            json.dumps({"model": {"stage_k": [4, 4, 8.5, 8]}}),
            *NAMED_FIELD_ERRORS,
            json.dumps({"model": {"layer_scale_init": 1e300}}),
            json.dumps({"model": {"stage_depths": [1, 1, 10**400, 1]}}),
            json.dumps({"model": {"stage_widths": [32, 64, 10**400, 256]}}),
            json.dumps({"optimizer": {"lr": "fast"}}),
            json.dumps({"optimizer": {"lr": 10**400}}),
            json.dumps({"optimizer": {"betas": [0.9]}}),
            '{"optimizer": {"lr": NaN}}',
            json.dumps({"schedule": {"total_steps": 2.5}}),
            json.dumps({"schedule": {"warmup_steps": -3, "total_steps": 2}}),
            json.dumps({"batch_size": True}),
            json.dumps({"seed": 1.0}),
            json.dumps({"output_dir": 3}),
            *BAD_SECTION_ERRORS,
        ],
        ids=[
            "malformed-json", "wrong-field-type", "not-an-object", "zero-patch-size", "1x1-last-stage",
            "unknown-aggregator", "radius-float", "radius-past-grid", "layer-scale-init-nan", "layer-scale-init-inf",
            "removed-graph-mode", "removed-relu", "removed-schedule-list",
            "stage-k-float", "removed-ffn-ratio", "removed-in-channels-zero", "removed-in-channels-negative",
            "removed-granularity", "num-classes-1e30",
            "layer-scale-init-beyond-float32", "stage-depth-beyond-float64", "stage-width-beyond-float64", "lr-str", "lr-beyond-float64", "betas-length", "lr-nan", "total-steps-float",
            "warmup-negative", "batch-size-bool", "seed-float", "output-dir-int", "model-not-an-object",
            "model-str", "optimizer-str", "schedule-list", "optimizer-unknown-key", "schedule-unknown-key",
        ],
    )
    def test_bad_config_is_one_line_config_error(self, tmp_path, capsys, text):
        (tmp_path / "run.json").write_text(text)
        assert cli_main(["count", "--config", str(tmp_path / "run.json")]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:config:")
        assert "\n" not in err
        assert {**BAD_SECTION_ERRORS, **NAMED_FIELD_ERRORS}.get(text, "") in err

    @pytest.mark.parametrize(
        "command, category", [("count", "config"), ("train", "file-format"), ("eval", "checkpoint")]
    )
    def test_non_utf8_file_is_one_line_error(self, workspace, capsys, command, category):
        # count reads a run config, train a labels CSV, eval a manifest: each
        # starts with or holds the byte 0xFF, which no UTF-8 text contains.
        tp = workspace
        data = ["--data", str(tp / "x.pvgt"), "--labels", str(tp / "y.csv")]
        if command == "count":
            (tp / "run.json").write_bytes(b"\xff{}")
            args = ["count", "--config", str(tp / "run.json")]
        elif command == "train":
            (tp / "y.csv").write_bytes(b"index,label\n0,\xff\n")
            args = ["train", "--config", str(tp / "run.json")] + data
        else:
            save_checkpoint(Model(ModelConfig(), seed=0), tp / "ckpt")
            (tp / "ckpt" / "manifest.json").write_bytes(b"\xff{}")
            args = ["eval", "--checkpoint", str(tp / "ckpt")] + data
        assert cli_main(args) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error:{category}:") and "UTF-8" in err
        assert "\n" not in err

    def test_checkpoint_with_a_removed_field_is_one_config_error(self, workspace, capsys):
        # Every checkpoint written while ffn_ratio, in_channels and
        # granularity were ModelConfig fields records them in its manifest.
        tp = workspace
        save_checkpoint(Model(ModelConfig(), seed=0), tp / "ckpt")
        manifest = json.loads((tp / "ckpt" / "manifest.json").read_text())
        manifest["config"]["ffn_ratio"] = 4
        (tp / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
        data = ["--data", str(tp / "x.pvgt"), "--labels", str(tp / "y.csv")]
        assert cli_main(["eval", "--checkpoint", str(tp / "ckpt")] + data) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and err.count("\n") == 1
        assert "unknown keys ['ffn_ratio']" in err

    @pytest.mark.parametrize("command, category", [("count", "config"), ("eval", "checkpoint")])
    def test_deeply_nested_json_is_one_line_error(self, workspace, capsys, command, category):
        # 200000 nested arrays exceed the JSON decoder's recursion limit.
        tp = workspace
        nested = "[" * 200000
        if command == "count":
            (tp / "run.json").write_text(nested)
            args = ["count", "--config", str(tp / "run.json")]
        else:
            save_checkpoint(Model(ModelConfig(), seed=0), tp / "ckpt")
            (tp / "ckpt" / "manifest.json").write_text(nested)
            args = ["eval", "--checkpoint", str(tp / "ckpt"), "--data", str(tp / "x.pvgt"), "--labels", str(tp / "y.csv")]
        assert cli_main(args) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error:{category}:") and "nests too deeply" in err
        assert "\n" not in err

    def test_negative_seed_is_one_line_config_error(self, workspace, capsys):
        tp = workspace
        run = json.loads((tp / "run.json").read_text())
        (tp / "run.json").write_text(json.dumps({**run, "seed": -1}))
        args = ["train", "--config", str(tp / "run.json"), "--data", str(tp / "x.pvgt"), "--labels", str(tp / "y.csv")]
        assert cli_main(args) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:config:") and "seed" in err
        assert "\n" not in err
        assert not (tp / "run").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("graph_mode", "per-group"),
            ("epsilon_shared", False),
            ("graph_metric", "cosine"),
            ("activation", "relu"),
            ("schedule_start", [0.25, 0.25, 0.25, 0.25]),
        ],
    )
    def test_checkpoint_with_removed_config_key_is_one_line_config_error(self, tmp_path, capsys, key, value):
        # Checkpoints record the whole config, so one written while the
        # model still had an option or a choice since removed does not load.
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", small_dataset(4))
        save_checkpoint(Model(ModelConfig(), seed=0), tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"][key] = value
        manifest_path.write_text(json.dumps(manifest))
        assert cli_main([
            "eval", "--checkpoint", str(tmp_path / "ckpt"),
            "--data", str(tmp_path / "x.pvgt"), "--labels", str(tmp_path / "y.csv"),
        ]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:config:") and key in err
        assert "\n" not in err

    @pytest.mark.parametrize(
        "text",
        ['{"config": ', json.dumps({"params": {}}), "[]", json.dumps({"config": {}, "params": 3})],
        ids=["malformed-json", "no-config", "not-an-object", "params-not-an-object"],
    )
    def test_malformed_manifest_is_one_line_checkpoint_error(self, tmp_path, capsys, text):
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", small_dataset(4))
        (tmp_path / "ckpt").mkdir()
        (tmp_path / "ckpt" / "manifest.json").write_text(text)
        assert cli_main([
            "eval", "--checkpoint", str(tmp_path / "ckpt"),
            "--data", str(tmp_path / "x.pvgt"), "--labels", str(tmp_path / "y.csv"),
        ]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:checkpoint:")
        assert "\n" not in err

    def test_eval_of_refused_float64_save_is_one_line_error(self, tmp_path, capsys):
        # PVGT holds float32 only: the save is refused whole, so what eval
        # finds is no checkpoint, not a silently narrowed one.
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", small_dataset(4))
        with pytest.raises(CheckpointError, match="float64"):
            save_checkpoint(Model(ModelConfig(), seed=0, dtype=np.float64), tmp_path / "ckpt")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.pvgt", "y.csv"]
        assert cli_main([
            "eval", "--checkpoint", str(tmp_path / "ckpt"),
            "--data", str(tmp_path / "x.pvgt"), "--labels", str(tmp_path / "y.csv"),
        ]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:checkpoint:")
        assert "\n" not in err

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_empty_dataset_is_one_line_error(self, tmp_path, capsys, command):
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", small_dataset(0))
        data = ["--data", str(tmp_path / "x.pvgt"), "--labels", str(tmp_path / "y.csv")]
        if command == "eval":
            save_checkpoint(Model(ModelConfig(), seed=0), tmp_path / "ckpt")
            args = ["eval", "--checkpoint", str(tmp_path / "ckpt")] + data
        else:
            run = quick_run(tmp_path / "run", n=16, epochs=1)
            (tmp_path / "run.json").write_text(json.dumps(run.to_dict()))
            args = ["train", "--config", str(tmp_path / "run.json")] + data
        assert cli_main(args) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:degenerate-input:")
        assert "\n" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_labels_cell_past_the_csv_field_limit_is_one_line_error(self, tmp_path, capsys, command):
        # csv's default field limit is 131072 characters; past it the reader
        # raises its own error, which must not escape as a traceback.
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", small_dataset(4))
        (tmp_path / "y.csv").write_text("index,label\n0,0\n1," + "1" * 200_000 + "\n2,1\n3,0\n")
        data = ["--data", str(tmp_path / "x.pvgt"), "--labels", str(tmp_path / "y.csv")]
        if command == "eval":
            save_checkpoint(Model(ModelConfig(), seed=0), tmp_path / "ckpt")
            args = ["eval", "--checkpoint", str(tmp_path / "ckpt")] + data
        else:
            run = quick_run(tmp_path / "run", n=4, epochs=1)
            (tmp_path / "run.json").write_text(json.dumps(run.to_dict()))
            args = ["train", "--config", str(tmp_path / "run.json")] + data
        assert cli_main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:file-format:") and err.count("\n") == 1, err
        assert "y.csv: row 3 is not CSV" in err

    @pytest.mark.parametrize("command, batch_size", [("eval", "0"), ("diag", "0"), ("diag", "-3")])
    def test_batch_size_below_one_is_one_line_error(self, tmp_path, capsys, command, batch_size):
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", small_dataset(4))
        save_checkpoint(Model(ModelConfig(), seed=0), tmp_path / "ckpt")
        args = [command, "--checkpoint", str(tmp_path / "ckpt"), "--data", str(tmp_path / "x.pvgt")]
        args += ["--labels", str(tmp_path / "y.csv")] if command == "eval" else ["--out", str(tmp_path / "t.csv")]
        assert cli_main(args + ["--batch-size", batch_size]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:config:")
        assert "\n" not in err

    @pytest.mark.parametrize(
        "command, extra, category",
        [
            ("diag", ["--data", "rank3.pvgt", "--out", "t.csv"], "file-format"),
            ("export-graph", ["--data", "rank0.pvgt", "--image", "0", "--block", "0", "--out", "e.csv"], "file-format"),
            *[
                (command, ["--data", f"{bad}.pvgt"] + extra, "file-format")
                for bad in ("above-one", "nan", "four-channels")
                for command, extra in (
                    ("diag", ["--out", "t.csv"]),
                    ("export-graph", ["--image", "0", "--block", "0", "--out", "e.csv"]),
                )
            ],
            ("export-graph", ["--data", "x.pvgt", "--image", "-1", "--block", "0", "--out", "e.csv"], "config"),
            ("export-graph", ["--data", "x.pvgt", "--image", "4", "--block", "0", "--out", "e.csv"], "config"),
            ("export-graph", ["--data", "x.pvgt", "--image", "0", "--block", "99", "--out", "e.csv"], "config"),
            ("export-graph", ["--data", "x.pvgt", "--image", "0", "--block", "0", "--branch", "second", "--out", "e.csv"], "config"),
        ],
        ids=[
            "diag-rank3", "export-rank0",
            "diag-above-one", "export-above-one", "diag-nan", "export-nan", "diag-four-channels", "export-four-channels",
            "export-image-negative", "export-image-past-end", "export-no-block", "export-no-branch",
        ],
    )
    def test_diag_and_export_error_categories(self, tmp_path, capsys, command, extra, category):
        # diag and export-graph read images as eval and train do: rank 4, three
        # channels, values in [0, 1].
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", small_dataset(4))
        write_tensor(tmp_path / "rank3.pvgt", np.zeros((4, 32, 32), dtype=np.float32))
        write_tensor(tmp_path / "rank0.pvgt", np.zeros((), dtype=np.float32))
        write_tensor(tmp_path / "above-one.pvgt", np.full((4, 32, 32, 3), 2.0, dtype=np.float32))
        nan = np.full((4, 32, 32, 3), 0.5, dtype=np.float32)
        nan[1, 2, 3, 0] = np.nan
        write_tensor(tmp_path / "nan.pvgt", nan)
        write_tensor(tmp_path / "four-channels.pvgt", np.full((4, 32, 32, 4), 0.5, dtype=np.float32))
        save_checkpoint(Model(ModelConfig(), seed=0), tmp_path / "ckpt")
        extra = [str(tmp_path / a) if a.endswith((".pvgt", ".csv")) else a for a in extra]
        assert cli_main([command, "--checkpoint", str(tmp_path / "ckpt")] + extra) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error:{category}:")
        assert "\n" not in err

    @pytest.mark.filterwarnings("error")  # a numpy warning would be a stderr line of its own
    @pytest.mark.parametrize("name", ["head.weight", "stem.weight"])
    def test_overflowing_parameter_is_one_non_finite_line(self, tmp_path, capsys, name):
        # In the head the logits overflow; in the stem the node features do.
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", small_dataset(4))
        model = Model(ModelConfig(), seed=0)
        model.params[name].data.flat[0] = 3e38
        save_checkpoint(model, tmp_path / "ckpt")
        assert cli_main([
            "eval", "--checkpoint", str(tmp_path / "ckpt"),
            "--data", str(tmp_path / "x.pvgt"), "--labels", str(tmp_path / "y.csv"),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:non-finite:") and captured.err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e30, 3.4e38])
    def test_overflowing_layer_scale_is_one_non_finite_line(self, tmp_path, capsys, scale):
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", small_dataset(8, seed=21))
        run = quick_run(tmp_path / "run", n=8, epochs=1, batch_size=8, seed=3, layer_scale_init=scale)
        (tmp_path / "run.json").write_text(json.dumps(run.to_dict()))
        assert cli_main([
            "train", "--config", str(tmp_path / "run.json"),
            "--data", str(tmp_path / "x.pvgt"), "--labels", str(tmp_path / "y.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:non-finite:") and err.count("\n") == 1, err

    def test_missing_parameter_file_is_one_checkpoint_line(self, tmp_path, capsys):
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", small_dataset(4))
        save_checkpoint(Model(ModelConfig(), seed=0), tmp_path / "ckpt")
        (tmp_path / "ckpt" / "stage2__block1__ffn__w1.pvgt").unlink()
        assert cli_main([
            "eval", "--checkpoint", str(tmp_path / "ckpt"),
            "--data", str(tmp_path / "x.pvgt"), "--labels", str(tmp_path / "y.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:checkpoint:") and err.count("\n") == 1
        assert "stage2.block1.ffn.w1" in err

    def test_parameter_file_the_config_does_not_name_is_one_checkpoint_line(self, tmp_path, capsys):
        # A GraphLU checkpoint whose manifest says gelu: the config names no
        # act*.epsilon parameter, so those files would be silently ignored.
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", small_dataset(4))
        save_checkpoint(Model(ModelConfig(), seed=0), tmp_path / "ckpt")
        manifest = tmp_path / "ckpt" / "manifest.json"
        assert manifest.read_text().count('"graphlu"') == 1
        manifest.write_text(manifest.read_text().replace('"graphlu"', '"gelu"'))
        assert cli_main([
            "eval", "--checkpoint", str(tmp_path / "ckpt"),
            "--data", str(tmp_path / "x.pvgt"), "--labels", str(tmp_path / "y.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:checkpoint:") and err.count("\n") == 1
        assert "10 files of no parameter, first stage0__block0__act1__epsilon.pvgt" in err

    def test_image_size_past_the_node_cap_is_one_config_line(self, workspace, capsys):
        tp = workspace
        run = json.loads((tp / "run.json").read_text())
        run["model"]["image_size"] = 256  # 128 x 128 stage-0 nodes
        (tp / "run.json").write_text(json.dumps(run))
        assert cli_main(["count", "--config", str(tp / "run.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and err.count("\n") == 1
        assert "16,384 stage-0 nodes per image, more than MAX_NODES = 4,096" in err

    @pytest.mark.parametrize("message", ["Unable to allocate 128. GiB for an array", ""], ids=["numpy", "bare"])
    def test_memory_error_is_one_memory_line(self, workspace, capsys, monkeypatch, message):
        def no_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(importlib.import_module("pvg.cli"), "count_params_flops", no_memory)
        assert cli_main(["count", "--config", str(workspace / "run.json")]) == 1
        err = capsys.readouterr().err
        assert err == f"error:memory: {message or 'out of memory'}\n"

    @pytest.mark.parametrize("command", ["count", "train"])
    def test_config_past_the_parameter_cap_is_one_config_line(self, workspace, capsys, command):
        tp = workspace
        run = json.loads((tp / "run.json").read_text())
        run["model"]["stage_widths"] = [32, 64, 128, 16384]
        (tp / "run.json").write_text(json.dumps(run))
        args = [command, "--config", str(tp / "run.json")]
        if command == "train":
            args += ["--data", str(tp / "x.pvgt"), "--labels", str(tp / "y.csv")]
        assert cli_main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and err.count("\n") == 1
        assert "2,476,514,476 parameters" in err
        assert not (tp / "run").exists()

    @pytest.mark.parametrize("bad", ["label-7,1.0", "label-x,1", "nan-pixel"])
    def test_bad_dataset_is_one_line_file_format_error(self, tmp_path, capsys, bad):
        ds = small_dataset(4)
        if bad == "nan-pixel":
            ds.images[2, 0, 0, 1] = np.nan
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", ds)
        if bad.startswith("label-"):
            (tmp_path / "y.csv").write_text(f"index,label\n0,0\n1,1\n{bad[6:]}\n3,1\n")
        save_checkpoint(Model(ModelConfig(), seed=0), tmp_path / "ckpt")
        assert cli_main([
            "eval", "--checkpoint", str(tmp_path / "ckpt"),
            "--data", str(tmp_path / "x.pvgt"), "--labels", str(tmp_path / "y.csv"),
        ]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:file-format:")
        assert "\n" not in err
        if bad.startswith("label-"):
            assert f"{tmp_path / 'y.csv'}: row 4" in err

    def test_bad_data_error_category(self, workspace, capsys):
        tp = workspace
        cli_main(["train", "--config", str(tp / "run.json"), "--data", str(tp / "x.pvgt"), "--labels", str(tp / "y.csv")])
        capsys.readouterr()
        (tp / "bad.pvgt").write_bytes(b"JUNKJUNKJUNKJUNK")
        code = cli_main([
            "eval", "--checkpoint", str(tp / "run" / "checkpoint"),
            "--data", str(tp / "bad.pvgt"), "--labels", str(tp / "y.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:file-format:")
