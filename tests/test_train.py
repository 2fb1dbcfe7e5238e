"""Dataset ingestion, AdamW, the LR schedule, training determinism, and the
CLI surface."""

import csv
import importlib
import json
import tracemalloc

import numpy as np
import pytest

from pvg.cli import main as cli_main
from pvg.data import (
    Dataset,
    load_dataset,
    make_two_class_patches,
    oracle_linear_accuracy,
    save_dataset,
)
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
    OptimizerConfig,
    RunConfig,
    ScheduleConfig,
    _forward_pass_metrics,
    evaluate,
    train,
)


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

    def test_oracle_certifies_learnability(self):
        assert oracle_linear_accuracy(make_two_class_patches(512, 32, seed=0)) >= 0.99


class TestAdamW:
    def test_zero_gradient_zero_decay_fixed_point(self):
        p = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        before = p["w"].data.copy()
        adamw_step(p, {"w": np.zeros(2)}, AdamWState(), lr_t=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(p["w"].data, before)

    def test_descends_quadratic(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        params = {"w": w}
        state = AdamWState()
        adamw_step(params, {"w": 2.0 * w.data}, state, lr_t=0.01, weight_decay=0.0)
        assert w.data[0] < 1.0

    def test_matches_scalar_oracle(self):
        """Ten steps against an independent scalar re-implementation."""
        lr, b1, b2, eps, wd = 0.37, 0.9, 0.999, 1e-8, 0.04

        w = Tensor(np.array([[0.5]], dtype=np.float64), requires_grad=True)
        params = {"w": w}
        state = AdamWState()

        # scalar reference, written from the update equations
        sw, sm, sv = 0.5, 0.0, 0.0
        rng = np.random.default_rng(0)
        for t in range(1, 11):
            g = float(rng.normal())
            adamw_step(params, {"w": np.array([[g]])}, state, lr_t=lr, betas=(b1, b2), eps=eps, weight_decay=wd)
            sm = b1 * sm + (1 - b1) * g
            sv = b2 * sv + (1 - b2) * g * g
            mhat = sm / (1 - b1**t)
            vhat = sv / (1 - b2**t)
            sw *= 1 - lr * wd
            sw -= lr * mhat / (np.sqrt(vhat) + eps)
            assert abs(w.data[0, 0] - sw) <= 1e-10

    def test_decay_mask_exempts_vectors(self):
        from pvg.optim import decay_mask

        params = {
            "m": Tensor(np.ones((2, 2)), requires_grad=True),
            "v": Tensor(np.ones(2), requires_grad=True),
        }
        mask = decay_mask(params)
        assert mask == {"m": True, "v": False}


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

    def test_class_count_mismatch(self, tmp_path):
        ds = small_dataset(16, seed=8)
        run = quick_run(tmp_path, n=16, epochs=1, num_classes=3)
        with pytest.raises(ConfigError):
            train(run, ds)

    @pytest.mark.parametrize(
        "kw",
        [
            {"trace_batch": 0},
            {"trace_batch": -2},
            {"trace_batch": True},
            {"trace_batch": 2.0},
            {"stop_accuracy": float("nan")},
            {"stop_accuracy": 95.0},
            {"stop_accuracy": -0.1},
        ],
        ids=["trace-0", "trace-negative", "trace-bool", "trace-float", "stop-nan", "stop-percent", "stop-negative"],
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
            "model": {"layer_scale_init": 1, "schedule_start": [0.25, 0.25, 0.5, 0.25]},
            "optimizer": {"lr": 1, "betas": [0.9, 0.999], "weight_decay": 0},
        })
        assert run.optimizer.betas == (0.9, 0.999)
        assert run.model.layer_scale_init == 1

    @pytest.mark.parametrize(
        "kw",
        [
            {"betas": (1.0, 0.999)},
            {"betas": (0.9, 1.5)},
            {"weight_decay": -1.0},
            {"lr": float("nan")},
            {"lr": float("inf")},
        ],
        ids=["beta1-one", "beta2-above-one", "weight-decay-negative", "lr-nan", "lr-inf"],
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


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while ``fn`` runs, above the start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemoryHeld:
    """A pass holds one batch's autograd graph at a time: numpy's buffers are
    traced by tracemalloc, so peaks are deterministic byte counts."""

    def test_forward_pass_holds_one_batch_graph(self):
        ds = small_dataset(32, seed=10)
        model = Model(ModelConfig(num_classes=2), seed=0)

        def one_batch():
            softmax_cross_entropy(model.forward(ds.images[:8]), ds.labels[:8]).item()

        one_batch()  # first-call allocations stay out of the measurement
        one = traced_peak(one_batch)
        four = traced_peak(lambda: _forward_pass_metrics(model, ds, 8))
        assert four <= 1.2 * one, (four, one)

    def test_train_steps_hold_one_step_graph(self, tmp_path):
        def run(steps: int) -> int:
            ds = small_dataset(8 * steps, seed=11)
            cfg = RunConfig(
                model=ModelConfig(num_classes=2),
                schedule=ScheduleConfig(total_steps=steps),
                batch_size=8,
                output_dir=str(tmp_path / f"steps{steps}"),
            )
            return traced_peak(lambda: train(cfg, ds))

        one, three = run(1), run(3)
        assert three <= 1.05 * one, (three, one)


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
            json.dumps({"model": {"epsilon_shared": "no"}}),
            json.dumps({"model": {"stage_k": [4, 4, 8.5, 8]}}),
            json.dumps({"model": {"ffn_ratio": 2.5}}),
            json.dumps({"optimizer": {"lr": "fast"}}),
            json.dumps({"optimizer": {"betas": [0.9]}}),
            '{"optimizer": {"lr": NaN}}',
            json.dumps({"schedule": {"total_steps": 2.5}}),
            json.dumps({"batch_size": True}),
            json.dumps({"seed": 1.0}),
            json.dumps({"output_dir": 3}),
            json.dumps({"model": 3}),
        ],
        ids=[
            "malformed-json", "wrong-field-type", "not-an-object", "zero-patch-size", "1x1-last-stage",
            "unknown-aggregator", "radius-float", "epsilon-shared-str", "stage-k-float", "ffn-ratio-float",
            "lr-str", "betas-length", "lr-nan", "total-steps-float", "batch-size-bool", "seed-float",
            "output-dir-int", "model-not-an-object",
        ],
    )
    def test_bad_config_is_one_line_config_error(self, tmp_path, capsys, text):
        (tmp_path / "run.json").write_text(text)
        assert cli_main(["count", "--config", str(tmp_path / "run.json")]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:config:")
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
            ("diag", ["--data", "rank3.pvgt", "--out", "t.csv"], "dimension"),
            ("export-graph", ["--data", "x.pvgt", "--image", "-1", "--block", "0", "--out", "e.csv"], "config"),
            ("export-graph", ["--data", "x.pvgt", "--image", "4", "--block", "0", "--out", "e.csv"], "config"),
            ("export-graph", ["--data", "x.pvgt", "--image", "0", "--block", "99", "--out", "e.csv"], "config"),
            ("export-graph", ["--data", "x.pvgt", "--image", "0", "--block", "0", "--branch", "second", "--out", "e.csv"], "config"),
        ],
        ids=["diag-rank3", "export-image-negative", "export-image-past-end", "export-no-block", "export-no-branch"],
    )
    def test_diag_and_export_error_categories(self, tmp_path, capsys, command, extra, category):
        save_dataset(tmp_path / "x.pvgt", tmp_path / "y.csv", small_dataset(4))
        write_tensor(tmp_path / "rank3.pvgt", np.zeros((4, 32, 32), dtype=np.float32))
        save_checkpoint(Model(ModelConfig(), seed=0), tmp_path / "ckpt")
        extra = [str(tmp_path / a) if a.endswith((".pvgt", ".csv")) else a for a in extra]
        assert cli_main([command, "--checkpoint", str(tmp_path / "ckpt")] + extra) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error:{category}:")
        assert "\n" not in err

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
