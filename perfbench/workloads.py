"""The three benchmark workloads: set-up, measured window and correctness gates.

Every input comes from the ``--seed`` argument through ``derive_seed``: the
training corpus, the held-out corpus, the model initialisation and the batch
order. pvg receives only the generated inputs. README.md in this directory
says why each workload exists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable

import numpy as np

from pvg import cli
from pvg.data import make_two_class_patches, save_dataset
from pvg.errors import PvgError
from pvg.net import Model, ModelConfig, count_params_flops, deep_tiny_config, save_checkpoint, tiny_config
from pvg.tensor import DIFFERENTIABLE_OPS, softmax_cross_entropy
from pvg.train import OptimizerConfig, RunConfig, ScheduleConfig, evaluate, train

from tracing import Recorder, layer_metrics

BATCH = 32
SETUP_REPEATS = 5
# Seed streams: one independent stream per generated input.
CORPUS, MODEL, HELDOUT = 0, 1, 2


def derive_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


@dataclasses.dataclass(frozen=True)
class TrainWorkload:
    name: str
    config: Callable[[], ModelConfig]
    images: int  # a multiple of BATCH
    epochs: int  # the first is the warm-up epoch, the rest follow the cosine
    min_train_acc: float | None


@dataclasses.dataclass(frozen=True)
class EvalWorkload:
    name: str
    config: Callable[[], ModelConfig]
    images: int


WORKLOADS = {
    w.name: w
    for w in (
        # Two epochs, not one: after its warm-up epoch alone some seeds are
        # still near chance (0.52), below the 0.95 learnability bar.
        TrainWorkload("train-tiny", tiny_config, 512, 2, 0.95),
        # 256 images (8 steps an epoch): with 512 one run took 173 s.
        TrainWorkload("train-deep21", lambda: deep_tiny_config(21), 256, 2, None),
        EvalWorkload("eval-b1", tiny_config, 128),
    )
}


@dataclasses.dataclass
class Outcome:
    """What one run measured, before formatting."""

    setup_s: list[float]
    op_ms: list[float]
    samples_per_s: list[float]  # one per untraced call
    traced_samples_per_s: list[float]
    attempted: int
    failed: int
    gates: dict[str, bool]
    calls: list[dict]
    layers: dict[str, tuple[float, str]] | None = None


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile). Fewer than 11 samples give the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _timed_setups(setup: Callable[[], object]):
    times = []
    result = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
    return result, times


def _continue(calls: list[dict], started: float, seconds: float) -> bool:
    """Start another call while one more fits in the window; two calls at
    least, because the determinism gate compares repeated runs."""
    if len(calls) < 2:
        return True
    mean_wall = statistics.fmean(c["wall_s"] for c in calls)
    return time.perf_counter() - started + mean_wall <= seconds


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_spans(path: Path, rec: Recorder) -> None:
    """CSV of every traced span: id, parent, op, name, start, end, info."""
    with open(path, "w") as fh:
        fh.write("id,parent,op,name,start_ns,end_ns,info\n")
        for i, (name, start, end, parent, op, info) in enumerate(rec.spans):
            fh.write(f"{i},{parent},{op},{name},{start},{end},{'' if info is None else info}\n")


# ---------------------------------------------------------------------------
# train-*
# ---------------------------------------------------------------------------


def run_train(w: TrainWorkload, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    corpus_seed = derive_seed(seed, CORPUS)
    model_seed = derive_seed(seed, MODEL)
    steps_per_epoch = w.images // BATCH

    def setup():
        corpus = make_two_class_patches(w.images, size=32, seed=corpus_seed)
        warm = Model(w.config(), seed=model_seed)
        loss = softmax_cross_entropy(warm.forward(corpus.images[:BATCH]), corpus.labels[:BATCH])
        loss.backward()
        return corpus

    corpus, setup_times = _timed_setups(setup)

    plain = Recorder("train_step", full=False)
    traced = Recorder("train_step", full=True)
    calls: list[dict] = []
    failed = 0
    started = time.perf_counter()
    while _continue(calls, started, seconds):
        # A traced run alternates untraced and traced calls, so the tracing
        # overhead is measured inside the run.
        rec = traced if trace and len(calls) % 2 == 1 else plain
        done = len(rec.op_durations_ms())
        out_dir = workdir / f"call{len(calls)}"
        run = RunConfig(
            model=w.config(),
            optimizer=OptimizerConfig(lr=1e-3, weight_decay=0.05),
            schedule=ScheduleConfig(warmup_steps=steps_per_epoch, total_steps=w.epochs * steps_per_epoch),
            batch_size=BATCH,
            seed=model_seed,
            output_dir=str(out_dir),
        )
        t0 = time.perf_counter()
        try:
            with rec:
                _, metrics = train(run, corpus)
        except PvgError as e:
            print(f"train() failed: error:{e.category}: {e}")
            failed += 1
            break
        wall = time.perf_counter() - t0
        n_steps = len(rec.op_durations_ms()) - done
        calls.append(
            {
                "wall_s": wall,
                "traced": rec is traced,
                "steps": n_steps,
                "samples_per_s": n_steps * BATCH / wall,
                "metrics_sha256": _sha256(out_dir / "metrics.csv"),
                "final_train_acc": metrics[-1].train_acc,
                "out_dir": out_dir,
            }
        )

    # -- correctness gates (outside the window, nothing wrapped) -------------
    gates: dict[str, bool] = {}
    nonfinite = sum(int(not np.isfinite(v)) for v in plain.losses + traced.losses)
    failed += nonfinite
    gates["every step's loss is finite"] = nonfinite == 0 and bool(calls)
    mismatched = sum(c["metrics_sha256"] != calls[0]["metrics_sha256"] for c in calls[1:])
    failed += mismatched
    gates["metrics.csv sha256 equal across repeated train() calls"] = mismatched == 0 and len(calls) >= 2
    if calls:
        last = calls[-1]
        acc, _ = evaluate(last["out_dir"] / "checkpoint", corpus, batch_size=BATCH)
        csv_acc = (last["out_dir"] / "metrics.csv").read_text().strip().splitlines()[-1].split(",")[3]
        ok = acc == last["final_train_acc"] and f"{acc:.6f}" == csv_acc
        failed += int(not ok)
        gates["evaluate(checkpoint) reproduces the last train_acc"] = ok
    if w.min_train_acc is not None:
        low = sum(c["final_train_acc"] < w.min_train_acc for c in calls)
        failed += low
        gates[f"final train_acc >= {w.min_train_acc}"] = low == 0 and bool(calls)
    for c in calls:
        shutil.rmtree(c.pop("out_dir"), ignore_errors=True)
    return _outcome(w, setup_times, plain, traced, calls, failed, gates, workdir)


# ---------------------------------------------------------------------------
# eval-b1
# ---------------------------------------------------------------------------


def run_eval(w: EvalWorkload, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    ckpt = workdir / "checkpoint"
    data_path = workdir / "heldout.pvgt"
    labels_path = workdir / "heldout_labels.csv"

    def setup():
        heldout = make_two_class_patches(w.images, size=32, seed=derive_seed(seed, HELDOUT))
        model = Model(w.config(), seed=derive_seed(seed, MODEL))
        shutil.rmtree(ckpt, ignore_errors=True)
        save_checkpoint(model, ckpt)
        save_dataset(data_path, labels_path, heldout)
        for i in range(16):
            model.forward(heldout.images[i : i + 1])
        return heldout, model

    (heldout, model), setup_times = _timed_setups(setup)
    argv = [
        "eval",
        "--checkpoint", str(ckpt),
        "--data", str(data_path),
        "--labels", str(labels_path),
        "--batch-size", "1",
    ]

    plain = Recorder("forward", full=False)
    traced = Recorder("forward", full=True)
    calls: list[dict] = []
    started = time.perf_counter()
    while _continue(calls, started, seconds):
        rec = traced if trace and len(calls) % 2 == 1 else plain
        done = len(rec.op_durations_ms())
        out = io.StringIO()
        t0 = time.perf_counter()
        with rec, contextlib.redirect_stdout(out):
            code = cli.main(argv)
        wall = time.perf_counter() - t0
        images = len(rec.op_durations_ms()) - done
        calls.append(
            {
                "wall_s": wall,
                "traced": rec is traced,
                "exit_code": code,
                "output": out.getvalue().strip(),
                "images": images,
                "samples_per_s": images / wall,
            }
        )

    # -- correctness gates (outside the window, nothing wrapped) -------------
    acc, loss = evaluate(model, heldout, batch_size=1)
    expected = f"accuracy={acc:.6f} loss={loss:.6f}"
    bad_exit = sum(c["exit_code"] != 0 for c in calls)
    bad_line = sum(c["output"] != expected for c in calls)
    nonfinite = plain.nonfinite_logits + traced.nonfinite_logits
    gates = {
        "pvg eval exits 0": bad_exit == 0,
        "pvg eval line equals in-process evaluate": bad_line == 0,
        "logits are finite": nonfinite == 0,
    }
    return _outcome(w, setup_times, plain, traced, calls, bad_exit + bad_line + nonfinite, gates, workdir)


def _outcome(w, setup_times, plain: Recorder, traced: Recorder, calls, failed, gates, workdir: Path) -> Outcome:
    traced_ops = len(traced.op_durations_ms())
    outcome = Outcome(
        setup_s=setup_times,
        op_ms=plain.op_durations_ms(),
        samples_per_s=[c["samples_per_s"] for c in calls if not c["traced"]],
        traced_samples_per_s=[c["samples_per_s"] for c in calls if c["traced"]],
        attempted=max(len(plain.op_durations_ms()) + traced_ops, 1),
        failed=failed,
        gates=gates,
        calls=calls,
    )
    if traced_ops:
        _, multadds = count_params_flops(w.config())
        outcome.layers = layer_metrics(traced, list(DIFFERENTIABLE_OPS), multadds)
        write_spans(workdir / "spans.csv", traced)
    return outcome


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    w = WORKLOADS[name]
    if isinstance(w, TrainWorkload):
        return run_train(w, seed, seconds, trace, workdir)
    return run_eval(w, seed, seconds, trace, workdir)
