"""Desk-scale training and evaluation harness.

One seed fixes everything: parameter init, batch shuffling, and therefore the
entire metrics CSV. Runs write ``metrics.csv`` (one row per epoch), a
per-epoch diversity trace, and a final checkpoint directory.

A :class:`RunConfig` holds a model, an optimizer and a schedule config, all
four :class:`~pvg.net.Config` subclasses checked at construction.

A step fixes its learning rate, then runs backward. For the run each
parameter carries a hook (:meth:`~pvg.tensor.Tensor.backward`), so the sweep
updates a parameter with ``adamw_step``, for step count ``global_step + 1``,
as soon as its gradient is final and drops that gradient at once, rather
than holding every gradient until the sweep ends. Updating after the whole
sweep gives the same bits: no node left in the sweep reads a parameter that
has been updated. The hooks are cleared when ``train`` returns or raises, so
the returned model has none.

Backward is seeded with :data:`LOSS_SCALE`, not 1, and each hook checks that
its scaled gradient is finite, then multiplies it by 1 / ``LOSS_SCALE``
before the update. Once a run is confident its unscaled gradients fall below
float32's smallest normal number, and backward on subnormal numbers is many
times slower. Backward is linear in its seed and both factors are powers of
two, so the update is bit-identical to the unscaled one wherever the
unscaled sweep met no subnormal number; where it met one, the scaled sweep
is the more precise. The scale lives only here: ``Tensor.backward``,
``evaluate`` and gradient checks keep their meaning.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset
from .diagnostics import DiversityTrace, trace_diversity, write_trace_csv
from .errors import ConfigError, DegenerateInputError, NonFiniteError
from .net import Config, Model, ModelConfig, load_checkpoint, read_json, save_checkpoint
from .optim import AdamWState, adamw_step, cosine_lr
from .tensor import softmax_cross_entropy

TRACE_BATCH = 8  # the first training images, whose per-block diversity each epoch traces
# The backward seed of a training step. 2^64 left subnormal gradients in
# confident train-tiny runs; there the largest gradient of a sweep was the
# seed itself, so 2^96 stays about 2^31 below float32's largest number.
LOSS_SCALE = 2.0**96


@dataclass
class OptimizerConfig(Config):
    lr: float = 1e-3
    weight_decay: float = 0.05

    def _check(self) -> None:
        # Comparisons, not isfinite: they hold for an int past float64's range.
        if not 0 <= self.lr <= sys.float_info.max:
            raise ConfigError(f"lr must be finite and non-negative, got {self.lr}")
        if not 0 <= self.weight_decay <= sys.float_info.max:
            raise ConfigError(
                f"weight_decay must be finite and non-negative, got {self.weight_decay}"
            )


@dataclass
class ScheduleConfig(Config):
    warmup_steps: int = 0
    total_steps: int = 0

    def _check(self) -> None:
        warmup, total = self.warmup_steps, self.total_steps
        if not 0 <= warmup <= total:
            raise ConfigError(f"need 0 <= warmup_steps <= total_steps, got {warmup} and {total}")


def _check_batch_size(batch_size: int) -> None:
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")


@dataclass
class RunConfig(Config):
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    batch_size: int = 32
    seed: int = 0
    output_dir: str = "run"

    def _check(self) -> None:
        _check_batch_size(self.batch_size)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @staticmethod
    def from_json(path: str | Path) -> "RunConfig":
        return RunConfig.from_dict(read_json(path, ConfigError))


@dataclass
class EpochMetrics:
    epoch: int
    step: int
    train_loss: float
    train_acc: float
    lr: float


def evaluate(model_or_dir, dataset: Dataset, batch_size: int = 32) -> tuple[float, float]:
    """Top-1 accuracy and mean loss of a model (or checkpoint dir) on a
    dataset; non-finite logits raise :class:`NonFiniteError`. The one
    forward-only metric pass (``pvg eval`` and each epoch's accuracy call
    it), run on :meth:`Model.detached`, so it records no graph."""
    _check_batch_size(batch_size)
    model = model_or_dir if isinstance(model_or_dir, Model) else load_checkpoint(model_or_dir)
    n = len(dataset)
    if n == 0:
        raise DegenerateInputError("the dataset holds no images")
    model = model.detached()
    total_loss = 0.0
    correct = 0
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        images = dataset.images[start:stop]
        labels = dataset.labels[start:stop]
        logits = model.forward(images)
        if not np.all(np.isfinite(logits.data)):
            raise NonFiniteError(f"non-finite logits for images {start} to {stop - 1}")
        loss = softmax_cross_entropy(logits, labels)
        total_loss += loss.item() * (stop - start)
        correct += int(np.sum(np.argmax(logits.data, axis=1) == labels))
    return correct / n, total_loss / n


def train(
    run: RunConfig,
    dataset: Dataset,
    stop_accuracy: float | None = None,
) -> tuple[Model, list[EpochMetrics]]:
    """Optimize on ``dataset``, writing metrics.csv, diversity.csv, and a
    final checkpoint under ``run.output_dir``.

    train_acc is measured by a forward pass with the epoch-final weights, so
    evaluating the checkpoint on the train split reproduces the last row
    exactly. ``stop_accuracy`` ends the run early once that measurement
    reaches the threshold (still fully seed-deterministic). Aborts with a
    step-stamped error if the loss goes non-finite. Arguments are checked
    before anything is built or written.
    """
    if len(dataset) == 0:
        raise DegenerateInputError("the training set holds no images")
    if run.model.num_classes != dataset.num_classes:
        raise ConfigError(f"model has {run.model.num_classes} classes, dataset {dataset.num_classes}")
    total_steps = run.schedule.total_steps
    if total_steps <= 0:
        raise ConfigError("schedule.total_steps must be positive")
    if stop_accuracy is not None and not 0.0 <= stop_accuracy <= 1.0:
        raise ConfigError(f"stop_accuracy must lie in [0, 1], got {stop_accuracy!r}")
    out_dir = Path(run.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    model = Model(run.model, seed=run.seed)
    rng = np.random.default_rng(run.seed)
    state = AdamWState.zeros(model.params)

    def update(name: str, grad: np.ndarray | None) -> None:
        # A parameter's hook: the sweep calls it once the gradient is final,
        # with the step's lr_t already fixed, during step global_step + 1.
        if grad is not None:
            if not np.all(np.isfinite(grad)):
                raise NonFiniteError(f"non-finite gradient of {name}")
            grad *= 1.0 / LOSS_SCALE
        adamw_step(
            name,
            model.params[name],
            grad,
            state,
            lr_t,
            global_step + 1,
            weight_decay=run.optimizer.weight_decay,
        )

    n = len(dataset)

    metrics: list[EpochMetrics] = []
    traces: list[DiversityTrace] = []
    trace_images = dataset.images[:TRACE_BATCH]

    global_step = 0
    epoch = 0
    for name, p in model.params.items():
        p.hook = functools.partial(update, name)
    try:
        while global_step < total_steps:
            order = rng.permutation(n)
            epoch_losses: list[float] = []
            for start in range(0, n, run.batch_size):
                if global_step >= total_steps:
                    break
                batch = order[start : start + run.batch_size]
                images = dataset.images[batch]
                labels = dataset.labels[batch]

                model.zero_grad()
                lr_t = cosine_lr(
                    global_step,
                    run.optimizer.lr,
                    run.schedule.warmup_steps,
                    total_steps,
                )
                # Every non-finite stop of a step names the step, numpy's own
                # too: pvg train runs with its overflow flag raising.
                try:
                    logits = model.forward(images)
                    loss = softmax_cross_entropy(logits, labels)
                    loss_value = loss.item()
                    if not np.isfinite(loss_value):
                        raise NonFiniteError("non-finite loss")
                    # Each parameter's hook unscales and updates it, and drops
                    # its gradient, as soon as the sweep has released the last
                    # node that reads it.
                    loss.backward(np.full_like(loss.data, LOSS_SCALE))
                except (NonFiniteError, FloatingPointError) as err:
                    raise NonFiniteError(f"{err} at step {global_step}") from err
                model.clamp_activation_params()
                epoch_losses.append(loss_value)
                global_step += 1

            train_acc, _ = evaluate(model, dataset, run.batch_size)
            metrics.append(
                EpochMetrics(
                    epoch=epoch,
                    step=global_step,
                    train_loss=float(np.mean(epoch_losses)),
                    train_acc=train_acc,
                    lr=lr_t,
                )
            )
            traces.append(trace_diversity(model, trace_images, run_id=f"epoch{epoch:03d}"))
            epoch += 1
            if stop_accuracy is not None and train_acc >= stop_accuracy:
                break
    finally:
        for p in model.params.values():
            p.hook = None

    _write_metrics_csv(out_dir / "metrics.csv", metrics)
    write_trace_csv(out_dir / "diversity.csv", traces)
    save_checkpoint(model, out_dir / "checkpoint")
    return model, metrics


def _write_metrics_csv(path: Path, metrics: list[EpochMetrics]) -> None:
    lines = ["epoch,step,train_loss,train_acc,lr"]
    for m in metrics:
        lines.append(
            f"{m.epoch},{m.step},{m.train_loss:.8e},{m.train_acc:.6f},{m.lr:.8e}"
        )
    path.write_text("\n".join(lines) + "\n")
