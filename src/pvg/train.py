"""Desk-scale training and evaluation harness.

One seed fixes everything: parameter init, batch shuffling, and therefore the
entire metrics CSV. Runs write ``metrics.csv`` (one row per epoch), a
per-epoch diversity trace, and a final checkpoint directory.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset
from .diagnostics import DiversityTrace, trace_diversity, write_trace_csv
from .errors import ConfigError, DegenerateInputError, NonFiniteError
from .net import Model, ModelConfig, check_field_types, load_checkpoint, save_checkpoint
from .optim import AdamWState, adamw_step, cosine_lr, decay_mask
from .tensor import softmax_cross_entropy


@dataclass
class OptimizerConfig:
    lr: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 0.05

    def __post_init__(self) -> None:
        check_field_types(self)
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and non-negative, got {self.lr}")
        if not all(0 <= beta < 1 for beta in self.betas):
            raise ConfigError(f"betas must lie in [0, 1), got {self.betas}")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(
                f"weight_decay must be finite and non-negative, got {self.weight_decay}"
            )
        self.betas = tuple(self.betas)  # type: ignore[assignment]


@dataclass
class ScheduleConfig:
    warmup_steps: int = 0
    total_steps: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.total_steps < self.warmup_steps:
            raise ConfigError("total_steps must be >= warmup_steps")


def _check_batch_size(batch_size: int) -> None:
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    batch_size: int = 32
    seed: int = 0
    output_dir: str = "run"

    def __post_init__(self) -> None:
        check_field_types(self)
        _check_batch_size(self.batch_size)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        """Build from plain data; a wrongly typed field is a ConfigError."""
        if not isinstance(d, dict):
            raise ConfigError(f"run config must be an object, got {type(d).__name__}")
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown run config keys: {sorted(unknown)}")
        d = dict(d)
        try:
            if "model" in d:
                d["model"] = ModelConfig.from_dict(d["model"])
            if "optimizer" in d:
                d["optimizer"] = OptimizerConfig(**d["optimizer"])
            if "schedule" in d:
                d["schedule"] = ScheduleConfig(**d["schedule"])
            return RunConfig(**d)
        except TypeError as e:
            raise ConfigError(f"wrongly typed config field: {e}") from e

    @staticmethod
    def from_json(path: str | Path) -> "RunConfig":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path} is not valid JSON: {e}") from e
        return RunConfig.from_dict(data)


@dataclass
class EpochMetrics:
    epoch: int
    step: int
    train_loss: float
    train_acc: float
    lr: float


def _forward_pass_metrics(model: Model, dataset: Dataset, batch_size: int) -> tuple[float, float]:
    """Mean loss and top-1 accuracy over a split, forward only."""
    n = len(dataset)
    if n == 0:
        raise DegenerateInputError(f"the {dataset.split} split holds no images")
    total_loss = 0.0
    correct = 0
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        images = dataset.images[start:stop]
        labels = dataset.labels[start:stop]
        logits = model.forward(images)
        loss = softmax_cross_entropy(logits, labels)
        total_loss += loss.item() * (stop - start)
        correct += int(np.sum(np.argmax(logits.data, axis=1) == labels))
        # No backward consumes this graph; drop it before the next forward
        # so the pass holds one batch's graph, not two.
        del logits, loss
    return total_loss / n, correct / n


def evaluate(model_or_dir, dataset: Dataset, batch_size: int = 32) -> tuple[float, float]:
    """Top-1 accuracy and mean loss of a model (or checkpoint dir) on a split."""
    _check_batch_size(batch_size)
    model = model_or_dir if isinstance(model_or_dir, Model) else load_checkpoint(model_or_dir)
    loss, acc = _forward_pass_metrics(model, dataset, batch_size)
    return acc, loss


def train(
    run: RunConfig,
    dataset: Dataset,
    trace_batch: int = 8,
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
    if isinstance(trace_batch, bool) or not isinstance(trace_batch, (int, np.integer)) or trace_batch < 1:
        raise ConfigError(f"trace_batch must be an integer >= 1, got {trace_batch!r}")
    if stop_accuracy is not None and not 0.0 <= stop_accuracy <= 1.0:
        raise ConfigError(f"stop_accuracy must lie in [0, 1], got {stop_accuracy!r}")
    out_dir = Path(run.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    model = Model(run.model, seed=run.seed)
    rng = np.random.default_rng(run.seed)
    wd_mask = decay_mask(model.params)
    state = AdamWState()

    n = len(dataset)

    metrics: list[EpochMetrics] = []
    traces: list[DiversityTrace] = []
    trace_images = dataset.images[:trace_batch]

    global_step = 0
    epoch = 0
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
            try:
                logits = model.forward(images)
            except NonFiniteError as err:
                raise NonFiniteError(f"{err} at step {global_step}") from err
            loss = softmax_cross_entropy(logits, labels)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise NonFiniteError(f"non-finite loss at step {global_step}")
            loss.backward()

            lr_t = cosine_lr(
                global_step,
                run.optimizer.lr,
                run.schedule.warmup_steps,
                total_steps,
            )
            # Built in the call, so no name keeps this step's gradients alive
            # through the next step's forward and backward.
            adamw_step(
                model.params,
                {name: t.grad for name, t in model.params.items() if t.grad is not None},
                state,
                lr_t,
                betas=run.optimizer.betas,
                weight_decay=run.optimizer.weight_decay,
                apply_decay=wd_mask,
            )
            model.clamp_activation_params()
            epoch_losses.append(loss_value)
            global_step += 1

        _, train_acc = _forward_pass_metrics(model, dataset, run.batch_size)
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
