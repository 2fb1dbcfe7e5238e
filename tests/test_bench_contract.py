"""The benchmark's patch points still exist.

``perfbench/tracing.py`` wraps pvg functions and ``Model`` methods by name
and reads each original from the owner's ``__dict__``. A rename in pvg would
otherwise surface only as a ``KeyError`` in the middle of a benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from pvg.net import Model, count_params_flops, tiny_config
from pvg.tensor import DIFFERENTIABLE_OPS, Tensor

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module_name, attr",
    [(m, a) for m, a, _, _ in tracing._FUNCTION_SITES],
    ids=[f"{m}.{a}" for m, a, _, _ in tracing._FUNCTION_SITES],
)
def test_function_site_is_module_attribute(module_name, attr):
    assert attr in vars(importlib.import_module(module_name))


@pytest.mark.parametrize("attr", [a for a, _, _ in tracing._MODEL_SITES])
def test_model_site_is_model_method(attr):
    assert callable(Model.__dict__.get(attr))


def test_operation_brackets_exist():
    # The op brackets wrap these whatever the trace level.
    assert callable(Model.__dict__.get("zero_grad"))
    assert callable(Model.__dict__.get("clamp_activation_params"))
    assert callable(Tensor.__dict__.get("backward"))
    assert "softmax_cross_entropy" in vars(importlib.import_module("pvg.train"))


def test_forward_takes_collect_by_keyword():
    # The eval operation bracket calls the original forward with collect=.
    param = inspect.signature(Model.forward).parameters["collect"]
    assert param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)


def test_traced_forward_attributes_blocks_to_their_stages():
    # The net.block span keeps block_forward's third positional argument as
    # its stage; net.stageN_ms sums the spans by it.
    cfg = tiny_config()
    model = Model(cfg, seed=0)
    images = np.random.default_rng(0).uniform(size=(1, 32, 32, 3)).astype(np.float32)
    with tracing.Recorder("forward", full=True) as rec:
        model.forward(images)
    stages = [span[5] for span in rec.spans if span[0] == "net.block"]
    assert stages == [plan.stage for plan in cfg.blocks()]
    metrics = tracing.layer_metrics(rec, list(DIFFERENTIABLE_OPS), count_params_flops(cfg)[1])
    assert all(metrics[f"net.stage{s}_ms"][0] > 0 for s in range(4))
    assert metrics["trace.ops"][0] == 1
    assert metrics["graph.build_calls"][0] == 6  # five first graphs, one second


def test_traced_train_step_times_every_backward_op():
    # The traced train step wraps every closure of the swept graph and sums
    # the values its nodes still hold; the gradients must not change.
    cfg = tiny_config()
    images = np.random.default_rng(1).uniform(size=(2, 32, 32, 3)).astype(np.float32)
    labels = np.array([0, 1])
    train_mod = importlib.import_module("pvg.train")

    def step(model: Model) -> tuple[set[str], int]:
        model.zero_grad()
        loss = train_mod.softmax_cross_entropy(model.forward(images), labels)
        nodes = tracing._reachable(loss)
        held = sum(node.data.nbytes for node in nodes if node._parents)
        ops = {node.op for node in nodes} - {"leaf"}
        loss.backward()
        model.clamp_activation_params()
        return ops, held

    plain = Model(cfg, seed=0)
    reached, held = step(plain)
    model = Model(cfg, seed=0)
    with tracing.Recorder("train_step", full=True) as rec:
        step(model)
    metrics = tracing.layer_metrics(rec, list(DIFFERENTIABLE_OPS), count_params_flops(cfg)[1])
    assert metrics["trace.ops"][0] == 1
    assert {op for op in reached if metrics[f"tensor.backward.{op}_ms"][0] <= 0} == set()
    assert metrics["tensor.graph_mb_per_step"][0] == held / 2**20 > 0
    for name, t in plain.params.items():
        assert model.params[name].grad.tobytes() == t.grad.tobytes(), name


def test_traced_train_updates_each_parameter_inside_backward(tmp_path):
    # train() updates each parameter from the backward sweep through the
    # name pvg.train looks up, so the optim.adamw site sees one call per
    # parameter, each nested in the step's tensor.backward span.
    from pvg.data import make_two_class_patches
    from pvg.train import OptimizerConfig, RunConfig, ScheduleConfig, train

    run = RunConfig(
        model=tiny_config(),
        optimizer=OptimizerConfig(),
        schedule=ScheduleConfig(total_steps=1),
        batch_size=2,
        output_dir=str(tmp_path),
    )
    with tracing.Recorder("train_step", full=True) as rec:
        model, _ = train(run, make_two_class_patches(2, size=32, seed=0))
    spans = rec.spans
    updates = [span for span in spans if span[0] == "optim.adamw"]
    assert len(updates) == len(model.params)
    assert {spans[span[3]][0] for span in updates} == {"tensor.backward"}
