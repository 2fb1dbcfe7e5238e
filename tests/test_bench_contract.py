"""The benchmark's patch points still exist.

``perfbench/tracing.py`` wraps pvg functions and ``Model`` methods by name
and reads each original from the owner's ``__dict__``. A rename in pvg would
otherwise surface only as a ``KeyError`` in the middle of a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from pvg.net import Model
from pvg.tensor import Tensor

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
