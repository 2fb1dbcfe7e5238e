"""Span recording around pvg's public calls, installed from outside.

Nothing in ``src/pvg`` knows about this module. Wrappers are bound over the
names that pvg's own modules look up at call time: ``pvg.net`` imports
``topk_neighbors``, ``offset_mix`` and friends with ``from ... import``, so the
wrapper must replace ``pvg.net.topk_neighbors``, not ``pvg.graph``'s. Modules
are resolved with ``importlib.import_module`` because ``pvg/__init__.py``
re-exports the ``train`` function over the ``pvg.train`` submodule name.

Two modes share one recorder:

* untraced (``full=False``): only the operation brackets are installed, which
  the end-to-end metrics need (a train step runs from ``Model.zero_grad`` to
  the end of ``Model.clamp_activation_params``; an eval operation is one
  ``Model.forward``), plus the per-step loss and the logits finiteness check;
* traced (``full=True``): every layer boundary below, ``Tensor.backward``
  with a per-node closure wrapper keyed by the node's ``op`` tag, and the
  subnormal-gradient counter.

Spans are kept in memory as flat lists and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

_F32_TINY = float(np.finfo(np.float32).tiny)
OP = "op"


def _topk_info(args):
    return np.shape(getattr(args[0], "data", args[0]))[0]


def _write_info(args):
    return int(np.asarray(args[1]).size) * 4


def _block_info(args):
    return args[2]  # block_forward(self, h, s, ...): the stage index


def _forward_info(args):
    return int(np.shape(getattr(args[1], "data", args[1]))[0])


# (module, attribute, span name, info) for plain functions looked up by pvg
# code; ``info`` maps the call's arguments to a number kept on the span.
_FUNCTION_SITES = [
    ("pvg.net", "topk_neighbors", "graph.topk", _topk_info),
    ("pvg.net", "offset_mix", "graph.local", None),
    ("pvg.net", "baseline_aggregate", "aggregators", None),
    ("pvg.net", "graphlu", "graphlu", None),
    ("pvg.net", "layer_norm", "net.layer_norm", None),
    ("pvg.net", "read_tensor", "pvgt.read", None),
    ("pvg.net", "write_tensor", "pvgt.write", _write_info),
    ("pvg.data", "read_tensor", "pvgt.read", None),
    ("pvg.data", "write_tensor", "pvgt.write", _write_info),
    ("pvg.train", "adamw_step", "optim.adamw", None),
    ("pvg.train", "trace_diversity", "diagnostics.trace", None),
    ("pvg.train", "save_checkpoint", "net.save_checkpoint", None),
    ("pvg.train", "load_checkpoint", "net.load_checkpoint", None),
    ("pvg.cli", "load_checkpoint", "net.load_checkpoint", None),
    ("pvg.cli", "load_dataset", "data.load", None),
]

# Methods of pvg.net.Model, wrapped on the class.
_MODEL_SITES = [
    ("forward", "net.forward", _forward_info),
    ("block_forward", "net.block", _block_info),
    ("_build_graphs", "graph.build", None),
]


class Recorder:
    """In-memory span store plus the monkey-patching that feeds it.

    A span is ``[name, start_ns, end_ns, parent, op_index, info]``; ``parent``
    and ``op_index`` are indices into ``spans`` (or -1). Every span opened
    while an operation is running carries that operation's index.
    """

    def __init__(self, op_kind: str, full: bool):
        self.op_kind = op_kind  # "train_step" or "forward"
        self.full = full
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []
        self.losses: list[float] = []
        self.nonfinite_logits = 0
        self.grad_entries: dict[str, int] = defaultdict(int)
        self.subnormal_entries: dict[str, int] = defaultdict(int)
        self.graph_nodes: list[int] = []
        self.graph_bytes: list[int] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, info=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._op, info])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        # A wrapped call that raised may leave children open; unwind to idx.
        while self._stack and self._stack.pop() != idx:
            pass

    def _open_op(self) -> None:
        self._op = self.open(OP)
        self.spans[self._op][4] = self._op

    def _close_op(self) -> None:
        self.close(self._op)
        self._op = -1

    def op_durations_ms(self) -> list[float]:
        return [(s[2] - s[1]) / 1e6 for s in self.spans if s[0] == OP and s[2]]

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, fn, name: str, info_fn=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(name, info_fn(args) if info_fn else None)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder already installed")
        net = importlib.import_module("pvg.net")
        train_mod = importlib.import_module("pvg.train")
        tensor_mod = importlib.import_module("pvg.tensor")
        model_cls = net.Model
        rec = self

        if self.full:
            for module_name, attr, name, info_fn in _FUNCTION_SITES:
                module = importlib.import_module(module_name)
                self._patch(module, attr, self._span_wrapper(getattr(module, attr), name, info_fn))
            for attr, name, info_fn in _MODEL_SITES:
                if attr == "forward" and self.op_kind == "forward":
                    continue  # wrapped below together with the op bracket
                self._patch(model_cls, attr, self._span_wrapper(getattr(model_cls, attr), name, info_fn))
            self._patch(tensor_mod.Tensor, "backward", self._traced_backward(tensor_mod.Tensor.backward))

        if self.op_kind == "train_step":
            zero_grad = model_cls.zero_grad
            clamp = model_cls.clamp_activation_params
            loss_fn = train_mod.softmax_cross_entropy

            @functools.wraps(zero_grad)
            def zero_grad_wrapper(model):
                rec._open_op()
                return zero_grad(model)

            @functools.wraps(clamp)
            def clamp_wrapper(model):
                try:
                    return clamp(model)
                finally:
                    if rec._op >= 0:
                        rec._close_op()

            @functools.wraps(loss_fn)
            def loss_wrapper(logits, labels):
                out = loss_fn(logits, labels)
                if rec._op >= 0:
                    rec.losses.append(float(out.data.reshape(-1)[0]))
                return out

            self._patch(model_cls, "zero_grad", zero_grad_wrapper)
            self._patch(model_cls, "clamp_activation_params", clamp_wrapper)
            self._patch(train_mod, "softmax_cross_entropy", loss_wrapper)
        else:
            forward = model_cls.forward

            @functools.wraps(forward)
            def forward_op(model, images, collect=None):
                rec._open_op()
                inner = rec.open("net.forward", _forward_info((model, images))) if rec.full else -1
                try:
                    out = forward(model, images, collect=collect)
                finally:
                    if inner >= 0:
                        rec.close(inner)
                    rec._close_op()
                if not np.all(np.isfinite(out.data)):
                    rec.nonfinite_logits += 1
                if rec.full:
                    rec._record_graph(_reachable(out))
                return out

            self._patch(model_cls, "forward", forward_op)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- backward ------------------------------------------------------------

    def _record_graph(self, nodes: list) -> None:
        """Count autograd nodes, parameters included, and the bytes of the
        intermediate values they keep alive."""
        self.graph_nodes.append(len(nodes))
        self.graph_bytes.append(sum(n.data.nbytes for n in nodes if n._parents))

    def _traced_backward(self, backward):
        rec = self

        @functools.wraps(backward)
        def wrapper(tensor, seed=None):
            nodes = _reachable(tensor)
            rec._record_graph(nodes)
            for node in nodes:
                if node._backward is not None:
                    node._backward = rec._timed_closure(node._backward, node.op)
            idx = rec.open("tensor.backward")
            try:
                return backward(tensor, seed)
            finally:
                rec.close(idx)

        return wrapper

    def _timed_closure(self, fn, op: str):
        rec = self
        name = "tensor.backward." + op

        def timed(g):
            # Counted outside the span so the per-op time excludes the count.
            rec.grad_entries[op] += g.size
            rec.subnormal_entries[op] += int(np.count_nonzero((np.abs(g) < _F32_TINY) & (g != 0)))
            idx = rec.open(name)
            try:
                fn(g)
            finally:
                rec.close(idx)

        return timed


def _reachable(root) -> list:
    """Every autograd node ``Tensor.backward`` would visit from ``root``."""
    seen: set[int] = set()
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(p for p in node._parents if p.requires_grad)
    return out


# ---------------------------------------------------------------------------
# per-layer summary
# ---------------------------------------------------------------------------

# Spans timed inside operations. Each gets ``<name>_ms`` (inclusive),
# ``<name>_self_ms`` (minus wrapped children) and ``<name>_calls``, all per
# operation.
_IN_OP_LAYERS = [
    "net.forward",
    "net.block",
    "net.layer_norm",
    "graph.build",
    "graph.topk",
    "graph.local",
    "tensor.backward",
    "optim.adamw",
]
# Spans that run outside operations (per-epoch passes, file I/O); their
# time is amortised over the operations of the traced window.
_ANY_LAYERS = [
    "diagnostics.trace",
    "net.save_checkpoint",
    "net.load_checkpoint",
    "pvgt.read",
    "pvgt.write",
    "data.load",
]


def layer_metrics(rec: Recorder, ops_names: list[str], multadds_per_image: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics from one traced recorder, as
    ``{name: (value, unit)}``. ``ops_names`` are the ``op`` tags of
    ``DIFFERENTIABLE_OPS``; each gets a backward time, zero when unused."""
    spans = rec.spans
    n = len(spans)
    child = [0] * n
    under_trace = [False] * n
    for i, (name, start, end, parent, _op, _info) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            under_trace[i] = under_trace[parent] or spans[parent][0] == "diagnostics.trace"

    n_ops = sum(1 for s in spans if s[0] == OP)
    if not n_ops:
        raise RuntimeError("traced window recorded no operations")
    incl: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    any_incl: dict[str, float] = defaultdict(float)
    any_calls: dict[str, int] = defaultdict(int)
    stage = defaultdict(float)
    topk_nodes: list[int] = []
    forward_images = 0
    epoch_eval = 0.0
    written = 0
    for i, (name, start, end, parent, op, info) in enumerate(spans):
        dur = end - start
        any_incl[name] += dur
        any_calls[name] += 1
        if name == "pvgt.write":
            written += info
        if op < 0:
            if name == "net.forward" and not under_trace[i]:
                epoch_eval += dur
            continue
        incl[name] += dur
        self_t[name] += dur - child[i]
        calls[name] += 1
        if name == "net.block":
            stage[info] += dur
        elif name == "graph.topk":
            topk_nodes.append(info)
        elif name == "net.forward":
            forward_images += info

    def per_op_ms(ns: float) -> float:
        return ns / 1e6 / n_ops

    m: dict[str, tuple[float, str]] = {}
    m["trace.ops"] = (float(n_ops), "count")
    m["trace.op_ms"] = (per_op_ms(incl[OP]), "ms")
    m["trace.unattributed_ms"] = (per_op_ms(self_t[OP]), "ms")
    m["trace.spans_per_op"] = (len(spans) / n_ops, "count")
    for name in _IN_OP_LAYERS:
        m[name + "_ms"] = (per_op_ms(incl[name]), "ms")
        m[name + "_self_ms"] = (per_op_ms(self_t[name]), "ms")
        m[name + "_calls"] = (calls[name] / n_ops, "count")
    for s in range(4):
        m[f"net.stage{s}_ms"] = (per_op_ms(stage[s]), "ms")
    fwd_s = incl["net.forward"] / 1e9
    m["net.gflops"] = (2.0 * multadds_per_image * forward_images / fwd_s / 1e9 if fwd_s else 0.0, "GFLOP/s")
    m["graph.similarity_ms"] = (per_op_ms(self_t["graph.build"]), "ms")
    m["graph.topk_nodes_mean"] = (float(np.mean(topk_nodes)) if topk_nodes else 0.0, "count")
    m["aggregators.ms"] = (per_op_ms(incl["aggregators"]), "ms")
    m["aggregators.calls"] = (calls["aggregators"] / n_ops, "count")
    m["graphlu.ms"] = (per_op_ms(incl["graphlu"]), "ms")
    m["graphlu.calls"] = (calls["graphlu"] / n_ops, "count")
    for op in ops_names:
        m[f"tensor.backward.{op}_ms"] = (per_op_ms(incl["tensor.backward." + op]), "ms")
    m["tensor.nodes_per_step"] = (float(np.mean(rec.graph_nodes)) if rec.graph_nodes else 0.0, "count")
    m["tensor.graph_mb_per_step"] = (
        float(np.mean(rec.graph_bytes)) / 2**20 if rec.graph_bytes else 0.0,
        "MB",
    )
    entries = sum(rec.grad_entries.values())
    subnormal = sum(rec.subnormal_entries.values())
    m["tensor.grad_entries"] = (entries / n_ops, "count")
    m["tensor.subnormal_entries"] = (subnormal / n_ops, "count")
    m["tensor.subnormal_share"] = (subnormal / entries if entries else 0.0, "ratio")
    for op in sorted(rec.grad_entries):
        if rec.subnormal_entries[op]:
            m[f"tensor.subnormal_share.{op}"] = (
                rec.subnormal_entries[op] / rec.grad_entries[op],
                "ratio",
            )
    m["train.epoch_eval_ms"] = (per_op_ms(epoch_eval), "ms")
    for name in _ANY_LAYERS:
        m[name + "_ms"] = (per_op_ms(any_incl[name]), "ms")
        m[name + "_calls"] = (any_calls[name] / n_ops, "count")
    m["pvgt.mb_written"] = (written / 2**20 / n_ops, "MB")
    return m
