"""The progressive vision-graph network.

A four-stage pyramid over image patches. Each stage runs trident blocks that
split the channel budget three ways (Chebyshev-local mixing, a first and a
second graph branch), aggregate with MaxE (or a comparison aggregator), fuse,
and follow with a feed-forward transform; both sublayers are residual. Both
graphs are first-order cosine top-k graphs, each on its own channel slice.
The PSGC schedule widens the second branch as blocks deepen by exactly the
channels the local branch gives up; that is how the paper introduces its
second-order similarity. The hand-over is by position only: every block's
fuse and FFN mix all channels, so the channels a block's second graph
scores are not the previous block's local-branch outputs. LayerScale is
applied on the last ``layer_scale_blocks`` blocks of the stack (two by
default).

Graphs are rebuilt every block, per image, from that block's own post-norm
branch features; neighbor selection is structural and carries no gradient.

:class:`Config`, the base of :class:`ModelConfig` and of :mod:`pvg.train`'s
run configs, checks, reads and writes every configuration; :func:`read_json`
is the one JSON parse, of run configs and checkpoint manifests.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import shutil
import typing
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .aggregators import (
    AGGREGATOR_KINDS,
    AGGREGATOR_WEIGHTS,
    baseline_aggregate,
    transform_multadds,
)
from .errors import CheckpointError, ConfigError, DimensionError, NonFiniteError
from .graph import GraphTopology, psgc_schedule, similarity_matrix, topk_neighbors
from .graphlu import EPSILON_FLOOR, graphlu
from .pvgt import read_tensor, write_tensor
from .tensor import (
    GATE_BLOCK,
    Tensor,
    add,
    concat,
    layer_norm,
    linear,
    mul_rowvec,
    narrow,
    offset_mix,
    permute,
    recompute,
    reduce_mean,
    reshape,
)

ACTIVATIONS = ("graphlu", "gelu")
N_STAGES = 4
# Similarity scores per graph-build block. Selection holds the block's scores
# and one work copy of them, so the whole-batch arrays of a large graph never
# exist: 32 images at n = 256 would be 8 MiB each in float32.
GRAPH_BLOCK = 2**18
# Stage sizes far past any buildable model: counting and laying out blocks finish.
MAX_STAGE_DEPTH = 2**10
MAX_STAGE_WIDTH = 2**16
MAX_CLASSES = 2**16
MAX_PARAMS = 2**27  # 512 MiB of float32 parameters; Pyramid ViG-S has 19.76 M
# Stage-0 nodes per image: the graph build's two n x n float32 score arrays
# stay within 128 MiB. 224 / 4 gives the paper's n = 3136.
MAX_NODES = 2**12
# Fixed by the model, not by its config: RGB input (a dataset's images have
# IN_CHANNELS channels too), FFN hidden width per channel, and the granule
# PSGC rounds branch widths to.
IN_CHANNELS = 3
FFN_RATIO = 4
GRANULARITY = 16


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _has_type(value, tp) -> bool:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if origin is tuple:  # JSON has no tuples; a list of the right length will do
        return (
            isinstance(value, (list, tuple))
            and len(value) == len(args)
            and all(map(_has_type, value, args))
        )
    if tp is not bool and isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if tp is float else tp)


def _from_dict(cls, d, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"{where} has unknown keys {unknown}")
    hints = typing.get_type_hints(cls)
    kwargs = dict(d)
    for k, tp in hints.items():
        if k in d and not typing.get_args(tp) and issubclass(tp, Config):
            kwargs[k] = _from_dict(tp, d[k], f"{where} {k!r}")
    return cls(**kwargs)


class Config:
    """Base of the dataclass configs. Construction checks each field against
    its annotation (bool is not an int, an int is a float, list elements are
    checked one by one), then the subclass's ``_check`` checks the values."""

    def __post_init__(self) -> None:
        hints = typing.get_type_hints(type(self))
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, hints[f.name]):
                raise ConfigError(f"{type(self).__name__}.{f.name} must be {f.type}, got {value!r}")
        self._check()

    def _check(self) -> None:
        """Raise :class:`ConfigError` for a value out of range."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Build from JSON-shaped data; a field that is a config is built from
        its own object. At every level, a value that is not an object or an
        unknown key is a :class:`ConfigError` that names it."""
        return _from_dict(cls, d, cls.__name__)


def read_json(path: str | Path, error: type[Exception]):
    """The JSON value in the file at ``path``; ``error`` if it is not UTF-8 JSON or nests too deeply."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise error(f"{path} is not valid UTF-8 JSON: {e}") from e
    except RecursionError as e:
        raise error(f"{path} nests too deeply to parse: {e}") from e


@dataclass(frozen=True)
class BlockPlan:
    """One trident block as its configuration lays it out: its stage, its
    place in the stage and in the whole stack, the side of its node grid, its
    neighbor count (at most n - 1), its (local, first, second) channel
    widths, and whether LayerScale covers it."""

    stage: int
    block: int
    index: int
    grid: int
    k: int
    widths: tuple[int, int, int]
    layer_scaled: bool

    @property
    def prefix(self) -> str:
        return f"stage{self.stage}.block{self.block}."


@dataclass
class ModelConfig(Config):
    stage_depths: list[int] = field(default_factory=lambda: [1, 1, 2, 1])
    stage_widths: list[int] = field(default_factory=lambda: [32, 64, 128, 256])
    stage_k: list[int] = field(default_factory=lambda: [4, 4, 8, 8])
    radius: int = 3
    schedule_start: float = 0.25
    schedule_end: float = 0.75
    aggregator: str = "MaxE"
    activation: str = "graphlu"
    layer_scale_init: float = 1e-5
    layer_scale_blocks: int = 2
    num_classes: int = 2
    image_size: int = 32
    patch_size: int = 2

    def _check(self) -> None:
        for name, seq in (
            ("stage_depths", self.stage_depths),
            ("stage_widths", self.stage_widths),
            ("stage_k", self.stage_k),
        ):
            if len(seq) != N_STAGES:
                raise ConfigError(f"{name} must list {N_STAGES} stages")
        if self.patch_size < 1:
            raise ConfigError("patch_size must be >= 1")
        if not all(1 <= d <= MAX_STAGE_DEPTH for d in self.stage_depths):
            raise ConfigError(f"stage depths must lie in [1, {MAX_STAGE_DEPTH}]")
        if not all(1 <= w <= MAX_STAGE_WIDTH for w in self.stage_widths):
            raise ConfigError(f"stage widths must lie in [1, {MAX_STAGE_WIDTH}]")
        if any(k < 1 for k in self.stage_k):
            raise ConfigError("stage k must be >= 1")
        if any(w % GRANULARITY for w in self.stage_widths):
            raise ConfigError("stage widths must be divisible by the schedule granularity")
        if self.image_size % self.patch_size:
            raise ConfigError("image size must divide by patch size")
        grid = self.image_size // self.patch_size
        if grid * grid > MAX_NODES:
            raise ConfigError(f"{grid * grid:,} stage-0 nodes per image, more than MAX_NODES = {MAX_NODES:,}")
        if grid % (2 ** (N_STAGES - 1)):
            raise ConfigError(
                f"patch grid {grid} cannot be halved {N_STAGES - 1} times"
            )
        last = self.blocks()[-1].grid
        if last < 2:
            raise ConfigError(
                f"image_size {self.image_size} / patch_size {self.patch_size} leaves stage "
                f"{N_STAGES - 1} a {last}x{last} grid; every stage needs at least 2x2 nodes"
            )
        if self.aggregator not in AGGREGATOR_KINDS:
            raise ConfigError(
                f"unknown aggregator {self.aggregator!r}; expected one of {AGGREGATOR_KINDS}"
            )
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if not 2 <= self.num_classes <= MAX_CLASSES:
            raise ConfigError(f"num_classes must lie in [2, {MAX_CLASSES}], got {self.num_classes}")
        if not 0 <= self.radius < grid:  # an offset of a whole grid side reaches no node
            raise ConfigError(f"radius must lie in [0, {grid}), the grid side, got {self.radius}")
        try:
            with np.errstate(over="ignore"):
                finite = bool(np.isfinite(np.float32(self.layer_scale_init)))
        except OverflowError:  # an int beyond float64's range
            finite = False
        if not finite:
            raise ConfigError(
                f"layer_scale_init must be finite in float32, got {self.layer_scale_init}"
            )
        if not 0 <= self.layer_scale_blocks <= self.total_blocks():
            raise ConfigError(
                f"layer_scale_blocks must lie in [0, {self.total_blocks()}]"
            )
        if (params := param_count(self)) > MAX_PARAMS:
            raise ConfigError(f"config has {params:,} parameters, more than MAX_PARAMS = {MAX_PARAMS:,}")

    def blocks(self) -> list[BlockPlan]:
        """Every block in forward order. The one place that derives each
        stage's grid, each block's channel split and effective k, and which
        blocks LayerScale covers: the last ``layer_scale_blocks`` of the
        stack."""
        side = self.image_size // self.patch_size
        scaled_from = self.total_blocks() - self.layer_scale_blocks
        start, end = self.schedule_start, self.schedule_end
        plans: list[BlockPlan] = []
        for s in range(N_STAGES):
            grid = side >> s  # every stage transition halves the grid
            schedule = psgc_schedule(
                self.stage_widths[s], self.stage_depths[s], start, end, GRANULARITY
            )
            for b, widths in enumerate(schedule):
                i = len(plans)
                k = min(self.stage_k[s], grid * grid - 1)
                plans.append(BlockPlan(s, b, i, grid, k, widths, i >= scaled_from))
        return plans

    def total_blocks(self) -> int:
        return sum(self.stage_depths)


def tiny_config(**overrides) -> ModelConfig:
    """The desk-scale reference configuration (32x32 inputs, 1,180,972 params)."""
    return ModelConfig(**overrides)


def deep_tiny_config(n_blocks: int = 21, **overrides) -> ModelConfig:
    """A deliberately deep, narrow stack for over-smoothing probes."""
    if n_blocks < 4:
        raise ConfigError("need at least one block per stage")
    inner = n_blocks - 3
    defaults = dict(
        stage_depths=[1, 1, inner, 1],
        stage_widths=[32, 32, 64, 64],
        stage_k=[4, 4, 8, 8],
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


# ---------------------------------------------------------------------------
# parameter layout
# ---------------------------------------------------------------------------

# A layout entry's initialiser: "he" (normal, std sqrt(2 / rows)), "offsets"
# (normal, std sqrt(1 / rows), one row per local-branch offset), or a number
# to fill the tensor with.
Init = str | float


def he_normal(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """The "he" initialiser: a float64 [rows, cols] normal draw, std sqrt(2 / rows)."""
    return rng.normal(0.0, np.sqrt(2.0 / shape[0]), size=shape)


def param_layout(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], Init]]:
    """Every parameter the configuration implies, as name -> (shape,
    initialiser), in the order :class:`Model` draws them.

    This table is the one enumeration of the parameter set: initialisation
    walks it, checkpoints save and load the files it names, and
    :func:`param_count` sums its sizes.
    """
    cfg = config
    layout: dict[str, tuple[tuple[int, ...], Init]] = {}

    def affine(weight: str, bias: str, rows: int, cols: int) -> None:
        layout[weight] = ((rows, cols), "he")
        layout[bias] = ((cols,), 0.0)

    patch_in = cfg.patch_size * cfg.patch_size * IN_CHANNELS
    affine("stem.weight", "stem.bias", patch_in, cfg.stage_widths[0])

    n_offsets = (2 * cfg.radius + 1) ** 2
    for plan in cfg.blocks():
        s, pre = plan.stage, plan.prefix
        c = cfg.stage_widths[s]
        if s and not plan.block:  # the 2x2 merge into stage s
            d = f"downsample{s - 1}."
            affine(d + "weight", d + "bias", 4 * cfg.stage_widths[s - 1], c)
        local_c, first_c, second_c = plan.widths
        layout[pre + "norm1.gamma"] = ((c,), 1.0)
        layout[pre + "norm1.beta"] = ((c,), 0.0)
        if local_c:
            layout[pre + "local.alpha"] = ((n_offsets, local_c), "offsets")
            layout[pre + "local.pos_bias"] = ((n_offsets, local_c), 0.0)
        for branch, width in (("first", first_c), ("second", second_c)):
            if width:
                for wname, (rows, cols, _) in AGGREGATOR_WEIGHTS[cfg.aggregator].items():
                    layout[f"{pre}{branch}.{wname}"] = ((rows * width, cols * width), "he")
        if cfg.activation == "graphlu":
            layout[pre + "act1.epsilon"] = ((1,), 0.0)
            layout[pre + "act2.epsilon"] = ((1,), 0.0)
        affine(pre + "fuse.weight", pre + "fuse.bias", c, c)
        layout[pre + "norm2.gamma"] = ((c,), 1.0)
        layout[pre + "norm2.beta"] = ((c,), 0.0)
        affine(pre + "ffn.w1", pre + "ffn.b1", c, FFN_RATIO * c)
        affine(pre + "ffn.w2", pre + "ffn.b2", FFN_RATIO * c, c)
        if plan.layer_scaled:
            layout[pre + "scale1"] = ((c,), cfg.layer_scale_init)
            layout[pre + "scale2"] = ((c,), cfg.layer_scale_init)
    affine("head.weight", "head.bias", cfg.stage_widths[-1], cfg.num_classes)
    return layout


def param_count(config: ModelConfig) -> int:
    """The number of parameter values the configuration implies."""
    return sum(math.prod(shape) for shape, _ in param_layout(config).values())


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


class Model:
    """Parameter container plus the forward computation.

    Parameters live in a flat name -> Tensor dict drawn from the seed in
    :func:`param_layout` order, which is what makes checkpoints, counting,
    and reproducibility straightforward. ``params`` is their only home: the
    forward looks every tensor up by name per call, so replacing an entry
    takes effect on the next forward.
    """

    def __init__(
        self,
        config: ModelConfig,
        seed: int = 0,
        dtype=np.float32,
        params: dict[str, Tensor] | None = None,
    ):
        self.config = config
        self.dtype = dtype
        self.plans = {(p.stage, p.block): p for p in config.blocks()}
        if params is None:
            self.params = self._init_params(np.random.default_rng(seed))
        else:
            self.params = params

    def _init_params(self, rng: np.random.Generator) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        for name, (shape, init) in param_layout(self.config).items():
            if init == "he":
                arr = he_normal(rng, shape)
            elif init == "offsets":
                arr = rng.normal(0.0, np.sqrt(1.0 / shape[0]), size=shape)
            else:
                arr = np.full(shape, init)
            params[name] = Tensor(arr.astype(self.dtype), requires_grad=True)
        return params

    # -- housekeeping --------------------------------------------------------

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def detached(self) -> "Model":
        """The same parameter buffers, not copied, as leaves that need no
        gradient: a forward of the result records no graph."""
        params = {name: Tensor(t.data) for name, t in self.params.items()}
        return Model(self.config, dtype=self.dtype, params=params)

    def clamp_activation_params(self) -> None:
        for name, t in self.params.items():
            if name.endswith(".epsilon"):
                np.maximum(t.data, EPSILON_FLOOR, out=t.data)

    # -- graph construction ---------------------------------------------------

    def _build_graphs(self, feats: np.ndarray, k: int) -> GraphTopology:
        """Top-k selection within each image of [batch, n, c] features,
        scored and selected a block of images at a time: a block's n x n
        scores fill at most :data:`GRAPH_BLOCK` elements (one image if a
        single image's exceed it).

        Non-finite features, as a diverging run produces, raise
        :class:`NonFiniteError` here rather than scoring NaN.
        """
        if not np.all(np.isfinite(feats)):
            raise NonFiniteError("non-finite node features reached the graph build")
        batch, n, _ = feats.shape
        step = max(1, GRAPH_BLOCK // (n * n))
        # One pair of score and work buffers serves every block.
        buffers = np.empty((2, min(step, batch), n, n), np.result_type(feats.dtype, np.float32))
        topos = []
        for i in range(0, batch, step):
            scores, work = buffers[:, : min(step, batch - i)]
            scores = similarity_matrix(feats[i : i + step], out=scores)
            topos.append(topk_neighbors(scores, k, work=work))
        return GraphTopology(
            neighbor_idx=np.concatenate([t.neighbor_idx for t in topos]),
            neighbor_sim=np.concatenate([t.neighbor_sim for t in topos]),
        )

    # -- forward ---------------------------------------------------------------

    def block_forward(
        self, h: Tensor, s: int, b: int, batch: int, collect: dict | None = None
    ) -> Tensor:
        cfg = self.config
        P = self.params
        plan = self.plans[s, b]
        pre = plan.prefix
        local_c, first_c, second_c = plan.widths
        n = plan.grid * plan.grid
        act1 = act2 = None  # a gate without a relaxation is GELU
        if cfg.activation == "graphlu":
            act1, act2 = P[pre + "act1.epsilon"], P[pre + "act2.epsilon"]

        z = layer_norm(h, P[pre + "norm1.gamma"], P[pre + "norm1.beta"])
        branch_outs: list[Tensor] = []

        if local_c:
            x_local = narrow(z, 1, 0, local_c)
            grid = (plan.grid, plan.grid)
            branch_outs.append(
                offset_mix(x_local, P[pre + "local.alpha"], grid, bias=P[pre + "local.pos_bias"])
            )

        start = local_c
        for branch, width in (("first", first_c), ("second", second_c)):
            if not width:
                continue
            x = narrow(z, 1, start, width)
            start += width
            topo = self._build_graphs(x.data.reshape(batch, n, width), plan.k)
            # Each image's node indices shift to its rows of the batch.
            rows = topo.neighbor_idx + (np.arange(batch) * n)[:, None, None]
            params = [P[f"{pre}{branch}.{w}"] for w in AGGREGATOR_WEIGHTS[cfg.aggregator]]
            # The aggregate and its gate keep only their inputs until backward,
            # which runs them again; the graph build is not re-run.
            branch_fn = functools.partial(_graph_branch, cfg.aggregator, rows.reshape(batch * n, plan.k))
            branch_outs.append(recompute(branch_fn, [x, *params] + ([] if act1 is None else [act1])))
            if collect is not None and "graphs" in collect:
                collect["graphs"].append((plan.index, branch, topo))

        fused = branch_outs[0] if len(branch_outs) == 1 else concat(branch_outs, axis=1)
        y = linear(fused, P[pre + "fuse.weight"], P[pre + "fuse.bias"])
        if plan.layer_scaled:
            y = mul_rowvec(y, P[pre + "scale1"])
        h = add(h, y)
        # Values that no backward reads go before the FFN allocates its own.
        del z, branch_outs, fused, y

        names = ("norm2.gamma", "norm2.beta", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")
        f = _ffn_sublayer(h, [P[pre + name] for name in names] + ([] if act2 is None else [act2]))
        if plan.layer_scaled:
            f = mul_rowvec(f, P[pre + "scale2"])
        h = add(h, f)

        if collect is not None and "blocks" in collect:
            collect["blocks"].append((plan.index, h.data.reshape(batch, n, -1).copy()))
        return h

    def forward(self, images, collect: dict | None = None) -> Tensor:
        """Logits [batch, num_classes] for images [batch, h, w, channels].

        ``collect`` optionally receives intermediate structure: pass a dict
        with a ``"blocks"`` and/or ``"graphs"`` key mapped to empty lists.
        Blocks arrive as (block index, [batch, n, c] features), graphs as
        (block index, branch, batched :class:`GraphTopology`).
        """
        cfg = self.config
        P = self.params
        x = images if isinstance(images, Tensor) else Tensor(np.asarray(images, dtype=self.dtype))
        if x.data.ndim != 4 or x.shape[1:] != (cfg.image_size, cfg.image_size, IN_CHANNELS):
            raise DimensionError(
                f"expected [batch, {cfg.image_size}, {cfg.image_size}, {IN_CHANNELS}] images, "
                f"got {x.shape}"
            )
        batch = x.shape[0]
        if batch == 0:
            raise DimensionError("forward needs at least one image")
        h = node_embedding(x, P["stem.weight"], P["stem.bias"], cfg.patch_size)

        for plan in self.plans.values():
            s = plan.stage
            if s and not plan.block:  # merge 2x2 nodes of stage s - 1 into one
                side = 2 * plan.grid
                h = node_embedding(
                    reshape(h, (batch, side, side, cfg.stage_widths[s - 1])),
                    P[f"downsample{s - 1}.weight"],
                    P[f"downsample{s - 1}.bias"],
                    2,
                )
            h = self.block_forward(h, s, plan.block, batch, collect=collect)

        c_last = cfg.stage_widths[-1]
        pooled = reduce_mean(reshape(h, (batch, h.shape[0] // batch, c_last)), axis=1)
        return linear(pooled, P["head.weight"], P["head.bias"])


def _graph_branch(kind: str, rows: np.ndarray, x: Tensor, *params: Tensor) -> Tensor:
    """A global branch after its graph build: the ``kind`` aggregate of ``x``
    over the [nodes, k] neighbour ``rows``, gated. ``params`` are the kind's
    weights in :data:`AGGREGATOR_WEIGHTS` order, then the gate's epsilon if
    it has one (GELU if not)."""
    names = AGGREGATOR_WEIGHTS[kind]
    eps = params[len(names)] if len(params) > len(names) else None
    return graphlu(baseline_aggregate(kind, x, rows, dict(zip(names, params))), eps)


def _ffn_sublayer(h: Tensor, params: list[Tensor]) -> Tensor:
    """:func:`_ffn` on rows ``h`` with ``params`` in its argument order, as
    one :func:`recompute` node per row block. A block keeps only its input
    rows until backward runs it again, and holds GATE_BLOCK entries of the
    hidden width (``w1``'s columns), one row at least."""
    rows, step = h.shape[0], max(1, GATE_BLOCK // params[2].shape[1])
    blocks = [recompute(_ffn, [narrow(h, 0, lo, min(step, rows - lo)), *params]) for lo in range(0, rows, step)]
    return blocks[0] if len(blocks) == 1 else concat(blocks, axis=0)


def _ffn(h: Tensor, gamma: Tensor, beta: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, eps=None) -> Tensor:
    """A block's feed-forward sublayer on rows ``h``: normalised, widened by
    ``w1``, gated (GELU without ``eps``) and mapped back by ``w2``."""
    return linear(graphlu(linear(layer_norm(h, gamma, beta), w1, b1), eps), w2, b2)


# ---------------------------------------------------------------------------
# stem and stage transition
# ---------------------------------------------------------------------------


def node_embedding(images, weight: Tensor, bias: Tensor, patch_size: int) -> Tensor:
    """Project non-overlapping p x p patches of [batch, h, w, c] images to
    node vectors [batch * n, out], image-major and row-major within an image.

    This is both the stem and, with p = 2 over a stage's node grid, the
    transition that merges 2x2 neighborhoods between stages."""
    img = images if isinstance(images, Tensor) else Tensor(np.asarray(images))
    if img.data.ndim != 4:
        raise DimensionError("node_embedding expects [batch, h, w, c] images")
    batch, h, w, cin = img.shape
    if h % patch_size or w % patch_size:
        raise ConfigError(f"{h}x{w} image not divisible by patch {patch_size}")
    gh, gw = h // patch_size, w // patch_size
    t = reshape(img, (batch, gh, patch_size, gw, patch_size, cin))
    t = permute(t, (0, 1, 3, 2, 4, 5))
    t = reshape(t, (batch * gh * gw, patch_size * patch_size * cin))
    return linear(t, weight, bias)


# ---------------------------------------------------------------------------
# parameter / mult-add accounting
# ---------------------------------------------------------------------------


def _local_pair_count(grid: int, r: int) -> int:
    # Number of valid (node, offset) pairs on a square grid: for each axis
    # offset d the in-range span is grid - |d|, and the two axes factor.
    span = sum(grid - abs(d) for d in range(-r, r + 1) if abs(d) < grid)
    return span * span


def count_params_flops(config: ModelConfig) -> tuple[int, int]:
    """Parameter count and analytic per-image mult-adds.

    The parameter count is :func:`param_count`. Mult-adds
    cover linear maps, local mixing, similarity construction, and LayerScale;
    normalizations, activations, and pooling are excluded by convention.
    """
    cfg = config
    params = param_count(cfg)
    plans = cfg.blocks()
    patch_in = cfg.patch_size * cfg.patch_size * IN_CHANNELS
    flops = plans[0].grid ** 2 * patch_in * cfg.stage_widths[0]
    for plan in plans:
        s = plan.stage
        c = cfg.stage_widths[s]
        n = plan.grid * plan.grid
        if s and not plan.block:  # the 2x2 merge: n nodes, each from 4 of stage s - 1
            flops += n * 4 * cfg.stage_widths[s - 1] * c
        local_c, first_c, second_c = plan.widths
        if local_c:
            flops += _local_pair_count(plan.grid, cfg.radius) * local_c
        for width in (first_c, second_c):  # a width of 0 adds nothing
            flops += transform_multadds(cfg.aggregator, width, n, plan.k)
        # Similarity: each global branch scores n^2 pairs over its own width.
        flops += n * n * (first_c + second_c)
        flops += n * c * c  # fusion
        flops += 2 * n * c * FFN_RATIO * c
        if plan.layer_scaled:
            flops += 2 * n * c
    flops += cfg.stage_widths[-1] * cfg.num_classes
    return params, flops


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"


def param_file(name: str) -> str:
    """The file, inside a checkpoint directory, that holds parameter ``name``."""
    return name.replace(".", "__") + ".pvgt"


def save_checkpoint(model: Model, ckpt_dir: str | Path) -> None:
    """Write each parameter to its :func:`param_file` and the configuration
    alone to the manifest, ``{"config": ...}``: it fixes the file set.

    PVGT stores float32 only, so a model of any other dtype raises
    :class:`CheckpointError` before anything is written. The files go to a
    temporary directory beside ``ckpt_dir`` that is renamed into place once
    complete: a failed save leaves any earlier checkpoint there intact and
    no temporary directory behind. Only an earlier checkpoint or an empty
    directory is replaced; anything else at ``ckpt_dir`` raises
    :class:`CheckpointError`.
    """
    ckpt_dir = Path(ckpt_dir)
    dtypes = sorted({t.data.dtype.name for t in model.params.values()} - {"float32"})
    if dtypes:
        raise CheckpointError(
            f"checkpoints store float32 only; the model holds {', '.join(dtypes)} parameters"
        )
    if ckpt_dir.exists() and not (
        (ckpt_dir / MANIFEST_NAME).is_file()
        or (ckpt_dir.is_dir() and not any(ckpt_dir.iterdir()))
    ):
        raise CheckpointError(f"{ckpt_dir} is neither a checkpoint nor empty; not replacing it")
    ckpt_dir.parent.mkdir(parents=True, exist_ok=True)
    tmp = ckpt_dir.with_name(f".{ckpt_dir.name}.{uuid.uuid4().hex}.tmp")
    old = tmp.with_suffix(".old")
    tmp.mkdir()
    try:
        for name, t in model.params.items():
            write_tensor(tmp / param_file(name), t.data)
        manifest = {"config": model.config.to_dict()}
        (tmp / MANIFEST_NAME).write_text(json.dumps(manifest, indent=1, sort_keys=True))
        if ckpt_dir.exists():
            ckpt_dir.rename(old)
        try:
            tmp.rename(ckpt_dir)
        except BaseException:
            if old.exists():
                old.rename(ckpt_dir)
            raise
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if old.exists():
        shutil.rmtree(old)


def load_checkpoint(ckpt_dir: str | Path) -> Model:
    """Rebuild a model from a checkpoint directory, reading each parameter
    of the manifest's configuration's :func:`param_layout` from its
    :func:`param_file`. A manifest key besides ``config``, a ``.pvgt`` file
    that names no such parameter, a missing file or a wrong shape raises
    :class:`CheckpointError`. Nothing is drawn at random."""
    ckpt_dir = Path(ckpt_dir)
    manifest_path = ckpt_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointError(f"no {MANIFEST_NAME} in {ckpt_dir}")
    manifest = read_json(manifest_path, CheckpointError)
    if not (
        isinstance(manifest, dict)
        and list(manifest) == ["config"]
        and isinstance(manifest["config"], dict)
    ):
        raise CheckpointError(f'{manifest_path} must be an object holding only a "config" object')
    config = ModelConfig.from_dict(manifest["config"])
    layout = param_layout(config)
    stray = sorted({p.name for p in ckpt_dir.glob("*.pvgt")} - {param_file(name) for name in layout})
    if stray:
        raise CheckpointError(f"{ckpt_dir} holds {len(stray)} files of no parameter, first {stray[0]}")
    params: dict[str, Tensor] = {}
    for name, (shape, _) in layout.items():
        path = ckpt_dir / param_file(name)
        try:
            arr = read_tensor(path)
        except FileNotFoundError:
            raise CheckpointError(f"{ckpt_dir} has no file {path.name} for {name}") from None
        if arr.shape != shape:
            raise CheckpointError(
                f"{name}: checkpoint shape {arr.shape} != config shape {shape}"
            )
        params[name] = Tensor(arr, requires_grad=True)
    return Model(config, params=params)
