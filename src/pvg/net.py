"""The progressive vision-graph network.

A four-stage pyramid over image patches. Each stage runs trident blocks that
split the channel budget three ways (Chebyshev-local mixing, a first-order
similarity graph, a second-order similarity graph), aggregate with MaxE (or a
comparison aggregator), fuse, and follow with a feed-forward transform; both
sublayers are residual. The channel schedule hands local capacity over to the
second-order graph branch as blocks deepen, so first-order similarity on the
transferred channels carries neighborhood-level information. LayerScale is
applied on the last two blocks of the final stage.

Graphs are rebuilt every block, per image, from that block's own post-norm
branch features; neighbor selection is structural and carries no gradient.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import types
import typing
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .aggregators import (
    AGGREGATOR_KINDS,
    AGGREGATOR_WEIGHTS,
    baseline_aggregate,
    he_normal,
)
from .errors import CheckpointError, ConfigError, DimensionError, NonFiniteError
from .graph import (
    SIMILARITY_METRICS,
    ChannelSchedule,
    GraphTopology,
    psgc_schedule,
    similarity_matrix,
    topk_neighbors,
)
from .graphlu import EPSILON_FLOOR, gelu, graphlu
from .pvgt import read_tensor, write_tensor
from .tensor import (
    Tensor,
    add,
    concat,
    layer_norm,
    linear,
    max0,
    mul_rowvec,
    narrow,
    offset_mix,
    permute,
    reduce_mean,
    reshape,
)

ACTIVATIONS = ("graphlu", "gelu", "relu")
GRAPH_MODES = ("per-group", "shared")
N_STAGES = 4


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _has_type(value, tp) -> bool:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:
        return any(_has_type(value, a) for a in args)
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


def check_field_types(config) -> None:
    """Raise :class:`ConfigError` for the first dataclass field whose value
    does not match its annotation. bool is not an int, an int is a float, and
    list elements are checked one by one."""
    hints = typing.get_type_hints(type(config))
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not _has_type(value, hints[f.name]):
            raise ConfigError(
                f"{type(config).__name__}.{f.name} must be {f.type}, got {value!r}"
            )


@dataclass
class ModelConfig:
    stage_depths: list[int] = field(default_factory=lambda: [1, 1, 2, 1])
    stage_widths: list[int] = field(default_factory=lambda: [32, 64, 128, 256])
    stage_k: list[int] = field(default_factory=lambda: [4, 4, 8, 8])
    radius: int = 3
    schedule_start: float | list[float] = 0.25
    schedule_end: float | list[float] = 0.75
    granularity: int = 16
    aggregator: str = "MaxE"
    activation: str = "graphlu"
    ffn_ratio: int = 4
    layer_scale_init: float = 1e-5
    layer_scale_blocks: int = 2
    num_classes: int = 2
    image_size: int = 32
    patch_size: int = 2
    in_channels: int = 3
    graph_metric: str = "cosine"
    graph_mode: str = "per-group"
    epsilon_shared: bool = False

    def __post_init__(self) -> None:
        check_field_types(self)
        for name, seq in (
            ("stage_depths", self.stage_depths),
            ("stage_widths", self.stage_widths),
            ("stage_k", self.stage_k),
        ):
            if len(seq) != N_STAGES:
                raise ConfigError(f"{name} must list {N_STAGES} stages")
        for name, ratio in (
            ("schedule_start", self.schedule_start),
            ("schedule_end", self.schedule_end),
        ):
            if isinstance(ratio, list) and len(ratio) != N_STAGES:
                raise ConfigError(f"{name} must be one ratio or a list of {N_STAGES}")
        if self.patch_size < 1:
            raise ConfigError("patch_size must be >= 1")
        if self.granularity < 1:
            raise ConfigError("granularity must be >= 1")
        if any(d < 1 for d in self.stage_depths):
            raise ConfigError("stage depths must be >= 1")
        if any(k < 1 for k in self.stage_k):
            raise ConfigError("stage k must be >= 1")
        if any(w % self.granularity for w in self.stage_widths):
            raise ConfigError("stage widths must be divisible by the schedule granularity")
        if self.image_size % self.patch_size:
            raise ConfigError("image size must divide by patch size")
        grid = self.image_size // self.patch_size
        if grid % (2 ** (N_STAGES - 1)):
            raise ConfigError(
                f"patch grid {grid} cannot be halved {N_STAGES - 1} times"
            )
        last = self.stage_grid(N_STAGES - 1)
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
        if self.graph_mode not in GRAPH_MODES:
            raise ConfigError(f"unknown graph mode {self.graph_mode!r}")
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")
        if self.graph_metric not in SIMILARITY_METRICS:
            raise ConfigError(f"unknown graph metric {self.graph_metric!r}")
        if self.radius < 0:
            raise ConfigError("radius must be >= 0")
        if self.ffn_ratio < 1:
            raise ConfigError("ffn_ratio must be >= 1")
        if not 0 <= self.layer_scale_blocks <= self.total_blocks():
            raise ConfigError(
                f"layer_scale_blocks must lie in [0, {self.total_blocks()}]"
            )

    def stage_ratios(self, s: int) -> tuple[float, float]:
        start = self.schedule_start[s] if isinstance(self.schedule_start, list) else self.schedule_start
        end = self.schedule_end[s] if isinstance(self.schedule_end, list) else self.schedule_end
        return float(start), float(end)

    def stage_grid(self, s: int) -> int:
        return (self.image_size // self.patch_size) >> s

    def stage_schedule(self, s: int) -> ChannelSchedule:
        start, end = self.stage_ratios(s)
        return psgc_schedule(
            self.stage_widths[s], self.stage_depths[s], start, end, self.granularity
        )

    def total_blocks(self) -> int:
        return sum(self.stage_depths)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        known = {f.name for f in dataclasses.fields(ModelConfig)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        return ModelConfig(**d)


def tiny_config(**overrides) -> ModelConfig:
    """The desk-scale reference configuration (32x32 inputs, ~0.6M params)."""
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


def param_layout(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], Init]]:
    """Every parameter the configuration implies, as name -> (shape,
    initialiser), in the order :class:`Model` draws them.

    This table is the one enumeration of the parameter set: initialisation
    walks it, checkpoint loading checks files against it, and
    :func:`count_params_flops` sums its sizes.
    """
    cfg = config
    layout: dict[str, tuple[tuple[int, ...], Init]] = {}

    def affine(weight: str, bias: str, rows: int, cols: int) -> None:
        layout[weight] = ((rows, cols), "he")
        layout[bias] = ((cols,), 0.0)

    patch_in = cfg.patch_size * cfg.patch_size * cfg.in_channels
    affine("stem.weight", "stem.bias", patch_in, cfg.stage_widths[0])

    n_offsets = (2 * cfg.radius + 1) ** 2
    per_site_eps = cfg.activation == "graphlu" and not cfg.epsilon_shared
    ls_from = cfg.total_blocks() - cfg.layer_scale_blocks
    block_idx = 0
    for s in range(N_STAGES):
        c = cfg.stage_widths[s]
        hidden = cfg.ffn_ratio * c
        for b, (local_c, first_c, second_c) in enumerate(cfg.stage_schedule(s).per_block):
            pre = f"stage{s}.block{b}."
            layout[pre + "norm1.gamma"] = ((c,), 1.0)
            layout[pre + "norm1.beta"] = ((c,), 0.0)
            if local_c:
                layout[pre + "local.alpha"] = ((n_offsets, local_c), "offsets")
                layout[pre + "local.pos_bias"] = ((n_offsets, local_c), 0.0)
            for branch, width in (("first", first_c), ("second", second_c)):
                if width:
                    for wname, shape in AGGREGATOR_WEIGHTS[cfg.aggregator].items():
                        layout[f"{pre}{branch}.{wname}"] = (shape(width, width), "he")
            if per_site_eps:
                layout[pre + "act1.epsilon"] = ((1,), 0.0)
                layout[pre + "act2.epsilon"] = ((1,), 0.0)
            affine(pre + "fuse.weight", pre + "fuse.bias", c, c)
            layout[pre + "norm2.gamma"] = ((c,), 1.0)
            layout[pre + "norm2.beta"] = ((c,), 0.0)
            affine(pre + "ffn.w1", pre + "ffn.b1", c, hidden)
            affine(pre + "ffn.w2", pre + "ffn.b2", hidden, c)
            if block_idx >= ls_from:
                layout[pre + "scale1"] = ((c,), cfg.layer_scale_init)
                layout[pre + "scale2"] = ((c,), cfg.layer_scale_init)
            block_idx += 1
        if s < N_STAGES - 1:
            nxt = cfg.stage_widths[s + 1]
            affine(f"downsample{s}.weight", f"downsample{s}.bias", 4 * c, nxt)
    affine("head.weight", "head.bias", cfg.stage_widths[-1], cfg.num_classes)
    if cfg.activation == "graphlu" and cfg.epsilon_shared:
        layout["shared.epsilon"] = ((1,), 0.0)
    return layout


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
        self.schedules = [config.stage_schedule(s) for s in range(N_STAGES)]
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

    def astype(self, dtype) -> "Model":
        converted = {
            name: Tensor(t.data.astype(dtype), requires_grad=True)
            for name, t in self.params.items()
        }
        return Model(self.config, dtype=dtype, params=converted)

    def clamp_activation_params(self) -> None:
        for name, t in self.params.items():
            if name.endswith(".epsilon"):
                np.maximum(t.data, EPSILON_FLOOR, out=t.data)

    def _eps_name(self, prefix: str, site: int) -> str:
        if self.config.epsilon_shared:
            return "shared.epsilon"
        return f"{prefix}act{site}.epsilon"

    def _activation(self, t: Tensor, prefix: str, site: int) -> Tensor:
        act = self.config.activation
        if act == "graphlu":
            return graphlu(t, self.params[self._eps_name(prefix, site)])
        if act == "gelu":
            return gelu(t)
        return max0(t)

    # -- graph construction ---------------------------------------------------

    def _build_graphs(
        self, feats: np.ndarray, batch: int, n: int, k: int
    ) -> tuple[np.ndarray, list[GraphTopology]]:
        """Top-k selection within each image, the batch scored and selected in
        one call each; indices shift into batched rows, topologies are views.

        Non-finite features, as a diverging run produces, raise
        :class:`NonFiniteError` here rather than scoring NaN.
        """
        if not np.all(np.isfinite(feats)):
            raise NonFiniteError("non-finite node features reached the graph build")
        s = similarity_matrix(feats.reshape(batch, n, -1), self.config.graph_metric)
        topo = topk_neighbors(s, min(k, n - 1))
        idx = topo.neighbor_idx + (np.arange(batch) * n)[:, None, None]
        topos = [GraphTopology(n, topo.k, i, v) for i, v in zip(topo.neighbor_idx, topo.neighbor_sim)]
        return idx.reshape(batch * n, topo.k), topos

    # -- forward ---------------------------------------------------------------

    def block_forward(
        self,
        h: Tensor,
        s: int,
        b: int,
        batch: int,
        grid: int,
        collect: dict | None = None,
        block_index: int = -1,
    ) -> Tensor:
        cfg = self.config
        P = self.params
        pre = f"stage{s}.block{b}."
        local_c, first_c, second_c = self.schedules[s].per_block[b]
        n = grid * grid

        z = layer_norm(h, P[pre + "norm1.gamma"], P[pre + "norm1.beta"])
        branch_outs: list[Tensor] = []

        if local_c:
            x_local = narrow(z, 1, 0, local_c)
            branch_outs.append(
                offset_mix(
                    x_local, P[pre + "local.alpha"], (grid, grid), bias=P[pre + "local.pos_bias"]
                )
            )

        x_first = narrow(z, 1, local_c, first_c)
        x_second = narrow(z, 1, local_c + first_c, second_c) if second_c else None

        k = cfg.stage_k[s]
        if cfg.graph_mode == "shared" and second_c:
            idx_first, topos_first = self._build_graphs(z.data[:, local_c:], batch, n, k)
            idx_second, topos_second = idx_first, topos_first
        else:
            idx_first, topos_first = self._build_graphs(x_first.data, batch, n, k)
            if second_c:
                idx_second, topos_second = self._build_graphs(x_second.data, batch, n, k)

        names = AGGREGATOR_WEIGHTS[cfg.aggregator]
        w_first = {w: P[f"{pre}first.{w}"] for w in names}
        y_first = baseline_aggregate(cfg.aggregator, x_first, idx_first, w_first)
        branch_outs.append(self._activation(y_first, pre, 1))
        if second_c:
            w_second = {w: P[f"{pre}second.{w}"] for w in names}
            y_second = baseline_aggregate(cfg.aggregator, x_second, idx_second, w_second)
            branch_outs.append(self._activation(y_second, pre, 1))

        fused = branch_outs[0] if len(branch_outs) == 1 else concat(branch_outs, axis=1)
        y = linear(fused, P[pre + "fuse.weight"], P[pre + "fuse.bias"])
        if pre + "scale1" in P:
            y = mul_rowvec(y, P[pre + "scale1"])
        h = add(h, y)

        z2 = layer_norm(h, P[pre + "norm2.gamma"], P[pre + "norm2.beta"])
        f = linear(z2, P[pre + "ffn.w1"], P[pre + "ffn.b1"])
        f = self._activation(f, pre, 2)
        f = linear(f, P[pre + "ffn.w2"], P[pre + "ffn.b2"])
        if pre + "scale2" in P:
            f = mul_rowvec(f, P[pre + "scale2"])
        h = add(h, f)

        if collect is not None:
            if "blocks" in collect:
                collect["blocks"].append((block_index, h.data.reshape(batch, n, -1).copy()))
            if "graphs" in collect:
                collect["graphs"].append((block_index, "first", topos_first))
                if second_c:
                    collect["graphs"].append((block_index, "second", topos_second))
        return h

    def forward(self, images, collect: dict | None = None) -> Tensor:
        """Logits [batch, num_classes] for images [batch, h, w, channels].

        ``collect`` optionally receives intermediate structure: pass a dict
        with a ``"blocks"`` and/or ``"graphs"`` key mapped to empty lists.
        """
        cfg = self.config
        x = images if isinstance(images, Tensor) else Tensor(np.asarray(images, dtype=self.dtype))
        if x.data.ndim != 4 or x.shape[1:] != (cfg.image_size, cfg.image_size, cfg.in_channels):
            raise DimensionError(
                f"expected [batch, {cfg.image_size}, {cfg.image_size}, {cfg.in_channels}] images, "
                f"got {x.shape}"
            )
        batch = x.shape[0]
        if batch == 0:
            raise DimensionError("forward needs at least one image")
        grid = cfg.image_size // cfg.patch_size
        h = node_embedding(x, self.params["stem.weight"], self.params["stem.bias"], cfg.patch_size)

        block_index = 0
        for s in range(N_STAGES):
            for b in range(cfg.stage_depths[s]):
                h = self.block_forward(
                    h, s, b, batch, grid, collect=collect, block_index=block_index
                )
                block_index += 1
            if s < N_STAGES - 1:
                h = node_embedding(
                    reshape(h, (batch, grid, grid, cfg.stage_widths[s])),
                    self.params[f"downsample{s}.weight"],
                    self.params[f"downsample{s}.bias"],
                    2,
                )
                grid //= 2

        c_last = cfg.stage_widths[-1]
        pooled = reduce_mean(reshape(h, (batch, grid * grid, c_last)), axis=1)
        return linear(pooled, self.params["head.weight"], self.params["head.bias"])


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


def _aggregator_multadds(kind: str, width: int, n: int, k: int) -> int:
    # Mult-adds of the transform matmuls only; gathers, maxes, and means are
    # not multiply-accumulate work.
    if kind == "MaxE":
        return n * 3 * width * width
    if kind == "MRGraphConv":
        return n * 2 * width * width
    if kind == "EdgeConv":
        return n * k * (2 * width) * (2 * width) + n * k * (2 * width) * width
    if kind == "GraphSAGE":
        return n * k * width * width + n * 2 * width * width
    if kind == "GIN":
        return n * width * width
    raise ConfigError(f"unknown aggregator kind {kind!r}")


def _local_pair_count(grid: int, r: int) -> int:
    # Number of valid (node, offset) pairs on a square grid: for each axis
    # offset d the in-range span is grid - |d|, and the two axes factor.
    span = sum(grid - abs(d) for d in range(-r, r + 1) if abs(d) < grid)
    return span * span


def count_params_flops(config: ModelConfig) -> tuple[int, int]:
    """Parameter count and analytic per-image mult-adds.

    The parameter count is the total size of :func:`param_layout`. Mult-adds
    cover linear maps, local mixing, similarity construction, and LayerScale;
    normalizations, activations, and pooling are excluded by convention.
    """
    cfg = config
    params = sum(math.prod(shape) for shape, _ in param_layout(cfg).values())
    flops = 0
    grid = cfg.image_size // cfg.patch_size
    patch_in = cfg.patch_size * cfg.patch_size * cfg.in_channels
    flops += grid * grid * patch_in * cfg.stage_widths[0]

    ls_from = cfg.total_blocks() - cfg.layer_scale_blocks
    block_index = 0
    for s in range(N_STAGES):
        c = cfg.stage_widths[s]
        n = grid * grid
        k_eff = min(cfg.stage_k[s], n - 1)
        schedule = cfg.stage_schedule(s)
        for b in range(cfg.stage_depths[s]):
            local_c, first_c, second_c = schedule.per_block[b]
            if local_c:
                flops += _local_pair_count(grid, cfg.radius) * local_c
            for width in (first_c, second_c):  # a width of 0 adds nothing
                flops += _aggregator_multadds(cfg.aggregator, width, n, k_eff)
            # Similarity: shared or per branch, the global widths score n^2 pairs.
            flops += n * n * (first_c + second_c)
            flops += n * c * c  # fusion
            hidden = cfg.ffn_ratio * c
            flops += 2 * n * c * hidden
            if block_index >= ls_from:
                flops += 2 * n * c
            block_index += 1
        if s < N_STAGES - 1:
            nxt = cfg.stage_widths[s + 1]
            grid //= 2
            flops += grid * grid * 4 * c * nxt
    flops += cfg.stage_widths[-1] * cfg.num_classes
    return params, flops


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"


def save_checkpoint(model: Model, ckpt_dir: str | Path) -> None:
    """Write every parameter as a PVGT file plus a JSON manifest recording
    the configuration and the name -> file mapping.

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
        mapping: dict[str, str] = {}
        for name, t in model.params.items():
            fname = name.replace(".", "__") + ".pvgt"
            write_tensor(tmp / fname, t.data)
            mapping[name] = fname
        manifest = {"config": model.config.to_dict(), "params": mapping}
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
    """Rebuild a model from a checkpoint directory, verifying that manifest
    and :func:`param_layout` agree on the exact parameter set and shapes.
    Nothing is drawn at random."""
    ckpt_dir = Path(ckpt_dir)
    manifest_path = ckpt_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointError(f"no {MANIFEST_NAME} in {ckpt_dir}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        raise CheckpointError(f"{manifest_path} is not valid JSON: {e}") from e
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("config"), dict)
        and isinstance(manifest.get("params"), dict)
    ):
        raise CheckpointError(
            f'{manifest_path} must be an object with "config" and "params" objects'
        )
    config = ModelConfig.from_dict(manifest["config"])
    layout = param_layout(config)
    recorded = manifest["params"]
    if set(layout) != set(recorded):
        missing = sorted(set(layout) - set(recorded))
        surplus = sorted(set(recorded) - set(layout))
        raise CheckpointError(
            f"manifest/config parameter mismatch: missing={missing[:4]} surplus={surplus[:4]}"
        )
    params: dict[str, Tensor] = {}
    for name, (shape, _) in layout.items():
        arr = read_tensor(ckpt_dir / recorded[name])
        if arr.shape != shape:
            raise CheckpointError(
                f"{name}: checkpoint shape {arr.shape} != config shape {shape}"
            )
        params[name] = Tensor(arr, requires_grad=True)
    return Model(config, params=params)
