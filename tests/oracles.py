"""Hand-written oracles that the aggregator and network tests compare against.

Each is written out independently of ``pvg`` so that it checks the package
instead of restating it: :func:`param_count` writes the per-kind parameter
formulas by hand (tests compare it with ``AGGREGATOR_WEIGHTS`` and
``param_layout``), :func:`decomposition_check` evaluates the max
decomposition identity that motivates MaxE's max-of-differences term, and
:func:`checked_topology` asserts what every top-k selection promises.
:func:`cast_model` gives the float64 copies of a model that the gradient and
oracle checks run on. :func:`offset_mix_einsums`, :func:`max_reference`,
:func:`layer_norm_fused` and :func:`row_scale` are the plain numpy forms that
``offset_mix``, ``reduce_max``, ``affine(normalize(x), gamma, beta)`` and
the shift-free ``affine(x, gamma)`` must match byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pvg.errors import ConfigError, DimensionError
from pvg.net import Model
from pvg.tensor import LAYER_NORM_EPS, Tensor


@dataclass
class DecompositionReport:
    first_order_residual: float
    telescoped_residual: float
    depth: int


def decomposition_check(z, depth: int = 4) -> DecompositionReport:
    """Verify, in float64, that the max of a vector splits exactly into
    mean + remainder + within-class bound, and that iterating the split on
    the residual vector telescopes back to the same max.

    With z' = max(z), z_bar = mean(z) and z'' the entry maximizing z' - z_j
    (the farthest-from-max element, lowest index on ties):

        max(z) = z_bar + (z'' - z_bar) + max_j(z' - z_j)

    The recursion re-applies the same split to the vector z' - z for
    ``depth`` rounds; the accumulated mean and remainder terms plus the final
    max must reconstruct max(z).
    """
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    if z.size < 1:
        raise DimensionError("decomposition needs at least one element")

    def stats(v: np.ndarray) -> tuple[float, float, float]:
        top = float(np.max(v))
        bar = float(np.mean(v))
        snd = float(v[np.argmax(top - v)])  # argmax -> first occurrence
        return top, bar, snd

    top, bar, snd = stats(z)
    recon = bar + (snd - bar) + float(np.max(top - z))
    first_residual = abs(top - recon)

    acc = 0.0
    cur = z
    for _ in range(depth):
        t, b, s = stats(cur)
        acc += b + (s - b)
        cur = t - cur
    telescoped = acc + float(np.max(cur))
    rec_residual = abs(top - telescoped)

    return DecompositionReport(
        first_order_residual=first_residual,
        telescoped_residual=rec_residual,
        depth=depth,
    )


def param_count(kind: str, c_in: int, c_out: int) -> tuple[int, float]:
    """Analytic parameter count and its ratio to the GIN unit.

    The unit is the single-linear GIN transform at the same widths
    (c_in * c_out); transform matrices only, no biases, matching the
    convention that makes MaxE land on exactly 3.
    """
    if kind == "MaxE":
        count = 3 * c_in * c_out
    elif kind == "MRGraphConv":
        count = 2 * c_in * c_out
    elif kind == "EdgeConv":
        count = (2 * c_in) * (2 * c_in) + (2 * c_in) * c_out
    elif kind == "GraphSAGE":
        count = 2 * c_in * c_out + c_in * c_in
    elif kind == "GIN":
        count = c_in * c_out
    else:
        raise ConfigError(f"unknown aggregator kind {kind!r}")
    unit = c_in * c_out
    return count, count / unit


def checked_topology(topo):
    """Assert that a (possibly batched) top-k topology is well formed: both
    arrays ``[..., n, k]``, indices in range, no self-loop or repeated
    neighbor in a row, and similarities non-increasing along each row.
    Returns the topology for chaining."""
    idx, sim, n = topo.neighbor_idx, topo.neighbor_sim, topo.n_nodes
    assert idx.shape[-2:] == (n, topo.k) and sim.shape == idx.shape, (idx.shape, sim.shape)
    assert idx.min(initial=0) >= 0 and idx.max(initial=0) < n, "neighbor index out of range"
    assert not np.any(idx == np.arange(n)[:, None]), "self-loop in topology"
    dup = (np.diff(np.sort(idx, axis=-1), axis=-1) == 0).any(axis=-1)
    assert not dup.any(), f"duplicate neighbor in row {np.argwhere(dup)[0].tolist()}"
    assert not np.any(np.diff(sim, axis=-1) > 1e-6), "neighbor_sim rows must be non-increasing"
    return topo


def cast_model(model: Model, dtype) -> Model:
    """A copy of ``model`` with every parameter cast to ``dtype``, as fresh
    leaves that need gradients."""
    params = {name: Tensor(t.data.astype(dtype), requires_grad=True) for name, t in model.params.items()}
    return Model(model.config, params=params)


def offset_mix_einsums(x, weights, bias, grid, g):
    """``offset_mix``'s value and its x, weight and bias gradients for the
    output gradient ``g``, each one einsum over the [batch, h, w, c, 2ry+1,
    2rx+1] windows that ``np.pad`` and ``sliding_window_view`` give, with an
    inner loop only c long."""
    n_off, c = weights.shape
    side = int(round(n_off**0.5))
    r = side // 2
    h, w = grid
    ry, rx = min(r, h - 1), min(r, w - 1)
    live = (slice(r - ry, r + ry + 1), slice(r - rx, r + rx + 1))

    def windows(a):
        padded = np.pad(a, ((0, 0), (ry, ry), (rx, rx), (0, 0)))
        return np.lib.stride_tricks.sliding_window_view(padded, (2 * ry + 1, 2 * rx + 1), axis=(1, 2))

    xg, gg = x.reshape(-1, h, w, c), g.reshape(-1, h, w, c)
    kernel = weights.reshape(side, side, c)[live]
    valid = windows(np.ones((1, h, w, 1), x.dtype))[0, :, :, 0]
    y = np.einsum("bijcyx,yxc->bijc", windows(xg), kernel)
    y += np.einsum("ijyx,yxc->ijc", valid, bias.reshape(side, side, c)[live])
    gx = np.einsum("bijcyx,yxc->bijc", windows(gg), kernel[::-1, ::-1])
    gw, gb = np.zeros_like(weights), np.zeros_like(bias)
    gw.reshape(side, side, c)[live] = np.einsum("bijc,bijcyx->yxc", gg, windows(xg))
    gb.reshape(side, side, c)[live] = np.einsum("ijc,ijyx->yxc", gg.sum(axis=0), valid)
    return y.reshape(x.shape), gx.reshape(x.shape), gw, gb


def max_reference(x, axis, g):
    """``np.max`` of ``x`` along ``axis``, and the gradient ``g`` routed to
    the first maximal index, where ``np.argmax`` points."""
    grad = np.zeros_like(x)
    first = np.expand_dims(np.argmax(x, axis=axis), axis)
    np.put_along_axis(grad, first, np.expand_dims(g, axis), axis)
    return np.max(x, axis=axis), grad


def layer_norm_fused(x, gamma, beta, g):
    """A layer norm over the last axis as one fused formula: its value and
    its x, gamma and beta gradients for the output gradient ``g``. Each row
    is centred, scaled by 1 / sqrt(var + eps) and then by gamma, and shifted
    by beta; every step rounds in x's dtype."""
    c = x.shape[-1]
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + np.asarray(LAYER_NORM_EPS, dtype=x.dtype))
    xhat = xc * inv
    gh = g * gamma
    gx = (gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True)) * inv
    return xhat * gamma + beta, gx, (g * xhat).reshape(-1, c).sum(axis=0), g.reshape(-1, c).sum(axis=0)


def row_scale(x, v, g):
    """Every row of ``x`` times the vector ``v``, as one elementwise product:
    its value and its x and v gradients for the output gradient ``g``."""
    return x * v, g * v, (g * x).reshape(-1, v.shape[0]).sum(axis=0)
