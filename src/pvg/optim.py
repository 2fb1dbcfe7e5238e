"""AdamW with decoupled weight decay and a warmup + cosine schedule."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .tensor import Tensor


@dataclass
class AdamWState:
    """First/second moment accumulators, keyed like the parameter dict."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def decay_mask(params: dict[str, Tensor]) -> dict[str, bool]:
    """Weight decay applies to matrices only; vectors and scalars (norm
    scale/shift, biases, LayerScale, activation relaxations) are exempt."""
    return {name: t.data.ndim >= 2 for name, t in params.items()}


def adamw_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamWState,
    lr_t: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
    weight_decay: float = 0.05,
    apply_decay: dict[str, bool] | None = None,
) -> None:
    """One in-place update. Decay is decoupled (applied to the raw weights,
    not folded into the gradient); moments are bias-corrected."""
    beta1, beta2 = betas
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    todo = [(name, p, grads[name]) for name, p in params.items() if grads.get(name) is not None]
    if not todo:
        return
    # Scratch rows for the steps below, in the order of the commented expressions.
    scratch = np.empty((2, max(p.data.size for _, p, _ in todo)), np.result_type(*(g for _, _, g in todo)))
    for name, p, g in todo:
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        a, b = (row[: p.data.size].reshape(p.data.shape) for row in scratch)
        m *= beta1
        m += np.multiply(1.0 - beta1, g, out=a)  # (1 - beta1) * g
        v *= beta2
        v += np.multiply(1.0 - beta2, np.multiply(g, g, out=a), out=a)  # (1 - beta2) * (g * g)
        if weight_decay and (apply_decay is None or apply_decay[name]):
            p.data *= 1.0 - lr_t * weight_decay
        # lr_t * (m / bc1) / (sqrt(v / bc2) + eps)
        step = np.multiply(lr_t, np.divide(m, bc1, out=a), out=a)
        denom = np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), eps, out=b)
        p.data -= np.divide(step, denom, out=a)


def cosine_lr(step: int, base_lr: float, warmup_steps: int, total_steps: int) -> float:
    """Linear warmup to ``base_lr`` over ``warmup_steps`` steps, then cosine
    decay reaching exactly zero at ``total_steps``."""
    if total_steps < warmup_steps:
        raise ConfigError("total_steps must be >= warmup_steps")
    if step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    span = max(total_steps - warmup_steps, 1)
    progress = min(step - warmup_steps, span)
    return base_lr * 0.5 * (1.0 + float(np.cos(np.pi * progress / span)))
