"""AdamW with decoupled weight decay and a warmup + cosine schedule.

:func:`adamw_step` updates one parameter for a given step count; ``train``
calls it from the backward sweep, once per parameter per step, after
:meth:`AdamWState.zeros` has allocated every parameter's moments. An update
runs over flat blocks of :data:`ADAMW_BLOCK` entries through one small
scratch array; every step of it is elementwise, so the blocks give the bits
of whole-array arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .tensor import Tensor


@dataclass
class AdamWState:
    """First/second moment accumulators, keyed by parameter name."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @staticmethod
    def zeros(params: dict[str, Tensor]) -> "AdamWState":
        """Zero moments for every parameter, allocated now rather than amid
        the first step's temporaries."""
        return AdamWState(
            {name: np.zeros_like(p.data) for name, p in params.items()},
            {name: np.zeros_like(p.data) for name, p in params.items()},
        )


# Entries per flat block of the update; its scratch is two rows of this many.
ADAMW_BLOCK = 2**14


def adamw_step(
    name: str,
    p: Tensor,
    grad: np.ndarray | None,
    state: AdamWState,
    lr_t: float,
    t: int,
    betas: tuple[float, float] = (0.9, 0.999),
    weight_decay: float = 0.05,
) -> None:
    """One in-place update of parameter ``p``, whose moments ``state`` keeps
    under ``name`` (:meth:`AdamWState.zeros` allocates them); a ``None``
    gradient changes nothing. Moments are
    bias-corrected for step ``t`` (the first step is 1); ``betas`` defaults
    to (0.9, 0.999), the only value training uses. Decay is decoupled
    (applied to the raw weights, not folded into the gradient) and applies to
    matrices only; vectors and scalars (norm scale/shift, biases, LayerScale,
    activation relaxations) are exempt.
    """
    if grad is None:
        return
    beta1, beta2 = betas
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    decay = weight_decay and p.data.ndim >= 2
    # Scratch rows for the steps below, in the order of the commented expressions.
    scratch = np.empty((2, min(ADAMW_BLOCK, p.data.size)), np.result_type(grad))
    # Every expression is elementwise, so flat blocks give the whole arrays' bits.
    flat = [x.reshape(-1) for x in (p.data, np.asarray(grad), state.m[name], state.v[name])]
    for lo in range(0, p.data.size, ADAMW_BLOCK):
        w, gb, m, v = (x[lo : lo + ADAMW_BLOCK] for x in flat)
        a, b = (row[: w.size] for row in scratch)
        m *= beta1
        m += np.multiply(1.0 - beta1, gb, out=a)  # (1 - beta1) * g
        v *= beta2
        v += np.multiply(1.0 - beta2, np.multiply(gb, gb, out=a), out=a)  # (1 - beta2) * (g * g)
        if decay:
            w *= 1.0 - lr_t * weight_decay
        # lr_t * (m / bc1) / (sqrt(v / bc2) + 1e-8)
        step = np.multiply(lr_t, np.divide(m, bc1, out=a), out=a)
        denom = np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), 1e-8, out=b)
        w -= np.divide(step, denom, out=a)


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
