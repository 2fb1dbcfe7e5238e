"""GraphLU: gating by a Gaussian CDF with a learnable relaxation.

The activation multiplies the input by the probability that a zero-mean
Gaussian with standard deviation (1 + epsilon) falls below it:

    graphlu(x) = x * cdf(x; sd = 1 + epsilon)
               = 0.5 * x * (1 + erf(x / (sqrt(2) * (1 + epsilon))))

At epsilon = 0 this is exactly the erf form of GELU. Raising epsilon widens
the gate so that more small-magnitude (low-value) information survives, which
is the mechanism that keeps deep-stack node features from collapsing onto one
representation. epsilon is learnable per usage site and clamped so
1 + epsilon stays positive.

Both ``graphlu`` and ``gelu`` are one call to :func:`pvg.tensor.cdf_gate`,
a single autograd node whose backward computes the input and epsilon
gradients directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf as _np_erf

from .tensor import Tensor, cdf_gate

EPSILON_FLOOR = -0.99
_SQRT2 = float(np.sqrt(2.0))


@dataclass
class GraphLUParams:
    """Per-layer learnable relaxation scalar, initialized at 0 (pure GELU)."""

    epsilon: Tensor

    @staticmethod
    def create(init: float = 0.0, dtype=np.float32) -> "GraphLUParams":
        return GraphLUParams(epsilon=Tensor(np.full((1,), init, dtype=dtype), requires_grad=True))

    def clamp(self) -> None:
        """Keep 1 + epsilon positive; call after every optimizer update."""
        np.maximum(self.epsilon.data, EPSILON_FLOOR, out=self.epsilon.data)


def phi(x, epsilon: float = 0.0):
    """CDF of N(0, (1 + epsilon)^2) evaluated at x (plain numpy, no grads).

    phi(0) = 1/2 for every epsilon; monotone non-decreasing in x.
    """
    sd = 1.0 + epsilon
    return 0.5 * (1.0 + _np_erf(np.asarray(x, dtype=np.float64) / (_SQRT2 * sd)))


def graphlu(x: Tensor, params: GraphLUParams) -> Tensor:
    """Differentiable GraphLU; gradients flow to x and to epsilon."""
    return cdf_gate(x, params.epsilon)


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU (the epsilon = 0 limit, without a learnable parameter)."""
    return cdf_gate(x)
