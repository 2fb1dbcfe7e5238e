"""GraphLU: gating by a Gaussian CDF with a learnable relaxation.

The activation multiplies the input by the probability that a zero-mean
Gaussian with standard deviation (1 + epsilon) falls below it:

    graphlu(x) = x * cdf(x; sd = 1 + epsilon)
               = 0.5 * x * (1 + erf(x / (sqrt(2) * (1 + epsilon))))

At epsilon = 0 this is exactly the erf form of GELU. Raising epsilon widens
the gate so that more small-magnitude (low-value) information survives, which
is the mechanism that keeps deep-stack node features from collapsing onto one
representation. epsilon is learnable per usage site: a plain one-element
Tensor that the caller owns (``Model.params`` in the network), kept at or
above :data:`EPSILON_FLOOR` after every update so 1 + epsilon stays positive.

``graphlu`` and ``gelu`` are each one call to :func:`pvg.tensor.cdf_gate`,
a single autograd node whose backward computes the input and epsilon
gradients directly; ``gelu(x)`` is ``graphlu`` at a fixed epsilon = 0 that
needs no gradient, bit for bit. So the network calls ``graphlu`` at every
gate, with such a fixed zero in a GELU model, which has no epsilon
parameter. Their erf and :func:`phi`'s are the package's own
(:mod:`pvg._erf`), evaluated in the input's dtype: within 1.5 ulp in
float32, and in float64 a port of the cephes tables within 1 ulp of
scipy's.
"""

from __future__ import annotations

import numpy as np

from ._erf import erf as _erf
from .tensor import Tensor, cdf_gate

EPSILON_FLOOR = -0.99
_SQRT2 = float(np.sqrt(2.0))


def phi(x, epsilon: float = 0.0):
    """CDF of N(0, (1 + epsilon)^2) evaluated at x (plain numpy, no grads).

    phi(0) = 1/2 for every epsilon; monotone non-decreasing in x.
    """
    sd = 1.0 + epsilon
    a = np.array(x, dtype=np.float64, order="C")  # an array even for a scalar x
    a /= _SQRT2 * sd
    return 0.5 * (1.0 + _erf(a, out=a))


def graphlu(x: Tensor, epsilon: Tensor) -> Tensor:
    """Differentiable GraphLU; gradients flow to x and, where it needs one,
    to the one-element ``epsilon``."""
    return cdf_gate(x, epsilon)


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: the gate at a fixed epsilon = 0."""
    return cdf_gate(x, Tensor(np.zeros(1, x.dtype)))
