#!/usr/bin/env python3
"""The GraphLU gate and its relaxation knob.

GraphLU multiplies the input by the probability that a zero-mean Gaussian
with standard deviation (1 + eps) lies below it. At eps = 0 that is exactly
erf-GELU; raising eps flattens the gate so small-magnitude values keep more
of their mass, which is the lever against deep-stack feature collapse.
"""

import numpy as np

from pvg import Tensor, gelu, grad_check, phi
from pvg.graphlu import graphlu


def eps(value: float) -> Tensor:
    """A learnable one-element relaxation, as the network holds one per site."""
    return Tensor(np.full((1,), value), requires_grad=True)


print("=" * 64)
print("1. Values across the relaxation range")
print("=" * 64)
xs = np.array([-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
print(f"{'x':>6}", *(f"eps={e:<4}" for e in (0.0, 0.5, 1.0, 2.0)), sep="  ")
for x in xs:
    row = [
        graphlu(Tensor([x], dtype=np.float64), eps(e)).item()
        for e in (0.0, 0.5, 1.0, 2.0)
    ]
    print(f"{x:>6.1f}", *(f"{v:+.4f} " for v in row), sep="  ")

print("\n" + "=" * 64)
print("2. GELU is the eps = 0 member")
print("=" * 64)
grid = np.linspace(-6, 6, 10_000)
gap = np.max(np.abs(graphlu(Tensor(grid, dtype=np.float64), eps(0.0)).data - gelu(Tensor(grid, dtype=np.float64)).data))
print(f"max |graphlu(eps=0) - gelu| over 10^4 points in [-6, 6]: {gap:.2e}")
print(f"phi(0) at any eps is exactly {phi(0.0, 1.23)}")

print("\n" + "=" * 64)
print("3. Low-value retention")
print("=" * 64)
neg = np.linspace(-4, -0.25, 6)
kept0 = np.abs(neg * phi(neg, 0.0))
kept1 = np.abs(neg * phi(neg, 1.0))
print(f"{'x':>7} {'|out| eps=0':>12} {'|out| eps=1':>12} {'gain':>7}")
for x, a, b in zip(neg, kept0, kept1):
    print(f"{x:>7.2f} {a:>12.4f} {b:>12.4f} {b / max(a, 1e-12):>6.1f}x")
print(
    "\nNegative inputs that GELU nearly zeroes survive the relaxed gate with"
    "\nmultiples of their magnitude; eps is learned per layer, starting at 0."
)

print("\n" + "=" * 64)
print("4. The gradient that makes eps learnable")
print("=" * 64)
x_fixed = Tensor(np.random.default_rng(0).normal(size=(4, 4)))
# grad_check contracts the 4x4 output with a fixed random cotangent.
report = grad_check(
    lambda e: graphlu(x_fixed, e),
    Tensor([0.3], dtype=np.float64),
    op_name="d graphlu / d eps",
)
print(report)
