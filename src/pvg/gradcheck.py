"""Finite-difference certification of reverse-mode gradients.

The oracle is a central difference (f(x+h e_i) - f(x-h e_i)) / (2h) computed
in double precision, independent of the backward closures it checks. Every
differentiable operation in :mod:`pvg.tensor` (see ``DIFFERENTIABLE_OPS``)
must pass this check, and so must the full network forward.

A non-scalar ``f`` is checked through the scalar <f(x), r> for a fixed
cotangent r: a random projection catches layout mistakes that a plain sum
would miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError
from .tensor import Tensor

DEFAULT_TOLERANCE = 1e-4

# The cotangent of a non-scalar output is a normal draw from this seed.
_COTANGENT_SEED = 7

# Relative error uses this absolute floor in the denominator so that a pair
# of zero gradients compares as exactly equal instead of 0/0.
_DENOM_FLOOR = 1e-6


@dataclass
class GradCheckReport:
    op_name: str
    max_rel_error: float
    passed: bool
    probe_count: int
    tolerance: float = DEFAULT_TOLERANCE

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] {self.op_name}: max_rel_error={self.max_rel_error:.3e} "
            f"over {self.probe_count} probes (tol {self.tolerance:.0e})"
        )


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    h: float = 1e-4,
    probes: int = 20,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    op_name: str = "f",
) -> GradCheckReport:
    """Compare the reverse-mode gradient of ``f`` at ``x`` against central
    differences on a random subset of coordinates.

    A one-element output is checked as it is. Any other output ``y`` is
    contracted with the fixed cotangent ``r = default_rng(7).normal(size=y.shape)``:
    backward is seeded with r, and the central differences are those of
    ``sum(y * r)``.

    Runs in float64 regardless of ``x``'s dtype. Probes ``probes`` distinct
    coordinates (all of them when ``x`` is that small). The reported figure is
    the max over probes of |ad - fd| / max(|ad|, |fd|, 1e-6).
    """
    x64 = Tensor(x.data.astype(np.float64), requires_grad=True)
    y = f(x64)
    if y.size == 1:
        cotangent = np.ones(y.shape)
    else:
        cotangent = np.random.default_rng(_COTANGENT_SEED).normal(size=y.shape)

    def value(out: Tensor) -> float:
        return float(np.sum(out.data * cotangent))

    if not np.isfinite(y.data).all():
        raise EvaluationError(f"{op_name}: non-finite value at base point")
    y.backward(cotangent)
    analytic = (
        x64.grad if x64.grad is not None else np.zeros_like(x64.data)
    ).reshape(-1)

    rng = np.random.default_rng(seed)
    n = x64.size
    if probes >= n:
        coords = np.arange(n)
    else:
        coords = rng.choice(n, size=probes, replace=False)

    base = x64.data.reshape(-1).copy()
    max_rel = 0.0
    for i in coords:
        plus = base.copy()
        plus[i] += h
        minus = base.copy()
        minus[i] -= h
        fp = value(f(Tensor(plus.reshape(x64.shape))))
        fm = value(f(Tensor(minus.reshape(x64.shape))))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"{op_name}: non-finite value at probe {i}")
        fd = (fp - fm) / (2.0 * h)
        ad = analytic[i]
        rel = abs(ad - fd) / max(abs(ad), abs(fd), _DENOM_FLOOR)
        if rel > max_rel:
            max_rel = rel

    return GradCheckReport(
        op_name=op_name,
        max_rel_error=float(max_rel),
        passed=max_rel <= tolerance,
        probe_count=len(coords),
        tolerance=tolerance,
    )
