"""Probe builders for gradient certification.

One entry per differentiable op in ``pvg.tensor.DIFFERENTIABLE_OPS``; each
case pins a scalar function of a single Tensor argument so grad_check can
compare reverse mode against central differences. Inputs are seeded and kept
away from kinks (relu zero, max ties) so the finite difference is meaningful
at h = 1e-4.
"""

from __future__ import annotations

import numpy as np

from pvg import tensor as T
from pvg.tensor import Tensor


def _rng(seed):
    return np.random.default_rng(seed)


def _away_from_zero(a: np.ndarray, margin: float = 0.05) -> np.ndarray:
    return np.sign(a) * (np.abs(a) + margin)


def _weigh(out: Tensor, seed: int = 7) -> Tensor:
    """Random fixed projection to a scalar; catches layout mistakes a plain
    sum would miss."""
    r = Tensor(_rng(seed).normal(size=out.shape).astype(out.dtype))
    return T.sum_all(T.mul(out, r))


def _distinct(shape, seed) -> np.ndarray:
    # Random values plus a deterministic stagger so no two entries tie.
    a = _rng(seed).normal(size=shape)
    return a + np.arange(a.size).reshape(shape) * 1e-3


def build_cases() -> list[tuple[str, str, callable, np.ndarray]]:
    """(op_name, case_name, scalar_fn, x0) tuples covering every op."""
    cases = []

    def case(op, name, fn, x0):
        cases.append((op, f"{op}/{name}", fn, np.asarray(x0, dtype=np.float64)))

    b = Tensor(_rng(1).normal(size=(3, 4)))
    s1 = Tensor(np.array([0.7]))
    case("add", "lhs", lambda x: _weigh(T.add(x, b)), _rng(2).normal(size=(3, 4)))
    case("add", "scalar_rhs", lambda x: _weigh(T.add(b, x)), [0.3])
    case("sub", "lhs", lambda x: _weigh(T.sub(x, b)), _rng(3).normal(size=(3, 4)))
    case("sub", "rhs", lambda x: _weigh(T.sub(b, x)), _rng(4).normal(size=(3, 4)))
    case("mul", "lhs", lambda x: _weigh(T.mul(x, b)), _rng(5).normal(size=(3, 4)))
    case("mul", "scalar_rhs", lambda x: _weigh(T.mul(b, x)), [1.3])
    case("max0", "x", lambda x: _weigh(T.max0(x)), _away_from_zero(_rng(9).normal(size=(5, 3))))

    mm_b = Tensor(_rng(11).normal(size=(4, 5)))
    mm_a = Tensor(_rng(12).normal(size=(3, 4)))
    case("matmul", "lhs", lambda x: _weigh(T.matmul(x, mm_b)), _rng(13).normal(size=(3, 4)))
    case("matmul", "rhs", lambda x: _weigh(T.matmul(mm_a, x)), _rng(14).normal(size=(4, 5)))

    case("reduce_sum", "mid_axis", lambda x: _weigh(T.reduce_sum(x, 1)), _rng(15).normal(size=(3, 4, 2)))
    case("reduce_mean", "mid_axis", lambda x: _weigh(T.reduce_mean(x, 1)), _rng(16).normal(size=(3, 4, 2)))
    case("reduce_max", "mid_axis", lambda x: _weigh(T.reduce_max(x, 1)), _distinct((3, 4, 2), 17))
    case("sum_all", "x", lambda x: T.sum_all(x), _rng(18).normal(size=(3, 4)))

    cpart = Tensor(_rng(19).normal(size=(3, 2)))
    case("concat", "part", lambda x: _weigh(T.concat([x, cpart], axis=1)), _rng(20).normal(size=(3, 5)))
    case("narrow", "x", lambda x: _weigh(T.narrow(x, 1, 1, 3)), _rng(21).normal(size=(4, 6)))

    gidx = np.array([[0, 2, 2], [1, 0, 3], [3, 3, 1]])
    case("gather_rows", "dup_idx", lambda x: _weigh(T.gather_rows(x, gidx)), _rng(22).normal(size=(4, 3)))
    case("reshape", "x", lambda x: _weigh(T.reshape(x, (2, 6))), _rng(23).normal(size=(3, 4)))
    case("permute", "x", lambda x: _weigh(T.permute(x, (2, 0, 1))), _rng(24).normal(size=(2, 3, 4)))

    rv = Tensor(_rng(25).normal(size=4))
    rx = Tensor(_rng(26).normal(size=(5, 4)))
    case("mul_rowvec", "x", lambda x: _weigh(T.mul_rowvec(x, rv)), _rng(27).normal(size=(5, 4)))
    case("mul_rowvec", "v", lambda x: _weigh(T.mul_rowvec(rx, x)), _rng(28).normal(size=4))

    lin_w = Tensor(_rng(29).normal(size=(4, 3)))
    lin_b = Tensor(_rng(30).normal(size=3))
    case("linear", "x", lambda x: _weigh(T.linear(x, lin_w, lin_b)), _rng(46).normal(size=(5, 4)))
    case("linear", "weight", lambda x: _weigh(T.linear(rx, x, lin_b)), _rng(47).normal(size=(4, 3)))
    case("linear", "bias", lambda x: _weigh(T.linear(rx, lin_w, x)), _rng(48).normal(size=3))

    ln_g = Tensor(0.5 + _rng(31).uniform(size=6))
    ln_b = Tensor(_rng(32).normal(size=6))
    ln_x = Tensor(_rng(33).normal(size=(4, 6)))
    case("layer_norm", "x", lambda x: _weigh(T.layer_norm(x, ln_g, ln_b)), _rng(34).normal(size=(4, 6)))
    case("layer_norm", "gamma", lambda x: _weigh(T.layer_norm(ln_x, x, ln_b)), 0.5 + _rng(35).uniform(size=6))
    case("layer_norm", "beta", lambda x: _weigh(T.layer_norm(ln_x, ln_g, x)), _rng(36).normal(size=6))

    labels = np.array([0, 2, 1, 2])
    case(
        "softmax_cross_entropy",
        "logits",
        lambda x: T.softmax_cross_entropy(x, labels),
        _rng(37).normal(size=(4, 3)),
    )

    om_w = Tensor(_rng(38).normal(size=(9, 2)))
    om_b = Tensor(_rng(39).normal(size=(9, 2)))
    om_x = Tensor(_rng(40).normal(size=(9, 2)))
    case(
        "offset_mix",
        "x",
        lambda x: _weigh(T.offset_mix(x, om_w, (3, 3), bias=om_b)),
        _rng(41).normal(size=(9, 2)),
    )
    case(
        "offset_mix",
        "weights",
        lambda x: _weigh(T.offset_mix(om_x, x, (3, 3), bias=om_b)),
        _rng(42).normal(size=(9, 2)),
    )
    case(
        "offset_mix",
        "bias",
        lambda x: _weigh(T.offset_mix(om_x, om_w, (3, 3), bias=x)),
        _rng(43).normal(size=(9, 2)),
    )

    # r = 2 on a 2x3 grid: rows dy = -2 and dy = 2 never reach the grid.
    omc_w = Tensor(_rng(49).normal(size=(25, 2)))
    omc_b = Tensor(_rng(50).normal(size=(25, 2)))
    omc_x = Tensor(_rng(51).normal(size=(12, 2)))
    case(
        "offset_mix",
        "x_clipped",
        lambda x: _weigh(T.offset_mix(x, omc_w, (2, 3), bias=omc_b)),
        _rng(52).normal(size=(12, 2)),
    )
    case(
        "offset_mix",
        "weights_clipped",
        lambda x: _weigh(T.offset_mix(omc_x, x, (2, 3), bias=omc_b)),
        _rng(53).normal(size=(25, 2)),
    )
    case(
        "offset_mix",
        "bias_clipped",
        lambda x: _weigh(T.offset_mix(omc_x, omc_w, (2, 3), bias=x)),
        _rng(54).normal(size=(25, 2)),
    )

    gate_eps = Tensor(np.array([0.3]))
    gate_x = Tensor(_rng(44).normal(size=(4, 5)) * 2.0)
    case("cdf_gate", "x", lambda x: _weigh(T.cdf_gate(x, gate_eps)), _rng(8).normal(size=(4, 4)) * 2.0)
    case("cdf_gate", "x_gelu", lambda x: _weigh(T.cdf_gate(x)), _rng(45).normal(size=(4, 4)) * 2.0)
    case("cdf_gate", "eps", lambda e: _weigh(T.cdf_gate(gate_x, e)), [-0.4])

    return cases
