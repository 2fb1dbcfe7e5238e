"""Probe builders for gradient certification.

One entry per differentiable op in ``pvg.tensor.DIFFERENTIABLE_OPS``; each
case pins a function of a single Tensor argument so grad_check can compare
reverse mode against central differences, contracting a non-scalar output
with its fixed random cotangent. Inputs are seeded and kept away from kinks
(relu zero, max ties) so the finite difference is meaningful at h = 1e-4.
"""

from __future__ import annotations

import numpy as np

from pvg import net
from pvg import tensor as T
from pvg.graphlu import gelu
from pvg.tensor import Tensor


def _rng(seed):
    return np.random.default_rng(seed)


def _away_from_zero(a: np.ndarray, margin: float = 0.05) -> np.ndarray:
    return np.sign(a) * (np.abs(a) + margin)


def _distinct(shape, seed) -> np.ndarray:
    # Random values plus a deterministic stagger so no two entries tie.
    a = _rng(seed).normal(size=shape)
    return a + np.arange(a.size).reshape(shape) * 1e-3


def build_cases() -> list[tuple[str, str, callable, np.ndarray]]:
    """(op_name, case_name, fn, x0) tuples covering every op."""
    cases = []

    def case(op, name, fn, x0):
        cases.append((op, f"{op}/{name}", fn, np.asarray(x0, dtype=np.float64)))

    b = Tensor(_rng(1).normal(size=(3, 4)))
    case("add", "lhs", lambda x: T.add(x, b), _rng(2).normal(size=(3, 4)))
    case("sub", "lhs", lambda x: T.sub(x, b), _rng(3).normal(size=(3, 4)))
    case("sub", "rhs", lambda x: T.sub(b, x), _rng(4).normal(size=(3, 4)))
    case("max0", "x", lambda x: T.max0(x), _away_from_zero(_rng(9).normal(size=(5, 3))))


    case("reduce_sum", "mid_axis", lambda x: T.reduce_sum(x, 1), _rng(15).normal(size=(3, 4, 2)))
    case("reduce_mean", "mid_axis", lambda x: T.reduce_mean(x, 1), _rng(16).normal(size=(3, 4, 2)))
    case("reduce_max", "mid_axis", lambda x: T.reduce_max(x, 1), _distinct((3, 4, 2), 17))

    cpart = Tensor(_rng(19).normal(size=(3, 2)))
    case("concat", "part", lambda x: T.concat([x, cpart], axis=1), _rng(20).normal(size=(3, 5)))
    case("narrow", "x", lambda x: T.narrow(x, 1, 1, 3), _rng(21).normal(size=(4, 6)))

    gidx = np.array([[0, 2, 2], [1, 0, 3], [3, 3, 1]])
    case("gather_rows", "dup_idx", lambda x: T.gather_rows(x, gidx), _rng(22).normal(size=(4, 3)))
    case("reshape", "x", lambda x: T.reshape(x, (2, 6)), _rng(23).normal(size=(3, 4)))
    case("permute", "x", lambda x: T.permute(x, (2, 0, 1)), _rng(24).normal(size=(2, 3, 4)))

    rv = Tensor(_rng(25).normal(size=4))
    rx = Tensor(_rng(26).normal(size=(5, 4)))
    case("mul_rowvec", "x", lambda x: T.mul_rowvec(x, rv), _rng(27).normal(size=(5, 4)))
    case("mul_rowvec", "v", lambda x: T.mul_rowvec(rx, x), _rng(28).normal(size=4))

    lin_w = Tensor(_rng(29).normal(size=(4, 3)))
    lin_b = Tensor(_rng(30).normal(size=3))
    case("linear", "x", lambda x: T.linear(x, lin_w, lin_b), _rng(46).normal(size=(5, 4)))
    case("linear", "weight", lambda x: T.linear(rx, x, lin_b), _rng(47).normal(size=(4, 3)))
    case("linear", "bias", lambda x: T.linear(rx, lin_w, x), _rng(48).normal(size=3))
    # Without a bias, as the aggregators' transforms run.
    mm_b = Tensor(_rng(11).normal(size=(4, 5)))
    mm_a = Tensor(_rng(12).normal(size=(3, 4)))
    case("linear", "x_no_bias", lambda x: T.linear(x, mm_b), _rng(13).normal(size=(3, 4)))
    case("linear", "weight_no_bias", lambda x: T.linear(mm_a, x), _rng(14).normal(size=(4, 5)))

    ln_g = Tensor(0.5 + _rng(31).uniform(size=6))
    ln_b = Tensor(_rng(32).normal(size=6))
    ln_x = Tensor(_rng(33).normal(size=(4, 6)))
    case("layer_norm", "x", lambda x: T.layer_norm(x, ln_g, ln_b), _rng(34).normal(size=(4, 6)))
    case("layer_norm", "gamma", lambda x: T.layer_norm(ln_x, x, ln_b), 0.5 + _rng(35).uniform(size=6))
    case("layer_norm", "beta", lambda x: T.layer_norm(ln_x, ln_g, x), _rng(36).normal(size=6))

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
        lambda x: T.offset_mix(x, om_w, (3, 3), bias=om_b),
        _rng(41).normal(size=(9, 2)),
    )
    case(
        "offset_mix",
        "weights",
        lambda x: T.offset_mix(om_x, x, (3, 3), bias=om_b),
        _rng(42).normal(size=(9, 2)),
    )
    case(
        "offset_mix",
        "bias",
        lambda x: T.offset_mix(om_x, om_w, (3, 3), bias=x),
        _rng(43).normal(size=(9, 2)),
    )

    # r = 2 on a 2x3 grid: rows dy = -2 and dy = 2 never reach the grid.
    omc_w = Tensor(_rng(49).normal(size=(25, 2)))
    omc_b = Tensor(_rng(50).normal(size=(25, 2)))
    omc_x = Tensor(_rng(51).normal(size=(12, 2)))
    case(
        "offset_mix",
        "x_clipped",
        lambda x: T.offset_mix(x, omc_w, (2, 3), bias=omc_b),
        _rng(52).normal(size=(12, 2)),
    )
    case(
        "offset_mix",
        "weights_clipped",
        lambda x: T.offset_mix(omc_x, x, (2, 3), bias=omc_b),
        _rng(53).normal(size=(25, 2)),
    )
    case(
        "offset_mix",
        "bias_clipped",
        lambda x: T.offset_mix(omc_x, omc_w, (2, 3), bias=x),
        _rng(54).normal(size=(25, 2)),
    )

    gate_eps = Tensor(np.array([0.3]))
    gate_x = Tensor(_rng(44).normal(size=(4, 5)) * 2.0)
    case("cdf_gate", "x", lambda x: T.cdf_gate(x, gate_eps), _rng(8).normal(size=(4, 4)) * 2.0)
    case("cdf_gate", "x_gelu", gelu, _rng(45).normal(size=(4, 4)) * 2.0)
    case("cdf_gate", "eps", lambda e: T.cdf_gate(gate_x, e), [-0.4])

    # recompute: a graph branch in miniature, each input probed.
    def rc_branch(x, w, eps):
        nbh = T.gather_rows(x, np.array([[1, 2], [0, 2], [3, 1], [0, 0]]))
        return T.cdf_gate(T.linear(T.concat([x, T.reduce_max(nbh, 1)], axis=1), w), eps)

    rc_args = {"x": _distinct((4, 3), 64), "w": _rng(65).normal(size=(6, 2)), "eps": np.array([0.3])}
    rc_fixed = {name: Tensor(v) for name, v in rc_args.items()}

    def recompute_of(name):
        def fn(x):
            args = {**rc_fixed, name: x}
            return T.recompute(rc_branch, [args[a] for a in rc_args])

        return fn

    for name, x0 in rc_args.items():
        case("recompute", name, recompute_of(name), x0)

    # recompute: a block's FFN, every argument, with the GraphLU eps and as
    # exact-erf GELU (eps a fixed zero).
    ffn_args = {
        "h": _rng(55).normal(size=(5, 4)),
        "gamma": 0.5 + _rng(56).uniform(size=4),
        "beta": _rng(57).normal(size=4),
        "w1": _rng(58).normal(size=(4, 6)),
        "b1": _rng(59).normal(size=6),
        "w2": _rng(60).normal(size=(6, 3)),
        "b2": _rng(61).normal(size=3),
        "eps": np.array([0.3]),
    }
    ffn_fixed = {name: Tensor(v) for name, v in ffn_args.items()}

    def ffn_of(name, as_gelu=False):
        def fn(x):
            args = {**ffn_fixed, **({"eps": Tensor(np.zeros(1))} if as_gelu else {}), name: x}
            return T.recompute(net._ffn, [args[a] for a in ffn_args])

        return fn

    for name, x0 in ffn_args.items():
        case("recompute", f"ffn_{name}", ffn_of(name), x0)
    case("recompute", "ffn_h_gelu", ffn_of("h", as_gelu=True), _rng(62).normal(size=(5, 4)))
    case("recompute", "ffn_w1_gelu", ffn_of("w1", as_gelu=True), _rng(63).normal(size=(4, 6)))

    return cases
