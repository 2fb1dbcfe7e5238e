"""Tensor core: forward semantics, gradient rules, and the PVGT format."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from pvg import net
from pvg import tensor as T
from pvg.errors import (
    DimensionError,
    EmptyReductionError,
    FileFormatError,
    GraphReleasedError,
    NonFiniteError,
    PvgError,
)
from pvg.gradcheck import grad_check
from pvg.graphlu import gelu
from pvg.net import Model, tiny_config
from pvg.pvgt import read_tensor, write_tensor
from pvg.tensor import Tensor
from oracles import max_reference
from test_graphlu import eight_op_chain


def total(t: Tensor) -> Tensor:
    """The sum of every entry, as a one-element tensor."""
    return T.reduce_sum(T.reshape(t, (t.size,)), 0)


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hand triple loop, no BLAS."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


class TestLinearWithoutBias:
    """``linear(x, w)``: the plain matrix product."""

    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(T.linear(a, b).data, b.data)

    def test_hand_oracle(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        got = T.linear(Tensor(a), Tensor(b)).data
        np.testing.assert_array_equal(got, [[19.0, 22.0], [43.0, 50.0]])
        np.testing.assert_allclose(got, matmul_oracle(a, b), rtol=1e-12)

    def test_random_vs_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 4))
        np.testing.assert_allclose(
            T.linear(Tensor(a), Tensor(b)).data, matmul_oracle(a, b), rtol=1e-12
        )

    def test_zeros_annihilate(self):
        z = Tensor(np.zeros((2, 3)))
        b = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        out = T.linear(z, b)
        assert out.shape == (2, 4)
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_gradient_rule(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        out = T.linear(a, b)
        assert out.op == "linear" and all(p is q._node for p, q in zip(out._parents, (a, b), strict=True))
        g = rng.normal(size=(3, 2))
        out.backward(seed=g)
        np.testing.assert_allclose(a.grad, g @ b.data.T, rtol=1e-12)
        np.testing.assert_allclose(b.grad, a.data.T @ g, rtol=1e-12)


class TestLinear:
    @staticmethod
    def chain(x, w, b, g, prior):
        """The product, then the bias add if there is a bias, transcribed:
        each node's first gradient is ``0 + g`` into a fresh array, a later
        one is ``+=``."""
        g_mm = g + 0.0
        dx = g_mm @ w.T
        dx = dx + 0.0 if prior is None else prior + dx
        dw = (x.T @ g_mm) + 0.0
        if b is None:
            return x @ w, dx, dw
        return x @ w + b, dx, dw, g_mm.reshape(-1, b.shape[0]).sum(axis=0) + 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_prior", [False, True], ids=["fresh", "prior-grad"])
    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no-bias"])
    def test_matches_matmul_plus_bias_bit_for_bit(self, dtype, with_prior, with_bias):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(7, 5)).astype(dtype)
        w0 = rng.normal(size=(5, 3)).astype(dtype)
        b0 = rng.normal(size=3).astype(dtype) if with_bias else None
        g = rng.normal(size=(7, 3)).astype(dtype)
        g[0, 0] = -0.0
        prior = rng.normal(size=(7, 5)).astype(dtype) if with_prior else None
        x = Tensor(x0, requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        b = Tensor(b0, requires_grad=True) if with_bias else None
        if with_prior:
            x.grad = prior.copy()
        out = T.linear(x, w, b)
        want = self.chain(x0, w0, b0, g, prior)
        got_y = out.data.copy()
        out.backward(seed=g)
        results = (got_y, x.grad, w.grad) + ((b.grad,) if with_bias else ())
        for got, ref in zip(results, want, strict=True):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    def test_one_node_over_input_weight_and_bias(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        out = T.linear(x, w, b)
        assert out.op == "linear"
        assert len(out._parents) == 3
        assert all(p is q._node for p, q in zip(out._parents, (x, w, b)))
        assert len(graph_nodes(out)) == 4

    @pytest.mark.parametrize(
        "x_shape, w_shape, b_shape",
        [((4, 3), (2, 2), (2,)), ((4, 3), (3, 2), (3,)), ((4, 3, 1), (3, 2), (2,)), ((4, 3), (3, 2), (1, 2))],
        ids=["inner", "bias-width", "rank-3-input", "rank-2-bias"],
    )
    def test_shape_mismatch(self, x_shape, w_shape, b_shape):
        with pytest.raises(DimensionError):
            T.linear(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_shape)))


class TestWholeArrayGate:
    """The gate's backward is one chain over the whole array: a large array,
    a prior gradient in Fortran order and a gradient in Fortran order give
    the bits of the elementwise chain."""

    SIZE = 3 * 2**16 + 392

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("eps", [0.3, None], ids=["eps", "gelu"])
    def test_cdf_gate_equals_the_elementwise_chain(self, dtype, eps):
        rng = np.random.default_rng(21)
        x0 = (rng.normal(size=(self.SIZE // 1000, 1000)) * 3.0).astype(dtype)
        g = rng.normal(size=x0.shape).astype(dtype)
        # A prior gradient that is not C-contiguous: x's two terms are added
        # into it where it lies.
        dx0 = np.asfortranarray(rng.normal(size=x0.shape).astype(dtype))
        eps0 = None if eps is None else np.array([eps], dtype=dtype)
        x = Tensor(x0, requires_grad=True)
        x.grad = dx0.copy(order="F")
        e = None if eps is None else Tensor(eps0, requires_grad=True)
        y = gelu(x) if e is None else T.cdf_gate(x, e)
        y.backward(seed=g)
        want_y, want_dx, want_deps = eight_op_chain(x0, eps0, g, dx0)
        assert y.data.tobytes() == want_y.tobytes()
        assert x.grad.dtype == dtype and x.grad.tobytes() == want_dx.tobytes()
        if eps is not None:
            assert e.grad.tobytes() == want_deps.tobytes()

    def test_cdf_gate_takes_a_gradient_that_is_not_contiguous(self):
        # eps's gradient sums its terms over g, so a g in Fortran order
        # must give the bits a C-ordered one gives.
        rng = np.random.default_rng(24)
        x0 = rng.normal(size=(3, 5)) * 2.0
        g = rng.normal(size=(3, 5))
        grads = []
        for seed in (g.copy(), np.asfortranarray(g)):
            x, e = Tensor(x0, requires_grad=True), Tensor(np.array([0.3]), requires_grad=True)
            T.cdf_gate(x, e)._node._backward(seed)
            grads.append((x.grad.tobytes(), e.grad.tobytes()))
        assert grads[0] == grads[1]

    def test_cdf_gate_without_a_gradient_holds_one_array_of_its_size(self):
        # Every recompute forward and every detached forward runs the gate
        # without a gradient: its output is written over the erf values,
        # which only backward reads. With a gradient both live (2.0 arrays).
        x0 = (np.random.default_rng(25).normal(size=(1024, 1024)) * 3.0).astype(np.float32)
        want = T.cdf_gate(Tensor(x0, requires_grad=True), Tensor(np.array([0.3], np.float32))).data
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            y = T.cdf_gate(Tensor(x0), Tensor(np.array([0.3], np.float32)))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert y.data.tobytes() == want.tobytes()
        assert peak <= 1.5 * x0.nbytes, peak / x0.nbytes


class TestElementwise:
    # The erf inside cdf_gate: y = 0.5 * x * (1 + erf(x / sqrt(2))), so
    # dy/dx at 0 is 0.5 * (1 + erf(0)), and 2 y / x - 1 recovers erf; in
    # float64 the recovery adds error far below 1e-12.
    def test_erf_odd_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        y = gelu(x)
        assert y.item() == 0.0
        y.backward()
        assert x.grad[0] == 0.5

    def test_erf_one(self):
        # expected value frozen from 50-digit series evaluation of
        # (2/sqrt(pi)) * int_0^1 exp(-t^2) dt
        x = math.sqrt(2.0)
        y = gelu(Tensor([x], dtype=np.float64)).item()
        assert abs(2 * y / x - 1 - 0.8427007929497149) < 1e-12

    def test_erf_accuracy_contract(self):
        # quadrature oracle, independent of the implementation under test
        from scipy.integrate import quad

        xs = np.linspace(-6.0, 6.0, 201)
        xs = xs[xs != 0.0]
        got = 2 * gelu(Tensor(xs * math.sqrt(2.0), dtype=np.float64)).data / (xs * math.sqrt(2.0)) - 1
        for x, g in zip(xs, got):
            ref, err = quad(
                lambda t: 2.0 / math.sqrt(math.pi) * math.exp(-t * t),
                0.0,
                x,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert err < 1e-9  # oracle itself far below the 1e-7 contract
            assert abs(g - ref) <= 1e-7

    def test_max0(self):
        out = T.max0(Tensor([-3.5, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_dispatcher(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 5.0])
        np.testing.assert_array_equal(T.add(a, b).data, [4.0, 7.0])
        np.testing.assert_array_equal(T.sub(b, a).data, [2.0, 3.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
        with pytest.raises(DimensionError):  # a one-element operand does not broadcast
            T.sub(Tensor(np.zeros((2, 2))), Tensor(np.zeros(1)))

    def test_scalar_broadcast(self):
        # cdf_gate's one-element eps is the one scalar broadcast left: its
        # gradient is the sum of what each entry's gate sends it.
        x0 = np.random.default_rng(11).normal(size=(2, 3))
        s = Tensor([0.5], requires_grad=True)
        T.cdf_gate(Tensor(x0), s).backward(np.ones((2, 3)))
        per_entry = []
        for v in x0.reshape(-1):
            s_v = Tensor([0.5], requires_grad=True)
            T.cdf_gate(Tensor([v]), s_v).backward()
            per_entry.append(s_v.grad[0])
        assert s.grad.shape == (1,)
        np.testing.assert_allclose(s.grad, [sum(per_entry)], rtol=1e-12)


class TestReduce:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_mean_equals_numpy_mean_byte_for_byte(self, dtype, axis):
        # The count divides in float64 and casts back, as in np.mean.
        a = (np.random.default_rng(12).normal(size=(7, 33, 129)) * 1e3).astype(dtype)
        a[0, 0, :3] = [np.nan, np.inf, -np.inf]
        a[1, :, 0] = -0.0
        want = np.mean(a, axis=axis, keepdims=True)
        got = T._mean(a, axis)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert T.reduce_mean(Tensor(np.nan_to_num(a)), axis).data.tobytes() == np.mean(np.nan_to_num(a), axis=axis).tobytes()

    def test_max(self):
        assert T.reduce_max(Tensor([1.0, 3.0, 2.0]), 0).item() == 3.0

    def test_mean(self):
        assert T.reduce_mean(Tensor([1.0, 3.0, 2.0]), 0).item() == 2.0

    def test_max_tie_gradient_to_lowest_index(self):
        x = Tensor([2.0, 2.0], requires_grad=True)
        T.reduce_max(x, 0).backward()
        np.testing.assert_array_equal(x.grad, [1.0, 0.0])

    @pytest.mark.parametrize("length", [1, 256, 257, 65537])
    def test_max_gradient_at_index_dtype_boundaries(self, length):
        # The winners are stored in the narrowest unsigned dtype that holds
        # length - 1; the last index must still route its gradient.
        x0 = np.zeros((2, length))
        x0[0, -1] = 1.0
        x0[1, length // 2] = 1.0
        x = Tensor(x0, requires_grad=True)
        T.reduce_max(x, 1).backward(seed=np.array([2.0, 3.0]))
        want = np.zeros_like(x0)
        want[0, -1] = 2.0
        want[1, length // 2] = 3.0
        if length == 1:
            want[:, 0] = [2.0, 3.0]
        np.testing.assert_array_equal(x.grad, want)

    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    @pytest.mark.parametrize(
        "kind", ["duplicated-rows", "signed-zeros", "all-equal", "few-levels", "infinities", "aggregator-layout"]
    )
    def test_max_winners_equal_argmax_under_ties(self, kind, axis):
        # The max is np.max's, byte for byte; the winners come from equality
        # passes, not argmax, and the gradient lands where argmax's first
        # maximum is, on every axis.
        rng = np.random.default_rng(len(kind) + axis)
        if kind == "duplicated-rows":  # neighbour blocks that repeat a row
            x0 = rng.normal(size=(5, 3))[rng.integers(0, 5, size=(6, 5))]
        elif kind == "signed-zeros":
            x0 = rng.choice(np.array([-0.0, 0.0, -1.0]), size=(6, 5, 3))
        elif kind == "all-equal":
            x0 = np.full((6, 5, 3), 0.25)
        elif kind == "infinities":
            x0 = rng.choice(np.array([-np.inf, np.inf, -0.0, 0.0, 1.0]), size=(6, 5, 3))
        elif kind == "aggregator-layout":  # [rows, k, c], each pass 16 channels long
            x0 = rng.choice(np.array([-0.0, 0.0, -2.0, 0.5]), size=(64, 9, 16))
        else:
            x0 = rng.integers(0, 3, size=(6, 5, 3)).astype(np.float64)
        for dtype in (np.float32, np.float64):
            x = Tensor._leaf(x0.astype(dtype), True)  # infinities pass no constructor check
            out = T.reduce_max(x, axis)
            seed = rng.uniform(1.0, 2.0, size=out.shape).astype(dtype)
            want, want_grad = max_reference(x.data, axis, seed)
            assert out.data.tobytes() == want.tobytes()
            out.backward(seed=seed)
            assert x.grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_max_equals_np_max_on_every_pair_and_triple_of_special_values(self, dtype):
        # NaN of either sign, signed zeros and infinities, reduced along the
        # innermost axis (np.max) and along outer ones (the np.maximum passes).
        values = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0]
        for k in (2, 3):
            rows = np.array(list(itertools.product(values, repeat=k)), dtype=dtype)  # [8**k, k]
            for x in (rows, rows.T.copy(), np.stack([rows, rows[::-1]] * 8, axis=2)):
                for axis in range(x.ndim):
                    got = T.reduce_max(Tensor._leaf(x, False), axis)
                    want, _ = max_reference(x, axis, np.zeros(got.shape, dtype))
                    assert got.data.tobytes() == want.tobytes(), (k, x.shape, axis)

    def test_max_gradient_matches_fd_off_ties(self):
        # away from ties the subgradient is the true gradient
        x0 = np.array([0.3, 1.7, -0.4, 0.9])
        report = grad_check(lambda x: T.reduce_max(x, 0), Tensor(x0), op_name="reduce_max")
        assert report.passed, report

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_grad_free_max_keeps_no_closure(self, axis):
        # A max whose output needs no gradient finds no winners: no closure,
        # no parents, and np.max's value bit for bit.
        x0 = np.random.default_rng(5).choice(np.array([-0.0, 0.0, -1.0, 2.5]), size=(6, 5, 3))
        for dtype in (np.float32, np.float64):
            out = T.reduce_max(Tensor(x0.astype(dtype)), axis)
            assert out._backward is None and out._parents == ()
            assert out.data.tobytes() == np.max(x0.astype(dtype), axis=axis).tobytes()

    def test_sum_matches_sequential_accumulation(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 200)).astype(np.float64)
        got = T.reduce_sum(Tensor(x), 1).data
        for i in range(5):
            acc = 0.0
            for v in x[i]:
                acc += v
            assert abs(got[i] - acc) <= 1e-12

    def test_empty_axis(self):
        with pytest.raises(EmptyReductionError):
            T.reduce_sum(Tensor(np.zeros((2, 0))), 1)

    def test_axis_removed(self):
        out = T.reduce_mean(Tensor(np.zeros((2, 3, 4))), 1)
        assert out.shape == (2, 4)


class TestConcatSplit:
    def test_shape_arithmetic(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((2, 5)))
        assert T.concat([a, b], axis=1).shape == (2, 8)

    def test_singleton(self):
        x = Tensor(np.random.default_rng(4).normal(size=(3, 3)))
        np.testing.assert_array_equal(T.concat([x], axis=0).data, x.data)

    def test_three_equal_parts(self):
        c = 5
        parts = [Tensor(np.random.default_rng(i).normal(size=(4, c))) for i in range(3)]
        assert T.concat(parts, axis=1).shape == (4, 3 * c)

    def test_mismatched_extents(self):
        with pytest.raises(DimensionError):
            T.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)

    @pytest.mark.parametrize("axis,sizes", [(0, [1, 3, 2]), (1, [2, 2]), (1, [4])])
    def test_concat_of_split_is_identity(self, axis, sizes):
        shape = (6, 4)
        x = Tensor(np.random.default_rng(5).normal(size=shape).astype(np.float32))
        starts = np.cumsum([0] + sizes[:-1])
        pieces = [T.narrow(x, axis, int(start), width) for start, width in zip(starts, sizes)]
        back = T.concat(pieces, axis=axis)
        assert np.array_equal(back.data, x.data)  # bit exact

    def test_gradient_splits_by_segment(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = T.concat([a, b], axis=1)
        seed = np.arange(10.0).reshape(2, 5)
        out.backward(seed=seed)
        np.testing.assert_array_equal(a.grad, seed[:, :2])
        np.testing.assert_array_equal(b.grad, seed[:, 2:])

    def test_narrow_backward_adds_into_the_input_gradient(self):
        # Each FFN row block narrows its block's input. Once the input holds
        # a gradient, a block's backward adds its rows in place; an array of
        # the whole input is filled only for the first gradient.
        rng = np.random.default_rng(26)
        x0 = rng.normal(size=(4096, 64)).astype(np.float32)
        g = rng.normal(size=(512, 64)).astype(np.float32)
        g[0, 0] = -0.0
        x = Tensor(x0, requires_grad=True)
        out = T.narrow(x, 0, 1024, 512)
        out._node._backward(g)
        want = np.zeros_like(x0)
        want[1024:1536] = 0.0 + g
        assert x.grad.tobytes() == want.tobytes()

        held = rng.normal(size=x0.shape).astype(np.float32)
        x.grad = held.copy()
        out = T.narrow(x, 0, 2048, 512)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out._node._backward(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        held[2048:2560] += g
        assert x.grad.tobytes() == held.tobytes()
        assert peak < x0.nbytes, peak / x0.nbytes


class TestGatherRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["duplicates-and-hub", "negative-zero", "empty"])
    def test_backward_equals_row_scatter_byte_for_byte(self, case, dtype):
        rng = np.random.default_rng(12)
        rows, c = 40, 5
        if case == "empty":
            idx = np.zeros((0, 4), dtype=np.int64)
        else:
            idx = rng.integers(0, rows, size=(60, 4))
            idx[:, 1:3] = 7  # hub: row 7 is gathered at least 120 times
            assert np.count_nonzero(idx == 7) > 100
        x = Tensor(rng.normal(size=(rows, c)).astype(dtype), requires_grad=True)
        # Magnitudes over twelve decades, so any other summation order rounds differently.
        g = rng.normal(size=idx.shape + (c,)) * 10.0 ** rng.integers(-6, 6, size=idx.shape + (c,))
        g = g.astype(dtype)
        if case == "negative-zero":
            g[::2] = -0.0
        T.gather_rows(x, idx).backward(g)

        want = np.zeros((rows, c), dtype=dtype)
        np.add.at(want, idx.reshape(-1), g.reshape(-1, c))
        assert x.grad.dtype == dtype
        assert x.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "idx",
        [np.array([0.0, 1.7]), np.array([True, False, True])],
        ids=["float", "bool"],
    )
    def test_non_integer_index_rejected(self, idx):
        # Unchecked, numpy raises IndexError for a float index and reads a
        # bool one as a row mask, which gathers rows 0 and 2 here.
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with pytest.raises(DimensionError, match="integer"):
            T.gather_rows(x, idx)


class TestInvariantsAndErrors:
    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, np.nan])
        with pytest.raises(NonFiniteError):
            Tensor([np.inf])

    def test_flat_length_matches_shape(self):
        t = Tensor(np.zeros((3, 4, 5)))
        assert t.size == 60
        assert t.data.flags["C_CONTIGUOUS"]

    def test_grad_shape_matches(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        total(t).backward()
        assert t.grad.shape == t.shape


def graph_nodes(root: Tensor) -> list[Tensor]:
    """Every node a sweep from ``root`` visits, consumers before producers."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if p.requires_grad)
    return order[::-1]


def retaining_sweep(root: Tensor) -> None:
    """Reverse-mode sweep that leaves every node as it was: the definition a
    consuming ``Tensor.backward`` must match at the leaves."""
    root._node._accumulate(np.ones_like(root.data))
    for node in graph_nodes(root):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class TestBackwardConsumesGraph:
    @staticmethod
    def model_loss(model: Model, images: np.ndarray) -> tuple[Tensor, Tensor]:
        x = Tensor(images, requires_grad=True)
        return x, T.softmax_cross_entropy(model.forward(x), np.array([0, 1]))

    @staticmethod
    def grad_bytes(t: Tensor) -> bytes | None:
        return None if t.grad is None else t.grad.tobytes()

    @pytest.mark.parametrize("form", ["recompute", "pass-through"])
    def test_interior_nodes_released_and_leaf_gradients_unchanged(self, monkeypatch, form):
        # In pass-through form the graph branches' ops are nodes of the
        # graph; as the model runs, each branch is one recompute node.
        if form == "pass-through":
            monkeypatch.setattr(net, "recompute", lambda fn, inputs: fn(*inputs))
        model = Model(tiny_config(), seed=0)
        images = np.random.default_rng(0).random((2, 32, 32, 3)).astype(np.float32)
        x_ref, loss_ref = self.model_loss(model, images)
        retaining_sweep(loss_ref)
        want = {name: self.grad_bytes(t) for name, t in model.params.items()}
        want_x = self.grad_bytes(x_ref)

        model.zero_grad()
        x, loss = self.model_loss(model, images)
        interior = [node for node in graph_nodes(loss) if node.op != "leaf"]
        if form == "pass-through":
            assert len(interior) > 100
        else:
            assert "recompute" in {node.op for node in interior}
        loss.backward()
        for node in interior:
            assert node.grad is None and node._backward is None and node._parents == ()
        assert all(t.grad is not None for t in model.params.values())
        assert {name: self.grad_bytes(t) for name, t in model.params.items()} == want
        assert self.grad_bytes(x) == want_x

    def test_backward_frees_graph_while_root_is_held(self):
        # numpy's buffers are traced by tracemalloc. With ``loss`` still
        # named, what the sweep leaves behind is the parameter gradients.
        # At batch 32 the graph (about 16.4 MB) is well above twice the
        # parameters' 4.7 MB, so a leak of either would show.
        model = Model(tiny_config(), seed=0)
        images = np.random.default_rng(3).random((32, 32, 32, 3)).astype(np.float32)
        grad_bytes = sum(t.data.nbytes for t in model.params.values())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = T.softmax_cross_entropy(model.forward(images), np.arange(32) % 2)
            graph = tracemalloc.get_traced_memory()[0] - base
            loss.backward()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert graph > 2 * grad_bytes
        assert held <= grad_bytes + 0.02 * graph, (held, grad_bytes, graph)

    def test_second_backward_from_same_root_raises(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        loss = total(T.max0(T.linear(Tensor(rng.normal(size=(5, 4))), w)))
        loss.backward()
        first = w.grad.copy()
        with pytest.raises(GraphReleasedError):
            loss.backward()
        assert w.grad.tobytes() == first.tobytes()

    def test_second_root_over_released_subgraph_raises(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        h = T.linear(Tensor(rng.normal(size=(5, 4))), w)
        second = total(T.max0(h))
        total(h).backward()
        first = w.grad.copy()
        with pytest.raises(GraphReleasedError):
            second.backward()
        # The check runs before any closure: nothing reached the leaf.
        assert w.grad.tobytes() == first.tobytes()

    def test_error_has_own_category(self):
        assert issubclass(GraphReleasedError, PvgError)
        assert GraphReleasedError.category == "graph-released"

    def test_owned_first_contribution_becomes_the_gradient(self):
        # Handed over, a first contribution of the node's shape and dtype is
        # the gradient itself, with 0 added in place; one of another dtype
        # is copied into the node's dtype.
        node = Tensor(np.zeros(3, np.float32), requires_grad=True)._node
        g = np.array([-0.0, 1.0, -2.0], np.float32)
        node._accumulate(g, owned=True)
        assert node.grad is g and not np.signbit(g[0])
        node._accumulate(g.copy(), owned=True)  # a later one is added
        np.testing.assert_array_equal(node.grad, [0.0, 2.0, -4.0])
        fresh = Tensor(np.zeros(3, np.float32), requires_grad=True)._node
        fresh._accumulate(np.array([-0.0, 1.0, -2.0]), owned=True)
        assert fresh.grad.tobytes() == np.array([0.0, 1.0, -2.0], np.float32).tobytes()

    def test_rank_0_interior_gradients(self):
        # A sum to a scalar is a 0-d node; numpy hands sub's -g and max0's
        # masked g back as scalars, which the node copies into a 0-d array.
        a = Tensor(np.array([2.0, 1.0]), requires_grad=True)
        b = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        T.max0(T.sub(T.reduce_sum(b, 0), T.reduce_sum(a, 0))).backward()
        np.testing.assert_array_equal(a.grad, [-1.0, -1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_first_contribution_is_added_to_zero(self):
        # max0 backward over a negative input with a negative upstream
        # gradient gives -0.0; the leaf keeps +0.0, as 0 + (-0.0) is.
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        T.max0(x).backward(np.array([-3.0, -3.0]))
        assert not np.signbit(x.grad[0])
        np.testing.assert_array_equal(x.grad, [0.0, -3.0])


class TestLeafHooks:
    """A leaf's hook runs once, with the leaf's final gradient, as soon as
    the sweep has released every node that reads the leaf."""

    @staticmethod
    def sweep(loss: Tensor, leaves: dict[str, Tensor]) -> list[tuple]:
        # Each closure that runs, and each hook call with the gradient it was
        # handed, in the order of the sweep.
        events: list[tuple] = []
        for node in graph_nodes(loss._node):
            if node._backward is not None:
                def closure(g, fn=node._backward, node=node):
                    events.append(("closure", id(node)))
                    fn(g)

                node._backward = closure
        for name, leaf in leaves.items():
            leaf.hook = lambda g, name=name: events.append(("hook", name, None if g is None else g.copy()))
        loss.backward()
        return events

    @staticmethod
    def released(events: list[tuple], consumers: list[Tensor]) -> int:
        # The position of the last consumer's closure.
        return max(events.index(("closure", id(c._node))) for c in consumers)

    @staticmethod
    def hook_calls(events: list[tuple], name: str) -> list[tuple[int, np.ndarray | None]]:
        return [(i, e[2]) for i, e in enumerate(events) if e[:2] == ("hook", name)]

    def test_leaf_read_by_two_ops(self):
        rng = np.random.default_rng(4)
        x, y = Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(3, 4)))

        def build(w: Tensor) -> tuple[Tensor, list[Tensor]]:
            a, b = T.linear(x, w), T.linear(y, w)
            return T.add(total(T.max0(a)), total(b)), [a, b]

        w_ref = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        build(w_ref)[0].backward()
        w = Tensor(w_ref.data.copy(), requires_grad=True)
        loss, consumers = build(w)
        events = self.sweep(loss, {"w": w})
        [(at, g)] = self.hook_calls(events, "w")
        assert at > self.released(events, consumers)
        assert g.tobytes() == w_ref.grad.tobytes()
        assert w.grad is None  # moved out of the leaf

    def test_leaf_twice_in_one_op(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        doubled = T.add(x, x)
        events = self.sweep(total(T.max0(doubled)), {"x": x})
        [(at, g)] = self.hook_calls(events, "x")
        assert at > self.released(events, [doubled])
        np.testing.assert_array_equal(g, [2.0, 0.0, 2.0])

    def test_leaf_whose_consumer_receives_no_gradient(self):
        # The consumer's closure never runs, but its release still counts.
        rng = np.random.default_rng(5)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        relu = T.max0(w)
        h = T.linear(Tensor(rng.normal(size=(2, 4))), relu, b)
        h._node._backward = lambda g: b._node._accumulate(g.sum(axis=0))
        events = self.sweep(total(h), {"w": w, "b": b})
        assert ("closure", id(relu._node)) not in events
        assert [g for _, g in self.hook_calls(events, "w")] == [None]
        [(_, gb)] = self.hook_calls(events, "b")
        np.testing.assert_array_equal(gb, [2.0, 2.0, 2.0])

    def test_hooked_root_gets_the_seed(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        calls = []
        w.hook = calls.append
        w.backward(np.array([3.0, 4.0]))
        [g] = calls
        np.testing.assert_array_equal(g, [3.0, 4.0])

    def test_released_graph_raises_before_any_hook(self):
        rng = np.random.default_rng(6)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        v = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 4)))
        h = T.linear(x, w)
        loss = total(h)
        second = T.add(total(T.max0(h)), total(T.linear(x, v)))
        loss.backward()
        calls = []
        w.hook = v.hook = calls.append
        with pytest.raises(GraphReleasedError):
            loss.backward()
        with pytest.raises(GraphReleasedError):
            second.backward()
        assert calls == [] and v.grad is None

    def test_leaf_without_hook_keeps_its_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(5, 4)))

        def build(w: Tensor, u: Tensor) -> Tensor:
            return total(T.max0(T.linear(T.linear(x, w), u)))

        w_ref = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        u_ref = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        build(w_ref, u_ref).backward()
        w, u = (Tensor(t.data.copy(), requires_grad=True) for t in (w_ref, u_ref))
        events = self.sweep(build(w, u), {"u": u})
        [(_, g)] = self.hook_calls(events, "u")
        assert g.tobytes() == u_ref.grad.tobytes() and u.grad is None
        assert w.grad.tobytes() == w_ref.grad.tobytes()


class TestRecompute:
    """``recompute`` runs its function in forward without a graph, and again
    in backward on leaves that carry the inputs' gradients."""

    @staticmethod
    def branch(x: Tensor, w: Tensor, eps: Tensor) -> Tensor:
        # A graph branch in miniature: gather, max, concat, linear, gate.
        nbh = T.gather_rows(x, np.array([[1, 2], [0, 2], [3, 1], [0, 0]]))
        return T.cdf_gate(T.linear(T.concat([x, T.reduce_max(nbh, 1)], axis=1), w), eps)

    @staticmethod
    def inputs(dtype, requires_grad: bool = True) -> list[Tensor]:
        rng = np.random.default_rng(8)
        arrays = (rng.normal(size=(4, 3)), rng.normal(size=(6, 2)), np.array([0.3]))
        return [Tensor(a.astype(dtype), requires_grad=requires_grad) for a in arrays]

    def test_values_and_gradients_equal_the_function_graph(self):
        for dtype in (np.float32, np.float64):
            runs = []
            for form in (T.recompute, lambda fn, inputs: fn(*inputs)):
                ins = self.inputs(dtype)
                out = form(self.branch, ins)
                out.backward(np.random.default_rng(9).normal(size=out.shape).astype(dtype))
                runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in ins])
            assert runs[0] == runs[1]

    def test_one_node_that_keeps_only_the_input_values(self):
        ins = self.inputs(np.float64)
        out = T.recompute(self.branch, ins)
        assert out.op == "recompute" and out._parents == tuple(t._node for t in ins)
        cells = [c.cell_contents for c in out._backward.__closure__]
        kept = [a for c in cells for a in (c if isinstance(c, list) else [c]) if isinstance(a, np.ndarray)]
        assert sorted(map(id, kept)) == sorted(id(t.data) for t in ins)

    def test_grad_free_inputs_record_nothing(self):
        out = T.recompute(self.branch, self.inputs(np.float64, requires_grad=False))
        assert out._backward is None and out._parents == ()

    def test_input_read_twice_and_input_without_gradient(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 2)))
        out = T.recompute(lambda a, b, k: T.sub(T.max0(a), T.add(b, k)), [x, x, c])
        total(out).backward()
        np.testing.assert_array_equal(x.grad, (x.data > 0) - 1.0)
        assert c.grad is None

    def test_hooked_input_gets_its_gradient_once_the_node_is_released(self):
        ref = self.inputs(np.float64)
        total(self.branch(*ref)).backward()
        ins = self.inputs(np.float64)
        out = T.recompute(self.branch, ins)
        calls = []
        ins[1].hook = lambda g: calls.append((out._node._backward, g))
        total(out).backward()
        [(closure, g)] = calls
        assert closure is None  # released before the hook ran
        assert g.tobytes() == ref[1].grad.tobytes() and ins[1].grad is None


class TestGradCheckHarness:
    def test_quadratic(self):
        x = Tensor(np.random.default_rng(6).normal(size=(4, 4)))
        report = grad_check(lambda t: T.linear(t, t), x, op_name="square")
        assert report.passed
        assert report.max_rel_error <= 1e-6

    def test_constant_function(self):
        const = Tensor(np.ones((2, 2)))
        x = Tensor(np.zeros((2, 2)))
        zero = Tensor(np.zeros((2, 2)))
        report = grad_check(lambda t: T.linear(t, zero), x, op_name="zero")
        assert report.passed
        x2 = Tensor(np.random.default_rng(7).normal(size=(3,)), requires_grad=True)
        y = total(const)
        y.backward()
        assert x2.grad is None  # unreached leaves accumulate nothing

    def test_report_invariant(self):
        x = Tensor(np.random.default_rng(8).normal(size=(3, 3)))
        report = grad_check(gelu, x, op_name="cdf_gate")
        assert report.passed == (report.max_rel_error <= report.tolerance)
        assert report.probe_count >= 1

    def test_non_scalar_output_is_checked_on_a_random_cotangent(self):
        # A transpose whose backward forgets to transpose: under a plain sum
        # the wrong layout would go unseen.
        def bad_transpose(x: Tensor) -> Tensor:
            out = Tensor._from_op(np.ascontiguousarray(x.data.T), (x,), "bad_transpose")
            out._backward = lambda g: x._node._accumulate(g)
            return out

        x = Tensor(np.random.default_rng(9).normal(size=(3, 3)))
        assert grad_check(lambda t: T.permute(t, (1, 0)), x).passed
        assert not grad_check(bad_transpose, x).passed

    def test_non_finite_function_is_checked_error(self):
        from pvg.errors import EvaluationError

        x = Tensor(np.full((2, 2), 1e200))  # 1e200 squared overflows to inf
        with pytest.raises(EvaluationError), np.errstate(over="ignore"):
            grad_check(lambda t: T.linear(t, t), x, op_name="overflow")


class TestPVGTFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        arr = np.random.default_rng(9).normal(size=(3, 5, 2)).astype(np.float32)
        path = tmp_path / "t.pvgt"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)

    def test_layout(self, tmp_path):
        path = tmp_path / "t.pvgt"
        write_tensor(path, np.array([[1.0, 2.0]], dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"PVGT"
        assert int.from_bytes(raw[4:8], "little") == 2  # rank
        assert int.from_bytes(raw[8:12], "little") == 1
        assert int.from_bytes(raw[12:16], "little") == 2
        assert np.frombuffer(raw, dtype="<f4", offset=16).tolist() == [1.0, 2.0]

    def test_rank_zero_scalar(self, tmp_path):
        path = tmp_path / "s.pvgt"
        write_tensor(path, np.float32(3.5))
        back = read_tensor(path)
        assert back.shape == ()
        assert back == np.float32(3.5)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pvgt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FileFormatError):
            read_tensor(path)

    def test_element_count_past_int64_is_format_error(self, tmp_path):
        # Extents [65536] * 4 hold 2^64 elements: an int64 product wraps to
        # 0, which an empty payload would match.
        path = tmp_path / "huge.pvgt"
        path.write_bytes(b"PVGT" + (4).to_bytes(4, "little") + (65536).to_bytes(4, "little") * 4)
        with pytest.raises(FileFormatError, match="expected 73786976294838206464"):
            read_tensor(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.pvgt"
        write_tensor(path, np.ones((4, 4), dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(FileFormatError):
            read_tensor(path)
