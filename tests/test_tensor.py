"""Tensor core: forward semantics, gradient rules, and the PVGT format."""

import math
import tracemalloc

import numpy as np
import pytest

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
from pvg.net import Model, tiny_config
from pvg.pvgt import read_tensor, write_tensor
from pvg.tensor import Tensor


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


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, b.data)

    def test_hand_oracle(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        got = T.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_array_equal(got, [[19.0, 22.0], [43.0, 50.0]])
        np.testing.assert_allclose(got, matmul_oracle(a, b), rtol=1e-12)

    def test_random_vs_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 4))
        np.testing.assert_allclose(
            T.matmul(Tensor(a), Tensor(b)).data, matmul_oracle(a, b), rtol=1e-12
        )

    def test_zeros_annihilate(self):
        z = Tensor(np.zeros((2, 3)))
        b = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        out = T.matmul(z, b)
        assert out.shape == (2, 4)
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_gradient_rule(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        out = T.matmul(a, b)
        g = rng.normal(size=(3, 2))
        out.backward(seed=g)
        np.testing.assert_allclose(a.grad, g @ b.data.T, rtol=1e-12)
        np.testing.assert_allclose(b.grad, a.data.T @ g, rtol=1e-12)


class TestLinear:
    @staticmethod
    def chain(x, w, b, g, prior):
        """The matmul-then-bias-add chain, transcribed: each node's first
        gradient is ``0 + g`` into a fresh array, a later one is ``+=``."""
        y = x @ w
        y = y + b
        g_out = g + 0.0
        db = g_out.reshape(-1, b.shape[0]).sum(axis=0) + 0.0
        g_mm = g_out + 0.0
        dx = g_mm @ w.T
        dx = dx + 0.0 if prior is None else prior + dx
        dw = (x.T @ g_mm) + 0.0
        return y, dx, dw, db

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_prior", [False, True], ids=["fresh", "prior-grad"])
    def test_matches_matmul_plus_bias_bit_for_bit(self, dtype, with_prior):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(7, 5)).astype(dtype)
        w0 = rng.normal(size=(5, 3)).astype(dtype)
        b0 = rng.normal(size=3).astype(dtype)
        g = rng.normal(size=(7, 3)).astype(dtype)
        g[0, 0] = -0.0
        prior = rng.normal(size=(7, 5)).astype(dtype) if with_prior else None
        x = Tensor(x0, requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        if with_prior:
            x.grad = prior.copy()
        out = T.linear(x, w, b)
        want = self.chain(x0, w0, b0, g, prior)
        got_y = out.data.copy()
        out.backward(seed=g)
        for got, ref in zip((got_y, x.grad, w.grad, b.grad), want):
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
        assert all(p is q for p, q in zip(out._parents, (x, w, b)))
        assert len(graph_nodes(out)) == 4

    @pytest.mark.parametrize(
        "x_shape, w_shape, b_shape",
        [((4, 3), (2, 2), (2,)), ((4, 3), (3, 2), (3,)), ((4, 3, 1), (3, 2), (2,)), ((4, 3), (3, 2), (1, 2))],
        ids=["inner", "bias-width", "rank-3-input", "rank-2-bias"],
    )
    def test_shape_mismatch(self, x_shape, w_shape, b_shape):
        with pytest.raises(DimensionError):
            T.linear(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_shape)))


class TestElementwise:
    # The erf inside cdf_gate: y = 0.5 * x * (1 + erf(x / sqrt(2))), so
    # dy/dx at 0 is 0.5 * (1 + erf(0)), and 2 y / x - 1 recovers erf; in
    # float64 the recovery adds error far below 1e-12.
    def test_erf_odd_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        y = T.cdf_gate(x)
        assert y.item() == 0.0
        y.backward()
        assert x.grad[0] == 0.5

    def test_erf_one(self):
        # expected value frozen from 50-digit series evaluation of
        # (2/sqrt(pi)) * int_0^1 exp(-t^2) dt
        x = math.sqrt(2.0)
        y = T.cdf_gate(Tensor([x], dtype=np.float64)).item()
        assert abs(2 * y / x - 1 - 0.8427007929497149) < 1e-12

    def test_erf_accuracy_contract(self):
        # quadrature oracle, independent of the implementation under test
        from scipy.integrate import quad

        xs = np.linspace(-6.0, 6.0, 201)
        xs = xs[xs != 0.0]
        got = 2 * T.cdf_gate(Tensor(xs * math.sqrt(2.0), dtype=np.float64)).data / (xs * math.sqrt(2.0)) - 1
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
        np.testing.assert_array_equal(T.mul(a, b).data, [3.0, 10.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_scalar_broadcast(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        s = Tensor([3.0], requires_grad=True)
        out = T.mul(a, s)
        np.testing.assert_array_equal(out.data, 3.0 * np.ones((2, 2)))
        T.sum_all(out).backward()
        np.testing.assert_array_equal(s.grad, [4.0])


class TestReduce:
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

    def test_max_gradient_matches_fd_off_ties(self):
        # away from ties the subgradient is the true gradient
        x0 = np.array([0.3, 1.7, -0.4, 0.9])
        report = grad_check(lambda x: T.reduce_max(x, 0), Tensor(x0), op_name="reduce_max")
        assert report.passed, report

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
        T.sum_all(t).backward()
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
    root._accumulate(np.ones_like(root.data))
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

    def test_interior_nodes_released_and_leaf_gradients_unchanged(self):
        model = Model(tiny_config(), seed=0)
        images = np.random.default_rng(0).random((2, 32, 32, 3)).astype(np.float32)
        x_ref, loss_ref = self.model_loss(model, images)
        retaining_sweep(loss_ref)
        want = {name: self.grad_bytes(t) for name, t in model.params.items()}
        want_x = self.grad_bytes(x_ref)

        model.zero_grad()
        x, loss = self.model_loss(model, images)
        interior = [node for node in graph_nodes(loss) if node.op != "leaf"]
        assert len(interior) > 100
        loss.backward()
        for node in interior:
            assert node.grad is None and node._backward is None and node._parents == ()
        assert all(t.grad is not None for t in model.params.values())
        assert {name: self.grad_bytes(t) for name, t in model.params.items()} == want
        assert self.grad_bytes(x) == want_x

    def test_backward_frees_graph_while_root_is_held(self):
        # numpy's buffers are traced by tracemalloc. With ``loss`` still
        # named, what the sweep leaves behind is the parameter gradients.
        model = Model(tiny_config(), seed=0)
        images = np.random.default_rng(3).random((8, 32, 32, 3)).astype(np.float32)
        grad_bytes = sum(t.data.nbytes for t in model.params.values())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = T.softmax_cross_entropy(model.forward(images), np.arange(8) % 2)
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
        loss = T.sum_all(T.max0(T.matmul(Tensor(rng.normal(size=(5, 4))), w)))
        loss.backward()
        first = w.grad.copy()
        with pytest.raises(GraphReleasedError):
            loss.backward()
        assert w.grad.tobytes() == first.tobytes()

    def test_second_root_over_released_subgraph_raises(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        h = T.matmul(Tensor(rng.normal(size=(5, 4))), w)
        second = T.sum_all(T.max0(h))
        T.sum_all(h).backward()
        first = w.grad.copy()
        with pytest.raises(GraphReleasedError):
            second.backward()
        # The check runs before any closure: nothing reached the leaf.
        assert w.grad.tobytes() == first.tobytes()

    def test_error_has_own_category(self):
        assert issubclass(GraphReleasedError, PvgError)
        assert GraphReleasedError.category == "graph-released"

    def test_first_contribution_is_added_to_zero(self):
        # max0 backward over a negative input with a negative upstream
        # gradient gives -0.0; the leaf keeps +0.0, as 0 + (-0.0) is.
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        T.sum_all(T.mul(T.max0(x), Tensor(np.array([-3.0, -3.0])))).backward()
        assert not np.signbit(x.grad[0])
        np.testing.assert_array_equal(x.grad, [0.0, -3.0])


class TestGradCheckHarness:
    def test_quadratic(self):
        x = Tensor(np.random.default_rng(6).normal(size=(4, 4)))
        report = grad_check(lambda t: T.sum_all(T.mul(t, t)), x, op_name="sum_sq")
        assert report.passed
        assert report.max_rel_error <= 1e-6

    def test_constant_function(self):
        const = Tensor(np.ones((2, 2)))
        x = Tensor(np.zeros((2, 2)))
        zero = Tensor(np.zeros((2, 2)))
        report = grad_check(lambda t: T.sum_all(T.mul(t, zero)), x, op_name="zero")
        assert report.passed
        x2 = Tensor(np.random.default_rng(7).normal(size=(3,)), requires_grad=True)
        y = T.sum_all(const)
        y.backward()
        assert x2.grad is None  # unreached leaves accumulate nothing

    def test_report_invariant(self):
        x = Tensor(np.random.default_rng(8).normal(size=(3, 3)))
        report = grad_check(lambda t: T.sum_all(T.cdf_gate(t)), x, op_name="cdf_gate")
        assert report.passed == (report.max_rel_error <= report.tolerance)
        assert report.probe_count >= 1

    def test_non_finite_function_is_checked_error(self):
        from pvg.errors import EvaluationError

        x = Tensor(np.full((2, 2), 1e200))  # 1e200 squared overflows to inf
        with pytest.raises(EvaluationError), np.errstate(over="ignore"):
            grad_check(lambda t: T.sum_all(T.mul(t, t)), x, op_name="overflow")


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

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.pvgt"
        write_tensor(path, np.ones((4, 4), dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(FileFormatError):
            read_tensor(path)
