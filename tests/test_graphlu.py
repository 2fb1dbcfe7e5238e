"""GraphLU: CDF gating, GELU limit, and learnability of the relaxation."""

import math

import numpy as np
import pytest

from pvg._erf import erf
from pvg.errors import DimensionError
from pvg.gradcheck import grad_check
from pvg.graphlu import EPSILON_FLOOR, gelu, graphlu, phi
from pvg.net import Model, tiny_config
from pvg.tensor import Tensor, cdf_gate


def eps_tensor(value: float) -> Tensor:
    """A learnable one-element float64 epsilon."""
    return Tensor(np.full((1,), value), requires_grad=True)


def graphlu_reference(x, epsilon: float = 0.0):
    """x * phi(x) in plain numpy; the definitional form."""
    return np.asarray(x, dtype=np.float64) * phi(x, epsilon)


def eight_op_chain(x, eps, g, dx0=None, deps0=None):
    """GraphLU (GELU when ``eps`` is None) as the elementwise chain
    add_scalar, reciprocal, scale, mul, erf, add_scalar, mul, scale, in
    numpy: the forward values, then the gradients of x and eps for the
    upstream gradient ``g``, added onto the prior gradients ``dx0`` and
    ``deps0`` (None: no prior) as that chain's backward sweep added them.
    ``fresh`` is a node's first gradient, 0 + g, which turns -0.0 into +0.0.
    erf is pvg's own (its accuracy is held by ``tests/test_erf.py``), and the
    erf node's slope 2/sqrt(pi) exp(-arg^2) is evaluated in x's dtype, so
    this checks the fusion's arithmetic bit for bit.
    """
    dt = x.dtype
    one, half = np.asarray(1.0, dt), np.asarray(0.5, dt)
    c = np.asarray(1.0 / math.sqrt(2.0), dt)
    if eps is None:
        s = c
    else:
        shifted = eps + one
        inv_sd = 1.0 / shifted
        s = inv_sd * c
    arg = x * s
    e = erf(arg, np.empty_like(arg))
    e1 = e + one
    y = (x * e1) * half

    def fresh(v):
        return v + 0.0

    def accumulate(prior, v):
        return fresh(v) if prior is None else prior + v

    g_m = fresh(g * half)
    dx = accumulate(dx0, g_m * e1)
    g_e = fresh(fresh(g_m * x))
    d = np.asarray(2.0 / math.sqrt(math.pi), dt) * np.exp(-(arg * arg))
    g_arg = fresh(g_e * d)
    dx += g_arg * s
    if eps is None:
        return y, dx, None
    g_s = fresh(np.sum(g_arg * x).reshape(eps.shape).astype(dt))
    g_inv_sd = fresh(g_s * c)
    d_eps = accumulate(deps0, fresh(-g_inv_sd / (shifted * shifted)))
    return y, dx, d_eps


def normal_cdf_oracle(x: float, sd: float = 1.0) -> float:
    """Quadrature of the Gaussian density, independent of erf."""
    from scipy.integrate import quad

    density = lambda t: np.exp(-t * t / (2 * sd * sd)) / (np.sqrt(2 * np.pi) * sd)
    tail, _ = quad(density, -np.inf, x, epsabs=1e-13)
    return tail


class TestPhi:
    @pytest.mark.parametrize("eps", [0.0, -0.5, 0.3, 2.0])
    def test_half_at_zero(self, eps):
        assert phi(0.0, eps) == 0.5

    def test_symmetry(self):
        xs = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(phi(xs, 0.4) + phi(-xs, 0.4), 1.0, atol=1e-12)

    def test_standard_normal_value(self):
        assert abs(phi(1.0, 0.0) - 0.8413447460685429) < 1e-12
        assert abs(phi(1.0, 0.0) - normal_cdf_oracle(1.0)) < 1e-10

    def test_wider_sd(self):
        assert abs(phi(1.0, 1.0) - normal_cdf_oracle(1.0, sd=2.0)) < 1e-10

    def test_any_layout(self):
        x = np.random.default_rng(2).normal(size=(3, 4, 5))
        assert np.array_equal(phi(x.transpose(2, 0, 1), 0.3), phi(x, 0.3).transpose(2, 0, 1))

    def test_monotone(self):
        xs = np.linspace(-8, 8, 400)
        for eps in (-0.9, 0.0, 1.5):
            assert np.all(np.diff(phi(xs, eps)) >= 0)


class TestFusedGate:
    @pytest.mark.parametrize("prior", [False, True], ids=["fresh", "prior-grad"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("eps", [0.0, 0.3, -0.5, None])
    def test_equals_eight_op_chain_bit_for_bit(self, dtype, eps, prior):
        rng = np.random.default_rng(11)
        x0 = (rng.normal(size=(64, 48)) * 3.0).astype(dtype)
        x0[0, :6] = [0.0, -0.0, 40.0, -40.0, 1e-30, -1e-30]  # zeros, saturated erf
        g = rng.normal(size=x0.shape).astype(dtype)
        g[1, :3] = [0.0, -0.0, 1e-30]
        eps0 = None if eps is None else np.array([eps], dtype=dtype)
        # A prior gradient, as from another consumer swept earlier, makes the
        # order in which x's two terms are added show in the bits.
        dx0 = rng.normal(size=x0.shape).astype(dtype) if prior else None
        deps0 = np.array([0.7], dtype=dtype) if prior else None

        x = Tensor(x0, requires_grad=True)
        x.grad = None if dx0 is None else dx0.copy()
        # GELU is the gate at an epsilon = 0 leaf that needs no gradient; the
        # chain checks it against the constant 1/sqrt(2) scale.
        e = None if eps is None else Tensor(eps0, requires_grad=True)
        if e is not None:
            e.grad = None if deps0 is None else deps0.copy()
        y = gelu(x) if e is None else cdf_gate(x, e)
        y.backward(seed=g)
        want_y, want_dx, want_deps = eight_op_chain(x0, eps0, g, dx0, deps0)

        assert y.data.dtype == x.grad.dtype == dtype
        assert y.data.tobytes() == want_y.tobytes()
        assert x.grad.tobytes() == want_dx.tobytes()
        if eps is not None:
            assert e.grad.tobytes() == want_deps.tobytes()

    def test_float32_slope_within_stated_bound(self):
        # A float32 gate's backward evaluates erf's slope 2/sqrt(pi) exp(-a^2)
        # in float32, within (a^2 + 6) 2^-24 relative of exact at its a = x * s
        # (cdf_gate's docstring). For one element and eps = 0, eps's gradient
        # is -(0.5 x * slope * x) / sqrt(2) with three more float32 roundings.
        s = np.float32(1.0 / math.sqrt(2.0))
        for x0 in np.linspace(-12.5, 12.5, 1000, dtype=np.float32):  # exp(-a^2) stays normal
            x = Tensor(np.array([x0]), requires_grad=True)
            e = Tensor(np.zeros(1, np.float32), requires_grad=True)
            cdf_gate(x, e).backward(seed=np.ones(1, np.float32))
            a = float(x0 * s)
            exact = -0.5 * float(x0) ** 2 * float(s) * 2.0 / math.sqrt(math.pi) * math.exp(-a * a)
            assert abs(float(e.grad[0]) - exact) <= (a * a + 6 + 3) * 2.0**-24 * abs(exact), x0

    def test_graphlu_and_gelu_add_one_interior_node(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        epsilon = eps_tensor(0.2)
        y = graphlu(x, epsilon)
        assert y.op == "cdf_gate" and y._parents == (x._node, epsilon._node)
        assert all(p.op == "leaf" for p in y._parents)
        z = gelu(x)
        assert z.op == "cdf_gate" and z._parents[0] is x._node
        (zero,) = z._parents[1:]
        assert zero.op == "leaf" and not zero.requires_grad
        assert zero.dtype == x.dtype and zero.shape == (1,)

    def test_eps_must_be_one_value(self):
        with pytest.raises(DimensionError):
            cdf_gate(Tensor(np.ones(3)), Tensor(np.zeros(2)))


class TestGraphLU:
    def test_zero_input(self):
        for eps in (0.0, -0.5, 1.0):
            epsilon = eps_tensor(eps)
            assert graphlu(Tensor([0.0], dtype=np.float64), epsilon).item() == 0.0

    def test_reduces_to_gelu_at_zero_eps(self):
        xs = np.linspace(-6, 6, 2001)
        epsilon = eps_tensor(0.0)
        got = graphlu(Tensor(xs, dtype=np.float64), epsilon).data
        ref = gelu(Tensor(xs, dtype=np.float64)).data
        assert np.max(np.abs(got - ref)) <= 1e-6

    def test_value_at_one(self):
        epsilon = eps_tensor(0.0)
        got = graphlu(Tensor([1.0], dtype=np.float64), epsilon).item()
        assert abs(got - 0.8413447460685429) < 1e-9
        assert abs(got - 1.0 * normal_cdf_oracle(1.0)) < 1e-9

    def test_large_eps_halves_input(self):
        epsilon = eps_tensor(1e6)
        xs = np.array([-2.0, 0.5, 3.0])
        got = graphlu(Tensor(xs, dtype=np.float64), epsilon).data
        np.testing.assert_allclose(got, 0.5 * xs, atol=1e-5)

    def test_equals_x_times_phi(self):
        xs = np.linspace(-7, 7, 301)
        for eps in (-0.3, 0.0, 0.8):
            epsilon = eps_tensor(eps)
            got = graphlu(Tensor(xs, dtype=np.float64), epsilon).data
            np.testing.assert_allclose(got, graphlu_reference(xs, eps), atol=1e-12)

    def test_shape_on_dense_grid(self):
        # x * cdf(x) gates are not globally monotone: like GELU they dip to a
        # minimum near x = -0.75 * (1 + eps) before rising. The true shape
        # properties: monotone for x >= 0, and a dip whose magnitude scales
        # linearly with the relaxed standard deviation.
        for eps in (-0.9, -0.5, 0.0, 1.0, 3.0):
            sd = 1.0 + eps
            xs = np.linspace(-10.0 * max(sd, 1.0), 10.0 * max(sd, 1.0), 4001)
            ys = graphlu_reference(xs, eps)
            assert np.all(np.diff(ys[xs >= 0]) >= 0), f"non-monotone on x>=0 at eps={eps}"
            dip = ys.min()
            assert -0.1701 * sd <= dip < 0.0
            assert abs(dip - sd * graphlu_reference(np.array([-0.7518]), 0.0)[0] ) < 5e-3 * sd

    def test_retains_low_value_information(self):
        """For negative inputs a larger relaxation passes more magnitude."""
        xs = np.linspace(-6, -0.05, 200)
        y_relaxed = np.abs(graphlu_reference(xs, 1.0))
        y_base = np.abs(graphlu_reference(xs, 0.0))
        assert np.all(y_relaxed > y_base)

    def test_gradient_wrt_input(self):
        epsilon = eps_tensor(0.4)
        fn = lambda x: graphlu(x, epsilon)
        report = grad_check(fn, Tensor(np.random.default_rng(1).normal(size=(3, 4))), op_name="graphlu-x")
        assert report.passed, str(report)

    def test_gradient_wrt_epsilon(self):
        """The relaxation is the learnable knob; its derivative must check out."""
        x_fixed = Tensor(np.random.default_rng(2).normal(size=(4, 4)))

        def fn(eps_var):
            return graphlu(x_fixed, eps_var)

        for eps0 in (-0.5, 0.0, 0.7):
            report = grad_check(fn, Tensor([eps0], dtype=np.float64), op_name="graphlu-eps")
            assert report.passed, str(report)
            assert report.max_rel_error <= 1e-4

    def test_clamp(self):
        """The model raises every epsilon below the floor to it, in place,
        and touches nothing else."""
        model = Model(tiny_config(), seed=0)
        eps = {n: t for n, t in model.params.items() if n.endswith(".epsilon")}
        assert len(eps) == 10  # two sites in each of the five blocks
        before = {n: t.data.copy() for n, t in model.params.items() if n not in eps}
        for i, t in enumerate(eps.values()):
            t.data[:] = -5.0 if i % 2 == 0 else 0.25
        model.clamp_activation_params()
        for i, t in enumerate(eps.values()):
            assert t.data[0] == np.float32(EPSILON_FLOOR if i % 2 == 0 else 0.25)
        assert all(np.array_equal(model.params[n].data, d) for n, d in before.items())
