"""GraphLU: CDF gating, GELU limit, and learnability of the relaxation."""

import numpy as np
import pytest

from pvg.gradcheck import grad_check
from pvg.graphlu import EPSILON_FLOOR, GraphLUParams, gelu, graphlu, graphlu_reference, phi
from pvg.tensor import Tensor, mul, sum_all


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

    def test_monotone(self):
        xs = np.linspace(-8, 8, 400)
        for eps in (-0.9, 0.0, 1.5):
            assert np.all(np.diff(phi(xs, eps)) >= 0)


class TestGraphLU:
    def test_zero_input(self):
        for eps in (0.0, -0.5, 1.0):
            params = GraphLUParams.create(eps, dtype=np.float64)
            assert graphlu(Tensor([0.0], dtype=np.float64), params).item() == 0.0

    def test_reduces_to_gelu_at_zero_eps(self):
        xs = np.linspace(-6, 6, 2001)
        params = GraphLUParams.create(0.0, dtype=np.float64)
        got = graphlu(Tensor(xs, dtype=np.float64), params).data
        ref = gelu(Tensor(xs, dtype=np.float64)).data
        assert np.max(np.abs(got - ref)) <= 1e-6

    def test_value_at_one(self):
        params = GraphLUParams.create(0.0, dtype=np.float64)
        got = graphlu(Tensor([1.0], dtype=np.float64), params).item()
        assert abs(got - 0.8413447460685429) < 1e-9
        assert abs(got - 1.0 * normal_cdf_oracle(1.0)) < 1e-9

    def test_large_eps_halves_input(self):
        params = GraphLUParams.create(1e6, dtype=np.float64)
        xs = np.array([-2.0, 0.5, 3.0])
        got = graphlu(Tensor(xs, dtype=np.float64), params).data
        np.testing.assert_allclose(got, 0.5 * xs, atol=1e-5)

    def test_equals_x_times_phi(self):
        xs = np.linspace(-7, 7, 301)
        for eps in (-0.3, 0.0, 0.8):
            params = GraphLUParams.create(eps, dtype=np.float64)
            got = graphlu(Tensor(xs, dtype=np.float64), params).data
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
        params = GraphLUParams.create(0.4, dtype=np.float64)
        proj = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        fn = lambda x: sum_all(mul(graphlu(x, params), proj))
        report = grad_check(fn, Tensor(np.random.default_rng(1).normal(size=(3, 4))), op_name="graphlu-x")
        assert report.passed, str(report)

    def test_gradient_wrt_epsilon(self):
        """The relaxation is the learnable knob; its derivative must check out."""
        x_fixed = Tensor(np.random.default_rng(2).normal(size=(4, 4)))
        proj = Tensor(np.random.default_rng(3).normal(size=(4, 4)))

        def fn(eps_var):
            return sum_all(mul(graphlu(x_fixed, GraphLUParams(eps_var)), proj))

        for eps0 in (-0.5, 0.0, 0.7):
            report = grad_check(fn, Tensor([eps0], dtype=np.float64), op_name="graphlu-eps")
            assert report.passed, str(report)
            assert report.max_rel_error <= 1e-4

    def test_clamp(self):
        params = GraphLUParams.create(0.0)
        params.epsilon.data[:] = -5.0
        params.clamp()
        assert params.epsilon.data[0] == np.float32(EPSILON_FLOOR)
