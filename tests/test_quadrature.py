import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specshift import PerturbationPath, eta_moment_linear
from specshift.quadrature import QuadratureError, adaptive_gk15, gauss_legendre_01


class TestGaussLegendre:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40))
    def test_exact_on_monomials_up_to_degree_2n_minus_1(self, n):
        nodes, weights = gauss_legendre_01(n)
        assert nodes.shape == weights.shape == (n,)
        assert np.all((nodes > 0) & (nodes < 1))
        for k in range(2 * n):
            assert weights @ nodes**k == pytest.approx(1.0 / (k + 1), rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_refuses_fewer_than_one_node(self, n):
        with pytest.raises(ValueError):
            gauss_legendre_01(n)

    def test_cached_rule_is_read_only(self):
        # every caller shares the cached arrays: an edit must not reach the others
        path = PerturbationPath.linear(np.zeros((1, 1)), 0.5 * np.eye(1))
        before = eta_moment_linear(path, 2)  # integrated on gauss_legendre_01(2)
        nodes, weights = gauss_legendre_01(2)
        with pytest.raises(ValueError):
            weights *= 2
        with pytest.raises(ValueError):
            nodes[0] = 0.5
        assert eta_moment_linear(path, 2) == before == pytest.approx(1.0 / 192.0)


class TestAdaptiveGK15:
    FREQUENCIES = np.array([1.0, 10.0, 40.0])

    def integrand(self, s):
        return np.concatenate([np.exp(1j * self.FREQUENCIES * s), [s * s]])

    def test_vector_oscillatory_integrand_matches_closed_form(self):
        value, estimate = adaptive_gk15(self.integrand, 0.0, 1.0, 1e-12, 12)
        w = self.FREQUENCIES
        exact = np.concatenate([(np.exp(1j * w) - 1.0) / (1j * w), [1.0 / 3.0]])
        assert value.shape == exact.shape
        assert np.max(np.abs(value - exact)) <= 1e-12
        assert 0.0 <= estimate <= 1e-12

    @pytest.mark.parametrize("tol", [0.0, -1e-3])
    def test_refuses_nonpositive_tolerance(self, tol):
        with pytest.raises(ValueError):
            adaptive_gk15(self.integrand, 0.0, 1.0, tol, 12)

    def test_exhausted_depth_raises_with_value_and_estimate(self):
        # one 15-point panel cannot resolve e^{200 i s} on [0, 1]
        def f(s):
            return np.array([np.exp(200j * s)])

        with pytest.raises(QuadratureError) as info:
            adaptive_gk15(f, 0.0, 1.0, 1e-10, 0)
        assert np.shape(info.value.value) == (1,)
        assert np.isfinite(info.value.estimate) and info.value.estimate > 1e-10
