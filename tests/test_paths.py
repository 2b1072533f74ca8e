import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from specshift import (
    PerturbationPath,
    TrigPolynomial,
    apply_function,
    hs_norm,
    power_ladder,
)
from specshift import sampling

from oracles import difference_quotient_residual, monomial_bound_constant


def scalar_path(base: float, direction: float, kind="linear") -> PerturbationPath:
    b = np.array([[base]], dtype=complex)
    d = np.array([[direction]], dtype=complex)
    if kind == "linear":
        return PerturbationPath.linear(b, d)
    return PerturbationPath.multiplicative(b, d)


class TestEvaluation:
    def test_linear_at_zero_is_base(self):
        rng = np.random.default_rng(0)
        path = sampling.random_linear_path(rng, 3)
        assert_allclose(path.at(0.0), path.base)

    def test_multiplicative_at_zero_is_base(self):
        rng = np.random.default_rng(1)
        path = sampling.random_multiplicative_path(rng, 3)
        assert_allclose(path.at(0.0), path.base, atol=1e-14)

    def test_linear_scalar_affine(self):
        path = scalar_path(0.0, 0.5)
        assert path.at(0.5)[0, 0] == pytest.approx(0.25)

    def test_domain_error_outside_unit_interval(self):
        path = scalar_path(0.0, 0.5)
        for s in (-0.1, 1.1, np.array([0.5, 1.1])):
            with pytest.raises(ValueError):
                path.at(s)

    @pytest.mark.parametrize("kind", ["linear", "multiplicative"])
    def test_stack_matches_pointwise(self, kind):
        # an array of s gives the stack of the pointwise values
        rng = np.random.default_rng(3)
        make = sampling.random_linear_path if kind == "linear" else sampling.random_multiplicative_path
        path = make(rng, 4)
        s = np.array([0.0, 0.3, 0.75, 1.0])
        stack = path.at(s)
        assert stack.shape == (4, 4, 4)
        for value, point in zip(s, stack):
            assert_allclose(point, path.at(float(value)), rtol=0, atol=1e-14)

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            PerturbationPath.linear(np.eye(2) * 0.9, np.eye(2) * 0.5)
        with pytest.raises(ValueError):
            PerturbationPath.multiplicative(np.eye(2), np.array([[0, 1], [0, 0]]))

    def test_midpath_contraction(self):
        rng = np.random.default_rng(2)
        for kind in ("linear", "multiplicative"):
            path = (
                sampling.random_linear_path(rng, 4)
                if kind == "linear"
                else sampling.random_multiplicative_path(rng, 4)
            )
            for s in (0.25, 0.5, 0.75):
                assert np.linalg.norm(path.at(s), 2) <= 1 + 1e-9


def sandwich_gateaux(path: PerturbationPath, f: TrigPolynomial) -> np.ndarray:
    # reference oracle: (d/ds) f(T_s) at 0 summed term by term, each power
    # as a sandwich sum around the velocity (adjoint powers for k < 0)
    t0 = path.base
    out = np.zeros_like(t0)
    for k, c in f:
        if path.kind == "linear":
            pows = power_ladder(t0, max(k - 1, 0))
            v = path.direction
            for j in range(k):
                out += c * (pows[k - j - 1] @ v @ pows[j])
        elif k >= 1:
            pows = power_ladder(t0, k)
            ia = 1j * path.direction
            for j in range(k):
                out += c * (pows[k - j - 1] @ ia @ pows[j + 1])
        elif k < 0:
            pows = power_ladder(t0.conj().T, -k)
            ia = 1j * path.direction
            for j in range(-k):
                out -= c * (pows[-k - j] @ ia @ pows[j])
    return out


class TestGateauxMonomial:
    def test_r_zero_is_zero(self):
        rng = np.random.default_rng(3)
        for path in (
            sampling.random_linear_path(rng, 3),
            sampling.random_multiplicative_path(rng, 3),
        ):
            assert_allclose(path.gateaux(TrigPolynomial({0: 1.0})), np.zeros((3, 3)))

    def test_linear_r_two_sandwich(self):
        rng = np.random.default_rng(4)
        path = sampling.random_linear_path(rng, 4)
        t0, v = path.base, path.direction
        assert_allclose(
            path.gateaux(TrigPolynomial({2: 1.0})), t0 @ v + v @ t0, atol=1e-14
        )

    def test_linear_scalar_calculus_oracle(self):
        # d/ds (a + sV)^3 at 0 = 3 a^2 V = 3 * 0.25 * 0.25
        path = scalar_path(0.5, 0.25)
        cube = path.gateaux(TrigPolynomial({3: 1.0}))[0, 0]
        assert cube == pytest.approx(3 * 0.5**2 * 0.25)
        assert cube == pytest.approx(0.1875)

    def test_linear_negative_power_unsupported(self):
        path = scalar_path(0.5, 0.25)
        with pytest.raises(ValueError):
            path.gateaux(TrigPolynomial({-1: 1.0}))

    def test_mult_r_one(self):
        rng = np.random.default_rng(5)
        path = sampling.random_multiplicative_path(rng, 3)
        assert_allclose(
            path.gateaux(TrigPolynomial({1: 1.0})),
            1j * path.direction @ path.base,
            atol=1e-14,
        )

    @pytest.mark.parametrize("r", [-1, -2, -3, 2, 4])
    def test_against_difference_oracle(self, r):
        # independent derivative oracle: second-order one-sided difference
        # (-3 f(0) + 4 f(h) - f(2h)) / (2h) = f'(0) + O(h^2)
        rng = np.random.default_rng(6 + abs(r))
        path = sampling.random_multiplicative_path(rng, 3)
        h = 1e-5
        f = TrigPolynomial({r: 1.0})
        f0 = apply_function(f, path.at(0.0))
        f1 = apply_function(f, path.at(h))
        f2 = apply_function(f, path.at(2 * h))
        oracle = (-3 * f0 + 4 * f1 - f2) / (2 * h)
        assert np.linalg.norm(oracle - path.gateaux(f)) < 1e-7


class TestGateaux:
    def test_identity_symbol_linear(self):
        rng = np.random.default_rng(7)
        path = sampling.random_linear_path(rng, 3)
        assert_allclose(path.gateaux(TrigPolynomial({1: 1.0})), path.direction)

    def test_identity_symbol_mult(self):
        rng = np.random.default_rng(8)
        path = sampling.random_multiplicative_path(rng, 3)
        assert_allclose(
            path.gateaux(TrigPolynomial({1: 1.0})),
            1j * path.direction @ path.base,
            atol=1e-14,
        )

    def test_scalar_calculus_oracle(self):
        # f = 3 z^2 - z at base 0.2, direction 0.1: 3*2*0.2*0.1 - 0.1 = 0.02
        path = scalar_path(0.2, 0.1)
        f = TrigPolynomial({2: 3.0, 1: -1.0})
        assert path.gateaux(f)[0, 0] == pytest.approx(0.02)

    def test_two_sided_rejected_on_linear(self):
        rng = np.random.default_rng(9)
        path = sampling.random_linear_path(rng, 3)
        with pytest.raises(ValueError):
            path.gateaux(TrigPolynomial({-1: 1.0}))

    def test_trace_pairs_with_derivative_series(self):
        # Tr (d/ds) f(T_s)|_0 = Tr f'(T_0) V by cyclicity, both routes built
        # independently
        rng = np.random.default_rng(10)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            path = sampling.random_linear_path(rng, d)
            f = sampling.random_analytic_polynomial(rng, int(rng.integers(1, 7)))
            lhs = np.trace(path.gateaux(f))
            rhs = np.trace(apply_function(f.derivative(), path.base) @ path.direction)
            assert abs(lhs - rhs) < 1e-10

    def test_matrix_identity_for_commuting_direction(self):
        # when V commutes with T_0 the derivative collapses to f'(T_0) V
        rng = np.random.default_rng(11)
        t0 = 0.6 * sampling.random_normal_contraction(rng, 4)
        v = 0.1 * (t0 @ t0)
        path = PerturbationPath.linear(t0, v)
        f = TrigPolynomial({1: 0.5, 3: 1.0, 4: 0.25j})
        assert_allclose(
            path.gateaux(f),
            apply_function(f.derivative(), t0) @ v,
            atol=1e-12,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 5),
        kind=st.sampled_from(["linear", "multiplicative"]),
    )
    def test_block_evaluation_matches_sandwich_sums(self, seed, dim, kind):
        # one evaluation of f on [[T_0, Y], [0, T_0]] against the term-by-term
        # sandwich sums; a random support in [-6, 6], analytic on linear paths
        rng = np.random.default_rng(seed)
        if kind == "linear":
            path, low = sampling.random_linear_path(rng, dim), 0
        else:
            path, low = sampling.random_multiplicative_path(rng, dim), -6
        support = rng.choice(np.arange(low, 7), size=int(rng.integers(1, 6)), replace=False)
        coeffs = sampling.random_coefficients(rng, len(support))
        f = TrigPolynomial(dict(zip(support.tolist(), coeffs)))
        oracle = sandwich_gateaux(path, f)
        assert hs_norm(path.gateaux(f) - oracle) <= 1e-12 * (1.0 + hs_norm(oracle))
        # and the second-order difference subtracts that derivative
        expected = apply_function(f, path.at(1.0)) - apply_function(f, path.base) - oracle
        gap = hs_norm(path.second_order_difference(f) - expected)
        assert gap <= 1e-12 * (1.0 + hs_norm(expected))


class TestDifferenceQuotient:
    def test_zero_direction(self):
        rng = np.random.default_rng(12)
        t0 = sampling.random_contraction(rng, 3)
        path = PerturbationPath.linear(t0, np.zeros((3, 3)))
        f = TrigPolynomial({3: 1.0})
        for t in (0.1, 0.01):
            assert difference_quotient_residual(path, f, t) == pytest.approx(0.0, abs=1e-14)

    def test_affine_symbol_exact(self):
        rng = np.random.default_rng(13)
        path = sampling.random_linear_path(rng, 3)
        f = TrigPolynomial({0: 2.0, 1: -0.5})
        assert difference_quotient_residual(path, f, 0.37) < 1e-14

    def test_scalar_closed_form(self):
        # base 0, direction 1/2, f = z^2, t = 0.1: |(0.05)^2/0.1 - 0| = 0.025
        path = scalar_path(0.0, 0.5)
        res = difference_quotient_residual(path, TrigPolynomial({2: 1.0}), 0.1)
        assert res == pytest.approx(0.025)

    def test_zero_step_rejected(self):
        path = scalar_path(0.0, 0.5)
        with pytest.raises(ValueError):
            difference_quotient_residual(path, TrigPolynomial({2: 1.0}), 0.0)

    def test_monomial_bound(self):
        # residual(t) <= t * sum_{j<=r-2} sum_{k<=r-j-2} ||V||_2^2
        rng = np.random.default_rng(14)
        for _ in range(25):
            d = int(rng.integers(2, 6))
            path = sampling.random_linear_path(rng, d)
            r = int(rng.integers(2, 7))
            f = TrigPolynomial({r: 1.0})
            for t in (0.1, 0.01, 0.001):
                bound = monomial_bound_constant(path, r) * t
                assert difference_quotient_residual(path, f, t) <= bound + 1e-12

    @pytest.mark.parametrize("kind", ["linear", "multiplicative"])
    def test_first_order_convergence(self, kind):
        rng = np.random.default_rng(15)
        slopes = []
        for _ in range(10):
            d = int(rng.integers(2, 5))
            path = (
                sampling.random_linear_path(rng, d)
                if kind == "linear"
                else sampling.random_multiplicative_path(rng, d)
            )
            f = TrigPolynomial({int(rng.integers(2, 6)): 1.0})
            ts = np.array([1e-1, 1e-2, 1e-3])
            res = np.array([difference_quotient_residual(path, f, t) for t in ts])
            if res.min() < 1e-13:
                continue
            assert np.all(np.diff(res) < 1e-12)  # decreasing within noise
            slope = np.polyfit(np.log(ts), np.log(res), 1)[0]
            slopes.append(slope)
        assert slopes and min(slopes) >= 0.9
