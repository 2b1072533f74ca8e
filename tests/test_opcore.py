import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from specshift import (
    NotAContractionError,
    PerturbationPath,
    SelfAdjointPair,
    TrigPolynomial,
    apply_function,
    as_operator,
    defects,
    hermitian_exp,
    hs_norm,
    is_contraction,
    n_dilation,
    power_ladder,
    semispectral_cdf,
    shift_step_representation,
    signed_powers,
    spectral_cdf_unitary,
    verify_selfadjoint_formula,
)
from specshift import sampling
from specshift.opcore import SUP_NORM_GRID, as_operator_stack, normal_eig, sup_norm_estimates

SEED = st.integers(0, 2**32 - 1)
COEFF = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
# symbols supported in [-8, 8]: empty, constant, analytic, co-analytic, two-sided
SYMBOL = st.one_of(
    st.just({}),
    st.dictionaries(st.just(0), COEFF, min_size=1),
    st.dictionaries(st.integers(1, 8), COEFF, min_size=1),
    st.dictionaries(st.integers(-8, -1), COEFF, min_size=1),
    st.dictionaries(st.integers(-8, 8), COEFF, min_size=1),
)

# difference directions that merge two eigenvalues in the Hermitian part of
# Re N, of Im N and of Re N + (sqrt(2)/3) Im N
MERGED_BY_A_FIXED_PART = (np.pi / 2, 0.0, float(np.angle(np.sqrt(2.0) / 3.0 - 1j)))


@st.composite
def normal_spectra(draw):
    """Spectra of m <= 8 with repeated values, with pairs aligned along one
    direction, or of roots of unity (every gap equal), repeated or not."""
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(SEED))
    kind = draw(st.sampled_from(["repeated", "aligned", "roots"]))
    if kind == "roots":
        n = draw(st.integers(1, m))
        return np.exp(2j * np.pi * rng.integers(n, size=m) / n)
    values = rng.normal(size=m) + 1j * rng.normal(size=m)
    if kind == "repeated":
        return values[rng.integers(draw(st.integers(1, m)), size=m)]
    direction = draw(st.one_of(st.sampled_from(MERGED_BY_A_FIXED_PART), st.floats(0.0, 2 * np.pi)))
    values[1::2] = values[: m // 2 * 2 : 2] + rng.uniform(0.1, 1.0, size=m // 2) * np.exp(
        1j * direction
    )
    return values


class TestNormalEig:
    @settings(max_examples=150, deadline=None)
    @given(lam=normal_spectra(), seed=SEED)
    def test_an_orthonormal_eigenbasis(self, lam, seed):
        q = sampling.random_unitary(np.random.default_rng(seed), lam.size)
        a = (q * lam) @ q.conj().T
        [quot], [z] = normal_eig(a[None])
        assert_allclose(z.conj().T @ z, np.eye(lam.size), rtol=0, atol=1e-12)
        m = z.conj().T @ a @ z
        assert np.abs(m - np.diag(np.diagonal(m))).max() <= 1e-12 * (1.0 + np.abs(lam).max())
        assert_allclose(quot, np.diagonal(m), rtol=0, atol=1e-12 * (1.0 + np.abs(lam).max()))

    def test_a_stack(self):
        rng = np.random.default_rng(4)
        a = np.stack([sampling.random_normal_contraction(rng, 5) for _ in range(3)])
        quot, z = normal_eig(a)
        assert quot.shape == (3, 5) and z.shape == (3, 5, 5)
        assert_allclose(a @ z, z * quot[:, None, :], rtol=0, atol=1e-12)


class TestNorms:
    def test_hs_norm_zero(self):
        assert hs_norm(np.zeros((3, 3))) == 0.0

    def test_hs_norm_identity(self):
        assert hs_norm(np.eye(4)) == pytest.approx(2.0)

    def test_hs_norm_entrywise_oracle(self):
        m = np.array([[3.0, 4.0], [0.0, 0.0]])
        # direct entrywise sum: sqrt(9 + 16)
        assert hs_norm(m) == pytest.approx(np.sqrt(sum(abs(x) ** 2 for x in m.ravel())))
        assert hs_norm(m) == pytest.approx(5.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            as_operator(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_operator(np.array([[np.inf, 0], [0, 0]]))


EMPTY = np.zeros((0, 0))


class TestEmptyOperator:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: as_operator(EMPTY),
            lambda: as_operator_stack(np.zeros((2, 0, 0))),
            lambda: semispectral_cdf(EMPTY, 3),
            lambda: spectral_cdf_unitary(EMPTY),
            lambda: n_dilation(EMPTY, 2),
            lambda: PerturbationPath.linear(EMPTY, EMPTY),
            lambda: shift_step_representation(PerturbationPath.linear(EMPTY, EMPTY), 3),
            lambda: SelfAdjointPair(EMPTY, EMPTY),
            lambda: verify_selfadjoint_formula(
                SelfAdjointPair(EMPTY, EMPTY), TrigPolynomial({2: 1.0})
            ),
        ],
    )
    def test_a_zero_dimensional_operator_is_refused(self, call):
        with pytest.raises(ValueError, match="nonempty"):
            call()

    def test_an_empty_stack_is_allowed(self):
        assert as_operator_stack(np.zeros((0, 3, 3))).shape == (0, 3, 3)


class TestContraction:
    def test_unitary_is_contraction(self):
        u = sampling.random_unitary(np.random.default_rng(1), 4)
        assert is_contraction(u)

    def test_two_identity_is_not(self):
        assert not is_contraction(2.0 * np.eye(3))

    def test_boundary_case(self):
        # M M* = diag(1, 0), so the singular values are exactly {1, 0}
        m = np.array([[0.6, 0.8], [0.0, 0.0]])
        assert sorted(np.linalg.svd(m, compute_uv=False)) == pytest.approx([0.0, 1.0])
        assert is_contraction(m)


class TestDefects:
    def test_zero_contraction(self):
        pair = defects(np.zeros((3, 3)))
        assert_allclose(pair.d_t, np.eye(3), atol=1e-14)
        assert_allclose(pair.d_tstar, np.eye(3), atol=1e-14)

    def test_unitary_has_no_defect(self):
        u = sampling.random_unitary(np.random.default_rng(2), 4)
        pair = defects(u)
        assert hs_norm(pair.d_t) < 1e-7
        assert hs_norm(pair.d_tstar) < 1e-7

    def test_scalar_half(self):
        pair = defects(np.array([[0.5]]))
        assert pair.d_t[0, 0] == pytest.approx(np.sqrt(3) / 2)

    def test_rejects_expansion(self):
        with pytest.raises(NotAContractionError):
            defects(1.5 * np.eye(2))

    def test_invariants_random(self):
        # square relation and intertwining on 200 random contractions
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(1, 9))
            t = sampling.random_contraction(rng, d)
            pair = defects(t)
            eye = np.eye(d)
            assert hs_norm(pair.d_t @ pair.d_t - (eye - t.conj().T @ t)) < 1e-9
            assert hs_norm(pair.d_tstar @ pair.d_tstar - (eye - t @ t.conj().T)) < 1e-9
            assert hs_norm(t @ pair.d_t - pair.d_tstar @ t) < 1e-9


class TestTrigPolynomial:
    def test_analytic_predicate(self):
        assert TrigPolynomial({0: 1, 3: 2}).analytic
        assert not TrigPolynomial({-1: 1}).analytic

    def test_zero_coefficients_dropped(self):
        assert len(TrigPolynomial({1: 0.0, 2: 1.0})) == 1

    def test_derivative_two_sided_rejected(self):
        with pytest.raises(ValueError):
            TrigPolynomial({-1: 1.0}).derivative()

    def test_sup_norm_estimate(self):
        f = TrigPolynomial({1: 1.0})
        assert f.sup_norm_estimate() == pytest.approx(1.0, abs=1e-12)

    def test_sup_norm_of_empty_polynomial(self):
        assert TrigPolynomial({}).sup_norm_estimate() == 0.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 6))
    def test_sup_norm_matches_grid_sum(self, seed, size):
        # the folded inverse FFT against the direct sum over the same angles;
        # a negative index and one with |k| >= SUP_NORM_GRID in every support,
        # whose alias mod the grid is the same on both sides
        rng = np.random.default_rng(seed)
        wide = SUP_NORM_GRID + 64
        beyond = int(rng.choice([-1, 1]) * rng.integers(SUP_NORM_GRID, wide))
        ks = [-int(rng.integers(1, wide)), beyond] + rng.integers(-wide, wide + 1, size).tolist()
        f = TrigPolynomial(dict(zip(ks, sampling.random_coefficients(rng, len(ks)))))
        t = np.arange(SUP_NORM_GRID) * (2.0 * np.pi / SUP_NORM_GRID)
        grid = np.zeros(t.shape, dtype=np.complex128)
        for k, c in f:
            grid += c * np.exp(1j * k * t)
        sup = float(np.abs(grid).max(initial=0.0))
        assert abs(f.sup_norm_estimate() - sup) <= 1e-12 * (1.0 + sup)

    def test_batched_rows_equal_one_polynomial_at_a_time(self):
        rng = np.random.default_rng(31)
        ks = [-3, 0, 2, SUP_NORM_GRID + 2]
        coeffs = sampling.random_coefficients(rng, 5 * len(ks)).reshape(5, len(ks))
        want = [TrigPolynomial(dict(zip(ks, row))).sup_norm_estimate() for row in coeffs]
        # rows batched across one FFT may round apart by a few ulps on some builds
        assert_allclose(sup_norm_estimates(ks, coeffs), want, rtol=1e-15, atol=0.0)


class TestApplyFunction:
    def test_constant(self):
        t = sampling.random_contraction(np.random.default_rng(4), 3)
        assert_allclose(apply_function(TrigPolynomial({0: 1.0}), t), np.eye(3), atol=1e-14)

    def test_symmetric_symbol_gives_real_part(self):
        t = sampling.random_contraction(np.random.default_rng(5), 4)
        f = TrigPolynomial({1: 1.0, -1: 1.0})
        assert_allclose(apply_function(f, t), t + t.conj().T, atol=1e-14)

    def test_scalar_cube(self):
        out = apply_function(TrigPolynomial({3: 1.0}), np.array([[0.5j]]))
        assert out[0, 0] == pytest.approx(-0.125j)

    def test_matches_horner_free_evaluation(self):
        rng = np.random.default_rng(6)
        t = sampling.random_contraction(rng, 4)
        f = TrigPolynomial({-3: 0.2j, -1: 1.0, 0: 0.5, 2: 1.5, 4: -0.25})
        direct = sum(
            c * np.linalg.matrix_power(t if k >= 0 else t.conj().T, abs(k))
            for k, c in f
        )
        assert_allclose(apply_function(f, t), direct, atol=1e-13)

    @settings(max_examples=80, deadline=None)
    @given(seed=SEED, d=st.integers(1, 6), coeffs=SYMBOL)
    def test_matches_matrix_powers(self, seed, d, coeffs):
        t = sampling.random_contraction(np.random.default_rng(seed), d)
        f = TrigPolynomial(coeffs)
        want = np.zeros((d, d), dtype=np.complex128)
        for k, c in f:
            want += c * np.linalg.matrix_power(t if k >= 0 else t.conj().T, abs(k))
        # every power of a contraction has norm at most 1
        scale = 1.0 + sum(abs(c) for _, c in f)
        assert_allclose(apply_function(f, t), want, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize(
        "make, ks",
        [
            (PerturbationPath.multiplicative, st.integers(-8, 8)),
            (PerturbationPath.linear, st.integers(0, 8)),
        ],
        ids=["mult-two-sided", "linear-analytic"],
    )
    @settings(max_examples=40, deadline=None)
    @given(seed=SEED, d=st.integers(1, 6), data=st.data())
    def test_second_order_trace_is_zero_on_a_zero_direction(self, make, ks, seed, d, data):
        # T_1 = T_0 and the block of the Gateaux derivative is block diagonal,
        # so f(T_1) - f(T_0) and the derivative vanish exactly
        f = TrigPolynomial(data.draw(st.dictionaries(ks, COEFF, min_size=1)))
        t0 = sampling.random_contraction(np.random.default_rng(seed), d)
        assert make(t0, np.zeros((d, d))).second_order_trace(f) == 0

    def test_peller_type_estimate(self):
        # || f(T) - f(T0) ||_2 <= sup|f'| * || T - T0 ||_2 for analytic f,
        # sup taken as the 2048-grid estimate with a 1e-6 slack
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            t = sampling.random_contraction(rng, d)
            t0 = sampling.random_contraction(rng, d)
            f = sampling.random_analytic_polynomial(rng, int(rng.integers(1, 7)))
            lhs = hs_norm(apply_function(f, t) - apply_function(f, t0))
            sup = f.derivative().sup_norm_estimate()
            rhs = sup * hs_norm(t - t0)
            assert lhs <= rhs * (1 + 1e-6) + 1e-12


class TestHermitianExp:
    def test_zero_generator(self):
        for s in (0.0, 0.3, 1.0):
            assert_allclose(hermitian_exp(np.zeros((2, 2)), s), np.eye(2), atol=1e-15)

    def test_scalar_pi(self):
        out = hermitian_exp(np.array([[np.pi]]), 1.0)
        assert out[0, 0] == pytest.approx(-1.0)

    def test_two_by_two_closed_form(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        # A^2 = I so e^{isA} = cos(s) I + i sin(s) A
        out = hermitian_exp(a, np.pi / 2)
        assert_allclose(out, 1j * a, atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_exp(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_stack_matches_each_member_and_checks_every_one(self):
        rng = np.random.default_rng(10)
        stack = np.stack([sampling.random_hermitian(rng, 3) for _ in range(4)])
        for got, a in zip(hermitian_exp(stack, 0.6), stack, strict=True):
            assert_allclose(got, hermitian_exp(a, 0.6), atol=1e-14)
        stack[2, 0, 1] += 1e-6
        with pytest.raises(ValueError):
            hermitian_exp(stack, 0.6)

    @settings(max_examples=25, deadline=None)
    @given(
        s=st.floats(-1.0, 1.0, allow_nan=False),
        t=st.floats(-1.0, 1.0, allow_nan=False),
    )
    def test_one_parameter_group(self, s, t):
        a = sampling.random_hermitian(np.random.default_rng(8), 3)
        lhs = hermitian_exp(a, s) @ hermitian_exp(a, t)
        assert hs_norm(lhs - hermitian_exp(a, s + t)) < 1e-10

    def test_unitarity(self):
        a = sampling.random_hermitian(np.random.default_rng(9), 5)
        u = hermitian_exp(a, 0.7)
        assert hs_norm(u.conj().T @ u - np.eye(5)) < 1e-10


class TestPowerLadder:
    def test_matches_matrix_power(self):
        t = sampling.random_contraction(np.random.default_rng(10), 4)
        ladder = power_ladder(t, 7)
        assert ladder.shape == (8, 4, 4)
        for k in range(8):
            assert_allclose(ladder[k], np.linalg.matrix_power(t, k), atol=1e-13)

    def test_stacked_input(self):
        rng = np.random.default_rng(11)
        ts = np.stack([sampling.random_contraction(rng, 3) for _ in range(5)])
        ladder = power_ladder(ts, 4)
        assert ladder.shape == (5, 5, 3, 3)
        for j, t in enumerate(ts):
            assert np.array_equal(ladder[:, j], power_ladder(t, 4))
            for k in range(5):
                assert_allclose(ladder[k, j], np.linalg.matrix_power(t, k), atol=1e-13)

    def test_kmax_zero_is_identity(self):
        t = sampling.random_contraction(np.random.default_rng(12), 3)
        ladder = power_ladder(t, 0)
        assert ladder.shape == (1, 3, 3)
        assert np.array_equal(ladder[0], np.eye(3))
        with pytest.raises(ValueError):
            power_ladder(t, -1)

    def test_adjoint_ladder(self):
        t = sampling.random_contraction(np.random.default_rng(13), 3)
        ladder = power_ladder(t.conj().T, 5)
        for k in range(6):
            assert_allclose(ladder[k], np.linalg.matrix_power(t, k).conj().T, atol=1e-13)

    def test_signed_powers(self):
        t = sampling.random_contraction(np.random.default_rng(14), 3)
        ks = [3, -2, 0, 1, -1]
        stack = signed_powers(t, ks)
        assert stack.shape == (5, 3, 3)
        for got, k in zip(stack, ks):
            want = np.linalg.matrix_power(t if k >= 0 else t.conj().T, abs(k))
            assert_allclose(got, want, atol=1e-13)

    @pytest.mark.parametrize("ks", [[3, -2, 0, 1, -1], [-3, -1], [2, 0, 2]])
    def test_signed_powers_of_a_stack(self, ks):
        # a stack gives, member by member, the powers of each matrix alone
        rng = np.random.default_rng(15)
        stack = np.stack([sampling.random_contraction(rng, 3) for _ in range(4)])
        got = signed_powers(stack, ks)
        assert got.shape == (len(ks), 4, 3, 3)
        for j, t in enumerate(stack):
            assert_allclose(got[:, j], signed_powers(t, ks), rtol=0, atol=1e-14)
