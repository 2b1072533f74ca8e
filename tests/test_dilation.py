import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from specshift import (
    DefectPair,
    DilationError,
    PerturbationPath,
    defects,
    hs_difference_schaffer,
    hs_norm,
    is_contraction,
    moment_residual,
    n_dilation,
    schaffer_window,
    semispectral_cdf,
    shift_step_representation,
)
from specshift import dilation, sampling
from specshift.opcore import CONTRACTION_TOL
from specshift.semispectral import MOMENT_FAIL


def block(window: np.ndarray, d: int, i: int, j: int) -> np.ndarray:
    """Block (i, j) of a dense window [-K, K] with d x d blocks."""
    k = window.shape[0] // (2 * d)
    return window[(i + k) * d : (i + k + 1) * d, (j + k) * d : (j + k + 1) * d]


def centre_power(window: np.ndarray, d: int, power: int) -> np.ndarray:
    return block(np.linalg.matrix_power(window, power), d, 0, 0)


def compression(dil, d: int, k: int) -> np.ndarray:
    """Leading d x d block of the k-th power of an N-dilation."""
    return np.linalg.matrix_power(dil.unitary, k)[:d, :d]


def hand_built_window(t: complex, k: int) -> np.ndarray:
    """Independent dense layout oracle for a 1x1 contraction."""
    n = 2 * k + 1
    d_t = np.sqrt(1 - abs(t) ** 2)
    m = np.zeros((n, n), dtype=complex)
    c = k  # center index
    m[c, c] = t
    m[c - 1, c] = d_t
    m[c - 1, c + 1] = -np.conj(t)
    m[c, c + 1] = d_t
    for j in range(-k, k):
        if j in (0, -1):
            continue
        m[c + j, c + j + 1] = 1.0
    return m


class TestSchafferWindow:
    def test_unitary_has_zero_defect_blocks(self):
        u = sampling.random_unitary(np.random.default_rng(0), 3)
        win = schaffer_window(u, 2)
        assert hs_norm(block(win, 3, -1, 0)) < 1e-7
        assert hs_norm(block(win, 3, 0, 1)) < 1e-7
        for k in range(1, 3):
            assert_allclose(centre_power(win, 3, k), np.linalg.matrix_power(u, k), atol=1e-7)

    def test_zero_contraction(self):
        win = schaffer_window(np.zeros((1, 1)), 1)
        assert centre_power(win, 1, 1)[0, 0] == pytest.approx(0.0)

    def test_scalar_half_against_hand_layout(self):
        win = schaffer_window(np.array([[0.5]]), 2)
        oracle = hand_built_window(0.5, 2)
        assert_allclose(win, oracle, atol=1e-14)
        assert np.linalg.matrix_power(oracle, 2)[2, 2] == pytest.approx(0.25)
        assert centre_power(win, 1, 2)[0, 0] == pytest.approx(0.25)

    def test_compression_up_to_window(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            t = sampling.random_contraction(rng, d)
            win = schaffer_window(t, k)
            for power in range(1, k + 1):
                assert_allclose(
                    centre_power(win, d, power), np.linalg.matrix_power(t, power), atol=1e-12
                )


class TestHsDifference:
    def test_same_operator(self):
        t = sampling.random_contraction(np.random.default_rng(2), 3)
        assert hs_difference_schaffer(t, t) == pytest.approx(0.0, abs=1e-12)

    def test_scaled_identity_closed_form(self):
        d, c = 3, 0.6
        got = hs_difference_schaffer(c * np.eye(d), np.zeros((d, d)))
        expect = np.sqrt(2 * d * c**2 + 2 * d * (1 - np.sqrt(1 - c**2)) ** 2)
        assert got == pytest.approx(expect)
        # cross-check against the windowed norm
        win = hs_norm(schaffer_window(c * np.eye(d), 1) - schaffer_window(np.zeros((d, d)), 1))
        assert got == pytest.approx(win, abs=1e-12)

    def test_unitary_pair(self):
        rng = np.random.default_rng(3)
        u = sampling.random_unitary(rng, 4)
        u0 = sampling.random_unitary(rng, 4)
        assert hs_difference_schaffer(u, u0) == pytest.approx(
            np.sqrt(2) * hs_norm(u - u0), abs=1e-6
        )

    def test_matches_windowed_norm_every_k(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            t = sampling.random_contraction(rng, d)
            t0 = sampling.random_contraction(rng, d)
            closed = hs_difference_schaffer(t, t0)
            for k in (1, 2, 3):
                win = hs_norm(schaffer_window(t, k) - schaffer_window(t0, k))
                assert abs(closed - win) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hs_difference_schaffer(np.zeros((2, 2)), np.zeros((3, 3)))


class TestNDilation:
    def test_unitary_input(self):
        u = sampling.random_unitary(np.random.default_rng(10), 3)
        dil = n_dilation(u, 1)
        eye = np.eye(dil.unitary.shape[0])
        assert hs_norm(dil.unitary.conj().T @ dil.unitary - eye) < 1e-9
        assert_allclose(compression(dil, 3, 1), u, atol=1e-9)

    def test_zero_scalar_cyclic_structure(self):
        dil = n_dilation(np.zeros((1, 1)), 3)
        # explicit 4-cycle permutation oracle
        perm = np.zeros((4, 4))
        perm[0, 3] = 1.0
        perm[1, 0] = 1.0
        perm[2, 1] = 1.0
        perm[3, 2] = 1.0
        assert_allclose(dil.unitary, perm, atol=1e-14)
        for k in range(1, 4):
            assert abs(compression(dil, 1, k)[0, 0]) < 1e-14

    def test_scalar_half_squared(self):
        dil = n_dilation(np.array([[0.5]]), 2)
        assert compression(dil, 1, 2)[0, 0] == pytest.approx(0.25)

    def test_unitarity_and_compression_random(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(1, 7))
            t = sampling.random_contraction(rng, d)
            dil = n_dilation(t, n)
            eye = np.eye((n + 1) * d)
            assert hs_norm(dil.unitary.conj().T @ dil.unitary - eye) < 1e-9
            for k in range(n + 1):
                assert_allclose(compression(dil, d, k), np.linalg.matrix_power(t, k), atol=1e-9)

    def test_negative_control_overshoot_formula(self):
        # at k = N+1 exactly one boundary path contributes: D_T* D_T
        rng = np.random.default_rng(12)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            t = sampling.random_contraction(rng, d)
            dil = n_dilation(t, n)
            pair = defects(t)
            overshoot = compression(dil, d, n + 1) - np.linalg.matrix_power(t, n + 1)
            assert_allclose(overshoot, pair.d_tstar @ pair.d_t, atol=1e-12)
            assert hs_norm(overshoot) > 1e-8  # tight construction

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            n_dilation(np.zeros((2, 2)), 0)
        with pytest.raises(ValueError):
            n_dilation(2 * np.eye(2), 2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_unitaries_from_julia_refuses_degree_below_one(self, n):
        js = dilation.julia_operators(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="dilation degree must be at least 1"):
            dilation.unitaries_from_julia(js, n)

    def test_dilation_error_type_exists(self):
        assert issubclass(DilationError, RuntimeError)

    def test_layout_gram_is_the_julia_gram(self):
        # U*U - I = (J*J - I) padded with zeros, for any 2d x 2d blocks J
        rng = np.random.default_rng(14)
        js = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        gram_j = np.linalg.norm(np.swapaxes(js.conj(), 1, 2) @ js - np.eye(4), axis=(1, 2))
        for n in (1, 2, 5):
            u = dilation.unitaries_from_julia(js, n)
            gram_u = np.swapaxes(u.conj(), 1, 2) @ u - np.eye(u.shape[1])
            assert_allclose(np.linalg.norm(gram_u, axis=(1, 2)), gram_j, rtol=1e-12)

    @pytest.mark.parametrize("excess", [0.0, 1e-11, 4.5e-11])
    def test_clamped_member_is_dilated_as_its_nearest_contraction(self, excess):
        # above norm one within CONTRACTION_TOL, J holds W min(S, 1) X*
        # and is unitary to rounding; the member at or below 1 keeps T bit
        # for bit
        rng = np.random.default_rng(15)
        w, x = (sampling.random_unitary(rng, 3) for _ in range(2))
        sig = np.array([1.0 + excess, 0.6, 0.2])
        t = (w * sig) @ x.conj().T
        inner = sampling.random_contraction(rng, 3)
        js = dilation.julia_operators(np.stack([t, inner]))
        assert np.array_equal(js[1, :3, :3], inner)
        near = (w * np.minimum(sig, 1.0)) @ x.conj().T
        assert_allclose(js[0, :3, :3], near, rtol=0, atol=1e-15)
        assert_allclose(js[0, 3:, 3:], -near.conj().T, rtol=0, atol=1e-15)
        gram = np.swapaxes(js.conj(), 1, 2) @ js - np.eye(6)
        assert np.linalg.norm(gram, axis=(1, 2)).max() <= 1e-14

    def test_unitarity_is_checked_on_the_julia_operator(self, monkeypatch):
        exact = dilation.defects_from_svd

        def skewed(*svd):
            # D_T off by 1e-6 leaves J, and every dilation of T, that far from unitary
            pair = exact(*svd)
            return DefectPair(d_t=pair.d_t * (1.0 + 1e-6), d_tstar=pair.d_tstar)

        monkeypatch.setattr(dilation, "defects_from_svd", skewed)
        t = sampling.random_contraction(np.random.default_rng(13), 3)
        with pytest.raises(DilationError):
            n_dilation(t, 4)
        with pytest.raises(DilationError):
            semispectral_cdf(t, 4)


def boundary_operator(rng, dim, excess):
    # largest singular value 1 + excess, the others in [0, 1)
    w, x = (sampling.random_unitary(rng, dim) for _ in range(2))
    sig = np.sort(rng.uniform(0.0, 1.0, dim))[::-1]
    sig[0] = 1.0 + excess
    return (w * sig) @ x.conj().T


class TestContractionBoundary:
    # one rule, CONTRACTION_TOL on the largest singular value, decides for the
    # classifier, the path constructor, both dilations and the pointwise route
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 6),
        factor=st.sampled_from([0.0, 0.5, 0.9, 1.5, 4.0, 20.0]),
    )
    def test_one_rule_everywhere(self, seed, dim, factor):
        rng = np.random.default_rng(seed)
        t = boundary_operator(rng, dim, factor * CONTRACTION_TOL)
        c = 0.9 * sampling.random_contraction(rng, dim)
        checks = (
            lambda: PerturbationPath.linear(t, c - t),
            lambda: shift_step_representation(PerturbationPath.linear(t, c - t), max_power=4),
            lambda: n_dilation(t, 5),
            lambda: schaffer_window(t, 2),
            lambda: hs_difference_schaffer(t, c),
            lambda: semispectral_cdf(t, 36),
        )
        if factor < 1.0:
            assert is_contraction(t)
            *_, cdf = [check() for check in checks]
            assert moment_residual(cdf, t, 36) <= MOMENT_FAIL
        else:
            assert not is_contraction(t)
            for check in checks:
                with pytest.raises(ValueError):
                    check()
