import numpy as np
import pytest
import warnings
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from specshift import (
    DilationError,
    IllConditionedPolarWarning,
    defects,
    hs_difference_schaffer,
    hs_norm,
    modified_dilation,
    n_dilation,
    polar_unitary,
    schaffer_window,
)
from specshift import sampling
from specshift.dilation import POLAR_AMBIGUOUS

BAND_LO, BAND_HI = np.log10(POLAR_AMBIGUOUS)
SEED = st.integers(0, 2**32 - 1)


def powers_of_ten(lo: float, hi: float):
    # 10**e for exponents e drawn from [lo, hi]
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# singular values at least 0.23% away from either band edge, inside or out;
# two of the outside strategies hug the edges
INSIDE = powers_of_ten(BAND_LO + 1e-3, BAND_HI - 1e-3)
OUTSIDE = st.one_of(
    st.just(0.0),
    powers_of_ten(-17.0, BAND_LO - 1e-3),
    powers_of_ten(BAND_LO - 0.5, BAND_LO - 1e-3),
    powers_of_ten(BAND_HI + 1e-3, BAND_HI + 0.5),
    powers_of_ten(BAND_HI + 1e-3, 0.0),
)


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
        assert hs_norm(win.block(-1, 0)) < 1e-7
        assert hs_norm(win.block(0, 1)) < 1e-7
        for k in range(1, 3):
            assert_allclose(
                win.center_compression(k), np.linalg.matrix_power(u, k), atol=1e-7
            )

    def test_zero_contraction(self):
        win = schaffer_window(np.zeros((1, 1)), 1)
        assert win.center_compression(1)[0, 0] == pytest.approx(0.0)

    def test_scalar_half_against_hand_layout(self):
        win = schaffer_window(np.array([[0.5]]), 2)
        oracle = hand_built_window(0.5, 2)
        assert_allclose(win.to_dense(), oracle, atol=1e-14)
        assert np.linalg.matrix_power(oracle, 2)[2, 2] == pytest.approx(0.25)
        assert win.center_compression(2)[0, 0] == pytest.approx(0.25)

    def test_compression_up_to_window(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            k = int(rng.integers(1, 5))
            t = sampling.random_contraction(rng, d)
            win = schaffer_window(t, k)
            for power in range(1, k + 1):
                assert_allclose(
                    win.center_compression(power),
                    np.linalg.matrix_power(t, power),
                    atol=1e-12,
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
        win = hs_norm(
            schaffer_window(c * np.eye(d), 1).to_dense()
            - schaffer_window(np.zeros((d, d)), 1).to_dense()
        )
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
                win = hs_norm(
                    schaffer_window(t, k).to_dense() - schaffer_window(t0, k).to_dense()
                )
                assert abs(closed - win) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hs_difference_schaffer(np.zeros((2, 2)), np.zeros((3, 3)))


class TestModifiedDilation:
    def test_unitary_polar_factor_is_itself(self):
        u = sampling.random_unitary(np.random.default_rng(5), 3)
        assert_allclose(polar_unitary(u), u, atol=1e-12)
        mod, _ = modified_dilation(u, u, 2)
        assert_allclose(mod.block(-1, 1), -u.conj().T, atol=1e-12)

    def test_zero_base_deterministic_phase(self):
        # SVD of the 1x1 zero matrix fixes the phase to 1
        assert polar_unitary(np.zeros((1, 1)))[0, 0] == pytest.approx(1.0)
        mod, _ = modified_dilation(np.array([[0.3]]), np.zeros((1, 1)), 1)
        assert mod.block(-1, 1)[0, 0] == pytest.approx(-1.0)

    def test_polar_properties(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            t0 = sampling.random_contraction(rng, 4)
            v = polar_unitary(t0)
            assert hs_norm(v.conj().T @ v - np.eye(4)) < 1e-12
            absval = np.linalg.inv(v) @ t0  # v* t0 = |t0|
            assert hs_norm(v @ absval - t0) < 1e-12
            pair = defects(t0)
            assert hs_norm(v @ pair.d_t - pair.d_tstar @ v) < 1e-12

    def test_compression_both_members(self):
        rng = np.random.default_rng(7)
        t = sampling.random_contraction(rng, 3)
        t0 = sampling.random_contraction(rng, 3)
        k = 3
        mod, std = modified_dilation(t, t0, k)
        for power in range(1, k + 1):
            assert_allclose(
                mod.center_compression(power), np.linalg.matrix_power(t, power), atol=1e-12
            )
            assert_allclose(
                std.center_compression(power), np.linalg.matrix_power(t0, power), atol=1e-12
            )

    def test_window_trace_identity(self):
        # the second-order quotient expression has equal trace on the window
        # and on the base space, for monomial symbols within the window
        rng = np.random.default_rng(8)
        t = sampling.random_contraction(rng, 3)
        t0 = sampling.random_contraction(rng, 3)
        k = 4
        mod, std = modified_dilation(t, t0, k)
        um, u0 = mod.to_dense(), std.to_dense()
        for r in range(2, k + 1):
            for tq in (0.5, 0.1):
                ut = (1 - tq) * u0 + tq * um
                big = np.trace(
                    np.linalg.matrix_power(um, r)
                    - np.linalg.matrix_power(u0, r)
                    - (np.linalg.matrix_power(ut, r) - np.linalg.matrix_power(u0, r)) / tq
                )
                tt = t0 + tq * (t - t0)
                small = np.trace(
                    np.linalg.matrix_power(t, r)
                    - np.linalg.matrix_power(t0, r)
                    - (np.linalg.matrix_power(tt, r) - np.linalg.matrix_power(t0, r)) / tq
                )
                assert abs(big - small) < 1e-9

    def test_ill_conditioned_polar_warns(self):
        t0 = np.diag([0.5, 1e-9]).astype(complex)
        with pytest.warns(IllConditionedPolarWarning):
            modified_dilation(np.zeros((2, 2)), t0, 1)

    def test_well_conditioned_does_not_warn(self):
        rng = np.random.default_rng(9)
        t0 = sampling.random_contraction(rng, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IllConditionedPolarWarning)
            modified_dilation(t0, t0, 1)


def with_singular_values(seed: int, sig) -> np.ndarray:
    rng = np.random.default_rng(seed)
    w = sampling.random_unitary(rng, len(sig))
    x = sampling.random_unitary(rng, len(sig))
    return (w * np.asarray(sig)) @ x.conj().T


def assert_polar_identity(t0, v, sig):
    # V is unitary and V* T0 is Hermitian with the singular values of T0 as
    # eigenvalues, so V* T0 = |T0| and T0 = (W X*) |T0|
    assert hs_norm(v.conj().T @ v - np.eye(len(sig))) < 1e-12
    absval = v.conj().T @ t0
    assert hs_norm(absval - absval.conj().T) < 1e-12
    assert_allclose(np.linalg.eigvalsh(absval), np.sort(sig), rtol=0, atol=1e-12)
    assert hs_norm(v @ absval - t0) < 1e-12


class TestPolarAmbiguityBand:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEED, inside=INSIDE, others=st.lists(OUTSIDE, max_size=4))
    def test_value_inside_band_always_warns(self, seed, inside, others):
        sig = [inside] + others
        t0 = with_singular_values(seed, sig)
        with pytest.warns(IllConditionedPolarWarning):
            v = polar_unitary(t0)
        assert_polar_identity(t0, v, sig)

    @settings(max_examples=60, deadline=None)
    @given(seed=SEED, sig=st.lists(OUTSIDE, min_size=1, max_size=5))
    def test_spectrum_outside_band_never_warns(self, seed, sig):
        t0 = with_singular_values(seed, sig)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IllConditionedPolarWarning)
            v = polar_unitary(t0)
        assert_polar_identity(t0, v, sig)


class TestNDilation:
    def test_unitary_input(self):
        u = sampling.random_unitary(np.random.default_rng(10), 3)
        dil = n_dilation(u, 1)
        eye = np.eye(dil.unitary.shape[0])
        assert hs_norm(dil.unitary.conj().T @ dil.unitary - eye) < 1e-9
        assert_allclose(dil.compression(1), u, atol=1e-9)

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
            assert abs(dil.compression(k)[0, 0]) < 1e-14

    def test_scalar_half_squared(self):
        dil = n_dilation(np.array([[0.5]]), 2)
        assert dil.compression(2)[0, 0] == pytest.approx(0.25)

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
                assert_allclose(
                    dil.compression(k), np.linalg.matrix_power(t, k), atol=1e-9
                )

    def test_negative_control_overshoot_formula(self):
        # at k = N+1 exactly one boundary path contributes: D_T* D_T
        rng = np.random.default_rng(12)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            t = sampling.random_contraction(rng, d)
            dil = n_dilation(t, n)
            pair = defects(t)
            overshoot = dil.compression(n + 1) - np.linalg.matrix_power(t, n + 1)
            assert_allclose(overshoot, pair.d_tstar @ pair.d_t, atol=1e-12)
            assert hs_norm(overshoot) > 1e-8  # tight construction

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            n_dilation(np.zeros((2, 2)), 0)
        with pytest.raises(ValueError):
            n_dilation(2 * np.eye(2), 2)

    def test_dilation_error_type_exists(self):
        assert issubclass(DilationError, RuntimeError)
