import numpy as np
import pytest
from numpy.testing import assert_allclose

from specshift import (
    SemiSpectralCDF,
    hs_norm,
    moment_residual,
    semispectral_cdf,
    spectral_cdf_unitary,
)
from specshift import sampling


def cumulative(cdf, t):
    """Sum of the jumps at angles <= t."""
    return cdf.blocks[: np.searchsorted(cdf.angles, t, side="right")].sum(axis=0)


def assert_psd(blocks, tol=1e-10):
    herm = blocks.conj().transpose(0, 2, 1)
    assert_allclose(blocks, herm, rtol=0, atol=10 * tol)
    assert np.linalg.eigvalsh(0.5 * (blocks + herm)).min() >= -tol


class TestUnitarySpectralCDF:
    def test_minus_one(self):
        cdf = spectral_cdf_unitary(np.array([[-1.0]]))
        assert cdf.angles == pytest.approx([np.pi])
        assert_allclose(cdf.blocks[0], [[1.0]])

    def test_plus_one_snaps_to_two_pi(self):
        cdf = spectral_cdf_unitary(np.array([[1.0]]))
        assert cdf.angles == pytest.approx([2 * np.pi])

    def test_diag_i_minus_i(self):
        cdf = spectral_cdf_unitary(np.diag([1j, -1j]))
        assert cdf.angles == pytest.approx([np.pi / 2, 3 * np.pi / 2])
        for block in cdf.blocks:
            assert np.linalg.matrix_rank(block, tol=1e-10) == 1

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            spectral_cdf_unitary(0.5 * np.eye(2))

    def test_projections_resolve_identity(self):
        u = sampling.random_unitary(np.random.default_rng(0), 5)
        cdf = spectral_cdf_unitary(u)
        assert_psd(cdf.blocks)
        assert_allclose(cdf.blocks.sum(axis=0), np.eye(5), atol=1e-12)
        assert_allclose(cdf.moments([1])[0], u, atol=1e-12)


class TestSemiSpectralCDF:
    def test_zero_contraction_explicit_jumps(self):
        # the degree-3 dilation of [[0]] is a 4-cycle: jumps at the nonzero
        # fourth-roots-of-unity angles, each with scalar mass 1/4
        cdf = semispectral_cdf(np.zeros((1, 1)), 3)
        assert cdf.angles == pytest.approx(
            [np.pi / 2, np.pi, 3 * np.pi / 2, 2 * np.pi]
        )
        assert [b[0, 0].real for b in cdf.blocks] == pytest.approx([0.25] * 4)

    def test_unitary_input_reduces_to_spectral(self):
        u = sampling.random_unitary(np.random.default_rng(1), 4)
        direct = spectral_cdf_unitary(u)
        dilated = semispectral_cdf(u, 3)
        assert dilated.angles == pytest.approx(direct.angles, abs=1e-9)
        assert_allclose(dilated.blocks, direct.blocks, atol=1e-9)

    def test_first_moment_oracle(self):
        rng = np.random.default_rng(2)
        t = sampling.random_contraction(rng, 3)
        cdf = semispectral_cdf(t, 4)
        assert_allclose(cdf.moments([1])[0], t, atol=1e-10)

    def test_moment_identity_random(self):
        # moments reproduce T^n for 0 <= n <= N on 200 random contractions
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(1, 7))
            n = int(rng.integers(1, 9))
            t = sampling.random_contraction(rng, d)
            cdf = semispectral_cdf(t, n)
            assert moment_residual(cdf, t, n) <= 1e-8

    def test_negative_moments_are_adjoints(self):
        rng = np.random.default_rng(4)
        t = sampling.random_contraction(rng, 3)
        cdf = semispectral_cdf(t, 5)
        for n in (1, 2, 3):
            assert_allclose(
                cdf.moments([-n])[0], np.linalg.matrix_power(t.conj().T, n), atol=1e-10
            )

    def test_moments_are_the_jump_sums(self):
        # sum_j e^{i n t_j} B_j, term by term, at the largest resolvent dilation
        rng = np.random.default_rng(7)
        n = 36
        cdf = semispectral_cdf(sampling.random_contraction(rng, 6), n)
        ns = np.arange(-3, n + 1)
        explicit = [
            sum(np.exp(1j * k * a) * b for a, b in zip(cdf.angles, cdf.blocks)) for k in ns
        ]
        assert_allclose(cdf.moments(ns), explicit, rtol=0, atol=1e-13)

    def test_degree_stability(self):
        rng = np.random.default_rng(5)
        t = sampling.random_contraction(rng, 4)
        small = semispectral_cdf(t, 3)
        large = semispectral_cdf(t, 8)
        for n in range(4):
            assert hs_norm(small.moments([n])[0] - large.moments([n])[0]) <= 1e-8

    def test_monotone_psd(self):
        rng = np.random.default_rng(6)
        t = sampling.random_contraction(rng, 3)
        cdf = semispectral_cdf(t, 5)
        assert_psd(cdf.blocks)
        grid = np.sort(rng.uniform(0, 2 * np.pi, size=6))
        for a, b in zip(grid[:-1], grid[1:]):
            diff = cumulative(cdf, b) - cumulative(cdf, a)
            assert np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)).min() >= -1e-10


class TestCdfEval:
    def test_endpoints(self):
        rng = np.random.default_rng(7)
        t = sampling.random_contraction(rng, 3)
        cdf = semispectral_cdf(t, 4)
        assert_allclose(cumulative(cdf, 0.0), np.zeros((3, 3)))
        assert_allclose(cumulative(cdf, 2 * np.pi), np.eye(3), atol=1e-9)

    def test_zero_contraction_midpoint(self):
        cdf = semispectral_cdf(np.zeros((1, 1)), 3)
        # two of the four jumps lie at or below pi
        assert cumulative(cdf, np.pi)[0, 0].real == pytest.approx(0.5)


class TestValidationAndSerialization:
    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            SemiSpectralCDF(
                dim=1, angles=np.array([1.0]), blocks=np.array([[[0.5]]], dtype=complex)
            )

    def test_rejects_unsorted_angles(self):
        blocks = np.array([[[0.5]], [[0.5]]], dtype=complex)
        with pytest.raises(ValueError):
            SemiSpectralCDF(dim=1, angles=np.array([2.0, 1.0]), blocks=blocks)
