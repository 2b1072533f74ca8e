"""The dense and structured eigensolvers against a Schur oracle, and the
batched semi-spectral path.

The oracle is the complex Schur route: for a unitary the Schur basis is
orthonormal and its columns are eigenvectors, so clustering its diagonal and
compressing its columns gives the reference jump measure.  A contraction
within CONTRACTION_TOL above 1 is dilated as its nearest contraction, so every
dilation is unitary to rounding and the same oracle serves it.  The dense
solve (:func:`~specshift.semispectral._unitary_eig`) reads
:func:`~specshift.opcore.normal_eig`, a rotation from ``eigvals`` and then
``eigh`` of one Hermitian part, so the Schur oracle is independent of it;
two further checks of it do not go through Schur: the moments of
:func:`~specshift.semispectral.spectral_cdf_unitary` against matrix powers,
and the eigenvalues of d = 1 dilations against the roots of their
characteristic polynomial.  The structured dilation route (Woodbury Cayley
matrix at one rotation, eigenvalues only, eigenvectors from 2d x 2d
kernels) solves each chunk of members once and hands the members it cannot
vouch for to one dense solve; it is checked against the dense solve of the
dilation unitary, also with the pole placed next to an eigenvalue.  Its
eigenvalues are also checked without Schur, for every d, against the
characteristic function of T*: they solve det(Theta_{T*}(conj z) - z^N I) = 0.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from specshift import MomentConsistencyError, n_dilation, sampling
from specshift import SelfAdjointPair, semispectral, shift_step_representation
from specshift.cli import CampaignConfig, run_campaign
from specshift.dilation import julia_operators, unitaries_from_julia
from specshift.opcore import CONTRACTION_TOL, is_unitary
from specshift.semispectral import (
    CLUSTER_TOL,
    moment_residual,
    semispectral_cdf,
    semispectral_cdfs,
    spectral_cdf_unitary,
)

TWO_PI = 2.0 * np.pi
POLE = np.pi + semispectral._THETA0  # angle of the first rotation's pole


def unitaries(ts, n):
    """Degree-N dilation unitaries of a stack of contractions."""
    return unitaries_from_julia(julia_operators(ts), n)


def oracle_jumps(u, compress_dim, drop_tol=-1.0, cluster_tol=CLUSTER_TOL):
    s, z = scipy.linalg.schur(u, output="complex")
    ang = np.angle(np.diagonal(s))
    ang = np.where(ang <= 0.0, ang + TWO_PI, ang)
    ang = np.where((TWO_PI - ang < cluster_tol) | (ang < cluster_tol), TWO_PI, ang)
    order = np.argsort(ang, kind="stable")
    ang, z = ang[order], z[:, order]
    angles, blocks, start = [], [], 0
    for stop in range(1, ang.size + 1):
        if stop < ang.size and ang[stop] - ang[stop - 1] <= cluster_tol:
            continue
        zc = z[:compress_dim, start:stop]
        block = zc @ zc.conj().T
        if np.linalg.norm(block) > drop_tol:
            angles.append(ang[start:stop].mean())
            blocks.append(block)
        start = stop
    return np.array(angles), np.array(blocks)


def assert_matches_oracle(cdf, u, compress_dim, drop_tol=-1.0):
    angles, blocks = oracle_jumps(u, compress_dim, drop_tol)
    assert cdf.angles.shape == angles.shape
    assert_allclose(cdf.angles, angles, rtol=0, atol=1e-10)
    assert_allclose(cdf.blocks, blocks, rtol=0, atol=1e-10)


def snapped(phi):
    a = np.mod(phi, TWO_PI)
    return TWO_PI if min(a, TWO_PI - a) < CLUSTER_TOL else a


def clear_of_knife_edges(phis):
    # distinct eigenvalues closer than 1e-3 have ill-determined separate
    # projections, and ones near CLUSTER_TOL apart cluster by rounding
    a = np.sort([snapped(phi) for phi in phis])
    gaps = np.diff(np.append(a, a[0] + TWO_PI))
    return not np.any((gaps > 0.5 * CLUSTER_TOL) & (gaps < 1e-3))


def unitary_with_angles(seed, phis):
    q = sampling.random_unitary(np.random.default_rng(seed), len(phis))
    return (q * np.exp(1j * np.asarray(phis))) @ q.conj().T


# eigenangles the conventions and the solver are most sensitive to
SPECIAL = st.sampled_from(
    [
        POLE,  # exactly on the first rotation's pole
        0.0,
        0.5 * np.pi,
        np.pi,
        1.5 * np.pi,  # +1, i, -1, -i
        0.4 * CLUSTER_TOL,
        -0.4 * CLUSTER_TOL,
        TWO_PI - 0.3 * CLUSTER_TOL,  # inside the snap band at 0 / 2pi
    ]
)
ANGLE = st.one_of(SPECIAL, st.floats(0.0, TWO_PI, allow_nan=False))
SEED = st.integers(0, 2**32 - 1)


class TestUnitaryAgainstSchur:
    @settings(max_examples=60, deadline=None)
    @given(seed=SEED, phis=st.lists(ANGLE, min_size=1, max_size=7))
    def test_angles_blocks_and_moments(self, seed, phis):
        assume(clear_of_knife_edges(phis))
        u = unitary_with_angles(seed, phis)
        cdf = spectral_cdf_unitary(u)
        assert_matches_oracle(cdf, u, u.shape[0])
        for n in (-2, -1, 0, 1, 2, 3):
            # snapping mass within CLUSTER_TOL of 1 onto 2pi moves U^n that far
            power = np.linalg.matrix_power(u if n >= 0 else u.conj().T, abs(n))
            assert_allclose(
                cdf.moments([n])[0], power, rtol=0, atol=1e-10 + abs(n) * CLUSTER_TOL
            )

    @settings(max_examples=30, deadline=None)
    @given(seed=SEED, phi=SPECIAL, extra=st.lists(SPECIAL, max_size=4), mult=st.integers(2, 4))
    def test_repeated_eigenvalues_form_one_projection(self, seed, phi, extra, mult):
        u = unitary_with_angles(seed, [phi] * mult + extra)
        cdf = spectral_cdf_unitary(u)
        assert_matches_oracle(cdf, u, u.shape[0])
        j = int(np.argmin(np.abs(cdf.angles - snapped(phi))))
        assert np.trace(cdf.blocks[j]).real >= mult - 1e-9

    @pytest.mark.parametrize(
        "diag",
        [
            [-1.0],
            [1.0],
            [1j, -1j],
            [1, 1j, -1, -1j],
            [-1.0, -1.0, -1.0],  # -I
            [np.exp(1j * POLE)],  # the pole itself, exactly
            [np.exp(1j * POLE), 1.0, 1j],
        ],
    )
    def test_diagonal_special_spectra(self, diag):
        u = np.diag(np.asarray(diag, dtype=complex))
        assert_matches_oracle(spectral_cdf_unitary(u), u, u.shape[0])

    @pytest.mark.parametrize("gap", [1e-8, 1e-7, 3e-7])
    def test_close_distinct_eigenvalues_keep_unit_mass(self, gap):
        # closer than any kernel vector could resolve, not one cluster: the
        # dense solve keeps orthonormal vectors of the pair, so the jumps sum to I
        cdf = spectral_cdf_unitary(unitary_with_angles(0, [0.1, 0.1 + gap, 2.0]))
        assert cdf.angles.size == 3
        assert_allclose(cdf.blocks.sum(axis=0), np.eye(3), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_unitary_within_tolerance_keeps_unit_mass(self, seed):
        # 2e-9 off unitary passes is_unitary; the orthonormal Schur vectors
        # give jumps that sum to the identity
        u = sampling.random_unitary(np.random.default_rng(seed), 4)
        v = u + 2e-9 * np.triu(np.ones((4, 4)), 1)
        assert is_unitary(v)
        cdf = spectral_cdf_unitary(v)
        assert_allclose(cdf.blocks.sum(axis=0), np.eye(4), rtol=0, atol=1e-12)

    def test_angles_near_zero_snap_to_two_pi(self):
        u = np.diag(np.exp(1j * np.array([0.4, -0.4, 0.2]) * CLUSTER_TOL))
        cdf = spectral_cdf_unitary(u)
        assert cdf.angles.tolist() == [TWO_PI]
        assert_allclose(cdf.blocks[0], np.eye(3), atol=1e-12)


class TestContractionEdge:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=SEED,
        dim=st.integers(1, 4),
        n=st.integers(1, 8),
        excess=st.sampled_from([0.0, 0.4 * CONTRACTION_TOL, 0.9 * CONTRACTION_TOL]),
    )
    def test_norm_one_contractions(self, seed, dim, n, excess):
        # largest singular value exactly 1, or above it within CONTRACTION_TOL
        rng = np.random.default_rng(seed)
        w = sampling.random_unitary(rng, dim)
        x = sampling.random_unitary(rng, dim)
        sig = np.sort(rng.uniform(0.0, 1.0, dim))[::-1]
        sig[0] = 1.0 + excess
        t = (w * sig) @ x.conj().T
        cdf = semispectral_cdf(t, n)
        herm = cdf.blocks.conj().transpose(0, 2, 1)  # every jump Hermitian and PSD
        assert_allclose(cdf.blocks, herm, rtol=0, atol=1e-9)
        assert np.linalg.eigvalsh(0.5 * (cdf.blocks + herm)).min() >= -1e-10
        u = n_dilation(t, n).unitary
        assert_matches_oracle(cdf, u, dim, drop_tol=1e-12)
        assert moment_residual(cdf, t, n) <= 1e-9

    @pytest.mark.parametrize("seed", range(40))
    def test_close_eigenvalues_inside_the_clamp(self, seed):
        # norm 1 + 4e-11 with two eigenvalues 1e-5 apart: the nearest
        # contraction is dilated, unitary to rounding, so the jumps still
        # sum to the identity and the moments match the input T
        q = sampling.random_unitary(np.random.default_rng(seed), 3)
        phis = np.array([0.3, 0.3 + 1e-5, 1.3])
        t = (1.0 + 4e-11) * (q * np.exp(1j * phis)) @ q.conj().T
        js = julia_operators(t[None])
        assert np.linalg.norm(js[0].conj().T @ js[0] - np.eye(6)) <= 1e-14
        cdf = semispectral_cdf(t, 4)
        assert moment_residual(cdf, t, 4) <= 1e-9


SCALAR = dict(
    radius=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    phase=st.one_of(st.sampled_from([0.0, 0.5 * np.pi, np.pi]), st.floats(0.0, TWO_PI)),
    n=st.integers(1, 12),
)


def assert_characteristic_roots(angles, t, n):
    # for d = 1 the degree-N dilation has characteristic polynomial
    # z^{N+1} - t z^N + conj(t) z - 1.  The eigenvalues are compared with
    # its roots through the coefficients: root finding loses half the
    # digits at the double roots of |t| = 1, t^{N+1} = -1 (t = -1, N even)
    expected = np.zeros(n + 2, dtype=complex)
    expected[0], expected[-1] = 1.0, -1.0
    expected[1] -= t
    expected[-2] += np.conj(t)
    assert_allclose(np.poly(np.exp(1j * angles)), expected, rtol=0, atol=1e-12)


class TestScalarDilationSpectrum:
    @settings(max_examples=200, deadline=None)
    @given(**SCALAR)
    def test_eigenvalues_are_the_characteristic_roots(self, radius, phase, n):
        t = radius * np.exp(1j * phase)
        angles, _ = semispectral._unitary_eig(unitaries([[[t]]], n))
        assert_characteristic_roots(angles[0], t, n)

    @settings(max_examples=200, deadline=None)
    @given(**SCALAR)
    def test_structured_route_has_the_characteristic_roots(self, radius, phase, n):
        t = radius * np.exp(1j * phase)
        angles, _ = semispectral._dilation_eigs(julia_operators([[[t]]]), n)
        assert_characteristic_roots(angles[0], t, n)


def characteristic_function(j, lam):
    # Theta_{T*}(lam) = J22 + lam J21 (I - lam J11)^{-1} J12 of the Julia
    # operator J = [[T, D_T*], [D_T, -T*]] at every lam: the Sz.-Nagy-Foias
    # characteristic function of T*, unitary on the circle
    d = j.shape[0] // 2
    j11, j12, j21, j22 = j[:d, :d], j[:d, d:], j[d:, :d], j[d:, d:]
    lam = lam[:, None, None]
    inner = np.linalg.solve(np.eye(d) - lam * j11, np.broadcast_to(j12, (lam.size, d, d)))
    return j22 + lam * (j21 @ inner)


class TestCharacteristicFunctionOracle:
    """U v = z v with v = (u, z^{N-1} y, ..., y) reads T u + D_T* y = z u and
    D_T u - T* y = z^N y, so where z - T is regular every eigenvalue z of the
    degree-N dilation solves det(Theta_{T*}(conj z) - z^N I) = 0.  The
    eigenphases of the unitary W(theta) = e^{-iN theta} Theta_{T*}(e^{-i theta})
    fall monotonically and det W winds -(N+1)d times, so that equation has
    exactly (N+1)d roots on the circle.  No Schur decomposition is involved."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEED,
        dim=st.integers(1, 6),
        n=st.integers(1, 36),
        radius=st.floats(0.05, 0.95),
    )
    def test_structured_angles_solve_the_characteristic_equation(
        self, seed, dim, n, radius
    ):
        # a strict contraction has no unimodular eigenvalue: z - T is regular
        t = radius * sampling.random_contraction(np.random.default_rng(seed), dim)
        js = julia_operators(t[None])
        with pytest.MonkeyPatch.context() as mp:
            dense = spy_dense(mp)
            ang, _ = semispectral._dilation_eigs(js, n)
        assume(dense == [])  # the structured route vouched for every angle
        m = (n + 1) * dim
        assert ang.shape == (1, m)
        z = np.exp(1j * ang[0])
        theta = characteristic_function(js[0], z.conj())
        sv = np.linalg.svd(theta - (z**n)[:, None, None] * np.eye(dim), compute_uv=False)
        # the smallest singular value against the size of the two terms:
        # |Theta| = |z^N| = 1 on the circle
        scale = 1.0 + np.linalg.norm(theta, ord=2, axis=(1, 2))
        assert np.all(sv[:, -1] <= 1e-10 * scale)
        # the root count, from the winding of det W on a grid fine enough
        # that no phase step is near pi
        grid = np.linspace(0.0, TWO_PI, 256 * m + 1)
        w = np.exp(-1j * n * grid)[:, None, None] * characteristic_function(
            js[0], np.exp(-1j * grid)
        )
        phase = np.unwrap(np.angle(np.linalg.det(w)))
        assert np.abs(np.diff(phase)).max() < 0.5 * np.pi
        assert round((phase[-1] - phase[0]) / TWO_PI) == -m


def dense_jumps(ts, n, drop_tol=-1.0):
    ang, vec = semispectral._unitary_eig(unitaries(ts, n))
    return semispectral._jump_lists(ang, vec[:, : ts.shape[1]], drop_tol)


def assert_same_jumps(got, want, atol=1e-12):
    assert len(got) == len(want)
    for (angles, blocks), (want_angles, want_blocks) in zip(got, want):
        assert angles.shape == want_angles.shape
        assert_allclose(angles, want_angles, rtol=0, atol=atol)
        assert_allclose(blocks, want_blocks, rtol=0, atol=atol)


def spy_dense(monkeypatch):
    # the number of members of every dense solve
    calls = []
    original = semispectral._unitary_eig

    def wrapped(u):
        calls.append(u.shape[0])
        return original(u)

    monkeypatch.setattr(semispectral, "_unitary_eig", wrapped)
    return calls


def spy_structured(monkeypatch):
    # the Julia operators and the rotation of every structured solve
    calls = []
    original = semispectral._dilation_cayley

    def wrapped(js, n, theta):
        calls.append((js.copy(), theta))
        return original(js, n, theta)

    monkeypatch.setattr(semispectral, "_dilation_cayley", wrapped)
    return calls


def spy_kernels(monkeypatch):
    # the number of eigenvalues of every bordered kernel solve
    rows = []
    original = semispectral._kernels

    def wrapped(bordered, js, n, owner, z):
        rows.append(z.size)
        return original(bordered, js, n, owner, z)

    monkeypatch.setattr(semispectral, "_kernels", wrapped)
    return rows


def edge_contraction(rng, kind, dim):
    if kind == "generic":
        return sampling.random_contraction(rng, dim)
    if kind == "zero":
        return np.zeros((dim, dim), dtype=complex)
    if kind == "unitary":  # D_T = 0
        return sampling.random_unitary(rng, dim)
    # norm one: largest singular value 1, or above it within CONTRACTION_TOL
    w = sampling.random_unitary(rng, dim)
    x = sampling.random_unitary(rng, dim)
    sig = np.sort(rng.uniform(0.0, 1.0, dim))[::-1]
    sig[0] = 1.0 + float(kind) * CONTRACTION_TOL
    return (w * sig) @ x.conj().T


KIND = st.sampled_from(["generic", "unitary", "zero", "0.0", "0.4", "0.9"])


class TestStructuredRoute:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=SEED,
        dim=st.integers(1, 6),
        n=st.integers(1, 36),
        kinds=st.lists(KIND, min_size=1, max_size=3),
    )
    def test_agrees_with_the_dense_solve(self, seed, dim, n, kinds):
        rng = np.random.default_rng(seed)
        ts = np.stack([edge_contraction(rng, kind, dim) for kind in kinds])
        ang, vec = semispectral._unitary_eig(unitaries(ts, n))
        want = semispectral._jump_lists(ang, vec[:, :dim], -1.0)
        # the dense eigenvectors of eigenvalues 1e-4 apart are good to about
        # 1e-12 only; eigenvalues closer than that are either one cluster
        # or a knife edge of either route
        for row in np.sort(np.mod(ang, TWO_PI), axis=1):
            gaps = np.diff(row, append=row[0] + TWO_PI)
            assume(not np.any((gaps > 0.5 * CLUSTER_TOL) & (gaps < 1e-4)))
        js = julia_operators(ts)
        with pytest.MonkeyPatch.context() as mp:
            calls = spy_dense(mp)
            ang, lead = semispectral._dilation_eigs(js, n)
        assert_same_jumps(semispectral._jump_lists(ang, lead, -1.0), want)
        if dim > 1 and "zero" in kinds:
            # T = 0 dilates to the block shift: the roots of z^{N+1} = 1,
            # each d times, which no 2d x 2d kernel separates
            assert sum(calls) >= kinds.count("zero")

    @pytest.mark.parametrize("eps", [1e-8, -1e-8])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_close_dilation_eigenvalues_keep_unit_mass(self, monkeypatch, n, eps):
        # lam^{N+1} = -e^{i eps}: the dilation of this unitary T has two
        # eigenvalues about eps apart, not one cluster; the bound residual /
        # eps of their kernel vectors is not below _VECTOR_FAIL, so the
        # member takes the dense route
        t = unitary_with_angles(1, [(np.pi + eps) / (n + 1), 0.7])
        calls = spy_dense(monkeypatch)
        cdf = semispectral_cdf(t, n)
        assert calls == [1]
        assert_allclose(cdf.blocks.sum(axis=0), np.eye(2), rtol=0, atol=1e-12)
        assert moment_residual(cdf, t, n) <= 1e-12

    @pytest.mark.parametrize("offset", [0.0, 1e-8, -1e-8])
    @pytest.mark.parametrize("dim,n,k", [(2, 8, 0), (3, 12, 5), (4, 36, 20)])
    def test_first_pole_on_the_shift_spectrum(self, monkeypatch, dim, n, k, offset):
        # at theta = pi - 2 pi k/(N+1) the pole -e^{i theta} is an eigenvalue
        # of the block shift: (-e^{-i theta})^{N+1} = 1 and the circulant
        # (I + e^{-i theta} P)^{-1} does not exist, so every member of each
        # chunk goes dense, in one call per chunk, and no kernel is solved
        theta = np.pi - TWO_PI * k / (n + 1) + offset
        monkeypatch.setattr(semispectral, "_THETA0", theta)
        tried = spy_structured(monkeypatch)
        dense = spy_dense(monkeypatch)
        kernels = spy_kernels(monkeypatch)
        rng = np.random.default_rng(dim * 100 + n)
        ts = np.stack([sampling.random_contraction(rng, dim) for _ in range(4)])
        cdfs = semispectral_cdfs(ts, n)  # MOMENT_FAIL would raise here
        assert all(t == theta for _, t in tried)
        assert dense == [js.shape[0] for js, _ in tried] and sum(dense) == 4
        assert kernels == []
        want = dense_jumps(ts, n, semispectral._DROP_TOL)
        assert_same_jumps([(cdf.angles, cdf.blocks) for cdf in cdfs], want)
        for t, cdf in zip(ts, cdfs):
            assert moment_residual(cdf, t, n) <= 1e-9

    def test_singular_circulant_at_the_rotation_skips_the_structured_pass(self, monkeypatch):
        # at _THETA0 the circulant is first singular at N = 332: the member
        # goes straight to the dense solve, with no eigenvalue to refine
        n = 332
        assert abs(1.0 - (-np.exp(-1j * semispectral._THETA0)) ** (n + 1)) <= (
            semispectral._CIRCULANT_MIN
        )
        ts = sampling.random_contraction(np.random.default_rng(3), 1)[None]
        dense = spy_dense(monkeypatch)
        kernels = spy_kernels(monkeypatch)
        ang, lead = semispectral._dilation_eigs(julia_operators(ts), n)
        assert dense == [1] and kernels == []
        assert_same_jumps(semispectral._jump_lists(ang, lead, -1.0), dense_jumps(ts, n), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEED,
        dim=st.integers(1, 6),
        n=st.integers(1, 36),
        kind=st.sampled_from(["generic", "unitary", "0.0"]),
        delta=st.sampled_from([1e-7, 1e-6, 1e-5, 1e-4, 1e-3, -1e-7, -1e-5, -1e-3]),
        pick=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_pole_next_to_an_eigenvalue(self, seed, dim, n, kind, delta, pick):
        # the pole delta from one eigenangle, |lam| near 2/|delta|: the bound
        # residual / gap decides whether the member goes dense; the jumps are
        # the same either way
        ts = edge_contraction(np.random.default_rng(seed), kind, dim)[None]
        ang, _ = semispectral._unitary_eig(unitaries(ts, n))
        assume(semispectral._circle_gaps(ang)[1].min() >= 1e-4)
        theta = ang[0, int(pick * ang.shape[1])] + delta - np.pi
        assume(abs(1.0 - (-np.exp(-1j * theta)) ** (n + 1)) > semispectral._CIRCULANT_MIN)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(semispectral, "_THETA0", theta)
            ang, lead = semispectral._dilation_eigs(julia_operators(ts), n)
        assert_same_jumps(semispectral._jump_lists(ang, lead, -1.0), dense_jumps(ts, n), 1e-10)

    def test_resolvent_paths_take_no_dense_solve(self, monkeypatch):
        # the resolvent pipeline's stacks at dims 2/4/6, N = 36: the base
        # and (N + 2) // 2 = 19 Gauss-Legendre nodes
        calls = spy_dense(monkeypatch)
        rng = np.random.default_rng(11)
        for dim in (2, 4, 6):
            h, h0 = (sampling.random_hermitian(rng, dim) for _ in range(2))
            pair = SelfAdjointPair(h, h0)
            step = shift_step_representation(pair.circle_path(), max_power=36, degree=36)
            assert step.angles.size > 0
        assert calls == []

    @pytest.mark.parametrize("kind", ["cayley_sa", "cayley_diss"])
    def test_transform_campaigns_take_no_dense_solve(self, monkeypatch, tmp_path, kind):
        # the benchmark's transform campaigns: seed 1, default dims and degrees
        calls = spy_dense(monkeypatch)
        tried = spy_structured(monkeypatch)
        status, _ = run_campaign(CampaignConfig(kind=kind, seed=1, out=str(tmp_path)))
        assert status == 0
        assert tried and calls == []


class TestRetryPath:
    """A member that the one structured solve cannot vouch for is solved
    again by the dense route, together with every other such member of its
    chunk; no member is solved twice by the structured route."""

    def pole_stack(self, offset, good=1):
        # a unitary T keeps its eigenvalues in its dilation: one of them sits
        # on (or next to) the first rotation's pole; it is member ``good`` of
        # the stack, with ``good`` random contractions on either side
        rng = np.random.default_rng(1)
        bad = unitary_with_angles(7, [POLE + offset, 0.3, 2.0])
        ts = [sampling.random_contraction(rng, 3) for _ in range(2 * good)]
        return np.stack(ts[:good] + [bad] + ts[good:])

    def assert_one_structured_solve(self, tried, ts):
        [(js, theta)] = tried
        assert theta == semispectral._THETA0 and np.array_equal(js, julia_operators(ts))

    def assert_matches_dilation_oracle(self, ts, cdfs, n):
        for t, cdf in zip(ts, cdfs):
            u = n_dilation(t, n).unitary
            assert_matches_oracle(cdf, u, t.shape[0], semispectral._DROP_TOL)

    @pytest.mark.parametrize("offset", [0.0, 1e-9, -1e-9])
    def test_eigenvalue_on_first_pole_is_retried(self, monkeypatch, offset):
        # on the pole the bound residual / gap fails: dense, alone.  1e-9 off
        # it (|lam| about 2e9) the second kernel solve, at the Rayleigh
        # quotient, leaves a vector whose bound passes: no dense solve
        dense = spy_dense(monkeypatch)
        tried = spy_structured(monkeypatch)
        ts = self.pole_stack(offset)
        cdfs = semispectral_cdfs(ts, 4)
        self.assert_one_structured_solve(tried, ts)
        assert dense == ([1] if offset == 0.0 else [])
        self.assert_matches_dilation_oracle(ts, cdfs, 4)

    @pytest.mark.parametrize("offset", [1e-5, -1e-5])
    def test_eigenvalue_near_first_pole_is_solved_once(self, monkeypatch, offset):
        # |lam| about 2e5, the bound residual / gap passes: the structured
        # solve vouches for it
        dense = spy_dense(monkeypatch)
        tried = spy_structured(monkeypatch)
        ts = self.pole_stack(offset)
        cdfs = semispectral_cdfs(ts, 4)
        self.assert_one_structured_solve(tried, ts)
        assert dense == []
        self.assert_matches_dilation_oracle(ts, cdfs, 4)

    def test_vector_bound_decides_the_dense_members(self, monkeypatch):
        # the bound residual / gap alone sends members dense: at the default
        # every vector of a random stack passes it, at _VECTOR_FAIL = 0 none
        # does, and the whole stack goes through one dense solve
        rng = np.random.default_rng(4)
        ts = np.stack([sampling.random_contraction(rng, 3) for _ in range(5)])
        want = dense_jumps(ts, 6)
        js = julia_operators(ts)
        dense = spy_dense(monkeypatch)
        semispectral._dilation_eigs(js, 6)
        assert dense == []
        monkeypatch.setattr(semispectral, "_VECTOR_FAIL", 0.0)
        ang, lead = semispectral._dilation_eigs(js, 6)
        assert dense == [5]
        assert_same_jumps(semispectral._jump_lists(ang, lead, -1.0), want, 0.0)

    def test_only_the_bad_member_is_retried(self, monkeypatch):
        dense = []
        original = semispectral._unitary_eig

        def wrapped(u):
            dense.append(u.copy())
            return original(u)

        monkeypatch.setattr(semispectral, "_unitary_eig", wrapped)
        tried = spy_structured(monkeypatch)
        ts = self.pole_stack(0.0, good=2)
        semispectral_cdfs(ts, 4)
        self.assert_one_structured_solve(tried, ts)
        [u] = dense
        assert np.array_equal(u, unitaries(ts[2:3], 4))

    def test_singular_solve_is_retried(self, monkeypatch):
        # the dilations of these unitaries with eigenvalue -1 have a repeated
        # eigenvalue and make a bordered kernel system exactly singular: the
        # stacked solve falls back to member by member, the member's vector
        # comes back NaN, nothing warns on the way, and the member goes
        # dense after its one structured solve, since no rotation can help
        singular = []
        original = semispectral._solve_or_nan

        def wrapped(a, b):
            if a.ndim == 2:  # one member, retried after its stack failed
                singular.append(a.shape)
            return original(a, b)

        monkeypatch.setattr(semispectral, "_solve_or_nan", wrapped)
        dense = spy_dense(monkeypatch)
        tried = spy_structured(monkeypatch)
        rng = np.random.default_rng(2)
        for diag, n in [([-1.0], 2), ([-1.0, 1j], 2), ([1.0, -1.0], 3)]:
            singular.clear()
            dense.clear()
            tried.clear()
            t = np.diag(np.asarray(diag, dtype=complex))
            ts = np.stack([sampling.random_contraction(rng, t.shape[0]), t])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cdfs = semispectral_cdfs(ts, n)
            assert singular
            self.assert_one_structured_solve(tried, ts)
            assert dense == [1]
            self.assert_matches_dilation_oracle(ts, cdfs, n)

    def test_singular_member_comes_back_nan(self):
        a = np.stack([2.0 * np.eye(3), np.diag([1.0, 0.0, 1.0]), np.eye(3)])
        b = np.ones((3, 3, 1))
        x = semispectral._solve_or_nan(a, b)
        assert np.isnan(x[1]).all()
        assert_allclose(x[[0, 2]], [0.5 * b[0], b[2]], rtol=0, atol=0)


class TestBatch:
    @pytest.mark.parametrize("dim,n,count", [(2, 8, 33), (4, 20, 20), (6, 36, 3)])
    def test_stack_matches_members(self, dim, n, count):
        # (4, 20) spans three chunks of nine members; (6, 36) one member each
        rng = np.random.default_rng(dim * 100 + n)
        ts = np.stack([sampling.random_contraction(rng, dim) for _ in range(count)])
        stacked = semispectral_cdfs(ts, n)
        assert len(stacked) == count
        for t, cdf in zip(ts, stacked):
            alone = semispectral_cdf(t, n)
            assert_allclose(cdf.angles, alone.angles, rtol=0, atol=1e-13)
            assert_allclose(cdf.blocks, alone.blocks, rtol=0, atol=1e-13)
            assert moment_residual(cdf, t, n) <= 1e-9

    def test_corrupted_member_raises(self, monkeypatch):
        rng = np.random.default_rng(5)
        ts = np.stack([sampling.random_contraction(rng, 3) for _ in range(5)])
        other = julia_operators(ts[:1] * 0.5)[0]
        original = semispectral.julia_operators

        def corrupt(chunk):
            js = original(chunk)
            js[3] = other  # still unitary, but the dilation data of another operator
            return js

        monkeypatch.setattr(semispectral, "julia_operators", corrupt)
        with pytest.raises(MomentConsistencyError):
            semispectral_cdfs(ts, 4)

    def test_rejects_non_contraction_member(self):
        ts = np.stack([np.zeros((2, 2)), 2.0 * np.eye(2)])
        with pytest.raises(ValueError):
            semispectral_cdfs(ts, 3)

    def test_rejects_non_stack(self):
        with pytest.raises(ValueError):
            semispectral_cdfs(np.zeros((2, 2)), 3)
