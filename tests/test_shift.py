import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from specshift import (
    PerturbationPath,
    RealLineShift,
    StepFunction,
    TrigPolynomial,
    eta_moment_linear,
    eta_tilde_moments_mult,
    gamma_pipeline,
    gauss_legendre_01,
    mobius_polynomial_flux,
    quotient_bound_test,
    shift_step_representation,
    verify_trace_formula_linear,
    verify_trace_formula_mult,
)
from specshift import cli, quadrature, sampling, shift
from specshift.cayley import cayley_dissipative, cayley_sa


def quadrature_pairing(line: RealLineShift, weight) -> complex:
    """Oracle for the real-line pairing: the integral of weight * xi.

    Substitutes lam = tan(t/2), with Jacobian (1 + lam^2)/2, and puts 16
    Gauss nodes on each piece of [0, 2pi] between the jump angles, pi and
    64 uniform breaks, so the integrand is smooth on every piece.
    """
    breaks = np.unique(
        np.concatenate([line.step.angles, np.linspace(0.0, 2.0 * np.pi, 65), [np.pi]])
    )
    x, w = np.polynomial.legendre.leggauss(16)
    a, b = breaks[:-1], breaks[1:]
    keep = (b - a) > 1e-14
    a, b = a[keep], b[keep]
    half = 0.5 * (b - a)
    t = (0.5 * (a + b)[:, None] + half[:, None] * x[None, :]).ravel()
    wt = (half[:, None] * w[None, :]).ravel()
    lam = np.tan(0.5 * t)
    vals = np.asarray(weight(lam), dtype=np.complex128)
    return complex(np.sum(wt * vals * 0.5 * line.eta_tilde(t) * 0.5 * (1.0 + lam * lam)))


def mobius_polynomial_weight(phi: TrigPolynomial):
    """The weight (d/dlam){(1+lam^2) psi'} of psi = phi o Mobius, by the chain rule."""
    dphi = phi.derivative()
    d2phi = dphi.derivative()

    def weight(lam):
        lam = np.asarray(lam, dtype=np.complex128)
        denom = 1j + lam
        m = (1j - lam) / denom
        m1 = -2j / denom**2
        m2 = 4j / denom**3
        psi1 = dphi(m) * m1
        psi2 = d2phi(m) * m1 * m1 + dphi(m) * m2
        return 2.0 * lam * psi1 + (1.0 + lam * lam) * psi2

    return weight


def resolvent_flux(z: complex):
    # (1 + lam^2) psi' for psi = 1/(lam - z)
    return lambda lam: -(1.0 + lam * lam) / (np.asarray(lam, dtype=np.complex128) - z) ** 2


def resolvent_weight(z: complex):
    # the derivative of resolvent_flux(z)
    return lambda lam: 2.0 * (1.0 + lam * z) / (np.asarray(lam, dtype=np.complex128) - z) ** 3


def scalar_linear(base: float, direction: float) -> PerturbationPath:
    return PerturbationPath.linear(
        np.array([[base]], dtype=complex), np.array([[direction]], dtype=complex)
    )


class TestLinearMoments:
    def test_zero_direction(self):
        rng = np.random.default_rng(0)
        path = PerturbationPath.linear(sampling.random_contraction(rng, 3), np.zeros((3, 3)))
        for m in range(5):
            assert eta_moment_linear(path, m) == 0

    def test_scalar_closed_forms(self):
        # base 0, direction 1/2:
        #   c_0 = int_0^1 (1/2)(s/2) ds           = 1/8
        #   c_1 = (1/2) int_0^1 (1/2)(s/2)^2 ds   = 1/48
        path = scalar_linear(0.0, 0.5)
        assert eta_moment_linear(path, 0) == pytest.approx(1 / 8)
        assert eta_moment_linear(path, 1) == pytest.approx(1 / 48)

    def test_gauss_legendre_exactness_margin(self):
        # the fixed node count is already exact: adding four nodes must not
        # move the value
        rng = np.random.default_rng(1)
        path = sampling.random_linear_path(rng, 4)
        for m in range(6):
            nodes, weights = gauss_legendre_01((m + 3) // 2 + 4)
            base_pow = np.linalg.matrix_power(path.base, m + 1)
            oracle = sum(
                w * np.trace(path.direction @ (np.linalg.matrix_power(path.at(float(s)), m + 1) - base_pow))
                for s, w in zip(nodes, weights)
            ) / (m + 1)
            assert abs(eta_moment_linear(path, m) - oracle) < 1e-13

    def test_negative_index_rejected(self):
        path = scalar_linear(0.0, 0.5)
        with pytest.raises(ValueError):
            eta_moment_linear(path, -1)

    def test_batched_moments_match_one_at_a_time(self):
        # one Gauss-Legendre rule exact for the highest moment serves them all
        rng = np.random.default_rng(32)
        for d in (1, 3, 5):
            path = sampling.random_linear_path(rng, d)
            ms = [0, 2, 3, 6, 9]
            batched = shift.mode_integrals(path, [m + 1 for m in ms])
            assert sorted(batched) == [m + 1 for m in ms]
            for m in ms:
                single = eta_moment_linear(path, m)
                assert abs(batched[m + 1] - single) <= 1e-13 * (1.0 + abs(single))
        assert shift.mode_integrals(path, []) == {}

    def test_batched_moments_refuse_bad_input(self):
        with pytest.raises(ValueError):
            shift.mode_integrals(scalar_linear(0.0, 0.5), [1, 0])
        mult = PerturbationPath.multiplicative(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            eta_moment_linear(mult, 0)


class TestPointwiseLinear:
    def test_endpoint_values_vanish(self):
        rng = np.random.default_rng(2)
        path = sampling.random_linear_path(rng, 3)
        step = shift_step_representation(path, max_power=4, degree=4)
        assert abs(step(0.0)) < 1e-12
        assert abs(step(2 * np.pi)) < 1e-8

    def test_zero_direction(self):
        rng = np.random.default_rng(3)
        path = PerturbationPath.linear(sampling.random_contraction(rng, 3), np.zeros((3, 3)))
        step = shift_step_representation(path, max_power=3, degree=3)
        for t in (0.5, 2.0, 5.0):
            assert step(t) == 0

    def test_route_agreement(self):
        # contour moments of the dilation-built pointwise representation
        # match the exact moment route
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            path = sampling.random_linear_path(rng, d)
            step = shift_step_representation(path, max_power=7, degree=9)
            for m in range(7):
                assert abs(1j * step.time_fourier(m + 1) - eta_moment_linear(path, m)) < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6), n=st.integers(1, 36))
    def test_derived_node_count_carries_every_moment(self, seed, dim, n):
        # the degree-N dilation carries c_m for m < N, whose s-integrands
        # have degree m + 1 <= N: (N + 2) // 2 nodes integrate them exactly
        path = sampling.random_linear_path(np.random.default_rng(seed), dim)
        step = shift_step_representation(path, max_power=n, degree=n)
        for r, want in shift.mode_integrals(path, range(1, n + 1)).items():
            assert abs(1j * step.time_fourier(r) - want) <= 1e-10 * (1.0 + abs(want))

    @pytest.mark.parametrize("dim,n", [(2, 4), (3, 8)])
    def test_one_node_fewer_misses_a_moment(self, monkeypatch, dim, n):
        # the derived count is tight: (N + 2) // 2 - 1 nodes integrate the
        # top moments' s-integrands only approximately
        path = sampling.random_linear_path(np.random.default_rng(dim * 100 + n), dim)
        ref = shift.mode_integrals(path, range(1, n + 1))
        fewer = shift.gauss_legendre_01((n + 2) // 2 - 1)
        monkeypatch.setattr(shift, "gauss_legendre_01", lambda count: fewer)
        step = shift_step_representation(path, max_power=n, degree=n)
        gap = max(abs(1j * step.time_fourier(r) - ref[r]) / (1.0 + abs(ref[r])) for r in ref)
        assert gap > 1e-9

    def test_node_count_follows_the_path(self, monkeypatch):
        # linear paths take (N + 2) // 2 nodes; multiplicative ones the a
        # priori count for powers up to N
        counts = []
        real = shift.gauss_legendre_01

        def spy(count):
            counts.append(count)
            return real(count)

        monkeypatch.setattr(shift, "gauss_legendre_01", spy)
        rng = np.random.default_rng(9)
        for n in (1, 4, 7, 36):
            shift_step_representation(sampling.random_linear_path(rng, 2), max_power=n, degree=n)
        mult = sampling.random_multiplicative_path(rng, 2)
        shift_step_representation(mult, max_power=3)
        assert counts == [1, 3, 4, 19, shift._mult_node_count(mult, 5)]


class TestMultiplicativeMoments:
    def test_zero_generator(self):
        rng = np.random.default_rng(5)
        path = PerturbationPath.multiplicative(
            sampling.random_contraction(rng, 3), np.zeros((3, 3))
        )
        for r in (-2, -1, 1, 2):
            assert eta_tilde_moments_mult(path, [r])[r] == 0

    def test_zero_base(self):
        rng = np.random.default_rng(6)
        path = PerturbationPath.multiplicative(
            np.zeros((3, 3)), sampling.random_hermitian(rng, 3)
        )
        for r in (-1, 1, 3):
            assert eta_tilde_moments_mult(path, [r])[r] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_closed_form(self):
        # T0 = [[1]], A = [[pi]]:
        # d_1 = (1/i) int_0^1 pi (e^{i s pi} - 1) ds = 2 + i pi,
        # confirmed against an independent quadrature oracle below
        path = PerturbationPath.multiplicative(
            np.array([[1.0 + 0j]]), np.array([[np.pi + 0j]])
        )
        got = eta_tilde_moments_mult(path, [1])[1]

        def integrand_re(s):
            return (np.pi * (np.exp(1j * s * np.pi) - 1) / 1j).real

        def integrand_im(s):
            return (np.pi * (np.exp(1j * s * np.pi) - 1) / 1j).imag

        oracle = quad(integrand_re, 0, 1)[0] + 1j * quad(integrand_im, 0, 1)[0]
        assert got == pytest.approx(oracle, abs=1e-10)
        assert got == pytest.approx(2 + 1j * np.pi, abs=1e-10)

    def test_constant_mode_rejected(self):
        rng = np.random.default_rng(7)
        path = sampling.random_multiplicative_path(rng, 2)
        with pytest.raises(ValueError):
            eta_tilde_moments_mult(path, [0])

    def test_real_valuedness_conjugate_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            path = sampling.random_multiplicative_path(rng, int(rng.integers(2, 5)))
            modes = eta_tilde_moments_mult(path, [-3, -2, -1, 1, 2, 3])
            for r in (1, 2, 3):
                assert abs(modes[-r] - np.conj(modes[r])) < 1e-9

    def test_multiplicative_route_agreement(self):
        # time-Fourier data of the dilation-built pointwise representation
        # match the Gauss moment route on multiplicative paths
        rng = np.random.default_rng(33)
        for _ in range(4):
            path = sampling.random_multiplicative_path(rng, int(rng.integers(2, 6)))
            step = shift_step_representation(path, max_power=3)
            modes = eta_tilde_moments_mult(path, [-3, -2, -1, 1, 2, 3])
            for r in (-3, -2, -1, 1, 2, 3):
                assert abs(step.time_fourier(r) - modes[r]) <= 1e-9 * (1.0 + abs(modes[r]))


def neidhardt_toeplitz(path: PerturbationPath, top: int) -> np.ndarray:
    """(top + 1)-square Toeplitz matrix [d_(k-j)] of the multiplicative modes,
    with d_0 := ||A||_2^2 / 2, the total mass of the shift function."""
    modes = eta_tilde_moments_mult(path, [r for r in range(-top, top + 1) if r])
    modes[0] = 0.5 * np.linalg.norm(path.direction) ** 2
    idx = np.arange(top + 1)
    return np.array([[modes[k - j] for k in idx] for j in idx])


class TestNeidhardtPositivity:
    """Caratheodory-Toeplitz form of Neidhardt's theorem [NH]: for U = e^{iA} U_0
    the shift function is a nonnegative measure of mass ||A||_2^2 / 2, so the
    Toeplitz matrix of its Fourier modes is Hermitian positive semidefinite.
    Each mode is within QUAD_TOL / |r|, which moves the smallest eigenvalue by
    at most 2 (1 + ln R) QUAD_TOL."""

    @staticmethod
    def assert_positive(path: PerturbationPath, top: int):
        toeplitz = neidhardt_toeplitz(path, top)
        # eta~ is real, so d_(-r) = conj(d_r) up to the error of the modes
        assert np.abs(toeplitz - toeplitz.conj().T).max() <= shift.QUAD_TOL
        lowest = np.linalg.eigvalsh(toeplitz).min()
        assert lowest >= -2.0 * (1.0 + np.log(top)) * shift.QUAD_TOL, lowest

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5), top=st.sampled_from([10, 40]))
    def test_unitary_base_the_theorem(self, seed, dim, top):
        rng = np.random.default_rng(seed)
        u0 = sampling.random_unitary(rng, dim)
        path = PerturbationPath.multiplicative(u0, sampling.random_hermitian(rng, dim))
        self.assert_positive(path, top)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5), top=st.sampled_from([10, 40]))
    def test_contraction_base_the_observed_extension(self, seed, dim, top):
        # not a theorem here: the property is observed on random contractions,
        # norm-one ones included (the paper extends the formula to a class of them)
        path = sampling.random_multiplicative_path(np.random.default_rng(seed), dim)
        self.assert_positive(path, top)

    def test_scalar_unitary_is_taylors_formula(self):
        # d = 1, T_0 = 1, A = a: eta(t) = a - t on [0, a], so d_0 = a^2 / 2 and
        # the matrix is the Gram matrix of a nonnegative function
        path = PerturbationPath.multiplicative(np.array([[1.0 + 0j]]), np.array([[2.0 + 0j]]))
        toeplitz = neidhardt_toeplitz(path, 10)
        assert toeplitz[0, 0] == 2.0
        assert np.linalg.eigvalsh(toeplitz).min() > 0.0


def gauss_modes(path: PerturbationPath, rs, count: int) -> dict[int, complex]:
    """Oracle for the modes d_r: a ``count``-node Gauss-Legendre rule, one
    ``path.at`` per node and ``np.linalg.matrix_power`` for every power."""
    nodes, weights = gauss_legendre_01(count)
    points = np.stack([path.at(float(s)) for s in nodes])
    out = {}
    for r in rs:
        flip = (lambda m: m) if r > 0 else (lambda m: m.conj().swapaxes(-1, -2))
        diff = np.linalg.matrix_power(flip(points), abs(r)) - np.linalg.matrix_power(
            flip(path.base), abs(r)
        )
        out[r] = complex(np.einsum("ab,kba->k", path.direction, diff) @ weights / (1j * r))
    return out


class TestMultiplicativeGaussRule:
    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 6),
        top=st.integers(1, 36),
        norm=st.one_of(st.just(0.0), st.floats(1e-6, np.pi)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_every_mode_meets_the_target(self, dim, top, norm, seed):
        rng = np.random.default_rng(seed)
        h = sampling.complex_gaussian(rng, dim)
        h = h + h.conj().T
        a = norm * h / np.linalg.norm(h, 2) if norm else np.zeros((dim, dim))
        path = PerturbationPath.multiplicative(sampling.random_contraction(rng, dim), a)
        rs = [r for r in range(-top, top + 1) if r]
        n = shift._mult_node_count(path, top)
        got = eta_tilde_moments_mult(path, rs)
        if not norm:
            assert n == 1 and all(got[r] == 0 for r in rs)
            return
        ref = gauss_modes(path, rs, 2 * n + 40)
        assert max(abs(got[r] - ref[r]) for r in rs) <= shift.QUAD_TOL

    def test_two_nodes_fewer_miss_the_target(self, monkeypatch):
        # near-tight on a recorded campaign path (seed 0, trial 9): n nodes
        # meet QUAD_TOL and n - 2 miss it
        cfg = cli.CampaignConfig(kind="mult", seed=0)
        rng = cli._trial_rng(0, 9)
        path = cli._sample_path(rng, "mult", cli._pick(rng, cfg.dims), False)
        deg = max(cli._pick(rng, cfg.degrees), 1)
        rs = [r for r in range(-deg, deg + 1) if r]
        n = shift._mult_node_count(path, deg)
        ref = gauss_modes(path, rs, 2 * n + 40)

        def gap(count: int) -> float:
            monkeypatch.setattr(shift, "_mult_node_count", lambda path, top: count)
            got = eta_tilde_moments_mult(path, rs)
            return max(abs(got[r] - ref[r]) for r in rs)

        assert gap(n) <= shift.QUAD_TOL < gap(n - 2)

    def test_campaign_skips_gk15_and_decomposes_each_generator_once(self, tmp_path, monkeypatch):
        # every specshift module that holds adaptive_gk15 gets the spy
        gk15_calls = []
        gk15 = quadrature.adaptive_gk15
        for module in [m for n, m in sys.modules.items() if n.startswith("specshift")]:
            for attr, value in list(vars(module).items()):
                if value is gk15:
                    monkeypatch.setattr(module, attr, lambda *a, **k: gk15_calls.append(a))
        factored = []
        eigh = np.linalg.eigh

        def spy_eigh(m, *args, **kwargs):
            factored.append(m)
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
        checked = []
        verify = cli.verify_trace_formula_mult

        def spy_verify(path, *args, **kwargs):
            checked.append(path)
            return verify(path, *args, **kwargs)

        monkeypatch.setattr(cli, "verify_trace_formula_mult", spy_verify)
        status, reports = cli.run_campaign(
            cli.CampaignConfig(kind="mult", trials=6, seed=3, out=str(tmp_path))
        )
        assert status == 0 and len(reports) == 6
        assert gk15_calls == []
        assert len(factored) == len(checked) == 6
        assert all(m is path.direction for m, path in zip(factored, checked))


class TestModeIntegrals:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 5),
        linear=st.booleans(),
        rs=st.lists(st.integers(-12, 12).filter(bool), min_size=1, max_size=6, unique=True),
    )
    def test_one_sequence_for_both_paths(self, seed, dim, linear, rs):
        rng = np.random.default_rng(seed)
        if linear:
            path, rs = sampling.random_linear_path(rng, dim), sorted({abs(r) for r in rs})
        else:
            path = sampling.random_multiplicative_path(rng, dim)
        e = shift.mode_integrals(path, rs)
        assert sorted(e) == sorted(rs)
        # the readers are e itself, bit for bit: c_m = e_(m+1) one mode at a
        # time, d_r = e_r / i over the same modes
        if linear:
            c = {r: eta_moment_linear(path, r - 1) for r in rs}
            assert all(c[r] == shift.mode_integrals(path, [r])[r] for r in rs)
        else:
            d = eta_tilde_moments_mult(path, rs)
            assert all(d[r] == e[r] / 1j for r in rs)
        # an 80-node rule: exact on a linear path; on a multiplicative one the
        # integral r e_r meets QUAD_TOL, the target its node count is set for
        ref = {r: 1j * d for r, d in gauss_modes(path, rs, 80).items()}
        for r in rs:
            tol = 1e-12 * (1.0 + abs(e[r])) if linear else shift.QUAD_TOL / abs(r)
            assert abs(e[r] - ref[r]) <= tol
        with pytest.raises(ValueError):
            shift.mode_integrals(path, rs + [0])
        if linear:
            with pytest.raises(ValueError):
                shift.mode_integrals(path, rs + [-rs[0]])


class TestTraceFormulaLinear:
    def test_low_degree_identically_zero(self):
        rng = np.random.default_rng(10)
        path = sampling.random_linear_path(rng, 3)
        rep = verify_trace_formula_linear(path, TrigPolynomial({0: 2.0, 1: -1.5}))
        assert rep.lhs == pytest.approx(0.0, abs=1e-14)
        assert rep.rhs == 0 and rep.passed

    def test_scalar_square(self):
        path = scalar_linear(0.0, 0.5)
        rep = verify_trace_formula_linear(path, TrigPolynomial({2: 1.0}))
        assert rep.lhs == pytest.approx(0.25)
        assert rep.rhs == pytest.approx(0.25)
        assert rep.passed

    def test_zero_direction(self):
        rng = np.random.default_rng(11)
        path = PerturbationPath.linear(sampling.random_contraction(rng, 4), np.zeros((4, 4)))
        rep = verify_trace_formula_linear(path, TrigPolynomial({4: 1.0}))
        assert rep.lhs == 0 and rep.rhs == 0 and rep.passed

    def test_random_cases(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            d = int(rng.integers(2, 9))
            path = sampling.random_linear_path(rng, d)
            p = sampling.random_analytic_polynomial(rng, int(rng.integers(2, 7)))
            rep = verify_trace_formula_linear(path, p)
            assert rep.passed, rep.residual

    def test_two_sided_rejected(self):
        rng = np.random.default_rng(13)
        path = sampling.random_linear_path(rng, 2)
        with pytest.raises(ValueError):
            verify_trace_formula_linear(path, TrigPolynomial({-1: 1.0}))


class TestTraceFormulaMult:
    def test_constant_symbol(self):
        rng = np.random.default_rng(14)
        path = sampling.random_multiplicative_path(rng, 3)
        rep = verify_trace_formula_mult(path, TrigPolynomial({0: 3.0}))
        assert rep.lhs == 0 and rep.rhs == 0 and rep.passed

    def test_zero_generator(self):
        rng = np.random.default_rng(15)
        path = PerturbationPath.multiplicative(
            sampling.random_contraction(rng, 3), np.zeros((3, 3))
        )
        rep = verify_trace_formula_mult(path, TrigPolynomial({2: 1.0, -1: 0.5}))
        assert rep.lhs == 0 and rep.rhs == pytest.approx(0.0, abs=1e-12) and rep.passed

    def test_normal_plus_hilbert_schmidt_base(self):
        # base split as normal + small perturbation, two-sided symbol
        rng = np.random.default_rng(16)
        n0 = 0.7 * sampling.random_normal_contraction(rng, 4)
        v = 0.05 * sampling.complex_gaussian(rng, 4)
        base = n0 + v
        base /= max(1.0, np.linalg.norm(base, 2) * 1.001)
        a = sampling.random_hermitian(rng, 4)
        path = PerturbationPath.multiplicative(base, a)
        p = TrigPolynomial({3: 1.0, -1: 1.0})
        rep = verify_trace_formula_mult(path, p)
        assert rep.passed and rep.residual < 1e-8

    def test_random_cases(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            d = int(rng.integers(2, 7))
            path = sampling.random_multiplicative_path(rng, d)
            p = sampling.random_trig_polynomial(rng, int(rng.integers(1, 6)))
            rep = verify_trace_formula_mult(path, p)
            assert rep.passed, rep.residual


class TestQuotientBound:
    def test_zero_direction_all_zero(self):
        rng = np.random.default_rng(19)
        path = PerturbationPath.linear(sampling.random_contraction(rng, 3), np.zeros((3, 3)))
        rep = quotient_bound_test(path, trials=20, max_deg=4, seed=1)
        assert rep.extras["max_ratio"] == 0.0 and rep.passed

    def test_scalar_tight_case(self):
        # base 0, direction 1/2, f = 1: |c_0| = 1/8 equals the bound exactly
        path = scalar_linear(0.0, 0.5)
        c0 = eta_moment_linear(path, 0)
        bound = 0.5 * 1.0 * 0.25
        assert abs(abs(c0) / bound - 1.0) < 1e-9
        rep = quotient_bound_test(path, trials=100, max_deg=4, seed=2)
        assert rep.passed and rep.extras["max_ratio"] <= 1 + 1e-6

    def test_random_paths(self):
        rng = np.random.default_rng(20)
        for _ in range(4):
            path = sampling.random_linear_path(rng, int(rng.integers(2, 7)))
            rep = quotient_bound_test(path, trials=200, max_deg=6, seed=int(rng.integers(1 << 30)))
            assert rep.passed
            assert rep.extras["max_ratio"] <= 1 + 1e-6

    def test_multiplicative_variant(self):
        rng = np.random.default_rng(21)
        path = sampling.random_multiplicative_path(rng, 3)
        rep = quotient_bound_test(path, trials=100, max_deg=4, seed=5)
        assert rep.passed

    def test_requires_trials(self):
        path = scalar_linear(0.0, 0.5)
        with pytest.raises(ValueError):
            quotient_bound_test(path, trials=0, max_deg=3, seed=0)

    @pytest.mark.parametrize("kind", ["linear", "multiplicative"])
    def test_stacked_trials_match_the_per_trial_loop(self, kind):
        # oracle: one random_coefficients draw and one sup_norm_estimate per trial
        rng = np.random.default_rng(22)
        path = getattr(sampling, f"random_{kind}_path")(rng, 3)
        rep = quotient_bound_test(path, trials=60, max_deg=5, seed=9)
        data = np.array(list(shift.mode_integrals(path, range(1, 7)).values()))
        draws = np.random.default_rng(9)
        dir_sq = np.linalg.norm(path.direction) ** 2
        ratios = []
        for _ in range(60):
            coeffs = sampling.random_coefficients(draws, 6)
            sup = TrigPolynomial(dict(enumerate(coeffs))).sup_norm_estimate()
            ratios.append(abs(complex(coeffs @ data)) / (0.5 * sup * dir_sq))
        assert abs(rep.extras["max_ratio"] - max(ratios)) <= 1e-14 * max(ratios)


class TestStepFunction:
    def test_exact_fourier_of_single_jump(self):
        theta, h = 1.3, 0.7 - 0.2j
        step = StepFunction([theta], [h])
        for k in (-2, -1, 1, 2, 5):
            grid = np.linspace(theta, 2 * np.pi, 20001)
            oracle = np.trapezoid(h * np.exp(1j * k * grid), grid)
            assert abs(step.time_fourier(k) - oracle) < 1e-6
        oracle0 = h * (2 * np.pi - theta)
        assert step.time_fourier(0) == pytest.approx(oracle0)

    def test_prefix_evaluation(self):
        step = StepFunction([1.0, 2.0], [1.0, -0.5])
        assert step(0.5) == 0
        assert step(1.5) == pytest.approx(1.0)
        assert step(2.5) == pytest.approx(0.5)

    @settings(max_examples=100, deadline=None)
    @given(
        jumps=st.lists(
            st.tuples(
                st.one_of(st.just(2.0 * np.pi), st.floats(0.0, 2.0 * np.pi)),
                st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=40,
        ),
        g=st.integers(256, 4096),
    )
    def test_midpoint_sums_meet_time_fourier_within_the_variation_bound(self, jumps, g):
        # the g-point midpoint sum of e^{ikt} f(t) misses the exact integral by
        # one partial cell per jump plus the midpoint error of e^{ikt} on the
        # whole cells: at most TV h (1 + pi^2 k^2 / (6 g)), h = 2pi / g,
        # TV = sum |h_j|; a jump at 2pi is never reached by f on [0, 2pi)
        step = StepFunction(*zip(*jumps))
        h = 2.0 * np.pi / g
        t = (np.arange(g) + 0.5) * h
        values = step(t)
        tv = np.abs(step.heights).sum()
        for k in range(-3, 4):
            midpoint = h * np.sum(np.exp(1j * k * t) * values)
            bound = tv * h * (1.0 + np.pi**2 * k**2 / (6.0 * g))
            assert abs(midpoint - step.time_fourier(k)) <= bound, k


class TestGammaPipeline:
    def _unitary_path(self, rng, dim):
        h = sampling.random_hermitian(rng, dim)
        h0 = sampling.random_hermitian(rng, dim)
        u, u0 = cayley_sa(h), cayley_sa(h0)
        return PerturbationPath.linear(u0, u - u0)

    def test_zero_direction_everything_vanishes(self):
        rng = np.random.default_rng(22)
        u0 = cayley_sa(sampling.random_hermitian(rng, 3))
        path = PerturbationPath.linear(u0, np.zeros((3, 3)))
        line = gamma_pipeline(path, 6, grid=512)
        t = np.linspace(0, 2 * np.pi, 7)
        assert np.allclose(line.step(t), 0)
        assert np.allclose(line.eta_tilde(t), 0, atol=1e-12)
        # xi(lam) = eta~(2 arctan lam) / 2 vanishes too
        pulled = np.mod(2 * np.arctan(np.array([-2.0, 0.0, 3.0])), 2 * np.pi)
        assert np.allclose(0.5 * line.eta_tilde(pulled), 0, atol=1e-12)

    def test_constant_eta_synthetic(self):
        # eta == kappa on (0, 2pi] makes the analytic correction vanish and
        # eta~ constant equal to -i kappa
        kappa = 0.8 - 0.3j
        step = StepFunction([1e-9], [kappa])
        line = RealLineShift(step, grid=512)
        assert abs(line.mean_mode) < 1e-9
        for t in (0.3, 1.0, 4.0, 6.0):
            assert abs(line.eta_tilde(t) - (-1j * kappa)) < 1e-7

    def test_samples_are_xi_at_the_midpoint_angles(self):
        # lam = tan(t/2) at the grid midpoints t, and xi(lam) = eta~(2 arctan lam) / 2
        step = StepFunction([0.4, 2.5, np.pi, 5.0], [0.3 + 0.1j, -0.7, 0.5 - 0.2j, -0.1 - 0.1j])
        line = RealLineShift(step, grid=256)
        lam, xi = line.samples()
        t = (np.arange(256) + 0.5) * (2 * np.pi / 256)
        assert lam.shape == xi.shape == (256,)
        assert np.allclose(lam, np.tan(0.5 * t), rtol=1e-14, atol=0)
        pulled = np.mod(2 * np.arctan(lam), 2 * np.pi)
        assert np.allclose(xi, 0.5 * line.eta_tilde(pulled), rtol=0, atol=1e-12)

    def test_grid_minimum(self):
        rng = np.random.default_rng(24)
        path = self._unitary_path(rng, 2)
        with pytest.raises(ValueError):
            gamma_pipeline(path, 5, grid=64)

    @pytest.mark.parametrize("degree", [0, -1])
    def test_degree_below_one_rejected(self, degree):
        path = self._unitary_path(np.random.default_rng(24), 2)
        with pytest.raises(ValueError, match="at least 1"):
            gamma_pipeline(path, degree, grid=512)

    def test_circle_pairing_matches_trace_formula(self):
        rng = np.random.default_rng(26)
        path = self._unitary_path(rng, 3)
        phi = sampling.random_analytic_polynomial(rng, 5)
        line = gamma_pipeline(path, 7, grid=1024)
        lhs = path.second_order_trace(phi)
        assert abs(line.pairing_second_derivative(phi) - lhs) < 1e-9

    def test_realline_pairing_matches_circle(self):
        rng = np.random.default_rng(27)
        path = self._unitary_path(rng, 4)
        phi = sampling.random_analytic_polynomial(rng, 4)
        line = gamma_pipeline(path, 6, grid=1024)
        a = line.pairing_second_derivative(phi)
        b = line.pairing_realline(mobius_polynomial_flux(phi))
        assert abs(a - b) < 1e-9

    def test_exact_pairing_matches_quadrature_oracle(self):
        rng = np.random.default_rng(29)
        for d, unitary in ((2, True), (4, True), (3, False)):
            if unitary:
                path = self._unitary_path(rng, d)
            else:
                t, t0 = (cayley_dissipative(sampling.random_dissipative(rng, d)) for _ in range(2))
                path = PerturbationPath.linear(t0, t - t0)
            line = gamma_pipeline(path, 8, grid=1024)
            phi = sampling.random_analytic_polynomial(rng, 5)
            pairs = [(mobius_polynomial_flux(phi), mobius_polynomial_weight(phi))]
            pairs += [(resolvent_flux(z), resolvent_weight(z)) for z in (-2j, 1 - 2j)]
            for flux, weight in pairs:
                oracle = quadrature_pairing(line, weight)
                assert abs(line.pairing_realline(flux) - oracle) <= 1e-12 * (1.0 + abs(oracle))

    @pytest.mark.parametrize("edge", [np.pi, 2.0 * np.pi])
    def test_exact_pairing_jump_at_edge(self, edge):
        # a jump at pi sits at lam = +-infinity, one at 2pi at lam = 0-
        step = StepFunction([0.4, 2.5, edge, 5.0], [0.3 + 0.1j, -0.7, 0.5 - 0.2j, -0.1j])
        line = RealLineShift(step, grid=1024)
        phi = TrigPolynomial({2: 1.0, 3: -0.5j})
        pairs = [(mobius_polynomial_flux(phi), mobius_polynomial_weight(phi))]
        pairs.append((resolvent_flux(0.5 - 1.5j), resolvent_weight(0.5 - 1.5j)))
        for flux, weight in pairs:
            oracle = quadrature_pairing(line, weight)
            assert abs(line.pairing_realline(flux) - oracle) <= 1e-12 * (1.0 + abs(oracle))
        if edge == 2.0 * np.pi:
            # xi never reaches the angle 2pi, so the jump there changes nothing
            keep = step.angles < edge
            rest = RealLineShift(StepFunction(step.angles[keep], step.heights[keep]), grid=1024)
            for flux, _ in pairs:
                assert abs(line.pairing_realline(flux) - rest.pairing_realline(flux)) < 1e-14

    def test_xi_integrable_weight_finite(self):
        # (1 + lam^2)^{-1} xi must be integrable: its circle-side integral is
        # a quarter of the eta~ mass, finite on the compact grid
        rng = np.random.default_rng(28)
        path = self._unitary_path(rng, 3)
        line = gamma_pipeline(path, 6, grid=2048)
        assert np.isfinite(abs(line.eta_tilde(0.0)))
        assert np.isfinite(abs(line.eta_tilde(2 * np.pi)))
        # continuity across the wrap: the jump mass of eta sums to zero
        assert abs(line.eta_tilde(0.0) - line.eta_tilde(2 * np.pi)) < 1e-8
        lam = np.linspace(-50, 50, 101)
        xi = 0.5 * line.eta_tilde(np.mod(2 * np.arctan(lam), 2 * np.pi))
        vals = np.abs(xi) / (1 + lam**2)
        assert np.isfinite(vals).all()
