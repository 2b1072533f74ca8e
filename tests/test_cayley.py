import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from specshift import (
    DegenerateTransformError,
    DissipativePair,
    SelfAdjointPair,
    TrigPolynomial,
    cayley_dissipative,
    cayley_sa,
    hs_norm,
    is_unitary,
    resolvent_pipeline,
    verify_dissipative_formula,
    verify_resolvent_formula,
    verify_selfadjoint_formula,
)
from specshift import cayley, sampling, shift
from specshift.report import write_reports_json
from specshift.shift import RealLineShift, StepFunction, gamma_pipeline, mobius_polynomial_flux


def w_path(pair, s):
    """W_s = (H + i)(H_s + i)^{-1}(H_0 + i) - i, H_s = s H_0 + (1 - s) H."""
    eye = 1j * np.eye(pair.dim)
    hs = s * pair.h0 + (1.0 - s) * pair.h
    return (pair.h + eye) @ np.linalg.solve(hs + eye, pair.h0 + eye) - eye


class TestSymbolicOrientation:
    def test_bridge_identity_one_by_one(self):
        # symbolic check fixing the path orientation before any wiring:
        # with h_s = s h0 + (1-s) h and w_s = (h+i)(h_s+i)^{-1}(h0+i) - i,
        # the transform of w_s equals (1-s) u0 + s u, so s=0 pairs with h0
        import sympy as sp

        h, h0, s = sp.symbols("h h0 s", real=True)
        i = sp.I
        hs = s * h0 + (1 - s) * h
        ws = (h + i) / (hs + i) * (h0 + i) - i
        u = (i - h) / (i + h)
        u0 = (i - h0) / (i + h0)
        lhs = (i - ws) / (i + ws)
        rhs = (1 - s) * u0 + s * u
        assert sp.simplify(lhs - rhs) == 0
        assert sp.simplify(ws.subs(s, 0) - h0) == 0
        assert sp.simplify(ws.subs(s, 1) - h) == 0

    def test_resolvent_scalar_oracle(self):
        # closed scalar form for h = 1, h0 = 0, z = -2i, derived symbolically
        import sympy as sp

        z = sp.Integer(-2) * sp.I
        i = sp.I
        h, h0 = sp.Integer(1), sp.Integer(0)
        m = 1 / (h + i) - 1 / (h0 + i)
        x = (i + h0) / (h0 - z)
        lhs = 1 / (h - z) - 1 / (h0 - z) - x * m * x
        expected = complex(sp.simplify(lhs))

        pair = SelfAdjointPair(np.array([[1.0]]), np.array([[0.0]]))
        rep = verify_resolvent_formula(pair, -2j)
        assert rep.lhs == pytest.approx(expected, abs=1e-12)
        assert rep.rhs == pytest.approx(expected, abs=1e-5)
        assert rep.passed


class TestCayleyTransform:
    def test_zero_maps_to_one(self):
        assert cayley_sa(np.array([[0.0]]))[0, 0] == pytest.approx(1.0)

    def test_one_maps_to_i(self):
        assert cayley_sa(np.array([[1.0]]))[0, 0] == pytest.approx(1j)

    def test_eigenvalue_mapping(self):
        rng = np.random.default_rng(0)
        h = sampling.random_hermitian(rng, 4)
        lam, q = np.linalg.eigh(h)
        expected = (q * ((1j - lam) / (1j + lam))) @ q.conj().T
        assert_allclose(cayley_sa(h), expected, atol=1e-12)

    def test_unitarity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            u = cayley_sa(sampling.random_hermitian(rng, int(rng.integers(1, 7))))
            assert is_unitary(u, cayley.TRANSFORM_UNITARY_TOL)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            cayley_sa(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dissipative_scalar_i_maps_to_zero(self):
        assert cayley_dissipative(np.array([[1j]]))[0, 0] == pytest.approx(0.0)

    def test_dissipative_eigenvalue_one_excluded(self):
        # L with 0 in its spectrum sends the transform onto eigenvalue 1
        with pytest.raises(DegenerateTransformError):
            cayley_dissipative(np.zeros((2, 2)))

    def test_dissipative_rejects_negative_imaginary_part(self):
        with pytest.raises(ValueError):
            cayley_dissipative(np.array([[-1j]]))


class TestWPath:
    def test_endpoints(self):
        rng = np.random.default_rng(3)
        pair = SelfAdjointPair(
            sampling.random_hermitian(rng, 3), sampling.random_hermitian(rng, 3)
        )
        assert_allclose(w_path(pair, 0.0), pair.h0, atol=1e-10)
        assert_allclose(w_path(pair, 1.0), pair.h, atol=1e-10)

    def test_transform_identity_along_path(self):
        rng = np.random.default_rng(4)
        pair = SelfAdjointPair(
            sampling.random_hermitian(rng, 4), sampling.random_hermitian(rng, 4)
        )
        u, u0 = cayley_sa(pair.h), cayley_sa(pair.h0)
        eye = 1j * np.eye(4)
        for s in (0.2, 0.5, 0.9):
            w = w_path(pair, s)
            image = np.linalg.solve((eye + w).T, (eye - w).T).T
            assert hs_norm(image - ((1 - s) * u0 + s * u)) < 1e-9

    def test_constant_pair(self):
        rng = np.random.default_rng(5)
        h = sampling.random_hermitian(rng, 3)
        pair = SelfAdjointPair(h, h)
        for s in (0.0, 0.4, 1.0):
            assert_allclose(w_path(pair, s), h, atol=1e-10)


class TestPairs:
    def test_dissipative_pair_rejects_non_dissipative_operand(self):
        l0 = np.array([[0.5 + 1j]])
        for l, l0_ in ((np.array([[-1j]]), l0), (l0, np.array([[-1j]]))):
            with pytest.raises(ValueError):
                DissipativePair(l, l0_)

    def test_dissipative_pair_rejects_eigenvalue_one(self):
        with pytest.raises(DegenerateTransformError):
            DissipativePair(np.zeros((2, 2)), 1j * np.eye(2))

    def test_transforms_kept_from_construction(self):
        rng = np.random.default_rng(7)
        h, h0 = sampling.random_hermitian(rng, 3), sampling.random_hermitian(rng, 3)
        sa = SelfAdjointPair(h, h0)
        l, l0 = sampling.random_dissipative(rng, 3), sampling.random_dissipative(rng, 3)
        diss = DissipativePair(l, l0)
        for pair, want in ((sa, (cayley_sa(h), cayley_sa(h0))),
                           (diss, (cayley_dissipative(l), cayley_dissipative(l0)))):
            path = pair.circle_path()
            assert np.array_equal(path.base, want[1])
            assert np.array_equal(path.direction, want[0] - want[1])


class TestFunctionBridge:
    def test_mobius_composition_identity(self):
        # psi(H) = phi(U) as matrices, checked by diagonalizing H
        rng = np.random.default_rng(7)
        h = sampling.random_hermitian(rng, 4)
        u = cayley_sa(h)
        phi = sampling.random_analytic_polynomial(rng, 5)
        lam, q = np.linalg.eigh(h)
        psi_vals = phi((1j - lam) / (1j + lam))
        psi_h = (q * psi_vals) @ q.conj().T
        from specshift import apply_function

        assert hs_norm(psi_h - apply_function(phi, u)) < 1e-9


class TestSelfAdjointFormula:
    def test_equal_pair_vanishes(self):
        rng = np.random.default_rng(8)
        h = sampling.random_hermitian(rng, 3)
        pair = SelfAdjointPair(h, h)
        rep = verify_selfadjoint_formula(pair, TrigPolynomial({2: 1.0, 4: 0.5}), grid=512)
        assert abs(rep.lhs) < 1e-12
        assert abs(rep.rhs) < 1e-12
        assert rep.passed

    def test_linear_symbol_vanishes(self):
        rng = np.random.default_rng(9)
        pair = SelfAdjointPair(
            sampling.random_hermitian(rng, 3), sampling.random_hermitian(rng, 3)
        )
        rep = verify_selfadjoint_formula(pair, TrigPolynomial({1: 1.0}), grid=512)
        assert abs(rep.lhs) < 1e-12 and abs(rep.rhs) < 1e-12 and rep.passed

    def test_random_pairs_both_routes(self):
        rng = np.random.default_rng(10)
        for _ in range(8):
            d = int(rng.integers(2, 7))
            pair = SelfAdjointPair(
                sampling.random_hermitian(rng, d), sampling.random_hermitian(rng, d)
            )
            phi = sampling.random_analytic_polynomial(rng, int(rng.integers(2, 6)))
            rep = verify_selfadjoint_formula(pair, phi)
            assert rep.passed
            assert rep.residual <= 1e-6 * (1 + abs(rep.lhs))
            assert rep.extras["residual_circle_vs_realline"] <= 1e-4

    @pytest.mark.parametrize("verify", [verify_selfadjoint_formula, verify_dissipative_formula])
    def test_tolerances_reach_the_verdict(self, verify, monkeypatch):
        rng = np.random.default_rng(11)
        if verify is verify_selfadjoint_formula:
            pair = SelfAdjointPair(sampling.random_hermitian(rng, 3), sampling.random_hermitian(rng, 3))
        else:
            pair = DissipativePair(sampling.random_dissipative(rng, 3), sampling.random_dissipative(rng, 3))
        phi = TrigPolynomial({2: 1.0, 3: 0.5})
        assert verify(pair, phi, grid=512).passed
        with monkeypatch.context() as patch:
            patch.setattr(cayley, "CIRCLE_TOL", 1e-30)
            tight_circle = verify(pair, phi, grid=512)
        assert not tight_circle.passed and tight_circle.tol == 1e-30
        with monkeypatch.context() as patch:
            patch.setattr(cayley, "REAL_LINE_TOL", 1e-30)
            tight_line = verify(pair, phi, grid=512)
        assert not tight_line.passed and tight_line.extras["realline_tol"] == 1e-30

    def test_degree_beyond_an_eighth_of_the_grid(self):
        # both pairings are exact sums over the jumps: the grid bounds no degree
        rng = np.random.default_rng(11)
        pair = SelfAdjointPair(
            sampling.random_hermitian(rng, 2), sampling.random_hermitian(rng, 2)
        )
        report = verify_selfadjoint_formula(pair, TrigPolynomial({40: 1.0}), grid=256)
        assert report.passed and report.degree == 40


class TestVerdictDegree:
    """The transform verdicts build their line at N = max(deg - 1, 1): both
    pairings read the moments of order < deg, which that dilation reproduces
    and (N + 2) // 2 Gauss nodes integrate exactly."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 6),
        deg=st.integers(1, 8),
        selfadjoint=st.booleans(),
    )
    def test_line_at_least_exact_degree(self, seed, dim, deg, selfadjoint):
        rng = np.random.default_rng(seed)
        if selfadjoint:
            pair = SelfAdjointPair(sampling.random_hermitian(rng, dim), sampling.random_hermitian(rng, dim))
            verify = verify_selfadjoint_formula
        else:
            pair = DissipativePair(sampling.random_dissipative(rng, dim), sampling.random_dissipative(rng, dim))
            verify = verify_dissipative_formula
        phi = sampling.random_analytic_polynomial(rng, deg)
        stacks = []
        real = shift.semispectral_cdfs

        def spy(ts, n):
            stacks.append((len(ts), (n + 1) * ts.shape[-1]))
            return real(ts, n)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shift, "semispectral_cdfs", spy)
            rep = verify(pair, phi, grid=512)
        n = max(phi.max_index - 1, 1)
        assert stacks == [(1 + (n + 2) // 2, (n + 1) * dim)]
        scale = 1.0 + abs(rep.lhs)
        assert rep.passed and rep.residual <= 1e-9 * scale
        # a line at N = deg + 2, past every moment read, gives the same right side
        wide = gamma_pipeline(pair.circle_path(), phi.max_index + 2, grid=512)
        assert abs(wide.pairing_second_derivative(phi) - rep.rhs) <= 1e-9 * scale

    @pytest.mark.parametrize("deg", range(3, 9))
    def test_one_degree_lower_misses(self, deg):
        # a line at N = deg - 2 lacks the moment of order deg - 1 that z^deg reads
        rng = np.random.default_rng(24)
        pair = SelfAdjointPair(sampling.random_hermitian(rng, 3), sampling.random_hermitian(rng, 3))
        path, phi = pair.circle_path(), TrigPolynomial({deg: 1.0})
        lhs = path.second_order_trace(phi)
        scale = 1.0 + abs(lhs)
        for n, exact in ((deg - 1, True), (deg - 2, False)):
            miss = abs(gamma_pipeline(path, n, grid=512).pairing_second_derivative(phi) - lhs)
            assert (miss <= cayley.CIRCLE_TOL * scale) == exact, (n, miss / scale)


class TestRealLineRewrite:
    def test_realline_pairing_rewrites_the_circle_pairing(self):
        # W(tan(t/2)) e^{-it} = 2i phi'(e^{it}): for a polynomial phi the real-line
        # pairing is the circle pairing term by term, on any step function, so
        # residual_circle_vs_realline checks the Moebius transport, not a second route
        rng = np.random.default_rng(25)
        for _ in range(200):
            jumps = int(rng.integers(1, 40))
            step = StepFunction(rng.uniform(0.0, 2.0 * np.pi, jumps), sampling.random_coefficients(rng, jumps))
            line = RealLineShift(step, grid=256)
            phi = sampling.random_analytic_polynomial(rng, int(rng.integers(1, 13)))
            a = line.pairing_second_derivative(phi)
            b = line.pairing_realline(mobius_polynomial_flux(phi))
            assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


class TestResolventFormula:
    def test_equal_pair(self):
        rng = np.random.default_rng(12)
        h = sampling.random_hermitian(rng, 3)
        pair = SelfAdjointPair(h, h)
        rep = verify_resolvent_formula(pair, -2j, grid=512)
        assert abs(rep.lhs) < 1e-12 and abs(rep.rhs) < 1e-10 and rep.passed

    def test_upper_half_plane_rejected(self):
        rng = np.random.default_rng(13)
        pair = SelfAdjointPair(
            sampling.random_hermitian(rng, 2), sampling.random_hermitian(rng, 2)
        )
        with pytest.raises(ValueError):
            verify_resolvent_formula(pair, 2j)

    def test_mobius_modulus_sanity(self):
        # |(i - z)/(i + z)| > 1 exactly when Im z < 0
        rng = np.random.default_rng(14)
        for _ in range(20):
            z = complex(rng.normal(), -abs(rng.normal()) - 1e-3)
            assert abs((1j - z) / (1j + z)) > 1
        pair = SelfAdjointPair(
            sampling.random_hermitian(rng, 3), sampling.random_hermitian(rng, 3)
        )
        rep = verify_resolvent_formula(pair, -1.0 - 2.0j)
        assert rep.extras["tau_abs"] > 1
        assert rep.passed

    def test_pole_of_tau(self, tmp_path):
        # at z = -i, the pole of tau, both sides vanish; tau_abs is inf without
        # a warning (warnings fail the run), and reports.json writes it as null
        rng = np.random.default_rng(15)
        for dim in (2, 4, 6):
            pair = SelfAdjointPair(
                sampling.random_hermitian(rng, dim), sampling.random_hermitian(rng, dim)
            )
            rep = verify_resolvent_formula(pair, -1j, grid=512)
            assert rep.passed and rep.extras["tau_abs"] == np.inf
        write_reports_json(tmp_path / "reports.json", [rep])
        assert json.loads((tmp_path / "reports.json").read_text())[0]["extras"]["tau_abs"] is None

    def test_prebuilt_line_reports_its_own_degree_and_grid(self):
        rng = np.random.default_rng(3)
        pair = SelfAdjointPair(sampling.random_hermitian(rng, 2), sampling.random_hermitian(rng, 2))
        line = resolvent_pipeline(pair, grid=512, degree=6)
        rep = verify_resolvent_formula(pair, -2j, line=line)
        assert rep.degree == 6 and rep.extras["grid"] == 512
        # degree 6 is too low for the truncation tail; the default is not
        assert not rep.passed
        assert verify_resolvent_formula(pair, -2j, grid=512).passed
        # a grid that agrees with the line is accepted, another refused
        assert verify_resolvent_formula(pair, -2j, grid=512, line=line).degree == 6
        with pytest.raises(TypeError):
            verify_resolvent_formula(pair, -2j, degree=6, line=line)
        with pytest.raises(ValueError):
            verify_resolvent_formula(pair, -2j, grid=4096, line=line)

    def test_derivative_term_against_difference_quotient(self):
        # the subtracted block X M X equals the s-derivative of the resolvent
        # of the interpolating path at 0, here checked by finite differences
        rng = np.random.default_rng(15)
        pair = SelfAdjointPair(
            sampling.random_hermitian(rng, 3), sampling.random_hermitian(rng, 3)
        )
        z = -1.5j
        eye = np.eye(3)
        m = np.linalg.inv(pair.h + 1j * eye) - np.linalg.inv(pair.h0 + 1j * eye)
        x = (1j * eye + pair.h0) @ np.linalg.inv(pair.h0 - z * eye)
        closed = x @ m @ x
        h = 1e-6
        r0 = np.linalg.inv(w_path(pair, 0.0) - z * eye)
        r1 = np.linalg.inv(w_path(pair, h) - z * eye)
        r2 = np.linalg.inv(w_path(pair, 2 * h) - z * eye)
        oracle = (-3 * r0 + 4 * r1 - r2) / (2 * h)
        assert hs_norm(oracle - closed) < 1e-6


class TestDissipativeFormula:
    def test_equal_pair(self):
        rng = np.random.default_rng(16)
        l = sampling.random_dissipative(rng, 3)
        pair = DissipativePair(l, l)
        rep = verify_dissipative_formula(pair, TrigPolynomial({3: 1.0}), grid=512)
        assert abs(rep.lhs) < 1e-12 and rep.passed

    def test_hermitian_limit_matches_selfadjoint_pipeline(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            d = int(rng.integers(2, 5))
            h = sampling.random_hermitian(rng, d) + 0.5 * np.eye(d)
            h0 = sampling.random_hermitian(rng, d) + 0.4 * np.eye(d)
            if min(np.abs(np.linalg.eigvalsh(h)).min(), np.abs(np.linalg.eigvalsh(h0)).min()) < 1e-3:
                continue
            phi = sampling.random_analytic_polynomial(rng, 4)
            rep_diss = verify_dissipative_formula(DissipativePair(h, h0), phi, grid=1024)
            rep_sa = verify_selfadjoint_formula(SelfAdjointPair(h, h0), phi, grid=1024)
            assert abs(rep_diss.lhs - rep_sa.lhs) <= 1e-8
            assert abs(rep_diss.rhs - rep_sa.rhs) <= 1e-8

    def test_strictly_dissipative_cases(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            pair = DissipativePair(
                sampling.random_dissipative(rng, d), sampling.random_dissipative(rng, d)
            )
            phi = sampling.random_analytic_polynomial(rng, int(rng.integers(2, 6)))
            rep = verify_dissipative_formula(pair, phi)
            assert rep.passed
            assert rep.residual <= 1e-6 * (1 + abs(rep.lhs))

    def test_scalar_strictly_dissipative_runs(self):
        pair = DissipativePair(np.array([[1j]]), np.array([[0.5 + 1j]]))
        rep = verify_dissipative_formula(pair, TrigPolynomial({2: 1.0}), grid=512)
        assert rep.passed
