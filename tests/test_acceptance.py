"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Seeds are fixed; every expected value is either exact or
produced by an independent route computed here.
"""

import time

import numpy as np
import pytest

from specshift import (
    DissipativePair,
    PerturbationPath,
    SelfAdjointPair,
    TrigPolynomial,
    build_projections,
    eta_moment_linear,
    hs_difference_schaffer,
    hs_norm,
    is_unitary,
    reduction_diagnostics,
    n_dilation,
    quotient_bound_test,
    schaffer_window,
    shift_step_representation,
    truncation_gap,
    verify_dissipative_formula,
    verify_resolvent_formula,
    verify_selfadjoint_formula,
    verify_trace_formula_linear,
    verify_trace_formula_mult,
)
from specshift import sampling
from specshift.cayley import resolvent_pipeline
from specshift.cli import CampaignConfig, run_campaign

from oracles import difference_quotient_residual, monomial_bound_constant


def announce(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {label} {detail}"


def test_criterion_01_trace_formula_linear():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(300):
        d = int(rng.integers(2, 9))
        path = sampling.random_linear_path(rng, d)
        p = sampling.random_analytic_polynomial(rng, int(rng.integers(2, 7)))
        rep = verify_trace_formula_linear(path, p)
        worst = max(worst, rep.residual / (1 + abs(rep.lhs)))
        if not rep.passed:
            break
    elapsed = time.perf_counter() - start
    announce(
        1,
        "linear trace formula, 300 cases",
        worst <= 1e-8 and elapsed < 30.0,
        f"worst scaled residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_trace_formula_mult():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    ok = True
    for _ in range(200):
        d = int(rng.integers(2, 7))
        path = sampling.random_multiplicative_path(rng, d)
        p = sampling.random_trig_polynomial(rng, int(rng.integers(1, 6)))
        rep = verify_trace_formula_mult(path, p)
        worst = max(worst, rep.residual / (1 + abs(rep.lhs)))
        ok = ok and rep.passed
    elapsed = time.perf_counter() - start
    announce(
        2,
        "multiplicative trace formula, 200 cases",
        ok and worst <= 1e-7 and elapsed < 60.0,
        f"worst scaled residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_quotient_bound():
    rng = np.random.default_rng(103)
    ok = True
    worst_ratio = 0.0
    for _ in range(5):
        d = int(rng.integers(2, 7))
        path = sampling.random_linear_path(rng, d)
        rep = quotient_bound_test(path, trials=500, max_deg=6, seed=int(rng.integers(1 << 30)))
        ok = ok and rep.passed
        worst_ratio = max(worst_ratio, rep.extras["max_ratio"])
    # scalar tight case: base 0, direction 1/2, f = 1 achieves the bound
    tight = PerturbationPath.linear(np.zeros((1, 1)), 0.5 * np.eye(1))
    ratio = abs(eta_moment_linear(tight, 0)) / (0.5 * 1.0 * hs_norm(tight.direction) ** 2)
    announce(
        3,
        "quotient-norm bound, 500 polynomials x 5 cases + tight case",
        ok and worst_ratio <= 1 + 1e-6 and abs(ratio - 1.0) <= 1e-9,
        f"max ratio {worst_ratio:.8f}, tight-case ratio deviation {abs(ratio - 1):.1e}",
    )


def test_criterion_04_route_agreement():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 7))
        path = sampling.random_linear_path(rng, d)
        step = shift_step_representation(path, max_power=7, degree=9)
        for m in range(7):
            worst = max(worst, abs(1j * step.time_fourier(m + 1) - eta_moment_linear(path, m)))
    announce(
        4,
        "pointwise vs moment route, 50 cases, m <= 6",
        worst <= 1e-6,
        f"worst coefficient gap {worst:.2e}",
    )


def test_criterion_05_dilation_suite():
    rng = np.random.default_rng(105)
    worst_unitarity = 0.0
    worst_compression = 0.0
    worst_hs_gap = 0.0
    overshoot_failures = 0
    non_unitary = 0
    total = 200
    for _ in range(total):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 7))
        t = sampling.random_contraction(rng, d)
        t0 = sampling.random_contraction(rng, d)
        dil = n_dilation(t, n)
        eye = np.eye((n + 1) * d)
        worst_unitarity = max(
            worst_unitarity, hs_norm(dil.unitary.conj().T @ dil.unitary - eye)
        )
        compressions = [np.linalg.matrix_power(dil.unitary, k)[:d, :d] for k in range(n + 2)]
        worst_compression = max(
            worst_compression,
            max(
                hs_norm(compressions[k] - np.linalg.matrix_power(t, k))
                for k in range(n + 1)
            ),
        )
        if not is_unitary(t, 1e-8):
            non_unitary += 1
            if hs_norm(compressions[n + 1] - np.linalg.matrix_power(t, n + 1)) > 1e-8:
                overshoot_failures += 1
        closed = hs_difference_schaffer(t, t0)
        windowed = hs_norm(schaffer_window(t, 2) - schaffer_window(t0, 2))
        worst_hs_gap = max(worst_hs_gap, abs(closed - windowed))
    announce(
        5,
        "dilation suite, 200 cases",
        worst_unitarity <= 1e-9
        and worst_compression <= 1e-9
        and non_unitary > 0
        and overshoot_failures >= 0.95 * non_unitary
        and worst_hs_gap <= 1e-10,
        f"unitarity {worst_unitarity:.1e}, compression {worst_compression:.1e}, "
        f"negative control {overshoot_failures}/{non_unitary} non-unitary, "
        f"hs gap {worst_hs_gap:.1e}",
    )


def test_criterion_06_difference_quotient():
    rng = np.random.default_rng(106)
    ok_bound = True
    slopes = []
    cases = 0
    while cases < 100:
        d = int(rng.integers(2, 7))
        path = sampling.random_linear_path(rng, d)
        if hs_norm(path.direction) < 1e-2:
            continue
        r = int(rng.integers(2, 7))
        f = TrigPolynomial({r: 1.0})
        ts = np.array([1e-1, 1e-2, 1e-3])
        res = np.array([difference_quotient_residual(path, f, t) for t in ts])
        bound = monomial_bound_constant(path, r)
        ok_bound = ok_bound and np.all(res <= bound * ts + 1e-12)
        if res.min() > 1e-13:
            slopes.append(np.polyfit(np.log(ts), np.log(res), 1)[0])
        cases += 1
    announce(
        6,
        "difference-quotient bound and first-order rate, 100 cases",
        ok_bound and len(slopes) > 90 and min(slopes) >= 0.9,
        f"min slope {min(slopes):.3f}",
    )


def test_criterion_07_cayley_suite():
    rng = np.random.default_rng(107)
    worst_a = 0.0
    worst_ab = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 7))
        pair = SelfAdjointPair(
            sampling.random_hermitian(rng, d), sampling.random_hermitian(rng, d)
        )
        phi = sampling.random_analytic_polynomial(rng, int(rng.integers(2, 6)))
        rep = verify_selfadjoint_formula(pair, phi)
        worst_a = max(worst_a, rep.residual)
        worst_ab = max(worst_ab, rep.extras["residual_circle_vs_realline"])
    res_pair = SelfAdjointPair(
        sampling.random_hermitian(rng, 5), sampling.random_hermitian(rng, 5)
    )
    shared_line = resolvent_pipeline(res_pair, grid=4096)
    worst_res = 0.0
    for z in (-2j, 1 - 2j, -1 - 2j, -3j, 0.5 - 1.5j):
        rep = verify_resolvent_formula(res_pair, z, grid=4096, line=shared_line)
        assert rep.extras["tau_abs"] > 1
        worst_res = max(worst_res, rep.residual)
    announce(
        7,
        "self-adjoint transform suite",
        worst_a <= 1e-6 and worst_ab <= 1e-4 and worst_res <= 1e-5,
        f"circle {worst_a:.1e}, circle-vs-line {worst_ab:.1e}, resolvent {worst_res:.1e}",
    )


def test_criterion_08_dissipative_suite():
    rng = np.random.default_rng(108)
    # Hermitian boundary case agrees with the self-adjoint pipeline
    worst_limit = 0.0
    for _ in range(5):
        d = int(rng.integers(2, 5))
        h = sampling.random_hermitian(rng, d) + 0.6 * np.eye(d)
        h0 = sampling.random_hermitian(rng, d) + 0.5 * np.eye(d)
        if min(np.abs(np.linalg.eigvalsh(h)).min(), np.abs(np.linalg.eigvalsh(h0)).min()) < 1e-2:
            continue
        phi = sampling.random_analytic_polynomial(rng, 4)
        rep_d = verify_dissipative_formula(DissipativePair(h, h0), phi)
        rep_s = verify_selfadjoint_formula(SelfAdjointPair(h, h0), phi)
        worst_limit = max(worst_limit, abs(rep_d.lhs - rep_s.lhs), abs(rep_d.rhs - rep_s.rhs))
    worst_circle = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 6))
        pair = DissipativePair(
            sampling.random_dissipative(rng, d), sampling.random_dissipative(rng, d)
        )
        phi = sampling.random_analytic_polynomial(rng, int(rng.integers(2, 6)))
        rep = verify_dissipative_formula(pair, phi)
        worst_circle = max(worst_circle, rep.residual / (1 + abs(rep.lhs)))
    announce(
        8,
        "dissipative transform suite",
        worst_limit <= 1e-8 and worst_circle <= 1e-6,
        f"hermitian-limit gap {worst_limit:.1e}, circle residual {worst_circle:.1e}",
    )


def test_criterion_09_truncation_suite():
    rng = np.random.default_rng(109)
    worst_full = 0.0
    bound_ok = True
    for _ in range(20):
        d = int(rng.integers(3, 8))
        n0 = 0.7 * sampling.random_normal_contraction(rng, d)
        v = 0.05 * sampling.complex_gaussian(rng, d)
        a = sampling.random_hermitian(rng, d, cap=1.0)
        seq = build_projections(n0, sorted({max(1, d // 2), d}), rotate=True, seed=int(rng.integers(100)))
        for row in reduction_diagnostics(seq, n0, v, a):
            bound_ok = bound_ok and row["exp_remainder_gap"] <= row["exp_remainder_bound"] + 1e-10
        base = n0 + v
        base /= max(1.0, np.linalg.norm(base, 2) * 1.001)
        path = PerturbationPath.multiplicative(base, a)
        rows = truncation_gap(seq, path, TrigPolynomial({3: 1.0}))
        worst_full = max(worst_full, rows[-1]["gap"])
    # exact-capture fixture: perturbation confined to the leading eigenblock
    n0 = np.diag([0.9, 0.8, 0.4, 0.3, 0.2, 0.1]).astype(complex)
    v = np.zeros((6, 6), dtype=complex)
    v[:2, :2] = 0.03
    seq = build_projections(n0, [2, 4, 6])
    capture = truncation_gap(seq, PerturbationPath.linear(n0, v), TrigPolynomial({4: 1.0}))
    capture_ok = all(row["gap"] <= 1e-12 for row in capture)
    announce(
        9,
        "truncation suite",
        worst_full <= 1e-12 and bound_ok and capture_ok,
        f"full-rank gap {worst_full:.1e}, bound holds: {bound_ok}, capture: {capture_ok}",
    )


def test_criterion_10_determinism(tmp_path):
    digests = []
    for sub in ("first", "second"):
        cfg = CampaignConfig(
            kind="linear", trials=25, seed=2026, dims=[2, 3, 4], out=str(tmp_path / sub)
        )
        status, _ = run_campaign(cfg)
        assert status == 0
        digests.append((tmp_path / sub / "summary.csv").read_bytes())
    announce(
        10,
        "campaign determinism, byte-identical CSV",
        digests[0] == digests[1],
        f"{len(digests[0])} bytes",
    )
