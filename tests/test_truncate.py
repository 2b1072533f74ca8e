import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from specshift import (
    PerturbationPath,
    ProjectionSequence,
    TrigPolynomial,
    build_projections,
    hermitian_exp,
    hs_norm,
    op_norm,
    reduction_diagnostics,
    signed_powers,
    trace_norm,
    truncation_gap,
)
from specshift import sampling, truncate
from specshift.cli import REMAINDER_SLACK, CampaignConfig, run_diagnose
from specshift.truncate import DIAGNOSTIC_FIELDS, exp_remainder


class TestBuildProjections:
    def test_exact_eigenbasis_off_corners_vanish(self):
        rng = np.random.default_rng(0)
        n0 = sampling.random_normal_contraction(rng, 5)
        seq = build_projections(n0, [1, 2, 3, 4, 5])
        for rank in seq.ranks:
            p = seq.projection(rank)
            q = np.eye(5) - p
            assert hs_norm(q @ n0 @ p) < 1e-10

    def test_full_rank_projection_is_identity(self):
        rng = np.random.default_rng(1)
        n0 = sampling.random_normal_contraction(rng, 4)
        seq = build_projections(n0, [4])
        assert_allclose(seq.projection(4), np.eye(4), atol=1e-12)

    def test_rotated_quantities_strictly_decrease(self):
        n0 = np.diag([1.0, 0.5, 0.25]).astype(complex)
        seq = build_projections(n0, [1, 2], rotate=True, seed=7)
        # direct oracle: compute the off-corner norms from the basis itself
        vals = []
        for rank in seq.ranks:
            p = seq.projection(rank)
            q = np.eye(3) - p
            vals.append(hs_norm(q @ n0 @ p))
        assert vals[0] > vals[1] > 0

    def test_modulus_then_argument_ordering(self):
        n0 = np.diag([0.5j, -0.5, 1.0]).astype(complex)
        seq = build_projections(n0, [1])
        # leading basis vector belongs to the eigenvalue of largest modulus
        lead = seq.basis[:, 0]
        assert abs(lead[2]) == pytest.approx(1.0, abs=1e-12)
        # tie on modulus 0.5: argument of 0.5j (pi/2) precedes -0.5 (pi)
        second = seq.basis[:, 1]
        assert abs(second[0]) == pytest.approx(1.0, abs=1e-12)

    def test_eigenvalues_merged_by_a_fixed_direction_keep_their_basis(self):
        # Re N + (sqrt(2)/3) Im N merges the first two eigenvalues: a basis
        # from that one Hermitian part mixes them and leaks off the diagonal
        lam = np.array([0.5, 0.5 + 0.3 * (np.sqrt(2.0) / 3.0 - 1j), -0.2j])
        q = sampling.random_unitary(np.random.default_rng(0), 3)
        n0 = (q * lam) @ q.conj().T
        z = build_projections(n0, [1, 2, 3]).basis
        m = z.conj().T @ n0 @ z
        assert np.abs(m - np.diag(np.diagonal(m))).max() <= 1e-12

    def test_rejects_non_normal(self):
        with pytest.raises(ValueError):
            build_projections(np.array([[0.0, 1.0], [0.0, 0.0]]), [1])

    def test_nested_and_validated(self):
        rng = np.random.default_rng(2)
        n0 = sampling.random_normal_contraction(rng, 4)
        seq = build_projections(n0, [1, 3], rotate=True, seed=1)
        p1, p3 = seq.projection(1), seq.projection(3)
        assert hs_norm(p3 @ p1 - p1) < 1e-12  # nesting
        with pytest.raises(ValueError):
            ProjectionSequence(ambient_dim=4, ranks=(3, 1), basis=seq.basis)
        with pytest.raises(ValueError):
            ProjectionSequence(ambient_dim=4, ranks=(1, 5), basis=seq.basis)


class TestReductionDiagnostics:
    @staticmethod
    def fixture(rng, dim=4):
        n0 = 0.7 * sampling.random_normal_contraction(rng, dim)
        v = 0.05 * sampling.complex_gaussian(rng, dim)
        a = sampling.random_hermitian(rng, dim, cap=1.0)
        return n0, v, a

    def test_zero_generator_rows(self):
        rng = np.random.default_rng(3)
        n0, v, _ = self.fixture(rng)
        seq = build_projections(n0, [2, 4], rotate=True, seed=2)
        rows = reduction_diagnostics(seq, n0, v, np.zeros((4, 4)))
        for row in rows:
            assert row["tail_rotation"] == pytest.approx(0.0, abs=1e-12)
            assert row["rotation_gap"] == pytest.approx(0.0, abs=1e-12)
            assert row["exp_remainder_gap"] == pytest.approx(0.0, abs=1e-12)
            assert row["exp_remainder_tail"] == pytest.approx(0.0, abs=1e-12)
            assert row["exp_remainder_bound"] == pytest.approx(0.0, abs=1e-12)

    def test_full_rank_row_all_zero(self):
        rng = np.random.default_rng(4)
        n0, v, a = self.fixture(rng)
        seq = build_projections(n0, [4], rotate=True, seed=3)
        row = reduction_diagnostics(seq, n0, v, a)[0]
        for key, value in row.items():
            if key == "rank":
                continue
            assert value == pytest.approx(0.0, abs=1e-10), key

    def test_exponential_remainder_bound_holds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            n0, v, a = self.fixture(rng, dim)
            ranks = sorted(set([max(1, dim // 2), dim]))
            seq = build_projections(n0, ranks, rotate=True, seed=int(rng.integers(100)))
            for row in reduction_diagnostics(seq, n0, v, a):
                assert row["exp_remainder_gap"] <= row["exp_remainder_bound"] + 1e-10

    def test_negative_powers_included(self, monkeypatch):
        rng = np.random.default_rng(6)
        n0, v, a = self.fixture(rng)
        seq = build_projections(n0, [2, 4], rotate=True, seed=4)
        monkeypatch.setattr(truncate, "POWER_CAP", 1)
        shallow = reduction_diagnostics(seq, n0, v, a)
        monkeypatch.setattr(truncate, "POWER_CAP", 3)
        deep = reduction_diagnostics(seq, n0, v, a)
        # widening the power family can only increase the reported maxima
        for s_row, d_row in zip(shallow, deep):
            assert d_row["power_gap_final"] >= s_row["power_gap_final"] - 1e-12


class TestTruncationGap:
    def test_full_rank_gap_zero_linear(self):
        rng = np.random.default_rng(7)
        path = sampling.random_linear_path(rng, 5)
        n0 = 0.7 * sampling.random_normal_contraction(rng, 5)
        seq = build_projections(n0, [2, 5], rotate=True, seed=5)
        rows = truncation_gap(seq, path, TrigPolynomial({3: 1.0, 1: 0.5}))
        assert rows[-1]["gap"] <= 1e-12

    def test_full_rank_gap_zero_multiplicative(self):
        rng = np.random.default_rng(8)
        path = sampling.random_multiplicative_path(rng, 4)
        n0 = 0.7 * sampling.random_normal_contraction(rng, 4)
        seq = build_projections(n0, [2, 4], rotate=True, seed=6)
        rows = truncation_gap(seq, path, TrigPolynomial({2: 1.0, -2: 0.3}))
        assert rows[-1]["gap"] <= 1e-12

    def test_zero_direction_gap_zero_everywhere(self):
        rng = np.random.default_rng(9)
        t0 = sampling.random_contraction(rng, 4)
        n0 = 0.7 * sampling.random_normal_contraction(rng, 4)
        seq = build_projections(n0, [1, 2, 3, 4])
        path = PerturbationPath.linear(t0, np.zeros((4, 4)))
        for row in truncation_gap(seq, path, TrigPolynomial({3: 1.0})):
            assert row["gap"] <= 1e-12

    def test_exact_capture(self):
        # direction supported in the captured leading eigenblock: the gap
        # vanishes as soon as the rank covers the support
        d = 6
        n0 = np.diag([0.9, 0.8, 0.4, 0.3, 0.2, 0.1]).astype(complex)
        v = np.zeros((d, d), dtype=complex)
        v[:2, :2] = 0.04 * (np.arange(4).reshape(2, 2) + 1) / 10.0
        seq = build_projections(n0, [2, 4, 6])
        path = PerturbationPath.linear(n0, v)
        rows = truncation_gap(seq, path, TrigPolynomial({4: 1.0, 2: 0.5}))
        for row in rows:
            assert row["gap"] <= 1e-12, row

    def test_trajectory_reported_not_asserted(self):
        # an eight-dimensional diagonal model: the gap trajectory ends at 0;
        # intermediate monotonicity is observed data, never asserted
        rng = np.random.default_rng(10)
        n0 = 0.8 * sampling.random_normal_contraction(rng, 8)
        v = 0.03 * sampling.complex_gaussian(rng, 8)
        base = n0 + v
        base /= max(1.0, np.linalg.norm(base, 2) * 1.001)
        path = PerturbationPath.linear(n0 / max(1.0, np.linalg.norm(n0, 2)), v)
        seq = build_projections(n0, [2, 4, 6, 8], rotate=True, seed=11)
        rows = truncation_gap(seq, path, TrigPolynomial({3: 1.0}))
        gaps = [row["gap"] for row in rows]
        assert all(np.isfinite(g) for g in gaps)
        assert gaps[-1] <= 1e-12


# --- per-rank oracles: the loops that the stacked routes replaced -----------


def loop_diagnostics(seq, n0, v, a):
    dim = seq.ambient_dim
    eye = np.eye(dim)
    t0 = n0 + v
    exp_a = hermitian_exp(a, 1.0)
    t = exp_a @ t0
    ks = [k for k in range(-truncate.POWER_CAP, truncate.POWER_CAP + 1) if k != 0]
    pows_t, pows_t0 = signed_powers(t, ks), signed_powers(t0, ks)
    norm = op_norm(a)
    scale = 1.0 if norm == 0.0 else float(np.expm1(norm) / norm)
    rows = []
    for rank in seq.ranks:
        p = seq.projection(rank)
        q = eye - p
        a_n = p @ a @ p
        t0_n = p @ t0 @ p
        exp_an = hermitian_exp(a_n, 1.0)
        t_n = exp_an @ t0_n
        rows.append(
            {
                "rank": float(rank),
                "offcorner_base": hs_norm(q @ n0 @ p),
                "tail_direction": hs_norm(q @ v),
                "tail_direction_adj": hs_norm(q @ v.conj().T),
                "power_gap_final": max(
                    hs_norm((x - y) @ p) for x, y in zip(pows_t, signed_powers(t_n, ks))
                ),
                "power_gap_initial": max(
                    hs_norm((x - y) @ p) for x, y in zip(pows_t0, signed_powers(t0_n, ks))
                ),
                "tail_rotation": hs_norm(q @ (exp_a - eye)),
                "rotation_gap": hs_norm(p @ (exp_a - exp_an)),
                "exp_remainder_gap": trace_norm((exp_a - 1j * a - exp_an + 1j * a_n) @ p),
                "exp_remainder_tail": trace_norm((exp_a - 1j * a - eye) @ q),
                "exp_remainder_bound": scale * hs_norm(a) * hs_norm(q @ a @ p),
            }
        )
    return rows


def loop_gaps(seq, path, p):
    full = path.second_order_difference(p)
    gaps = []
    for rank in seq.ranks:
        proj = seq.projection(rank)
        path_n = PerturbationPath(path.kind, proj @ path.base @ proj, proj @ path.direction @ proj)
        gaps.append(trace_norm(full - proj @ path_n.second_order_difference(p) @ proj))
    return gaps


class TestStackedRoutes:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 7),
        kind=st.sampled_from(["linear", "multiplicative"]),
        rotate=st.booleans(),
        data=st.data(),
    )
    def test_stacked_routes_match_the_per_rank_loop(self, seed, dim, kind, rotate, data):
        # every rank ladder ends at rank = dim; multiplicative symbols carry
        # negative powers, linear ones are analytic
        ranks = sorted(data.draw(st.sets(st.integers(1, dim - 1)))) + [dim]
        deg = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(seed)
        n0, v, a = TestReductionDiagnostics.fixture(rng, dim)
        seq = build_projections(n0, ranks, rotate=rotate, seed=seed % 1000)
        if kind == "linear":
            path = sampling.random_linear_path(rng, dim)
            p = sampling.random_analytic_polynomial(rng, deg)
        else:
            path = sampling.random_multiplicative_path(rng, dim)
            p = sampling.random_trig_polynomial(rng, deg)
            assert min(k for k, _ in p) < 0

        table = reduction_diagnostics(seq, n0, v, a)
        for got, want in zip(table, loop_diagnostics(seq, n0, v, a), strict=True):
            assert tuple(got) == DIAGNOSTIC_FIELDS
            for key, value in want.items():
                assert abs(got[key] - value) <= 1e-12 * (1.0 + abs(value)), (got["rank"], key)
        gap, bound = exp_remainder(seq, a)
        assert [row["exp_remainder_gap"] for row in table] == gap.tolist()
        assert [row["exp_remainder_bound"] for row in table] == bound.tolist()

        rows = truncation_gap(seq, path, p)
        assert [row["rank"] for row in rows] == [float(r) for r in ranks]
        for row, value in zip(rows, loop_gaps(seq, path, p), strict=True):
            assert abs(row["gap"] - value) <= 1e-12 * (1.0 + abs(value)), row

    def test_projection_stack_matches_each_projection(self):
        n0 = sampling.random_normal_contraction(np.random.default_rng(12), 5)
        seq = build_projections(n0, [1, 3, 5], rotate=True, seed=4)
        for rank, proj in zip(seq.ranks, seq.projections(), strict=True):
            assert_allclose(proj, seq.projection(rank), atol=1e-15)

    def test_non_hermitian_generator_refused(self):
        n0 = sampling.random_normal_contraction(np.random.default_rng(13), 3)
        seq = build_projections(n0, [1, 3])
        with pytest.raises(ValueError):
            exp_remainder(seq, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


class TestRemainderBoundRounding:
    def test_full_rank_row_within_the_verdict_slack(self, tmp_path):
        # the closed-form bound holds in exact arithmetic; on the full-rank row
        # of this table both sides are rounding and the computed gap (about
        # 1e-14) exceeds the computed bound (about 4e-15): the verdict's
        # REMAINDER_SLACK absorbs it
        table = run_diagnose(CampaignConfig(seed=7, dims=[8], out=str(tmp_path)))
        with open(table) as fh:
            header = fh.readline().strip().split(",")
            last = dict(zip(header, map(float, fh.readlines()[-1].split(","))))
        assert last["rank"] == 8.0
        assert last["exp_remainder_gap"] < 1e-13
        assert last["exp_remainder_gap"] <= last["exp_remainder_bound"] + REMAINDER_SLACK
