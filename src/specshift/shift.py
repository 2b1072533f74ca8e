"""Second-order spectral shift functions on the circle, by two routes.

Both trace formulae pair against one sequence of path data,

    e_r = 1/r * int_0^1 Tr[ Y (T_s^r - T_0^r) ] ds,    Y the path direction,

with adjoint powers for r < 0 (:func:`mode_integrals`).  On a linear path the
contour moments of the shift function eta are c_m = e_(m+1); the s-integrand
is a polynomial, integrated exactly by Gauss-Legendre.  That moment route is
the authoritative representation: the class of eta modulo analytic terms is
determined by {c_m, m >= 0}.  On a multiplicative path the real-valued eta~,
unique up to an additive constant (fixed to zero), has the nonzero Fourier
modes d_r = e_r / i; the integrand is entire, not polynomial, in s, and an a
priori bound sets the Gauss-Legendre node count.  Independently, eta has a
pointwise representation as an s-average of differences of semi-spectral
cumulative functions, an exact step function in the angle whose Fourier data
i * time_fourier(r) can be compared with e_r exactly.

The numbers that carry the reduction to finite dimensions are module
constants, not arguments: ``DEGREE_MARGIN`` (the dilation degree margin of
``eta`` samples; the transform verdicts take the least exact degree) and
``QUAD_TOL``, the multiplicative error target.
"""

from __future__ import annotations

import time

import numpy as np

from .opcore import TrigPolynomial, hs_norm, signed_powers, sup_norm_estimates
from .paths import LINEAR, MULTIPLICATIVE, PerturbationPath
from .quadrature import gauss_legendre_01
from .report import VerificationReport
from .semispectral import semispectral_cdfs

__all__ = [
    "StepFunction",
    "RealLineShift",
    "PipelineError",
    "mode_integrals",
    "eta_moment_linear",
    "eta_tilde_moments_mult",
    "shift_step_representation",
    "verify_trace_formula_linear",
    "verify_trace_formula_mult",
    "quotient_bound_test",
    "gamma_pipeline",
    "mobius_polynomial_flux",
]

# Verdict tolerances, read by the verifiers at call time.
TRACE_TOL_LINEAR = 1e-8   # linear trace identity, on the scale 1 + |lhs|
TRACE_TOL_MULT = 1e-7     # multiplicative trace identity, on the scale 1 + |lhs|
BOUND_SLACK = 1e-6        # quotient-bound cushion, in units of ||dir||_2^2

# Default circle grid of the real-line pipeline (its zero-integral check)
# and of campaigns.
DEFAULT_GRID = 4096

DEGREE_MARGIN = 2         # dilation degree above the highest integrated power
QUAD_TOL = 1e-10          # error target of the Gauss rule on multiplicative paths
_RHO = 1.0 + np.geomspace(1e-2, 1e3, 200)  # Bernstein-ellipse parameters it tries


class PipelineError(RuntimeError):
    """Shift data failed an internal consistency check: the zero integral of
    the circle-to-line pipeline, or the moment check of emitted samples."""


class StepFunction:
    """Right-continuous complex step function on [0, 2pi] vanishing at 0.

    f(t) = sum of heights at angles <= t.  Because the jump data is explicit,
    integrals of f against circle harmonics are computed in closed form
    rather than by grid quadrature.
    """

    __slots__ = ("angles", "heights", "_prefix", "_prefix_rot")

    def __init__(self, angles, heights):
        angles = np.asarray(angles, dtype=np.float64)
        heights = np.asarray(heights, dtype=np.complex128)
        if angles.shape != heights.shape or angles.ndim != 1:
            raise ValueError("angles and heights must be matching 1-d arrays")
        order = np.argsort(angles, kind="stable")
        self.angles = angles[order]
        self.heights = heights[order]
        self._prefix = np.concatenate([[0.0], np.cumsum(self.heights)])
        self._prefix_rot = np.concatenate(
            [[0.0], np.cumsum(self.heights * np.exp(-1j * self.angles))]
        )

    def _lookup(self, prefix: np.ndarray, t):
        # prefix sum over the jumps with theta_j <= t
        out = prefix[np.searchsorted(self.angles, np.asarray(t, dtype=np.float64), side="right")]
        return out if out.ndim else complex(out)

    def __call__(self, t):
        return self._lookup(self._prefix, t)

    def rotated_prefix(self, t):
        """sum of h_j e^{-i theta_j} over jumps with theta_j <= t."""
        return self._lookup(self._prefix_rot, t)

    def time_fourier(self, k: int) -> complex:
        """Exact integral of e^{ikt} f(t) over [0, 2pi]."""
        if k == 0:
            return complex(np.sum(self.heights * (2.0 * np.pi - self.angles)))
        return complex(
            np.sum(self.heights * (1.0 - np.exp(1j * k * self.angles)) / (1j * k))
        )

    @property
    def total_variation(self) -> float:
        return float(np.abs(self.heights).sum())


def _path_points(path: PerturbationPath, nodes) -> np.ndarray:
    # stack of T_0 followed by T_s at every node s
    return np.concatenate([path.base[None], path.at(nodes)])


def _trace_integrals(path: PerturbationPath, count: int, ks) -> np.ndarray:
    # int_0^1 Tr[V (T_s^k - T_0^k)] ds for each k of ks (adjoint powers for
    # k < 0) by the count-node Gauss-Legendre rule, over one stack of points
    nodes, weights = gauss_legendre_01(count)
    powers = signed_powers(_path_points(path, nodes), ks)
    return np.einsum("ab,ksba->ks", path.direction, powers[:, 1:] - powers[:, :1]) @ weights


def _mult_node_count(path: PerturbationPath, top: int) -> int:
    """Least n for which n Gauss-Legendre nodes integrate Tr[A (T_s^r - T_0^r)],
    |r| <= top, to ``QUAD_TOL``: on the Bernstein ellipse E_rho of [0, 1],
    |Im s| <= (rho - 1/rho)/4, so the entire integrand is at most
    M = ||A||_1 (e^{top ||A|| (rho - 1/rho)/4} + 1), and the error is at most
    1/2 * 64 M / (15 (rho^2 - 1) rho^(2(n-1))) (Trefethen, ATAP Thm 19.3) at
    the best rho of ``_RHO``.  The norms of A come from its cached eigh."""
    w = np.abs(path._dir_eig[0])
    norm1 = w.sum()
    if norm1 == 0.0:
        return 1
    growth = top * w.max() * (_RHO - 1.0 / _RHO) / 4.0
    log_bound = np.log(32.0 / 15.0 * norm1 / QUAD_TOL) + np.logaddexp(growth, 0.0)
    extra = (log_bound - np.log(_RHO**2 - 1.0)) / (2.0 * np.log(_RHO))
    return 1 + int(max(np.ceil(extra.min()), 0.0))


def shift_step_representation(
    path: PerturbationPath, max_power: int, degree: int | None = None
) -> StepFunction:
    """Pointwise shift function of a path as an exact step function.

    Encodes s-averaged differences of semi-spectral cumulative functions:
    the base CDF enters with weight one, each Gauss-Legendre node s_i with
    weight -w_i, and the heights are traces against the path direction; all
    go through one stacked eigensolve (:func:`~specshift.semispectral.semispectral_cdfs`).
    The dilation degree N defaults to ``max_power + DEGREE_MARGIN`` and
    bounds the moments c_m, m < N, that are faithful to the path.  On a
    linear path their s-integrands are polynomials of degree m + 1 <= N, so
    (N + 2) // 2 nodes integrate them exactly; a multiplicative path's
    integrand is entire, and its powers |r| <= N take the nodes of
    :func:`_mult_node_count`.
    """
    n = max(degree if degree is not None else max_power + DEGREE_MARGIN, 1)
    count = (n + 2) // 2 if path.kind == LINEAR else _mult_node_count(path, n)
    nodes, weights = gauss_legendre_01(count)
    cdfs = semispectral_cdfs(_path_points(path, nodes), n)
    signed = np.concatenate([[1.0], -weights])
    # Tr[direction @ J_j] for every jump block J_j
    heights = [
        w * np.einsum("ab,jba->j", path.direction, cdf.blocks) for w, cdf in zip(signed, cdfs)
    ]
    return StepFunction(np.concatenate([cdf.angles for cdf in cdfs]), np.concatenate(heights))


def mode_integrals(path: PerturbationPath, rs) -> dict[int, complex]:
    """Fourier data e_r = (1/r) int_0^1 Tr[Y (T_s^r - T_0^r)] ds, r in ``rs``, of
    a path with direction Y: the one sequence both trace formulae pair with.

    A linear path takes r >= 1; its s-integrand is a polynomial of degree r,
    which (max(rs) + 2) // 2 Gauss-Legendre nodes integrate exactly.  A
    multiplicative path takes r != 0 (adjoint powers for r < 0); its integrand
    is entire, and :func:`_mult_node_count` nodes meet ``QUAD_TOL``.
    """
    rs = [int(r) for r in rs]
    if path.kind == LINEAR and any(r < 1 for r in rs):
        raise ValueError("a linear path has the modes e_r for r >= 1")
    if any(r == 0 for r in rs):
        raise ValueError("the constant mode is not determined; it is fixed to 0")
    if not rs:
        return {}
    top = max(abs(r) for r in rs)
    count = (top + 2) // 2 if path.kind == LINEAR else _mult_node_count(path, top)
    return {r: complex(val / r) for r, val in zip(rs, _trace_integrals(path, count, rs))}


def eta_moment_linear(path: PerturbationPath, m: int) -> complex:
    """Contour moment c_m = e_(m+1) of the linear-path shift function, exactly
    (:func:`mode_integrals`)."""
    if path.kind != LINEAR:
        raise ValueError("moment route is defined for linear paths")
    if m < 0:
        raise ValueError("contour moments are indexed by m >= 0")
    return mode_integrals(path, [m + 1])[m + 1]


def eta_tilde_moments_mult(path: PerturbationPath, rs) -> dict[int, complex]:
    """Fourier modes d_r = e_r / i, r != 0, of the multiplicative shift
    function (:func:`mode_integrals`, every mode within ``QUAD_TOL``)."""
    if path.kind != MULTIPLICATIVE:
        raise ValueError("these Fourier modes belong to multiplicative paths")
    return {r: e / 1j for r, e in mode_integrals(path, rs).items()}


def _pair_second_derivative(phi: TrigPolynomial, mode) -> complex:
    # sum of c_r r (r - 1) e_(r-1) over the modes r >= 2 of phi, e_k = mode(k)
    return complex(sum((c * r * (r - 1) * mode(r - 1) for r, c in phi if r >= 2), 0j))


def verify_trace_formula_linear(
    path: PerturbationPath, p: TrigPolynomial, seed: int | None = None
) -> VerificationReport:
    """Check the linear-path trace identity for an analytic polynomial.

    The left side is assembled directly from matrix powers; the right side
    pairs p'' with the moment-route shift data.  The residual passes within
    ``TRACE_TOL_LINEAR`` on the scale 1 + |lhs|.  Failures become report
    verdicts, never exceptions.
    """
    if not p.analytic:
        raise ValueError("linear trace identity applies to analytic polynomials")
    start = time.perf_counter()
    lhs = path.second_order_trace(p)
    e = mode_integrals(path, [r - 1 for r, _ in p if r >= 2])
    rhs = _pair_second_derivative(p, e.__getitem__)
    return VerificationReport.judge(
        "linear", lhs, rhs, TRACE_TOL_LINEAR, start, dim=path.dim, degree=p.max_index, seed=seed
    )


def verify_trace_formula_mult(
    path: PerturbationPath, p: TrigPolynomial, seed: int | None = None
) -> VerificationReport:
    """Check the multiplicative-path trace identity for a trig polynomial.

    The constant coefficient is irrelevant to both sides.  The residual
    passes within ``TRACE_TOL_MULT`` on the scale 1 + |lhs|.
    """
    start = time.perf_counter()
    lhs = path.second_order_trace(p)
    rs = [r for r, _ in p if r != 0]
    modes = eta_tilde_moments_mult(path, rs)
    rhs = sum(p.coeff(r) * (-(r * r)) * modes[r] for r in rs)
    degree = max((abs(r) for r, _ in p), default=0)
    return VerificationReport.judge(
        "mult", lhs, rhs, TRACE_TOL_MULT, start, dim=path.dim, degree=degree, seed=seed
    )


def quotient_bound_test(
    path: PerturbationPath, trials: int, max_deg: int, seed: int
) -> VerificationReport:
    """Test the quotient-norm bound: |pairing(f, eta)| <= sup|f| ||dir||_2^2 / 2.

    Random analytic polynomials f of degree at most ``max_deg`` are paired
    with the shift data through its contour moments.  The sup norm of f is a
    2048-point grid estimate, so the inequality is asserted with an explicit
    ``BOUND_SLACK * ||dir||_2^2`` cushion; the report carries the worst ratio
    seen.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    dir_sq = hs_norm(path.direction) ** 2
    # |pairing| = |coeffs @ e_1..e_(max_deg+1)|, for c_m = e_(m+1) and |d_r| = |e_r|
    data = np.array(list(mode_integrals(path, range(1, max_deg + 2)).values()))
    # every trial's coefficients, drawn in the order of sampling.random_coefficients
    draws = rng.normal(size=(trials, 2, max_deg + 1))
    coeffs = draws[:, 0] + 1j * draws[:, 1]
    paired = np.abs(coeffs @ data)
    bound = 0.5 * sup_norm_estimates(range(max_deg + 1), coeffs) * dir_sq
    worst_excess = (paired - bound - BOUND_SLACK * dir_sq).max()
    max_ratio = float((paired[bound > 0] / bound[bound > 0]).max(initial=0.0))
    passed = worst_excess <= 0 and (dir_sq == 0 or max_ratio <= 1.0 + BOUND_SLACK)
    return VerificationReport(
        kind=f"quotient_bound_{path.kind}",
        lhs=complex(max_ratio),
        rhs=complex(1.0),
        residual=max(0.0, max_ratio - 1.0),
        tol=BOUND_SLACK,
        passed=passed,
        dim=path.dim,
        degree=max_deg,
        seed=seed,
        runtime=time.perf_counter() - start,
        extras={"max_ratio": max_ratio, "trials": trials},
    )


def mobius_polynomial_flux(phi: TrigPolynomial):
    """Real-line flux W = (1+lam^2) psi'(lam) of psi = phi o Mobius.

    Through m(lam) = (i-lam)/(i+lam), with m' = -2i/(i+lam)^2 and
    1 + lam^2 = -(i+lam)(i-lam), the flux is 2i m phi'(m).  Its derivative
    is the weight that the trace identity pairs with xi.  Vectorized over
    lam.
    """
    dphi = phi.derivative()

    def flux(lam):
        lam = np.asarray(lam, dtype=np.complex128)
        m = (1j - lam) / (1j + lam)
        return 2j * m * dphi(m)

    return flux


class RealLineShift:
    """Shift data transported from the circle to the real line.

    Wraps the step representation eta of a linear pair, subtracts the
    analytic correction z * mu (mu being the first Fourier coefficient of
    eta) and integrates once to the continuous circle function

        eta~(t) = i (mu - R(t)) - mu t,    R(t) = sum of h_j e^{-i theta_j}, theta_j <= t,

    which is exact in closed form.  The real-line pullback is
    xi(lam) = eta~(2 arctan lam) / 2: between jumps a constant plus a
    multiple of arctan lam, so real-line pairings reduce to sums over the
    jumps.  ``grid`` sets the resolution of the zero-integral check run at
    construction; ``degree`` records the dilation degree the step data was
    built at (None when unknown).
    """

    def __init__(self, step: StepFunction, grid: int, degree: int | None = None):
        self.step = step
        self.grid = int(grid)
        self.degree = degree
        self.mean_mode = step.time_fourier(-1) / (2.0 * np.pi)
        self.diagnostics: dict = {}
        self._run_zero_check()

    # -- pointwise values ------------------------------------------------

    def eta_tilde(self, t):
        t = np.asarray(t, dtype=np.float64)
        out = 1j * (self.mean_mode - self.step.rotated_prefix(t)) - self.mean_mode * t
        return out if out.ndim else complex(out)

    # -- pairings ----------------------------------------------------------

    def pairing_second_derivative(self, phi: TrigPolynomial) -> complex:
        """Circle-side value of the pairing of (d^2/dt^2) phi(e^{it}) with eta~.

        Integration by parts (using that the full-period integral of
        e^{-is} (eta - e^{is} mu) vanishes identically) turns the pairing
        into exact Fourier data of the step function: the r-th mode of eta~
        equals -i (r-1)/r times the (r-1)-st time-Fourier coefficient of eta.
        """
        if not phi.analytic:
            raise ValueError("circle-side pairing applies to analytic polynomials")
        return _pair_second_derivative(phi, lambda k: 1j * self.step.time_fourier(k))

    def pairing_realline(self, flux) -> complex:
        """Integral over the real line of W'(lam) xi(lam) d lam, exactly.

        ``flux`` is W = (1 + lam^2) psi'(lam), vectorized over lam.  The
        result is exact when psi has one limit at +-infinity (phi o Mobius
        and 1/(lam - z) do); then W, too, has one limit there.  Between
        jumps xi' = -mu / (1 + lam^2), so integrating by parts piece by
        piece leaves mu times the integral of psi' over the line (zero),
        the boundary terms at +-infinity (they cancel), the boundary term
        at lam = 0, where the angle wraps from 2pi to 0 and xi jumps by i/2
        times the total jump mass, and one term per jump:

            (i/2) sum_j h_j (W(tan(theta_j / 2)) e^{-i theta_j} - W(0)).

        A jump at pi lands at tan(pi/2) ~ 1.6e16, where W equals its limit
        at infinity to rounding; a jump at 0 or 2pi lands at lam = 0 and
        its term vanishes.  For phi o Mobius, W(tan(t/2)) e^{-it} = 2i phi'(e^{it}):
        this is :meth:`pairing_second_derivative` rewritten term by term.
        """
        step = self.step
        lam = np.concatenate([[0.0], np.tan(0.5 * step.angles)])
        w = np.asarray(flux(lam), dtype=np.complex128)
        return complex(0.5j * np.sum(step.heights * (w[1:] * np.exp(-1j * step.angles) - w[0])))

    # -- internal checks ---------------------------------------------------

    def _run_zero_check(self):
        """Grid diagnostic: the full-period integral of e^{-it} (eta - e^{it} mu) is 0.

        The exact construction already forces it.  On the midpoint grid the
        integral is 2pi times the gap between the grid estimate of the mean
        mode and its exact value, which must stay within a
        resolution-driven tolerance or the sampler and the step data are
        inconsistent.
        """
        g = self.grid
        t = (np.arange(g) + 0.5) * (2.0 * np.pi / g)
        gap = abs(np.sum(np.exp(-1j * t) * self.step(t)) / g - self.mean_mode)
        quad = 2.0 * np.pi * gap
        grid_tol = (2.0 * np.pi / g) * (
            self.step.total_variation + (1.0 + 2.0 * np.pi) * abs(self.mean_mode)
        )
        grid_tol = max(grid_tol, 1e-12)
        self.diagnostics["zero_integral_grid"] = quad
        self.diagnostics["zero_integral_tol"] = grid_tol
        self.diagnostics["mean_mode_grid_gap"] = gap
        if quad > 10.0 * grid_tol:
            raise PipelineError(
                f"zero-integral grid check failed: {quad:.3e} > 10 * {grid_tol:.3e}"
            )


def gamma_pipeline(path: PerturbationPath, degree: int, grid: int = DEFAULT_GRID) -> RealLineShift:
    """Transport a linear pair's shift function to the real line.

    Intended for paths between Cayley transforms, unitary ones of a
    self-adjoint pair or contractions of a dissipative pair; the path
    constructor has already checked that its endpoints are contractions,
    and the pipeline is exact on any such path.  ``degree`` is the dilation
    degree N >= 1 (moments of order <= N are exact): the least exact N for a
    polynomial verdict, a higher one for non-polynomial weights.  The line
    records its degree.
    """
    if path.kind != LINEAR:
        raise ValueError("the circle-to-line pipeline runs over linear paths")
    if degree < 1:
        raise ValueError("dilation degree must be at least 1")
    if grid < 256:
        raise ValueError("grid must have at least 256 points")
    step = shift_step_representation(path, degree, degree=degree)
    return RealLineShift(step, grid=grid, degree=degree)
