"""Second-order spectral shift functions on the circle, by two routes.

For a linear path the shift function eta satisfies

    Tr{ p(T_1) - p(T_0) - (d/ds) p(T_s)|_0 } = contour integral of p'' eta,

and its contour moments c_m have an exact quadrature form

    c_m = 1/(m+1) * int_0^1 Tr[ V (T_s^{m+1} - T_0^{m+1}) ] ds,

a polynomial in s, integrated exactly by Gauss-Legendre.  That moment route
is the authoritative representation: the class of eta modulo analytic terms
is determined by {c_m, m >= 0}.  Independently, eta has a pointwise
representation as an s-average of differences of semi-spectral cumulative
functions; it is an exact step function in the angle, so its Fourier data
can also be computed exactly and compared against the moments.

For a multiplicative path the analogous function eta~ is real valued and
unique up to an additive constant; its nonzero Fourier modes are

    d_r = 1/(i r) * int_0^1 Tr[ A (T_s^r - T_0^r) ] ds,   r != 0,

with adjoint powers for negative r, integrated by a Gauss-Legendre rule whose
node count an a priori bound sets (the integrand is entire, not polynomial,
in s).  The constant mode is fixed to zero by convention.

The numbers that carry the reduction to finite dimensions are module
constants, not arguments: the dilation degree margin ``DEGREE_MARGIN`` and
``QUAD_TOL``, the error target that sets the multiplicative node counts.
"""

from __future__ import annotations

import time

import numpy as np

from .opcore import TrigPolynomial, hs_norm, signed_powers
from .paths import LINEAR, MULTIPLICATIVE, PerturbationPath
from .quadrature import gauss_legendre_01
from .report import VerificationReport
from .semispectral import semispectral_cdfs
from . import sampling

__all__ = [
    "StepFunction",
    "RealLineShift",
    "PipelineError",
    "eta_moment_linear",
    "eta_moments_linear",
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

    def contour_moment(self, m: int) -> complex:
        """Exact contour integral of z^m f against dz on the circle."""
        return 1j * self.time_fourier(m + 1)

    @property
    def total_variation(self) -> float:
        return float(np.abs(self.heights).sum())


def _dilation_degree(max_power: int, degree: int | None) -> int:
    return max(degree if degree is not None else max_power + DEGREE_MARGIN, 1)


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
    n = _dilation_degree(max_power, degree)
    count = (n + 2) // 2 if path.kind == LINEAR else _mult_node_count(path, n)
    nodes, weights = gauss_legendre_01(count)
    cdfs = semispectral_cdfs(_path_points(path, nodes), n)
    signed = np.concatenate([[1.0], -weights])
    # Tr[direction @ J_j] for every jump block J_j
    heights = [
        w * np.einsum("ab,jba->j", path.direction, cdf.blocks) for w, cdf in zip(signed, cdfs)
    ]
    return StepFunction(np.concatenate([cdf.angles for cdf in cdfs]), np.concatenate(heights))


def eta_moments_linear(path: PerturbationPath, ms) -> dict[int, complex]:
    """Contour moments c_m, m in ``ms``, of the linear-path shift function, exactly.

    The s-integrand of c_m is a polynomial of degree m+1, so one
    Gauss-Legendre rule of (max(ms)+3)//2 nodes integrates every requested
    moment exactly; one power ladder up to max(ms)+1 walks the stack of all
    node points.
    """
    if path.kind != LINEAR:
        raise ValueError("moment route is defined for linear paths")
    ms = [int(m) for m in ms]
    if any(m < 0 for m in ms):
        raise ValueError("contour moments are indexed by m >= 0")
    if not ms:
        return {}
    top = max(ms) + 1
    total = _trace_integrals(path, (top + 2) // 2, range(top + 1))
    return {m: complex(total[m + 1] / (m + 1)) for m in ms}


def eta_moment_linear(path: PerturbationPath, m: int) -> complex:
    """Contour moment c_m of the linear-path shift function, exactly: the
    one-member case of :func:`eta_moments_linear`, reproducible bit for bit."""
    return eta_moments_linear(path, [m])[m]


def eta_tilde_moments_mult(path: PerturbationPath, rs) -> dict[int, complex]:
    """Fourier modes d_r, r != 0, of the multiplicative shift function.

    All requested modes share one Gauss-Legendre rule, whose node count
    the a priori bound of :func:`_mult_node_count` sets for the largest |r|
    so that every mode meets ``QUAD_TOL``.  The node points come as one
    stack from the path's cached eigendecomposition, and one stacked ladder
    up and one down give every power.
    """
    if path.kind != MULTIPLICATIVE:
        raise ValueError("these Fourier modes belong to multiplicative paths")
    rs = [int(r) for r in rs]
    if any(r == 0 for r in rs):
        raise ValueError("the constant mode is not determined; it is fixed to 0")
    if not rs:
        return {}
    total = _trace_integrals(path, _mult_node_count(path, max(abs(r) for r in rs)), rs)
    return {r: complex(val / (1j * r)) for r, val in zip(rs, total)}


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
    moments = eta_moments_linear(path, [r - 2 for r, _ in p if r >= 2])
    rhs = 0.0 + 0.0j
    for r, c in p:
        if r >= 2:
            rhs += c * r * (r - 1) * moments[r - 2]
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
    # the pairing is coeffs @ data: contour moments c_0..c_max_deg (linear), or
    # modes d_1..d_(max_deg+1) (mult), whose factor i leaves |pairing| unchanged
    if path.kind == LINEAR:
        data = eta_moments_linear(path, range(max_deg + 1))
    else:
        data = eta_tilde_moments_mult(path, range(1, max_deg + 2))
    data = np.array(list(data.values()))
    max_ratio = 0.0
    worst_excess = -np.inf
    for _ in range(trials):
        coeffs = sampling.random_coefficients(rng, max_deg + 1)
        f = TrigPolynomial({k: c for k, c in enumerate(coeffs)})
        sup = f.sup_norm_estimate()
        paired = abs(complex(coeffs @ data))
        bound = 0.5 * sup * dir_sq
        worst_excess = max(worst_excess, paired - bound - BOUND_SLACK * dir_sq)
        if bound > 0:
            max_ratio = max(max_ratio, paired / bound)
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
        total = 0.0 + 0.0j
        for r, c in phi:
            if r >= 2:
                total += c * 1j * r * (r - 1) * self.step.time_fourier(r - 1)
        return complex(total)

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
        its term vanishes.
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


def gamma_pipeline(
    path: PerturbationPath,
    grid: int = DEFAULT_GRID,
    max_power: int = 8,
    degree: int | None = None,
) -> RealLineShift:
    """Transport a linear pair's shift function to the real line.

    Intended for paths between Cayley transforms, unitary ones of a
    self-adjoint pair or contractions of a dissipative pair; the path
    constructor has already checked that its endpoints are contractions,
    and the pipeline is exact on any such path.  ``max_power`` bounds the
    polynomial degree downstream consumers may pair against; ``degree``
    overrides the dilation degree directly for consumers that integrate
    non-polynomial weights.  The line records the degree it was built at.
    """
    if path.kind != LINEAR:
        raise ValueError("the circle-to-line pipeline runs over linear paths")
    if grid < 256:
        raise ValueError("grid must have at least 256 points")
    n = _dilation_degree(max_power, degree)
    step = shift_step_representation(path, max_power, degree=n)
    return RealLineShift(step, grid=grid, degree=n)
