"""Cayley-transform bridge: self-adjoint and maximal dissipative pairs.

A Hermitian H maps to the unitary U = (i - H)(i + H)^{-1}; a dissipative L
maps to a contraction the same way.  The linear path between the transforms
carries the second-order trace identity, and the interpolating operator

    W_s = (H + i)(H_s + i)^{-1}(H_0 + i) - i,    H_s = s H_0 + (1 - s) H,

satisfies (i - W_s)(i + W_s)^{-1} = (1 - s) U_0 + s U exactly, so W_0 = H_0
and W_1 = H pair with the endpoints of the linear unitary path.  The
real-line shift function comes out of the circle-to-line pipeline; the
resolvent identity is paired against it through the flux of 1/(lam - z).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from .opcore import TrigPolynomial, as_operator, is_hermitian, is_unitary
from .paths import PerturbationPath
from .report import VerificationReport
from .shift import DEFAULT_GRID, RealLineShift, gamma_pipeline, mobius_polynomial_flux

__all__ = [
    "SelfAdjointPair",
    "resolvent_pipeline",
    "DissipativePair",
    "DegenerateTransformError",
    "cayley_sa",
    "cayley_dissipative",
    "verify_selfadjoint_formula",
    "verify_resolvent_formula",
    "verify_dissipative_formula",
]

DISSIPATIVE_PSD_TOL = 1e-10
EIGENVALUE_ONE_TOL = 1e-9
TRANSFORM_UNITARY_TOL = 1e-9  # ||U*U - I||_HS of a self-adjoint pair's transforms

# Verdict tolerances, read by the verifiers at call time.
CIRCLE_TOL = 1e-6      # trace identity against the circle pairing, on 1 + |lhs|
REAL_LINE_TOL = 1e-4   # circle pairing against the real-line one, on 1 + |rhs|
RESOLVENT_TOL = 1e-5   # resolvent identity, on 1 + |lhs|
RESOLVENT_DEGREE = 36


class DegenerateTransformError(ValueError):
    """A Cayley image has eigenvalue 1 within tolerance."""


def _cayley(x: np.ndarray) -> np.ndarray:
    # (i - X)(i + X)^{-1}, solved as the transposed system
    eye = 1j * np.eye(x.shape[0])
    return np.linalg.solve((eye + x).T, (eye - x).T).T


def cayley_sa(h) -> np.ndarray:
    """Unitary Cayley transform (i - H)(i + H)^{-1} of a Hermitian matrix."""
    h = as_operator(h)
    if not is_hermitian(h):
        raise ValueError("Cayley transform of this kind requires a Hermitian matrix")
    return _cayley(h)


def cayley_dissipative(l) -> np.ndarray:
    """Contraction Cayley transform (i - L)(i + L)^{-1} of a dissipative matrix."""
    l = as_operator(l)
    imag_part = (l - l.conj().T) / 2j
    if float(np.linalg.eigvalsh(imag_part).min()) < -DISSIPATIVE_PSD_TOL:
        raise ValueError("matrix is not dissipative: imaginary part is not PSD")
    t = _cayley(l)
    _require_no_eigenvalue_one(t)
    return t


def _require_no_eigenvalue_one(t: np.ndarray) -> None:
    eigs = np.linalg.eigvals(t)
    closest = float(np.abs(eigs - 1.0).min())
    if closest <= EIGENVALUE_ONE_TOL:
        raise DegenerateTransformError(
            f"Cayley image has an eigenvalue within {closest:.3e} of 1"
        )


@dataclass(frozen=True)
class _CayleyPair:
    """A pair of matrices and the linear path between their Cayley images.

    The transforms and the path are built and checked once, at construction:
    a subclass names the two fields and its ``_transform`` refuses a matrix
    of the wrong kind, and the path refuses images that are not contractions.
    """

    _path: PerturbationPath = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [f.name for f in fields(self) if f.init]
        x, x0 = (as_operator(getattr(self, name)) for name in names)
        if x.shape != x0.shape:
            raise ValueError("pair must share one dimension")
        for name, value in zip(names, (x, x0)):
            object.__setattr__(self, name, value)
        u, u0 = self._transform(x), self._transform(x0)
        object.__setattr__(self, "_path", PerturbationPath.linear(u0, u - u0))

    @property
    def dim(self) -> int:
        return self._path.dim

    def circle_path(self) -> PerturbationPath:
        return self._path


@dataclass(frozen=True)
class SelfAdjointPair(_CayleyPair):
    """A pair of Hermitian matrices with unitary Cayley transforms
    (:func:`cayley_sa`, then a unitarity check)."""

    h: np.ndarray
    h0: np.ndarray

    @staticmethod
    def _transform(h: np.ndarray) -> np.ndarray:
        u = cayley_sa(h)
        if not is_unitary(u, TRANSFORM_UNITARY_TOL):
            raise ValueError("Cayley transform failed the unitarity check")
        return u


@dataclass(frozen=True)
class DissipativePair(_CayleyPair):
    """A pair of dissipative matrices whose Cayley images avoid eigenvalue 1
    (:func:`cayley_dissipative`)."""

    l: np.ndarray
    l0: np.ndarray

    _transform = staticmethod(cayley_dissipative)


def _verify_polynomial(
    kind: str, path: PerturbationPath, phi: TrigPolynomial, grid: int, seed: int | None
) -> VerificationReport:
    if not phi.analytic:
        raise ValueError("the transform bridge applies to analytic polynomials")
    start = time.perf_counter()
    lhs = path.second_order_trace(phi)
    line = gamma_pipeline(path, grid=grid, max_power=max(phi.max_index, 1))
    rhs_a = line.pairing_second_derivative(phi)
    rhs_b = line.pairing_realline(mobius_polynomial_flux(phi))
    res_ab = abs(rhs_a - rhs_b)
    return VerificationReport.judge(
        kind,
        lhs,
        rhs_a,
        CIRCLE_TOL,
        start,
        also=res_ab <= REAL_LINE_TOL * (1.0 + abs(rhs_a)),
        dim=path.dim,
        degree=phi.max_index,
        seed=seed,
        extras={
            "rhs_realline": rhs_b,
            "residual_circle_vs_realline": res_ab,
            "realline_tol": REAL_LINE_TOL,
            "zero_integral_grid": line.diagnostics["zero_integral_grid"],
        },
    )


def verify_selfadjoint_formula(
    pair: SelfAdjointPair,
    phi: TrigPolynomial,
    grid: int = DEFAULT_GRID,
    seed: int | None = None,
) -> VerificationReport:
    """Verify the self-adjoint trace identity along both routes.

    The left side lives on the circle through the transform bridge; the
    right side is computed (a) from the circle Fourier data of the pipeline
    output and (b) as a real-line integral of the pulled-back weight against
    xi.  Both residuals enter the verdict: (a) against ``CIRCLE_TOL`` on the
    scale 1 + |lhs|, (a) - (b) against ``REAL_LINE_TOL`` on 1 + |rhs (a)|.
    """
    return _verify_polynomial("cayley_sa", pair.circle_path(), phi, grid, seed)


def verify_dissipative_formula(
    pair: DissipativePair,
    phi: TrigPolynomial,
    grid: int = DEFAULT_GRID,
    seed: int | None = None,
) -> VerificationReport:
    """Same pipeline and tolerances (``CIRCLE_TOL``, ``REAL_LINE_TOL``) as the
    self-adjoint case, over contraction transforms."""
    return _verify_polynomial("cayley_diss", pair.circle_path(), phi, grid, seed)


def resolvent_pipeline(
    pair: SelfAdjointPair,
    grid: int = DEFAULT_GRID,
    degree: int = RESOLVENT_DEGREE,
) -> RealLineShift:
    """Shift pipeline of a pair at resolvent-grade dilation degree.

    Build once and hand to :func:`verify_resolvent_formula` when checking
    several points z for the same pair.
    """
    return gamma_pipeline(pair.circle_path(), grid=grid, max_power=degree, degree=degree)


def verify_resolvent_formula(
    pair: SelfAdjointPair,
    z: complex,
    grid: int | None = None,
    seed: int | None = None,
    line: RealLineShift | None = None,
) -> VerificationReport:
    """Verify the resolvent trace identity at a point with Im z < 0.

    Left side by direct matrix algebra,

        Tr{ (H-z)^{-1} - (H_0-z)^{-1} - X M X },
        X = (i + H_0)(H_0 - z)^{-1},  M = (H+i)^{-1} - (H_0+i)^{-1}

    (the two sign conventions for X's denominator agree because the factor
    appears squared); right side by the exact real-line pairing of xi with
    the weight 2 (1 + lam z) / (lam - z)^3, given by its flux
    -(1 + lam^2) / (lam - z)^2.  The pulled-back symbol is a full analytic
    series whose modes decay like |tau|^{-k} with tau = (i - z)/(i + z),
    |tau| > 1, so the dilation degree of the line controls the truncation
    tail; ``RESOLVENT_DEGREE`` covers |tau| >= 2 at ``RESOLVENT_TOL`` on
    the scale 1 + |lhs|.  At z = -i, a pole of tau, both sides vanish; tau_abs is inf.

    Without ``line`` the pipeline is built at ``RESOLVENT_DEGREE`` on
    ``grid``.  A prebuilt ``line`` (from :func:`resolvent_pipeline`, which
    takes any other degree) is used as built: the report carries its degree
    and grid, and an explicit ``grid`` that differs raises ``ValueError``.
    """
    z = complex(z)
    if z.imag >= 0:
        raise ValueError("the resolvent identity is stated for Im z < 0")
    if line is not None and grid is not None and grid != line.grid:
        raise ValueError(f"grid {grid} contradicts the line, built at grid {line.grid}")
    start = time.perf_counter()
    tau_abs = np.inf if z == -1j else abs((1j - z) / (1j + z))
    h, h0 = pair.h, pair.h0
    eye = np.eye(pair.dim)
    rz = np.linalg.inv(h - z * eye)
    r0z = np.linalg.inv(h0 - z * eye)
    m = np.linalg.inv(h + 1j * eye) - np.linalg.inv(h0 + 1j * eye)
    x = (1j * eye + h0) @ r0z
    lhs = complex(np.trace(rz - r0z - x @ m @ x))
    if line is None:
        line = resolvent_pipeline(pair, grid=DEFAULT_GRID if grid is None else grid)

    def flux(lam):
        lam = np.asarray(lam, dtype=np.complex128)
        return -(1.0 + lam * lam) / (lam - z) ** 2

    return VerificationReport.judge(
        "cayley_resolvent",
        lhs,
        line.pairing_realline(flux),
        RESOLVENT_TOL,
        start,
        dim=pair.dim,
        degree=line.degree,
        seed=seed,
        extras={"z": z, "tau_abs": tau_abs, "grid": line.grid},
    )
