"""Semi-spectral cumulative functions of contractions.

A finite unitary has a jump spectral measure on the circle; compressing the
eigenprojections of a degree-N dilation of a contraction T to the base space
yields a positive operator-valued jump measure whose moments reproduce T^n
for 0 <= n <= N.  Angles live in (0, 2pi], with eigenvalue 1 assigned angle
2pi so that the cumulative function vanishes at 0 - this convention is load
bearing: it makes the boundary terms of every integration by parts drop out.

Spectra of unitaries come from a Hermitian eigensolve.  The rotated Cayley
map sends U to H = i(I - w)(I + w)^{-1} with w = e^{-i theta} U; H has the
eigenvectors of U, orthonormal by construction, and its eigenvalues lam
locate the eigenangles at theta + 2 arctan(lam); the angles kept are the
arguments of the Rayleigh quotients v* U v, accurate to rounding however
close the pole -e^{i theta} comes to the spectrum.  A stack of unitaries
(all the dilations of one path) goes through one stacked ``eigh`` call, in
chunks of at most ``_CHUNK_ENTRIES`` matrix entries per stacked array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dilation import dilation_unitaries
from .opcore import as_operator, as_operator_stack, hs_norm, is_unitary, power_ladder

__all__ = [
    "SemiSpectralCDF",
    "MomentConsistencyError",
    "spectral_cdf_unitary",
    "semispectral_cdf",
    "semispectral_cdfs",
    "moment_residual",
]

CLUSTER_TOL = 1e-9        # eigenangles closer than this are one jump
MASS_TOL = 1e-9           # | sum of jumps - I |
PSD_TOL = 1e-10           # jump blocks may dip this far below PSD
MOMENT_FAIL = 1e-7        # internal-consistency threshold for dilated CDFs
_DROP_TOL = 1e-12         # compressed blocks below this norm carry no mass

_THETA0 = 0.5             # first rotation: its pole -e^{i theta} is off +-1 and +-i
_LAMBDA_MAX = 1e3         # a larger |lam| means the pole sat next to an eigenvalue
_RESIDUAL_FAIL = 1e-8     # |U v - (v* U v) v| beyond this: the solve broke down
_ATTEMPTS = 4             # pole placements per member before giving up
_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))  # pole step after a broken solve
_CHUNK_ENTRIES = 1 << 16  # most matrix entries one stacked array may hold


class MomentConsistencyError(RuntimeError):
    """A dilated cumulative function failed to reproduce the power moments."""


@dataclass(frozen=True)
class SemiSpectralCDF:
    """Operator-valued cumulative function t -> sum of jumps at angles <= t.

    ``angles`` is strictly increasing inside (0, 2pi]; ``blocks`` stacks the
    PSD jump operators.  The value at 0 is the zero matrix and the value at
    2pi is the identity (total mass).
    """

    dim: int
    angles: np.ndarray = field(repr=False)
    blocks: np.ndarray = field(repr=False)

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=np.float64)
        blocks = np.asarray(self.blocks, dtype=np.complex128)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "blocks", blocks)
        if angles.ndim != 1 or blocks.shape != (angles.size, self.dim, self.dim):
            raise ValueError("angles and blocks have inconsistent shapes")
        if angles.size:
            if angles[0] <= 0.0 or angles[-1] > 2.0 * np.pi + 1e-12:
                raise ValueError("jump angles must lie in (0, 2pi]")
            if np.any(np.diff(angles) <= 0.0):
                raise ValueError("jump angles must be strictly increasing")
        if hs_norm(blocks.sum(axis=0) - np.eye(self.dim)) > MASS_TOL:
            raise ValueError("jump blocks must sum to the identity")

    def validate(self) -> None:
        """Full invariant check (PSD of every jump within ``PSD_TOL``); raises on violation."""
        if self.blocks.size:
            herm = float(np.abs(self.blocks - self.blocks.conj().transpose(0, 2, 1)).max())
            if herm > 10 * PSD_TOL:
                raise ValueError(f"jump blocks not Hermitian: deviation {herm:.3e}")
            sym = 0.5 * (self.blocks + self.blocks.conj().transpose(0, 2, 1))
            low = float(np.linalg.eigvalsh(sym).min())
            if low < -PSD_TOL:
                raise ValueError(f"jump block eigenvalue {low:.3e} below PSD tolerance")

    def value(self, t: float) -> np.ndarray:
        """Cumulative value at t in [0, 2pi]."""
        if not 0.0 <= t <= 2.0 * np.pi + 1e-12:
            raise ValueError("evaluation angle outside [0, 2pi]")
        idx = int(np.searchsorted(self.angles, t, side="right"))
        if idx == 0:
            return np.zeros((self.dim, self.dim), dtype=np.complex128)
        return self.blocks[:idx].sum(axis=0)

    def moments(self, ns) -> np.ndarray:
        """sum_j e^{i n t_j} J_j, n in ``ns``; reproduces T^n (adjoint powers for n < 0)."""
        ns = np.asarray(ns)
        phases = np.exp(1j * np.multiply.outer(ns, self.angles))
        return np.einsum("nj,jab->nab", phases, self.blocks)


def _wrap_angles(ang: np.ndarray) -> np.ndarray:
    # map raw eigenangles into (0, 2pi]; snap a neighbourhood of 1 to 2pi
    ang = np.mod(ang, 2.0 * np.pi)
    near_one = (ang < CLUSTER_TOL) | (2.0 * np.pi - ang < CLUSTER_TOL)
    return np.where(near_one, 2.0 * np.pi, ang)


def _solve_or_nan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.full_like(b, np.nan)


def _rotated_cayley(u: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Hermitian parts of i(I - w)(I + w)^{-1}, w = e^{-i theta} U, per member.

    A member whose solve is singular comes back as NaN.
    """
    eye = np.eye(u.shape[-1])
    w = np.exp(-1j * theta)[:, None, None] * u
    plus = eye + w
    minus = np.subtract(eye, w, out=w)  # w is not needed again
    try:
        h = np.linalg.solve(plus, minus)
    except np.linalg.LinAlgError:
        h = np.stack([_solve_or_nan(a, b) for a, b in zip(plus, minus)])
    del plus, minus
    h -= np.swapaxes(h.conj(), 1, 2)
    h *= 0.5j
    return h


def _rotated_eigh(u: np.ndarray, theta: np.ndarray):
    """Eigenvectors of rotated unitaries, with what the retry rule reads.

    Returns the eigenvectors, their Rayleigh quotients v* U v, the computed
    angles theta + 2 arctan(lam), and per member the largest |lam| and the
    largest eigen-residual |U v - (v* U v) v|.  A singular solve reports an
    infinite |lam| and residual.
    """
    h = _rotated_cayley(u, theta)
    singular = ~np.isfinite(h).all(axis=(1, 2))
    h[singular] = 0.0
    lam, vec = np.linalg.eigh(h)
    del h
    uv = u @ vec
    quot = np.einsum("kaj,kaj->kj", vec.conj(), uv)
    uv -= vec * quot[:, None, :]
    residual = np.linalg.norm(uv, axis=1).max(axis=1, initial=0.0)
    big = np.abs(lam).max(axis=1, initial=0.0)
    big[singular] = residual[singular] = np.inf
    return vec, quot, theta[:, None] + 2.0 * np.arctan(lam), big, residual


def _pole_in_widest_gap(ang: np.ndarray) -> np.ndarray:
    # the rotation whose pole -e^{i theta} sits mid-way across each row's widest gap
    a = np.sort(np.mod(ang, 2.0 * np.pi), axis=1)
    gaps = np.diff(a, axis=1, append=a[:, :1] + 2.0 * np.pi)
    rows = np.arange(a.shape[0])
    widest = gaps.argmax(axis=1)
    return a[rows, widest] + 0.5 * gaps[rows, widest] - np.pi


def _unitary_eigh(u: np.ndarray):
    """Eigenangles (k, m) and orthonormal eigenvectors of k unitaries.

    Every member starts at the rotation ``_THETA0``.  A member whose largest
    |lam| exceeds ``_LAMBDA_MAX`` is solved again with its pole moved to the
    middle of the widest gap of its computed angles theta + 2 arctan(lam).
    A member whose solve is singular, or so close to singular that its
    eigen-residual exceeds ``_RESIDUAL_FAIL`` (its computed angles are then
    meaningless), moves its pole on by the golden angle, which no finite
    rotation group shares.  The last placement is kept unless its residual
    fails.  The angles are the arguments of the Rayleigh quotients v* U v,
    which stay within an ulp or so of the eigenangles at any pole distance;
    they are not yet wrapped.
    """
    theta = np.full(u.shape[0], _THETA0)
    todo = np.arange(u.shape[0])
    vectors, quot, ang, big, residual = _rotated_eigh(u, theta)
    angles = np.angle(quot)
    for _ in range(_ATTEMPTS - 1):
        broken = ~(residual <= _RESIDUAL_FAIL)
        retry = broken | (big > _LAMBDA_MAX)
        if not retry.any():
            return angles, vectors
        todo = todo[retry]
        pole = _pole_in_widest_gap(ang[retry])
        theta[todo] = np.where(broken[retry], theta[todo] + _GOLDEN_ANGLE, pole)
        vec, quot, ang, big, residual = _rotated_eigh(u[todo], theta[todo])
        angles[todo] = np.angle(quot)
        vectors[todo] = vec
    if residual.max(initial=0.0) <= _RESIDUAL_FAIL:
        return angles, vectors
    raise np.linalg.LinAlgError("rotated Cayley eigensolve failed at every pole placement")


def _jump_lists(ang, vec, compress_dim: int, drop_tol: float):
    """Cluster each member's eigenangles and compress its eigenprojections.

    Angles are wrapped into (0, 2pi] and sorted per member.  A cluster starts
    at each member's first angle and wherever consecutive angles differ by
    more than ``CLUSTER_TOL``; its block sums the rank-one compressions z z*
    of its eigenvectors and its angle is the mean of its angles.  Blocks of
    Hilbert-Schmidt norm at most ``drop_tol`` carry no mass and are dropped.
    Returns one (angles, blocks) pair per member.
    """
    k, m = ang.shape
    ang = _wrap_angles(ang)
    order = np.argsort(ang, axis=1, kind="stable")
    ang = np.take_along_axis(ang, order, axis=1)
    z = np.take_along_axis(vec[:, :compress_dim, :], order[:, None, :], axis=2)
    first = np.ones((k, m), dtype=bool)
    first[:, 1:] = np.diff(ang, axis=1) > CLUSTER_TOL
    starts = np.flatnonzero(first)
    outer = np.einsum("kaj,kbj->kjab", z, z.conj()).reshape(k * m, compress_dim, compress_dim)
    blocks = np.add.reduceat(outer, starts, axis=0)
    means = np.add.reduceat(ang.ravel(), starts) / np.diff(starts, append=k * m)
    keep = np.linalg.norm(blocks, axis=(1, 2)) > drop_tol
    bounds = np.searchsorted(starts // m, np.arange(k + 1))
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sel = lo + np.flatnonzero(keep[lo:hi])
        out.append((means[sel], blocks[sel]))
    return out


def spectral_cdf_unitary(u) -> SemiSpectralCDF:
    """Jump spectral measure of a finite unitary, eigenvalue 1 at angle 2pi."""
    u = as_operator(u)
    if not is_unitary(u):
        raise ValueError("input is not unitary within tolerance")
    ang, vec = _unitary_eigh(u[None])
    [(angles, blocks)] = _jump_lists(ang, vec, u.shape[0], drop_tol=-1.0)
    return SemiSpectralCDF(dim=u.shape[0], angles=angles, blocks=blocks)


def _moment_residuals(cdfs, ts: np.ndarray, nmax: int) -> np.ndarray:
    # per member, the largest Hilbert-Schmidt gap over one shared power ladder
    powers = power_ladder(ts, nmax)
    ns = np.arange(nmax + 1)
    moments = np.stack([cdf.moments(ns) for cdf in cdfs], axis=1)
    return np.linalg.norm(moments - powers, axis=(2, 3)).max(axis=0)


def moment_residual(cdf: SemiSpectralCDF, t: np.ndarray, nmax: int) -> float:
    """Largest Hilbert-Schmidt gap between CDF moments and powers of T."""
    return float(_moment_residuals([cdf], as_operator(t)[None], nmax)[0])


def semispectral_cdfs(ts, n: int) -> list[SemiSpectralCDF]:
    """Semi-spectral cumulative functions of a stack of contractions via N-dilations.

    The eigenprojections of each member's degree-N dilation unitary are
    compressed to the leading corner; the resulting jump measure satisfies
    the moment identity up to power N (checked for every member; a residual
    beyond ``MOMENT_FAIL`` raises :class:`MomentConsistencyError`).  Callers
    must pick N at least as large as the highest power they intend to
    integrate.  Members go through the dilation and the eigensolve in chunks
    of at most ``_CHUNK_ENTRIES`` dilation entries, so memory stays bounded
    for any stack length.
    """
    ts = as_operator_stack(ts)
    if n < 1:
        raise ValueError("dilation degree must be at least 1")
    d = ts.shape[1]
    per = max(1, _CHUNK_ENTRIES // ((n + 1) * d) ** 2)
    cdfs: list[SemiSpectralCDF] = []
    for lo in range(0, ts.shape[0], per):
        chunk = ts[lo : lo + per]
        ang, vec = _unitary_eigh(dilation_unitaries(chunk, n))
        found = [
            SemiSpectralCDF(dim=d, angles=angles, blocks=blocks)
            for angles, blocks in _jump_lists(ang, vec, d, _DROP_TOL)
        ]
        residual = _moment_residuals(found, chunk, n).max()
        if residual > MOMENT_FAIL:
            raise MomentConsistencyError(
                f"dilated CDF moment residual {residual:.3e} exceeds {MOMENT_FAIL:g}"
            )
        cdfs.extend(found)
    return cdfs


def semispectral_cdf(t, n: int) -> SemiSpectralCDF:
    """Semi-spectral cumulative function of a contraction via an N-dilation.

    The one-member case of :func:`semispectral_cdfs`, which holds the
    construction and the moment check.
    """
    return semispectral_cdfs(as_operator(t)[None], n)[0]
