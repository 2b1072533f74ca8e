"""Semi-spectral cumulative functions of contractions.

A finite unitary has a jump spectral measure on the circle; compressing the
eigenprojections of a degree-N dilation of a contraction T to the base space
yields a positive operator-valued jump measure whose moments reproduce T^n
for 0 <= n <= N.  Angles live in (0, 2pi], with eigenvalue 1 assigned angle
2pi so that the cumulative function vanishes at 0 - this convention is load
bearing: it makes the boundary terms of every integration by parts drop out.

A dilation unitary of size m = (N+1)d is never formed: it is a rank-2d
change of the block cyclic shift by the 2d x 2d Julia operator of T, on
which its unitarity is checked (:func:`~specshift.dilation.julia_operators`).
Each member is solved once, at the one rotation theta = ``_THETA0``, by the
rotated Cayley map H = i(I - w)(I + w)^{-1}, w = e^{-i theta} U: H is
Hermitian, built by Woodbury's identity in O(m^2 d), and its eigenvalues
lam locate the eigenangles at theta + 2 arctan(lam).  Only these are
computed; each eigenvector comes from the kernel of a 2d x 2d pencil
(:func:`_dilation_eigs`), and the angle kept is the argument of its
Rayleigh quotient v* U v.  The members that pass cannot vouch for go
together through one dense eigensolve of U (:func:`_unitary_eig`, which
reads :func:`~specshift.opcore.normal_eig`): a member whose circulant or
capacitance matrix is singular, or one with an eigenvector whose error
bound, the eigen-residual |U v - (v* U v) v| over the gap to the nearest
other eigenangle (Davis-Kahan), is not below ``_VECTOR_FAIL``.  Whatever
spoils a vector shows in that bound: the pole -e^{i theta} next to an
eigenvalue, a broken solve (NaN), or eigenangles too close for a kernel to
fix one eigenvector (clusters, T = 0, coincidences at unitary T).  The
circulant is singular where the pole lies on the block shift's spectrum,
|1 - (-e^{-i theta})^{N+1}| <= ``_CIRCULANT_MIN``; at ``_THETA0`` the
first such degree is N = 332 (0.0044), where every member goes dense and
no structured pass runs.  A general unitary (:func:`spectral_cdf_unitary`)
always takes the dense route.  A stack of members (all the dilations of one
path) is solved together, in chunks whose Cayley matrices and whose
bordered kernel systems each hold at most ``_CHUNK_ENTRIES`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dilation import julia_operators, unitaries_from_julia
from .opcore import (
    as_operator,
    as_operator_stack,
    hs_norm,
    is_unitary,
    normal_eig,
    power_ladder,
)

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
MOMENT_FAIL = 1e-7        # internal-consistency threshold for dilated CDFs
_DROP_TOL = 1e-12         # compressed blocks below this norm carry no mass

_THETA0 = 0.5             # the rotation: its pole -e^{i theta} is off +-1 and +-i
_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))  # phase step of the kernels' border vector
_CHUNK_ENTRIES = 1 << 16  # most matrix entries one stacked array may hold
_CIRCULANT_MIN = 1e-2     # smaller |1 - (-c)^(N+1)|: the pole sits on the shift's spectrum
_VECTOR_TOL = 1e-12       # eigenvector error bound beyond which the kernel step is redone
_VECTOR_FAIL = 1e-8       # eigenvector error bound, after the redo, not below this: dense solve


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

    def moments(self, ns) -> np.ndarray:
        """sum_j e^{i n t_j} J_j, n in ``ns``; reproduces T^n (adjoint powers for n < 0)."""
        ns = np.asarray(ns)
        phases = np.exp(1j * np.multiply.outer(ns, self.angles))
        return (phases @ self.blocks.reshape(self.angles.size, -1)).reshape(-1, self.dim, self.dim)


def _wrap_angles(ang: np.ndarray) -> np.ndarray:
    # map raw eigenangles into (0, 2pi]; snap a neighbourhood of 1 to 2pi
    ang = np.mod(ang, 2.0 * np.pi)
    near_one = (ang < CLUSTER_TOL) | (2.0 * np.pi - ang < CLUSTER_TOL)
    return np.where(near_one, 2.0 * np.pi, ang)


def _solve_or_nan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # stacked solve; a member (leading index) whose system is singular comes back
    # as NaN.  slogdet runs the LU factorization that solve runs, so a zero sign
    # flags exactly the members that make solve raise; the rest take one more call
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        ok = np.linalg.slogdet(a)[0] != 0
        out = np.full(b.shape, np.nan, dtype=np.result_type(a, b))
        out[ok] = np.linalg.solve(a[ok], b[ok])
        return out


def _circle_gaps(ang: np.ndarray):
    # each row's angles sorted on the circle, and the gap after each of them
    a = np.sort(np.mod(ang, 2.0 * np.pi), axis=1)
    return a, np.diff(a, axis=1, append=a[:, :1] + 2.0 * np.pi)


def _nearest_gaps(ang: np.ndarray) -> np.ndarray:
    # each angle's distance on the circle to the nearest other angle of its row
    order = np.argsort(np.mod(ang, 2.0 * np.pi), axis=1)
    _, gaps = _circle_gaps(ang)
    out = np.empty_like(gaps)
    np.put_along_axis(out, order, np.minimum(gaps, np.roll(gaps, 1, axis=1)), axis=1)
    return out


def _unitary_eig(u: np.ndarray):
    """Unwrapped eigenangles (k, m) and orthonormal eigenvectors of k unitaries."""
    quot, vectors = normal_eig(u)
    return np.angle(quot), vectors


def _dilation_cayley(js: np.ndarray, n: int, theta: float) -> np.ndarray:
    """Rotated Cayley matrices of the degree-N dilations of Julia operators.

    U = P V with P the block cyclic shift and V the Julia operator with its
    block rows swapped, G, on blocks (0, N) and the identity elsewhere, so
    I + cU = (I + cP) + cPE(G - I)E* with E the injection of blocks (0, N).
    (I + cP)^{-1} = sum_j a_j P^j, a_j = (-c)^j / (1 - (-c)^{N+1}), and
    Woodbury's identity adds a rank-2d correction.  Returns the Hermitian
    parts of i(2(I + cU)^{-1} - I): a skew part, left by rounding, would
    move the eigenvalues at first order, while the Hermitian part moves
    them only at second.  A member whose 2d x 2d capacitance matrix is
    singular comes back as NaN, and every member does when the circulant is.
    """
    k, d2, _ = js.shape
    d, nb = d2 // 2, n + 1
    c = np.exp(-1j * theta)
    den = 1.0 - (-c) ** nb
    if not abs(den) > _CIRCULANT_MIN:  # the pole sits on the shift's spectrum
        return np.full((k, nb * d, nb * d), np.nan, dtype=np.complex128)
    idx = np.arange(nb)
    circ = ((-c) ** idx / den)[(idx[:, None] - idx) % nb]  # scalar blocks of (I + cP)^{-1}
    f = c * circ[:, [1, 0]]  # of (I + cP)^{-1} cPE
    eye = np.eye(d)
    # E*(I + cP)^{-1} and E*(I + cP)^{-1}cPE: blocks 0 and N of the above, times I_d
    rho = (circ[[0, n], None, :, None] * eye[:, None, :]).reshape(d2, nb * d)
    phi = (f[[0, n], None, :, None] * eye[:, None, :]).reshape(d2, d2)
    g = np.roll(js, d, axis=1) - np.eye(d2)  # G - I
    core = _solve_or_nan(np.eye(d2) + g @ phi, g)
    w = (f @ core.reshape(k, 2, d * d2)).reshape(k, nb * d, d2)  # (I + cP)^{-1}cPE core
    # 2i(I + cU)^{-1} - iI: 2i circ on the diagonal blocks less 2i F core rho
    h = (-2j * w) @ rho
    blocks = h.reshape(k, nb, d, nb, d)
    diagonal = 2j * circ - 1j * np.eye(nb)
    for r in range(d):
        blocks[:, :, r, :, r] += diagonal
    h += np.swapaxes(h.conj(), 1, 2)
    h *= 0.5
    return h


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a* b over the last axis
    return np.einsum("...a,...a->...", a.conj(), b)


def _rayleigh(js: np.ndarray, n: int, z: np.ndarray, x: np.ndarray):
    """Unit eigenvectors of the dilations from kernel vectors of K(z).

    The vector of (u, y) = ``x`` is v = (u, z^{N-1} y, ..., z y, y), with z
    on the unit circle, so |v|^2 = |u|^2 + N |y|^2; v* U v and |U v - q v|
    need only J (u, y), the first two blocks of U v, because the shift
    blocks contribute (N - 1) z |y|^2 and (N - 1) |z - q|^2 |y|^2.
    ``js`` broadcasts against ``x``.  Returns the Rayleigh quotients q, the
    leading blocks u / |v| and the eigen-residuals |U v - q v| / |v|.
    """
    d = js.shape[-1] // 2
    u, y = x[..., :d], x[..., d:]
    norms = np.sqrt(_dot(u, u).real + n * _dot(y, y).real)
    bad = ~(norms > 0.0)  # a singular kernel solve left x NaN (or zero): no eigenvector
    if bad.any():  # a complex division by a NaN or zero norm warns; NaN over 1 does not
        x, norms = np.where(bad[..., None], np.nan, x), np.where(bad, 1.0, norms)
    x = x / norms[..., None]
    u, y = x[..., :d], x[..., d:]
    r = np.einsum("...ab,...b->...a", js, x)
    zn1 = z ** (n - 1)
    yy = _dot(y, y).real
    quot = _dot(u, r[..., :d]) + zn1.conj() * _dot(y, r[..., d:]) + (n - 1) * z * yy
    top = r[..., :d] - quot[..., None] * u
    bottom = r[..., d:] - (quot * zn1)[..., None] * y
    residual = np.sqrt(
        _dot(top, top).real + _dot(bottom, bottom).real + (n - 1) * np.abs(z - quot) ** 2 * yy
    )
    return quot, u, residual


def _kernels(bordered: np.ndarray, js: np.ndarray, n: int, owner: np.ndarray, z: np.ndarray):
    """Rayleigh data of one bordered kernel solve per eigenvalue z of member ``owner``.

    ``bordered`` holds each member's [[K(0), b], [b*, 0]]; the stack of
    K(z) is solved at once, its size bounded by the chunk of members.
    """
    d2 = js.shape[-1]
    diag = np.arange(d2)
    kz = bordered[owner]
    kz[:, diag, diag] += np.where(diag < d2 // 2, z[:, None], -(z**n)[:, None])
    rhs = np.zeros((d2 + 1, 1))
    rhs[d2] = 1.0
    x = _solve_or_nan(kz, np.broadcast_to(rhs, kz.shape[:-1] + (1,)))[:, :d2, 0]
    return _rayleigh(js[owner], n, z, x)


def _dilation_eigs(js: np.ndarray, n: int):
    """Eigenangles (k, m) and leading eigenvector rows (k, d, m) of k dilations.

    One structured pass at the rotation ``_THETA0`` solves every member,
    its dilation unitary U never formed: the eigenvalues lam of the Cayley
    matrix locate the eigenvalues z = e^{i(theta + 2 arctan lam)} of U, and
    the kernel vector of each comes from K(z) = [[z - T, -D_T*], [D_T,
    -(z^N + T*)]] bordered by a fixed vector b, [[K, b], [b*, 0]] (x, mu) =
    (0, 1): x is parallel to K^{-1} b, and the bordered matrix stays regular
    where K(z) is singular to working precision.  Where the error bound
    residual / gap of the eigenvector exceeds ``_VECTOR_TOL``, a second
    solve at the Rayleigh quotient q, taken onto the circle as q / |q| (one
    step of Rayleigh quotient iteration), removes the error of the
    eigenvalue solve from the vector.
    The angle kept is that of the Rayleigh quotient v* U v.

    The members this pass cannot vouch for go through one dense
    :func:`_unitary_eig` of their dilation unitaries: a singular circulant
    or capacitance matrix, or an eigenvector whose bound residual / gap,
    the gap taken before the second solve, is not below ``_VECTOR_FAIL``.
    A NaN residual (a singular kernel solve) or a zero gap fails that
    comparison, so neither needs a rule of its own.
    """
    k, d2, _ = js.shape
    h = _dilation_cayley(js, n, _THETA0)
    singular = ~np.isfinite(h).all(axis=(1, 2))
    if singular.all():  # a singular circulant: no structured pass, every member dense
        ang, vec = _unitary_eig(unitaries_from_julia(js, n))
        return ang, vec[:, : d2 // 2]
    h[singular] = 0.0
    lam = np.linalg.eigvalsh(h)
    del h
    m = lam.shape[1]
    diag = np.arange(d2)
    border = np.exp(1j * _GOLDEN_ANGLE * (diag + 1.0) ** 2)  # no structure to be orthogonal to
    bordered = np.zeros((k, d2 + 1, d2 + 1), dtype=np.complex128)
    bordered[:, :d2, :d2] = js
    bordered[:, : d2 // 2, :d2] *= -1.0
    bordered[:, :d2, d2] = border
    bordered[:, d2, :d2] = border.conj()
    owner = np.repeat(np.arange(k), m)
    z = np.exp(1j * (_THETA0 + 2.0 * np.arctan(lam))).ravel()
    quot, u, residual = _kernels(bordered, js, n, owner, z)
    # a unit eigenvector is off by at most residual / (gap to its neighbours)
    gaps = _nearest_gaps(np.angle(quot).reshape(k, m)).ravel()
    again = residual > _VECTOR_TOL * gaps
    if again.any():
        q = quot[again]
        quot[again], u[again], residual[again] = _kernels(
            bordered, js, n, owner[again], q / np.abs(q)
        )
    ang = np.angle(quot).reshape(k, m)
    lead = np.swapaxes(u.reshape(k, m, -1), 1, 2)
    dense = singular | ~(residual < _VECTOR_FAIL * gaps).reshape(k, m).all(axis=1)
    if dense.any():
        ang[dense], vec = _unitary_eig(unitaries_from_julia(js[dense], n))
        lead[dense] = vec[:, : lead.shape[1]]
    return ang, lead


def _jump_lists(ang, lead, drop_tol: float):
    """Cluster each member's eigenangles and compress its eigenprojections.

    ``lead`` holds the compressed eigenvectors z, (k, c, m): the leading c
    rows of the unit eigenvectors.  Angles are wrapped into (0, 2pi] and
    sorted per member.  A cluster starts at each member's first angle and
    wherever consecutive angles differ by more than ``CLUSTER_TOL``; its
    block sums the rank-one compressions z z* and its angle is the mean of
    its angles.  Blocks of Hilbert-Schmidt norm at most ``drop_tol`` carry
    no mass and are dropped.
    Returns one (angles, blocks) pair per member.
    """
    k, m = ang.shape
    compress_dim = lead.shape[1]
    ang = _wrap_angles(ang)
    order = np.argsort(ang, axis=1, kind="stable")
    ang = np.take_along_axis(ang, order, axis=1)
    z = np.take_along_axis(lead, order[:, None, :], axis=2)
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
    ang, vec = _unitary_eig(u[None])
    [(angles, blocks)] = _jump_lists(ang, vec, drop_tol=-1.0)
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
    integrate.  Members go through the eigensolve in chunks whose Cayley
    matrices (m x m each) and bordered kernel systems (m of (2d+1) x (2d+1)
    each) hold at most ``_CHUNK_ENTRIES`` entries per stack, so memory stays
    bounded for any stack length.
    """
    ts = as_operator_stack(ts)
    if n < 1:
        raise ValueError("dilation degree must be at least 1")
    js = julia_operators(ts)
    d = ts.shape[1]
    m = (n + 1) * d
    per = max(1, _CHUNK_ENTRIES // (m * max(m, (2 * d + 1) ** 2)))
    cdfs: list[SemiSpectralCDF] = []
    for lo in range(0, ts.shape[0], per):
        ang, lead = _dilation_eigs(js[lo : lo + per], n)
        found = [
            SemiSpectralCDF(dim=d, angles=angles, blocks=blocks)
            for angles, blocks in _jump_lists(ang, lead, _DROP_TOL)
        ]
        residual = _moment_residuals(found, ts[lo : lo + per], n).max()
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
