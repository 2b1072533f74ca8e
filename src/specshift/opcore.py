"""Dense complex-operator substrate.

Schatten norms, contraction classification, defect operators, the
trigonometric-polynomial functional calculus for contractions, unitary
exponentials of Hermitian matrices and eigenbases of normal matrices.
Operators are square complex numpy arrays at a fixed, small dimension;
every function here is pure and leaves its arguments untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "CONTRACTION_TOL",
    "HERMITIAN_TOL",
    "SUP_NORM_GRID",
    "NotAContractionError",
    "DefectPair",
    "TrigPolynomial",
    "as_operator",
    "as_operator_stack",
    "hs_norm",
    "trace_norm",
    "op_norm",
    "is_contraction",
    "is_hermitian",
    "is_unitary",
    "defects",
    "defects_from_svd",
    "apply_function",
    "sup_norm_estimates",
    "power_ladder",
    "signed_powers",
    "hermitian_exp",
    "normal_eig",
]

# The one contraction rule: T is a contraction iff its largest singular value
# is at most 1 + CONTRACTION_TOL.  Singular values in (1, 1 + CONTRACTION_TOL]
# are flushed to 1 in the defect operators, and the dilation then takes the
# nearest contraction in place of T.  Numerically unitary inputs must pass.
CONTRACTION_TOL = 5e-11

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-8

# Sup norms of trigonometric polynomials are estimated on a uniform grid of
# this many angles.  The estimate is a lower bound on the true sup; callers
# that use it inside inequalities add an explicit slack.  One inverse FFT takes
# SUP_NORM_ROWS polynomials (128 KB): wider batches raise peak memory, and 16 ran slower.
SUP_NORM_GRID = 2048
SUP_NORM_ROWS = 4


class NotAContractionError(ValueError):
    """An operator expected to be a contraction has spectral norm > 1."""


def as_operator(m) -> np.ndarray:
    """Coerce to a nonempty square complex128 array with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.shape[0]:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_operator_stack(ms) -> np.ndarray:
    """Coerce to a (k, d, d) stack, d >= 1, of square complex128 arrays with
    finite entries; the stack may be empty (k = 0)."""
    a = np.asarray(ms, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or not a.shape[1]:
        raise ValueError(f"expected a stack of nonempty square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def hs_norm(m) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(as_operator(m)))


def trace_norm(m) -> float:
    """Trace norm: sum of singular values.

    Raises ``numpy.linalg.LinAlgError`` if the SVD fails to converge.
    """
    return float(np.linalg.svd(as_operator(m), compute_uv=False).sum())


def op_norm(m) -> float:
    """Operator (spectral) norm: largest singular value."""
    return float(np.linalg.svd(as_operator(m), compute_uv=False)[0])


def is_contraction(t) -> bool:
    """True iff the largest singular value is at most 1 + ``CONTRACTION_TOL``."""
    return op_norm(t) <= 1.0 + CONTRACTION_TOL


def is_hermitian(a) -> bool:
    """True iff no entry of A - A* exceeds ``HERMITIAN_TOL`` in modulus, in a
    matrix or in any member of a (k, d, d) stack."""
    a = as_operator_stack(a) if np.ndim(a) == 3 else as_operator(a)
    return float(np.abs(a - a.conj().swapaxes(-1, -2)).max(initial=0.0)) <= HERMITIAN_TOL


def is_unitary(u, tol: float = UNITARY_TOL) -> bool:
    u = as_operator(u)
    return hs_norm(u.conj().T @ u - np.eye(u.shape[0])) <= tol


@dataclass(frozen=True)
class DefectPair:
    """Defect operators D_T = (I - T*T)^(1/2) and D_T* = (I - TT*)^(1/2)."""

    d_t: np.ndarray
    d_tstar: np.ndarray


def defects(t) -> DefectPair:
    """Build both defect operators of a contraction from one SVD.

    With T = W S X*, the defects are X sqrt(I-S^2) X* and W sqrt(I-S^2) W*,
    which makes the intertwining T D_T = D_T* T hold to rounding.  Singular
    values in (1, 1 + ``CONTRACTION_TOL``] are flushed to 1; a larger one
    raises :class:`NotAContractionError`, by the rule of :func:`is_contraction`.
    """
    return defects_from_svd(*np.linalg.svd(as_operator(t)))


def defects_from_svd(w, sig, xh) -> DefectPair:
    """Defect operators from an SVD ``W S X*`` computed by the caller.

    Works on one SVD or on a stack of them (leading axes), so callers that
    already hold the singular values for a contraction check pay no second
    factorization.  Clamping and the raise are as in :func:`defects`.
    """
    if sig.max(initial=0.0) > 1.0 + CONTRACTION_TOL:
        raise NotAContractionError(
            f"largest singular value {sig.max():.12g} exceeds 1 + CONTRACTION_TOL"
        )
    gap = (1.0 - sig) * (1.0 + sig)  # eigenvalues of I - T*T, accurately
    root = np.sqrt(np.clip(gap, 0.0, None))[..., None, :]
    d_t = (np.swapaxes(xh.conj(), -1, -2) * root) @ xh
    d_tstar = (w * root) @ np.swapaxes(w.conj(), -1, -2)
    return DefectPair(d_t=d_t, d_tstar=d_tstar)


class TrigPolynomial:
    """Finitely supported function on the circle, f(z) = sum_k c_k z^k.

    Negative indices stand for powers of the conjugate variable, so on the
    unit circle f(e^{it}) = sum_k c_k e^{ikt}.  These are the only symbols the
    toolkit ever applies to an operator; genuinely infinite Fourier series
    are out of scope and must be truncated by the caller.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, complex]):
        cleaned = {}
        for k, c in coeffs.items():
            k = int(k)
            c = complex(c)
            if c != 0:
                cleaned[k] = c
        self._coeffs = dict(sorted(cleaned.items()))

    def coeff(self, k: int) -> complex:
        return self._coeffs.get(k, 0.0 + 0.0j)

    def __iter__(self) -> Iterator[tuple[int, complex]]:
        return iter(self._coeffs.items())

    def __len__(self) -> int:
        return len(self._coeffs)

    def __repr__(self) -> str:
        return f"TrigPolynomial({self._coeffs!r})"

    @property
    def analytic(self) -> bool:
        """True iff the support lies in the nonnegative indices."""
        return all(k >= 0 for k in self._coeffs)

    @property
    def max_index(self) -> int:
        return max(self._coeffs, default=0)

    def __call__(self, z):
        """Evaluate at scalar or array argument (nonzero for negative indices)."""
        z = np.asarray(z, dtype=np.complex128)
        out = np.zeros_like(z)
        for k, c in self._coeffs.items():
            out = out + c * z**k
        return out if out.ndim else complex(out)

    def derivative(self) -> "TrigPolynomial":
        """d/dz derivative; defined for analytic symbols only."""
        if not self.analytic:
            raise ValueError("derivative in z requires an analytic symbol")
        return TrigPolynomial({k - 1: k * c for k, c in self._coeffs.items() if k != 0})

    def sup_norm_estimate(self) -> float:
        """Max of |f| over ``SUP_NORM_GRID`` uniform angles (an estimate, not
        the sup): :func:`sup_norm_estimates` of one row."""
        return float(sup_norm_estimates(list(self._coeffs), [list(self._coeffs.values())])[0])


def sup_norm_estimates(ks, coeffs) -> np.ndarray:
    """Max of |sum_k c_k e^{ikt}| over ``SUP_NORM_GRID`` uniform angles for each
    row of ``coeffs`` (n, len(ks)), the coefficients of the indices ``ks``.

    On the angles 2 pi j / M, e^{ikt} depends on k mod M only, so the
    coefficients fold mod M and inverse FFTs of whole row batches give every sample.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    slots = np.asarray(ks, dtype=np.int64) % SUP_NORM_GRID
    out = np.empty(len(coeffs))
    for lo in range(0, len(coeffs), SUP_NORM_ROWS):
        rows = coeffs[lo : lo + SUP_NORM_ROWS]
        folded = np.zeros((len(rows), SUP_NORM_GRID), dtype=np.complex128)
        np.add.at(folded.T, slots, rows.T)
        out[lo : lo + len(rows)] = np.abs(np.fft.ifft(folded, norm="forward")).max(axis=1)
    return out


def apply_function(f: TrigPolynomial, t) -> np.ndarray:
    """Evaluate f(T) = sum_{k>=0} c_k T^k + sum_{k>=1} c_{-k} (T*)^k.

    The coefficients are contracted against :func:`signed_powers`, the power
    ladders every moment route shares, so powers of T are never obtained
    through an eigendecomposition (non-normal contractions may be
    defective).  A symbol with no coefficients gives the zero matrix.
    """
    t = as_operator(t)
    if not len(f):
        return np.zeros_like(t)
    ks, cs = zip(*f)
    return (np.array(cs) @ signed_powers(t, ks).reshape(len(ks), -1)).reshape(t.shape)


def power_ladder(t, kmax: int) -> np.ndarray:
    """Powers [I, T, ..., T^kmax] of a matrix or of a stack of matrices.

    The result has shape ``(kmax + 1,) + t.shape``.  Each power is the one
    before it times T on the right, so non-normal T is never diagonalized;
    adjoint powers are the ladder of the adjoint.
    """
    if kmax < 0:
        raise ValueError("a power ladder needs kmax >= 0")
    t = np.asarray(t, dtype=np.complex128)
    out = np.empty((kmax + 1,) + t.shape, dtype=np.complex128)
    out[0] = np.eye(t.shape[-1])
    if kmax:
        out[1] = t
    for n in range(1, kmax):
        np.matmul(out[n], t, out=out[n + 1])
    return out


def signed_powers(t, ks) -> np.ndarray:
    """Stack of T^k for each k in ``ks``, the adjoint power (T*)^|k| for k < 0,
    of a matrix or of a stack of matrices (a new leading axis runs over ``ks``);
    built from a power ladder on T and, when some k < 0, one on T*."""
    t, ks = np.asarray(t, dtype=np.complex128), np.asarray(ks, dtype=np.int64)
    lo = ks.min()
    up = power_ladder(t, max(ks.max(), 0))
    if lo >= 0:
        return up[ks]
    down = power_ladder(t.conj().swapaxes(-1, -2), -lo)
    return np.concatenate([down[:0:-1], up])[ks - lo]


def hermitian_exp(a, s: float) -> np.ndarray:
    """Unitary e^{isA} for Hermitian A, or for every member of a (k, d, d)
    stack (each one checked), via one (stacked) eigendecomposition."""
    a = as_operator_stack(a) if np.ndim(a) == 3 else as_operator(a)
    if not is_hermitian(a):
        raise ValueError("hermitian_exp requires a Hermitian matrix")
    w, q = np.linalg.eigh(a)
    return (q * np.exp(1j * s * w)[..., None, :]) @ q.conj().swapaxes(-1, -2)


def normal_eig(a: np.ndarray):
    """Eigenvalues (k, m) and orthonormal eigenvectors of k normal matrices.

    The vectors are those of the Hermitian part of e^{-i phi} A, with 2 phi at
    the middle of the widest gap among 2 arg(lam_i - lam_j) + pi, i <= j: it
    merges no two distinct eigenvalues, and a cluster gets an orthonormal
    basis.  The values are the Rayleigh quotients v* A v.
    """
    lam = np.linalg.eigvals(a)
    i, j = np.triu_indices(a.shape[-1])
    dirs = np.sort(np.mod(2.0 * np.angle(lam[:, i] - lam[:, j]) + np.pi, 2.0 * np.pi), axis=1)
    gaps = np.diff(dirs, axis=1, append=dirs[:, :1] + 2.0 * np.pi)
    mid = np.take_along_axis(dirs + gaps / 2.0, gaps.argmax(axis=1)[:, None], axis=1)
    b = np.exp(-0.5j * mid)[:, :, None] * a
    _, v = np.linalg.eigh(b + b.conj().swapaxes(1, 2))
    return (v.conj() * (a @ v)).sum(axis=1), v
