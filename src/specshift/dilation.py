"""Unitary dilations of contractions.

Two constructions live here:

* a finite window of the two-sided Schaffer block dilation, whose only
  nontrivial blocks sit next to the centre;
* a finite (N+1)-block unitary whose compressions reproduce T^k exactly for
  k <= N, which is what makes semi-spectral measures computable at finite
  dimension; it is built for a whole stack of contractions at once, from
  their 2d x 2d Julia operators, which hold all it knows of T.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .opcore import as_operator, as_operator_stack, defects, defects_from_svd, hs_norm

__all__ = [
    "NDilation",
    "DilationError",
    "schaffer_window",
    "hs_difference_schaffer",
    "n_dilation",
    "julia_operators",
    "unitaries_from_julia",
]

# Unitarity failure threshold for the finite dilation; exceeding it signals
# the defect operators gone wrong upstream.
UNITARITY_FAIL = 1e-8


class DilationError(RuntimeError):
    """A dilation failed its construction checks."""


def schaffer_window(t, k: int) -> np.ndarray:
    """Window [-K, K] of the two-sided Schaffer dilation, dense (2K+1)d square.

    Block layout: T at (0, 0), D_T at (-1, 0), -T* at (-1, 1), D_T* at (0, 1)
    and identities on (j, j+1) elsewhere; block j sits at rows (j + K)d.
    The centre block of the k-th power of the window reproduces T^k exactly
    for 1 <= k <= K, because the support of U^k applied to the centre never
    leaves the window.  The defect operators refuse a T that is not a
    contraction (:class:`~specshift.opcore.NotAContractionError`).
    """
    t = as_operator(t)
    if k < 1:
        raise ValueError("window size must be at least 1")
    d = t.shape[0]
    pair = defects(t)
    out = np.eye((2 * k + 1) * d, k=d, dtype=np.complex128)
    lo, mid, hi = (k - 1) * d, k * d, (k + 1) * d  # block rows -1, 0 and 1
    out[mid:hi, mid:hi] = t
    out[lo:mid, mid:hi] = pair.d_t
    out[lo:mid, hi : hi + d] = -t.conj().T
    out[mid:hi, hi : hi + d] = pair.d_tstar
    return out


def hs_difference_schaffer(t, t0) -> float:
    """Hilbert-Schmidt distance of two Schaffer dilations on the full lattice.

    Only the four centre-adjacent blocks differ (the identity shifts cancel),
    so the distance has a closed form and agrees with the windowed difference
    for every window size.
    """
    t = as_operator(t)
    t0 = as_operator(t0)
    if t.shape != t0.shape:
        raise ValueError("operators must have matching dimension")
    p, p0 = defects(t), defects(t0)
    total = (
        hs_norm(t - t0) ** 2
        + hs_norm(t.conj().T - t0.conj().T) ** 2
        + hs_norm(p.d_t - p0.d_t) ** 2
        + hs_norm(p.d_tstar - p0.d_tstar) ** 2
    )
    return float(np.sqrt(total))


@dataclass(frozen=True)
class NDilation:
    """Unitary on (N+1) copies of the base space dilating T up to power N.

    The compression of ``unitary``^k to the leading block equals T^k for
    0 <= k <= N; at k = N+1 the defect product D_T* D_T leaks in, so the
    construction is tight.
    """

    unitary: np.ndarray = field(repr=False)


def julia_operators(ts) -> np.ndarray:
    """Julia operators J = [[T, D_T*], [D_T, -T*]], (k, 2d, 2d), of k contractions.

    J is all a dilation knows of T: the degree-N dilation unitary holds it
    on block rows (0, 1) and block columns (0, N) and is a block shift
    elsewhere, so U*U - I is J*J - I padded with zeros, and the unitarity
    check runs on J.  One stacked SVD gives the defect operators of every
    member, which refuse a stack holding a non-contraction
    (:class:`~specshift.opcore.NotAContractionError`).  A member whose
    largest singular value lies in (1, 1 + ``CONTRACTION_TOL``] is dilated
    as its nearest contraction W min(S, 1) X*, so that J stays unitary to
    rounding; the others keep T bit for bit.  Unitarity follows from the
    defect identities together with T* D_T* = D_T T*; each member's residual
    is checked and one beyond ``UNITARITY_FAIL`` raises :class:`DilationError`.
    """
    ts = as_operator_stack(ts)
    d = ts.shape[1]
    w, sig, xh = np.linalg.svd(ts)
    pair = defects_from_svd(w, sig, xh)
    over = sig.max(axis=1, initial=0.0) > 1.0
    ts = np.where(over[:, None, None], (w * np.minimum(sig, 1.0)[:, None, :]) @ xh, ts)
    js = np.block([[ts, pair.d_tstar], [pair.d_t, -np.swapaxes(ts.conj(), 1, 2)]])
    gram = np.swapaxes(js.conj(), 1, 2) @ js
    gram -= np.eye(2 * d)
    residual = np.linalg.norm(gram, axis=(1, 2)).max(initial=0.0)
    if residual > UNITARITY_FAIL:
        raise DilationError(f"dilation unitarity residual {residual:.3e}")
    return js


def unitaries_from_julia(js, n: int) -> np.ndarray:
    """Degree-N dilation unitaries, (k, (N+1)d, (N+1)d), of k Julia operators.

    Block layout on (N+1) copies of the base space: T at (0, 0), D_T* at
    (0, N), D_T at (1, 0), -T* at (1, N) and identity shifts (j, j-1) for
    2 <= j <= N.
    """
    if n < 1:
        raise ValueError("dilation degree must be at least 1")
    k, d2, _ = js.shape
    d = d2 // 2
    m = (n + 1) * d
    u = np.zeros((k, m, m), dtype=np.complex128)
    u[:, :d2, :d] = js[:, :, :d]
    u[:, :d2, n * d :] = js[:, :, d:]
    shift = np.arange(d2, m)
    u[:, shift, shift - d] = 1.0
    return u


def n_dilation(t, n: int) -> NDilation:
    """Finite unitary dilation reproducing T^k under compression for k <= N.

    The one-member case of :func:`julia_operators` and
    :func:`unitaries_from_julia`.
    """
    t = as_operator(t)
    u = unitaries_from_julia(julia_operators(t[None]), n)[0]
    return NDilation(unitary=u)
