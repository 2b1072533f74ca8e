"""Unitary dilations of contractions.

Three constructions live here:

* a finite window of the two-sided Schaffer block dilation, whose only
  nontrivial blocks sit next to the centre;
* the modified dilation pair that replaces the defect blocks by the polar
  unitary of the unperturbed operator;
* a finite (N+1)-block unitary whose compressions reproduce T^k exactly for
  k <= N, which is what makes semi-spectral measures computable at finite
  dimension; it is built for a whole stack of contractions at once.

Block operators are immutable after construction and safe to share.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .opcore import (
    CONTRACTION_TOL,
    as_operator,
    as_operator_stack,
    defects,
    defects_from_svd,
    hs_norm,
    is_contraction,
)

__all__ = [
    "BlockOperator",
    "NDilation",
    "DilationError",
    "IllConditionedPolarWarning",
    "schaffer_window",
    "hs_difference_schaffer",
    "modified_dilation",
    "n_dilation",
    "dilation_unitaries",
    "polar_unitary",
]

# Unitarity failure threshold for the finite dilation; exceeding it signals
# defect clamping gone wrong upstream.
UNITARITY_FAIL = 1e-8

# Singular values inside this open interval make the polar-unitary kernel
# matching ill conditioned.
POLAR_AMBIGUOUS = (1e-11, 1e-7)


class DilationError(RuntimeError):
    """A dilation failed its construction checks."""


class IllConditionedPolarWarning(UserWarning):
    """A singular value sits in the rank-ambiguous band of the polar factor."""


@dataclass(frozen=True)
class BlockOperator:
    """Sparse block matrix over block indices in the window [-K, K].

    ``blocks`` maps (row, col) block indices to dense ``block_dim`` square
    arrays; absent entries are zero.
    """

    block_dim: int
    window: tuple[int, int]
    blocks: dict[tuple[int, int], np.ndarray] = field(repr=False)

    def __post_init__(self):
        lo, hi = self.window
        if lo > hi:
            raise ValueError("empty window")
        for (i, j), b in self.blocks.items():
            if not (lo <= i <= hi and lo <= j <= hi):
                raise ValueError(f"block index ({i}, {j}) outside window {self.window}")
            if b.shape != (self.block_dim, self.block_dim):
                raise ValueError("all blocks must be block_dim square")

    @property
    def n_block_rows(self) -> int:
        lo, hi = self.window
        return hi - lo + 1

    def block(self, i: int, j: int) -> np.ndarray:
        b = self.blocks.get((i, j))
        if b is None:
            return np.zeros((self.block_dim, self.block_dim), dtype=np.complex128)
        return b

    def to_dense(self) -> np.ndarray:
        lo, _ = self.window
        n = self.n_block_rows
        d = self.block_dim
        out = np.zeros((n * d, n * d), dtype=np.complex128)
        for (i, j), b in self.blocks.items():
            out[(i - lo) * d : (i - lo + 1) * d, (j - lo) * d : (j - lo + 1) * d] = b
        return out

    def center_compression(self, k: int) -> np.ndarray:
        """Centre block of the k-th power of the windowed operator."""
        lo, _ = self.window
        d = self.block_dim
        dense = np.linalg.matrix_power(self.to_dense(), k)
        off = -lo * d
        return dense[off : off + d, off : off + d]


def schaffer_window(t, k: int) -> BlockOperator:
    """Window [-K, K] of the two-sided Schaffer dilation of a contraction.

    Layout: T at (0, 0), D_T at (-1, 0), -T* at (-1, 1), D_T* at (0, 1) and
    identities on (j, j+1) elsewhere.  Compressing the k-th power of the
    window to the centre reproduces T^k exactly for 1 <= k <= K, because the
    support of U^k applied to the centre never leaves the window.
    """
    t = as_operator(t)
    if k < 1:
        raise ValueError("window size must be at least 1")
    if not is_contraction(t):
        raise ValueError("Schaffer dilation requires a contraction")
    d = t.shape[0]
    pair = defects(t)
    blocks: dict[tuple[int, int], np.ndarray] = {
        (0, 0): t,
        (-1, 0): pair.d_t,
        (-1, 1): -t.conj().T,
        (0, 1): pair.d_tstar,
    }
    for j in range(-k, k):
        if j in (0, -1):
            continue
        blocks[(j, j + 1)] = np.eye(d, dtype=np.complex128)
    return BlockOperator(block_dim=d, window=(-k, k), blocks=blocks)


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


def polar_unitary(t0) -> np.ndarray:
    """Unitary polar factor of T_0, kernels matched deterministically.

    Built as W X* from the SVD T_0 = W S X*: it maps the right singular basis
    onto the left one ordered by singular value (lexicographic index as the
    tie break), satisfies T_0 = (W X*) |T_0| and intertwines the defect
    operators exactly.  Singular values inside the ambiguous band trigger an
    :class:`IllConditionedPolarWarning`.
    """
    t0 = as_operator(t0)
    w, sig, xh = np.linalg.svd(t0)
    lo, hi = POLAR_AMBIGUOUS
    if np.any((sig > lo) & (sig < hi)):
        warnings.warn(
            "polar factor rank is ambiguous: singular value inside "
            f"({lo:g}, {hi:g})",
            IllConditionedPolarWarning,
            stacklevel=2,
        )
    return w @ xh


def modified_dilation(t, t0, k: int) -> tuple[BlockOperator, BlockOperator]:
    """Windowed pair: modified extension of T and Schaffer dilation of T_0.

    The modified operator keeps T at the centre, drops both defect blocks and
    places -V* at (-1, 1), where V is the polar unitary of T_0.  It is a
    contraction (not unitary), upper block-triangular, and still compresses
    to T^k at the centre.  The kernel-dimension hypothesis dim ker T_0 =
    dim ker T_0* is automatic for square matrices.
    """
    t = as_operator(t)
    t0 = as_operator(t0)
    if t.shape != t0.shape:
        raise ValueError("operators must have matching dimension")
    if k < 1:
        raise ValueError("window size must be at least 1")
    if not (is_contraction(t) and is_contraction(t0)):
        raise ValueError("both operators must be contractions")
    d = t.shape[0]
    v = polar_unitary(t0)
    blocks: dict[tuple[int, int], np.ndarray] = {
        (0, 0): t,
        (-1, 1): -v.conj().T,
    }
    for j in range(-k, k):
        if j in (0, -1):
            continue
        blocks[(j, j + 1)] = np.eye(d, dtype=np.complex128)
    modified = BlockOperator(block_dim=d, window=(-k, k), blocks=blocks)
    return modified, schaffer_window(t0, k)


@dataclass(frozen=True)
class NDilation:
    """Unitary on (N+1) copies of the base space dilating T up to power N.

    The compression of ``unitary``^k to the leading block equals T^k for
    0 <= k <= N; at k = N+1 the defect product D_T* D_T leaks in, so the
    construction is tight.
    """

    degree: int
    embed_dim: int
    unitary: np.ndarray = field(repr=False)

    def compression(self, k: int) -> np.ndarray:
        d = self.embed_dim
        return np.linalg.matrix_power(self.unitary, k)[:d, :d]


def dilation_unitaries(ts, n: int) -> np.ndarray:
    """Degree-N dilation unitaries, (k, (N+1)d, (N+1)d), of k contractions.

    Block layout on (N+1) copies of the base space: T at (0, 0), D_T* at
    (0, N), D_T at (1, 0), -T* at (1, N) and identity shifts (j, j-1) for
    2 <= j <= N.  One stacked SVD gives both the contraction check and the
    defect operators of every member.  Unitarity follows from the defect
    identities together with T* D_T* = D_T T*; each member's residual is
    checked and one beyond ``UNITARITY_FAIL`` raises :class:`DilationError`.
    """
    ts = as_operator_stack(ts)
    if n < 1:
        raise ValueError("dilation degree must be at least 1")
    k, d, _ = ts.shape
    w, sig, xh = np.linalg.svd(ts)
    if d and sig[:, 0].max(initial=0.0) > 1.0 + CONTRACTION_TOL:
        raise ValueError("dilation requires a contraction")
    pair = defects_from_svd(w, sig, xh)
    m = (n + 1) * d
    u = np.zeros((k, m, m), dtype=np.complex128)
    u[:, 0:d, 0:d] = ts
    u[:, 0:d, n * d :] = pair.d_tstar
    u[:, d : 2 * d, 0:d] = pair.d_t
    u[:, d : 2 * d, n * d :] = -np.swapaxes(ts.conj(), 1, 2)
    shift = np.arange(2 * d, m)
    u[:, shift, shift - d] = 1.0
    gram = np.swapaxes(u.conj(), 1, 2) @ u
    gram[:, np.arange(m), np.arange(m)] -= 1.0
    residual = np.linalg.norm(gram, axis=(1, 2)).max(initial=0.0)
    if residual > UNITARITY_FAIL:
        raise DilationError(f"dilation unitarity residual {residual:.3e}")
    return u


def n_dilation(t, n: int) -> NDilation:
    """Finite unitary dilation reproducing T^k under compression for k <= N.

    The one-member case of :func:`dilation_unitaries`, which holds the block
    layout and the checks.
    """
    t = as_operator(t)
    return NDilation(degree=n, embed_dim=t.shape[0], unitary=dilation_unitaries(t[None], n)[0])
