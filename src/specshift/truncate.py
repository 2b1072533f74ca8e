"""Finite-rank projection reduction diagnostics.

The infinite-dimensional reduction argument compresses both the initial
operator and the perturbation through a nested sequence of projections.  At
desk scale no genuine limit exists, so this module reports trajectories
along a rank ladder and verifies only the statements that are exact at
finite dimension: the gap vanishes at full rank, the trace-norm bound for
the exponential remainder holds up to rounding, and perturbations confined
to a captured eigenblock produce an exactly zero gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .opcore import (
    as_operator, hermitian_exp, hs_norm, is_unitary, normal_eig, op_norm, signed_powers,
)
from .paths import PerturbationPath

__all__ = [
    "ProjectionSequence",
    "build_projections",
    "exp_remainder",
    "reduction_diagnostics",
    "truncation_gap",
    "DIAGNOSTIC_FIELDS",
]

NORMALITY_TOL = 1e-9
BASIS_UNITARY_TOL = 1e-9  # ||B*B - I||_HS of a projection basis
ROTATION_ANGLE = 0.1
POWER_CAP = 3

DIAGNOSTIC_FIELDS = (
    "rank",
    "offcorner_base",       # ||P^ N0 P||_2
    "tail_direction",       # ||P^ V||_2
    "tail_direction_adj",   # ||P^ V*||_2
    "power_gap_final",      # max_k ||(T^k - T_n^k) P||_2
    "power_gap_initial",    # max_k ||(T0^k - T0_n^k) P||_2
    "tail_rotation",        # ||P^ (e^{iA} - I)||_2
    "rotation_gap",         # ||P (e^{iA} - e^{iA_n})||_2
    "exp_remainder_gap",    # ||(e^{iA} - iA - e^{iA_n} + iA_n) P||_1
    "exp_remainder_tail",   # ||(e^{iA} - iA - I) P^||_1
    "exp_remainder_bound",  # closed-form bound for exp_remainder_gap, in exact arithmetic
)


@dataclass(frozen=True)
class ProjectionSequence:
    """Nested orthogonal projections spanned by leading basis columns."""

    ambient_dim: int
    ranks: tuple[int, ...]
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        basis = as_operator(self.basis)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        if basis.shape != (self.ambient_dim, self.ambient_dim):
            raise ValueError("basis must be square of the ambient dimension")
        if not is_unitary(basis, BASIS_UNITARY_TOL):
            raise ValueError("basis must be unitary")
        if not self.ranks or any(r < 1 or r > self.ambient_dim for r in self.ranks):
            raise ValueError("ranks must lie in [1, ambient_dim]")
        if any(b <= a for a, b in zip(self.ranks, self.ranks[1:])):
            raise ValueError("ranks must be strictly increasing")

    def projections(self) -> np.ndarray:
        """(R, d, d) stack of the projections, one per rank."""
        cols = self.basis * (np.arange(self.ambient_dim) < np.array(self.ranks)[:, None, None])
        return cols @ cols.conj().swapaxes(-1, -2)


def build_projections(n0, ranks, rotate: bool = False, seed: int = 0) -> ProjectionSequence:
    """Projection ladder adapted to a normal matrix.

    The basis is the joint eigenbasis of the commuting Hermitian parts of
    N_0, ordered by eigenvalue modulus descending with argument ascending as
    the tie break (then input order), so leading columns span invariant
    subspaces and every off-corner compression of N_0 vanishes exactly.
    With ``rotate=True`` a deterministic seeded chain of small rotations
    (angle 0.1 between consecutive basis vectors) is applied to make the
    diagnostics nontrivial.
    """
    n0 = as_operator(n0)
    if hs_norm(n0 @ n0.conj().T - n0.conj().T @ n0) > NORMALITY_TOL * (1.0 + hs_norm(n0) ** 2):
        raise ValueError("base operator must be normal")
    [eigs], [z] = normal_eig(n0[None])
    basis = z[:, np.lexsort((np.angle(eigs), -np.abs(eigs)))]
    if rotate:
        # each rotation mixes two consecutive columns: a two-column Givens update
        c, s = np.cos(ROTATION_ANGLE), np.sin(ROTATION_ANGLE)
        phases = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=len(eigs) - 1))
        for i, phase in enumerate(phases):
            basis[:, i : i + 2] = basis[:, i : i + 2] @ [[c, -s * phase], [s * np.conj(phase), c]]
    return ProjectionSequence(ambient_dim=n0.shape[0], ranks=tuple(ranks), basis=basis)


def _hs_norms(m: np.ndarray) -> np.ndarray:
    return np.linalg.norm(m, axis=(-2, -1))


def _trace_norms(m: np.ndarray) -> np.ndarray:
    return np.linalg.svd(m, compute_uv=False).sum(axis=-1)


def _rotations(seq: ProjectionSequence, a: np.ndarray):
    # the projections P, A_n = P A P, and e^{iA} with every e^{iA_n} from one stacked eigh
    p = seq.projections()
    a_n = p @ a @ p
    exps = hermitian_exp(np.concatenate([a[None], a_n]), 1.0)
    return p, a_n, exps[0], exps[1:]


def exp_remainder(seq: ProjectionSequence, a) -> tuple[np.ndarray, np.ndarray]:
    """``exp_remainder_gap`` and ``exp_remainder_bound`` at every rank, from one
    stacked pass: ||(e^{iA} - iA - e^{iA_n} + iA_n) P||_1 and the closed form
    ||A||^{-1} (e^{||A||} - 1) ||A||_2 ||P^ A P||_2 (A -> 0 limit: ||A||_2 ||P^ A P||_2).

    The bound holds in exact arithmetic.  Where both sides are rounding (the
    full-rank row) the computed gap can exceed the computed bound; the
    ``truncate`` verdict adds ``cli.REMAINDER_SLACK`` to absorb that.
    """
    a = as_operator(a)
    p, a_n, exp_a, exp_an = _rotations(seq, a)
    gap = _trace_norms((exp_a - 1j * a - exp_an + 1j * a_n) @ p)
    norm = op_norm(a)
    scale = 1.0 if norm == 0.0 else float(np.expm1(norm) / norm)
    off = _hs_norms((np.eye(seq.ambient_dim) - p) @ a @ p)
    return gap, scale * hs_norm(a) * off


def reduction_diagnostics(seq: ProjectionSequence, n0, v, a) -> list[dict[str, float]]:
    """Per-rank table of the nine reduction quantities and the two columns of
    :func:`exp_remainder`, every column computed for all ranks at once.

    Powers run over k in [-POWER_CAP, POWER_CAP] \\ {0}, adjoints standing in
    for negative powers; only the worst gap per family is reported.  Nothing
    here asserts convergence - the table is data.  The bound column bounds
    the remainder column in exact arithmetic only: on the full-rank row both
    are rounding, and ``cli.REMAINDER_SLACK`` absorbs the difference.
    """
    n0, v, a = as_operator(n0), as_operator(v), as_operator(a)
    p, a_n, exp_a, exp_an = _rotations(seq, a)
    eye = np.eye(seq.ambient_dim)
    q = eye - p
    t0 = n0 + v
    t0_n = p @ t0 @ p
    ks = [k for k in range(-POWER_CAP, POWER_CAP + 1) if k != 0]

    def power_gap(x, x_n):
        # max over k of ||(X^k - X_n^k) P||_2, per rank
        return _hs_norms((signed_powers(x, ks)[:, None] - signed_powers(x_n, ks)) @ p).max(axis=0)

    gap, bound = exp_remainder(seq, a)
    cols = {
        "rank": seq.ranks,
        "offcorner_base": _hs_norms(q @ n0 @ p),
        "tail_direction": _hs_norms(q @ v),
        "tail_direction_adj": _hs_norms(q @ v.conj().T),
        "power_gap_final": power_gap(exp_a @ t0, exp_an @ t0_n),
        "power_gap_initial": power_gap(t0, t0_n),
        "tail_rotation": _hs_norms(q @ (exp_a - eye)),
        "rotation_gap": _hs_norms(p @ (exp_a - exp_an)),
        "exp_remainder_gap": gap,
        "exp_remainder_tail": _trace_norms((exp_a - 1j * a - eye) @ q),
        "exp_remainder_bound": bound,
    }
    return [dict(zip(cols, map(float, row))) for row in zip(*cols.values())]


def truncation_gap(seq: ProjectionSequence, path: PerturbationPath, p) -> list[dict[str, float]]:
    """Trace-norm gap between the second-order difference and its compression.

    For each rank the path data is compressed (base and direction through
    the projection; multiplicative paths re-exponentiate the compressed
    generator) and the gap

        || Expr(path) - P Expr(compressed path) P ||_1

    is reported, where Expr is the second-order difference of p along the
    path.  At full rank the gap is identically zero.  The full path and every
    compressed one are the diagonal blocks of one direct-sum path, so one
    second-order difference gives every Expr and one stacked SVD every gap.
    """
    dim = seq.ambient_dim
    if path.dim != dim:
        raise ValueError("path dimension does not match the ambient dimension")
    proj = seq.projections()
    blocks = np.arange(len(seq.ranks) + 1)
    shape = (len(blocks), dim, len(blocks), dim)

    def direct_sum(x):
        out = np.zeros(shape, dtype=np.complex128)
        out[blocks, :, blocks, :] = np.concatenate([x[None], proj @ x @ proj])
        return out.reshape(len(blocks) * dim, -1)

    joint = PerturbationPath(path.kind, direct_sum(path.base), direct_sum(path.direction))
    expr = joint.second_order_difference(p).reshape(shape)[blocks, :, blocks, :]
    gaps = _trace_norms(expr[0] - proj @ expr[1:] @ proj)
    return [{"rank": float(rank), "gap": float(gap)} for rank, gap in zip(seq.ranks, gaps)]
