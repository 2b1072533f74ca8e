"""Finite-rank projection reduction diagnostics.

The infinite-dimensional reduction argument compresses both the initial
operator and the perturbation through a nested sequence of projections.  At
desk scale no genuine limit exists, so this module reports trajectories
along a rank ladder and verifies only the statements that are exact at
finite dimension: the gap vanishes at full rank, the explicit trace-norm
bound for the exponential remainder always holds, and perturbations confined
to a captured eigenblock produce an exactly zero gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .opcore import (
    as_operator,
    hermitian_exp,
    hs_norm,
    is_hermitian,
    is_unitary,
    normal_eig,
    op_norm,
    signed_powers,
    trace_norm,
)
from .paths import PerturbationPath

__all__ = [
    "ProjectionSequence",
    "build_projections",
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
    "exp_remainder_bound",  # closed-form upper bound for exp_remainder_gap
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

    def projection(self, rank: int) -> np.ndarray:
        cols = self.basis[:, :rank]
        return cols @ cols.conj().T


def build_projections(
    n0,
    ranks,
    rotate: bool = False,
    seed: int = 0,
) -> ProjectionSequence:
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
    order = sorted(
        range(len(eigs)),
        key=lambda i: (-abs(eigs[i]), np.angle(eigs[i]), i),
    )
    basis = z[:, order]
    if rotate:
        rng = np.random.default_rng(seed)
        c, sn = np.cos(ROTATION_ANGLE), np.sin(ROTATION_ANGLE)
        for i in range(n0.shape[0] - 1):
            phase = np.exp(2j * np.pi * rng.uniform())
            g = np.eye(n0.shape[0], dtype=np.complex128)
            g[i, i] = c
            g[i + 1, i + 1] = c
            g[i, i + 1] = -sn * phase
            g[i + 1, i] = sn * np.conj(phase)
            basis = basis @ g
    return ProjectionSequence(ambient_dim=n0.shape[0], ranks=tuple(ranks), basis=basis)


def _exp_remainder_bound(a: np.ndarray, off: float) -> float:
    # ||A||^{-1} (e^{||A||} - 1) ||A||_2 ||P^ A P||_2, with the A -> 0 limit 1
    norm = op_norm(a)
    scale = 1.0 if norm == 0.0 else float(np.expm1(norm) / norm)
    return scale * hs_norm(a) * off


def reduction_diagnostics(seq: ProjectionSequence, n0, v, a) -> list[dict[str, float]]:
    """Per-rank table of the nine reduction quantities plus the exact bound.

    Powers run over k in [-POWER_CAP, POWER_CAP] \\ {0}, adjoints standing in
    for negative powers; only the worst gap per family is reported.  Nothing
    here asserts convergence - the table is data, except that the closed-form
    bound column is a true upper bound for the trace-norm exponential
    remainder on every row.
    """
    n0 = as_operator(n0)
    v = as_operator(v)
    a = as_operator(a)
    if not is_hermitian(a):
        raise ValueError("rotation generator must be Hermitian")
    dim = seq.ambient_dim
    eye = np.eye(dim)
    t0 = n0 + v
    exp_a = hermitian_exp(a, 1.0)
    t = exp_a @ t0
    ks = [k for k in range(-POWER_CAP, POWER_CAP + 1) if k != 0]
    pows_t, pows_t0 = signed_powers(t, ks), signed_powers(t0, ks)
    rows = []
    for rank in seq.ranks:
        p = seq.projection(rank)
        q = eye - p
        a_n = p @ a @ p
        t0_n = p @ t0 @ p
        exp_an = hermitian_exp(a_n, 1.0)
        t_n = exp_an @ t0_n
        power_final = max(
            hs_norm((x - y) @ p) for x, y in zip(pows_t, signed_powers(t_n, ks))
        )
        power_initial = max(
            hs_norm((x - y) @ p) for x, y in zip(pows_t0, signed_powers(t0_n, ks))
        )
        remainder_gap = trace_norm((exp_a - 1j * a - exp_an + 1j * a_n) @ p)
        off = hs_norm(q @ a @ p)
        rows.append(
            {
                "rank": float(rank),
                "offcorner_base": hs_norm(q @ n0 @ p),
                "tail_direction": hs_norm(q @ v),
                "tail_direction_adj": hs_norm(q @ v.conj().T),
                "power_gap_final": power_final,
                "power_gap_initial": power_initial,
                "tail_rotation": hs_norm(q @ (exp_a - eye)),
                "rotation_gap": hs_norm(p @ (exp_a - exp_an)),
                "exp_remainder_gap": remainder_gap,
                "exp_remainder_tail": trace_norm((exp_a - 1j * a - eye) @ q),
                "exp_remainder_bound": _exp_remainder_bound(a, off),
            }
        )
    return rows


def truncation_gap(
    seq: ProjectionSequence,
    path: PerturbationPath,
    p,
) -> list[dict[str, float]]:
    """Trace-norm gap between the second-order difference and its compression.

    For each rank the path data is compressed (base and direction through
    the projection; multiplicative paths re-exponentiate the compressed
    generator) and the gap

        || Expr(path) - P Expr(compressed path) P ||_1

    is reported, where Expr is the second-order difference of p along the
    path.  At full rank the gap is identically zero.
    """
    dim = seq.ambient_dim
    if path.dim != dim:
        raise ValueError("path dimension does not match the ambient dimension")
    full = path.second_order_difference(p)
    rows = []
    for rank in seq.ranks:
        proj = seq.projection(rank)
        base_n = proj @ path.base @ proj
        dir_n = proj @ path.direction @ proj
        path_n = PerturbationPath(path.kind, base_n, dir_n)
        compressed = proj @ path_n.second_order_difference(p) @ proj
        rows.append({"rank": float(rank), "gap": trace_norm(full - compressed)})
    return rows

