"""Reference computations that the tests compare the package against.

Not collected by pytest (no ``test_`` prefix); test modules import it by
name, since pytest puts ``tests/`` on the path.

* :func:`difference_quotient_residual` checks the Gateaux derivative that
  :meth:`~specshift.paths.PerturbationPath.gateaux` reads off one 2d x 2d
  block against a difference quotient, and :func:`monomial_bound_constant`
  is the closed-form constant that bounds it on a linear path;
* :func:`trace_norm` and :func:`projection` are the one-matrix forms of the
  stacked trace norms and projections of :mod:`specshift.truncate`.
"""

from __future__ import annotations

import numpy as np

from specshift.opcore import TrigPolynomial, apply_function, as_operator
from specshift.paths import LINEAR, PerturbationPath
from specshift.truncate import ProjectionSequence


def trace_norm(m) -> float:
    """Trace norm: sum of singular values."""
    return float(np.linalg.svd(as_operator(m), compute_uv=False).sum())


def projection(seq: ProjectionSequence, rank: int) -> np.ndarray:
    """Orthogonal projection onto the leading ``rank`` basis columns of ``seq``."""
    cols = seq.basis[:, :rank]
    return cols @ cols.conj().T


def difference_quotient_residual(path: PerturbationPath, f: TrigPolynomial, t: float) -> float:
    """Trace-norm gap between (f(T_t) - f(T_0))/t and the Gateaux derivative.

    Multiplicative quotients use the exact Hermitian exponential, never a
    series truncation.
    """
    if not 0.0 < t <= 1.0:
        raise ValueError("difference-quotient step must lie in (0, 1]")
    quotient = (apply_function(f, path.at(t)) - apply_function(f, path.base)) / t
    return trace_norm(quotient - path.gateaux(f))


def monomial_bound_constant(path: PerturbationPath, r: int) -> float:
    """For a linear path and f = z^r: the constant B with residual(t) <= B t.

    B = sum_{j=0}^{r-2} sum_{k=0}^{r-j-2} ||V||_2^2 = r(r-1)/2 * ||V||_2^2.
    """
    if path.kind != LINEAR:
        raise ValueError("closed-form bound constant is for linear paths")
    if r < 2:
        return 0.0
    v2 = float(np.linalg.norm(path.direction)) ** 2
    return 0.5 * r * (r - 1) * v2
