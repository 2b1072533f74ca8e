"""Perturbation paths between operators and their Gateaux derivatives at s=0.

Two path families are supported on s in [0, 1]:

* linear       T_s = T_0 + s V, with both endpoints contractions;
* multiplicative  T_s = e^{isA} T_0, with T_0 a contraction and A Hermitian.

The derivative of f(T_s) at s = 0 is read off one evaluation of f on the
2x2 block operator [[T_0, Y], [0, T_0]], Y the velocity of the path at 0.
An independent difference-quotient residual is provided as the oracle
against which that derivative is checked.
"""

from __future__ import annotations

import numpy as np

from .opcore import (
    TrigPolynomial,
    apply_function,
    as_operator,
    is_contraction,
    is_hermitian,
    trace_norm,
)

__all__ = ["PerturbationPath", "difference_quotient_residual", "monomial_bound_constant"]

LINEAR = "linear"
MULTIPLICATIVE = "multiplicative"


class PerturbationPath:
    """A perturbation path with evaluation and derivative-at-zero machinery.

    Use the :meth:`linear` / :meth:`multiplicative` constructors; they
    validate the endpoint invariants (mid-path points are contractions
    automatically, by convexity resp. unitary invariance, and are not
    re-checked per evaluation).
    """

    __slots__ = ("kind", "base", "direction", "_dir_eig")

    def __init__(self, kind: str, base, direction):
        if kind not in (LINEAR, MULTIPLICATIVE):
            raise ValueError(f"unknown path kind {kind!r}")
        base = as_operator(base)
        direction = as_operator(direction)
        if base.shape != direction.shape:
            raise ValueError("base and direction must have matching shape")
        if not is_contraction(base):
            raise ValueError("base point must be a contraction")
        if kind == LINEAR:
            if not is_contraction(base + direction):
                raise ValueError("linear path endpoint base + direction must be a contraction")
        else:
            if not is_hermitian(direction):
                raise ValueError("multiplicative direction must be Hermitian")
        self.kind = kind
        self.base = base
        self.direction = direction
        # e^{isA} at every s comes from this one eigendecomposition of A
        self._dir_eig = np.linalg.eigh(direction) if kind == MULTIPLICATIVE else None

    @classmethod
    def linear(cls, base, direction) -> "PerturbationPath":
        return cls(LINEAR, base, direction)

    @classmethod
    def multiplicative(cls, base, direction) -> "PerturbationPath":
        return cls(MULTIPLICATIVE, base, direction)

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    def at(self, s) -> np.ndarray:
        """Evaluate the path at s in [0, 1], or at each s of a 1-d array (a
        stack); multiplicative points share one cached eigh of A."""
        s = np.asarray(s, dtype=np.float64)
        if not ((0.0 <= s) & (s <= 1.0)).all():
            raise ValueError(f"path parameter {s} outside [0, 1]")
        if self.kind == LINEAR:
            return self.base + s[..., None, None] * self.direction
        w, q = self._dir_eig
        phase = np.exp(1j * np.multiply.outer(s, w))[..., None, :]
        return ((q * phase) @ q.conj().T) @ self.base

    def gateaux(self, f: TrigPolynomial) -> np.ndarray:
        """Derivative of f(T_s) at s = 0, from one evaluation of f on a 2d x 2d block.

        With Y the velocity of the path at 0 (V, resp. iA T_0), the powers of
        B = [[T_0, Y], [0, T_0]] carry (d/ds) T_s^r in their upper-right block
        and those of B* = [[T_0*, 0], [Y*, T_0*]] carry (d/ds) (T_s*)^r in their
        lower-left block.  Linear paths support analytic f only: the adjoint
        direction is not differentiable holomorphically along T_0 + sV.
        """
        if self.kind == LINEAR and not f.analytic:
            raise ValueError("linear paths support analytic symbols only")
        t0, d = self.base, self.dim
        y = self.direction if self.kind == LINEAR else 1j * self.direction @ t0
        fb = apply_function(f, np.block([[t0, y], [np.zeros_like(t0), t0]]))
        return fb[:d, d:] + fb[d:, :d]

    def second_order_difference(self, f: TrigPolynomial) -> np.ndarray:
        """f(T_1) - f(T_0) - (d/ds) f(T_s) |_{s=0}, as a matrix.

        f(T_0) is evaluated like f(T_1), not read off the block of
        :meth:`gateaux`, so a path with T_1 = T_0 gives exactly zero.
        """
        top = apply_function(f, self.at(1.0))
        bot = apply_function(f, self.base)
        return top - bot - self.gateaux(f)

    def second_order_trace(self, f: TrigPolynomial) -> complex:
        """Tr{ f(T_1) - f(T_0) - (d/ds) f(T_s) |_{s=0} }."""
        return complex(np.trace(self.second_order_difference(f)))


def difference_quotient_residual(path: PerturbationPath, f: TrigPolynomial, t: float) -> float:
    """Trace-norm gap between (f(T_t) - f(T_0))/t and the Gateaux derivative.

    The oracle side: multiplicative quotients use the exact Hermitian
    exponential, never a series truncation.
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
