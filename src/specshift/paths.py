"""Perturbation paths between operators and their Gateaux derivatives at s=0.

Two path families are supported on s in [0, 1]:

* linear       T_s = T_0 + s V, with both endpoints contractions;
* multiplicative  T_s = e^{isA} T_0, with T_0 a contraction and A Hermitian.

The derivative of a monomial along either path has an explicit sandwich-sum
form; general symbols differentiate term by term.  An independent
difference-quotient residual is provided as the oracle against which the
closed forms are checked.
"""

from __future__ import annotations

import numpy as np

from .opcore import (
    TrigPolynomial,
    apply_function,
    as_operator,
    is_contraction,
    is_hermitian,
    power_ladder,
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
        self._dir_eig = None

    @classmethod
    def linear(cls, base, direction) -> "PerturbationPath":
        return cls(LINEAR, base, direction)

    @classmethod
    def multiplicative(cls, base, direction) -> "PerturbationPath":
        return cls(MULTIPLICATIVE, base, direction)

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    def _rotation(self, s: float) -> np.ndarray:
        # e^{isA} with the eigendecomposition of A computed once and reused.
        if self._dir_eig is None:
            self._dir_eig = np.linalg.eigh(self.direction)
        w, q = self._dir_eig
        return (q * np.exp(1j * s * w)) @ q.conj().T

    def at(self, s: float) -> np.ndarray:
        """Evaluate the path at s in [0, 1]."""
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"path parameter {s} outside [0, 1]")
        if self.kind == LINEAR:
            return self.base + s * self.direction
        return self._rotation(s) @ self.base

    def gateaux_monomial(self, r: int) -> np.ndarray:
        """Derivative of T_s^r at s = 0 (adjoint powers for negative r).

        Linear paths differentiate z^r only for r >= 0; the adjoint direction
        is not differentiable holomorphically along T_0 + sV, so negative r
        is refused there.
        """
        d = self.dim
        out = np.zeros((d, d), dtype=np.complex128)
        if r == 0:
            return out
        t0 = self.base
        if self.kind == LINEAR:
            if r < 0:
                raise ValueError("linear-path derivative is undefined for negative powers")
            pows = power_ladder(t0, r - 1)
            v = self.direction
            for j in range(r):
                out += pows[r - j - 1] @ v @ pows[j]
            return out
        ia = 1j * self.direction
        if r >= 1:
            pows = power_ladder(t0, r)
            for j in range(r):
                out += pows[r - j - 1] @ ia @ pows[j + 1]
            return out
        q = -r
        pows = power_ladder(t0.conj().T, q)
        for j in range(q):
            out -= pows[q - j] @ ia @ pows[j]
        return out

    def gateaux(self, f: TrigPolynomial) -> np.ndarray:
        """Derivative of f(T_s) at s = 0, term by term over the support."""
        if self.kind == LINEAR and not f.analytic:
            raise ValueError("linear paths support analytic symbols only")
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for k, c in f:
            if k == 0:
                continue
            out += c * self.gateaux_monomial(k)
        return out

    def second_order_difference(self, f: TrigPolynomial) -> np.ndarray:
        """f(T_1) - f(T_0) - (d/ds) f(T_s) |_{s=0}, as a matrix."""
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
