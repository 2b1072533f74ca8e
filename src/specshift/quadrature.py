"""Quadrature helpers: Gauss-Legendre nodes on [0, 1] and an adaptive
Gauss-Kronrod 15(7) rule for complex vector-valued integrands."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = ["QuadratureError", "gauss_legendre_01", "adaptive_gk15"]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, value, estimate: float):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


@lru_cache(maxsize=None)
def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1].

    The arrays are cached and shared by every caller, so they are read-only.
    """
    if n < 1:
        raise ValueError("need at least one node")
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


# 15-point Kronrod extension of 7-point Gauss (standard tabulated values).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])


def _gk15(f: Callable, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = np.concatenate([mid - half * _XGK[:-1], [mid], mid + half * _XGK[-2::-1]])
    vals = [np.asarray(f(x), dtype=np.complex128) for x in nodes]
    kron = sum(
        _WGK[i] * (vals[i] + vals[14 - i]) for i in range(7)
    ) + _WGK[7] * vals[7]
    gauss = sum(
        _WG[i] * (vals[2 * i + 1] + vals[13 - 2 * i]) for i in range(3)
    ) + _WG[3] * vals[7]
    kron = half * kron
    gauss = half * gauss
    err = float(np.max(np.abs(kron - gauss), initial=0.0))
    return kron, err


def adaptive_gk15(f: Callable, a: float, b: float, tol: float, max_depth: int):
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    ``f`` may return a scalar or an array; the error is controlled in the
    max-abs sense across components.  Subdivision is bisection, depth-first
    and deterministic.  Raises :class:`QuadratureError` carrying the best
    value and achieved error estimate if ``max_depth`` is exhausted.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def recurse(lo: float, hi: float, budget: float, depth: int):
        val, err = _gk15(f, lo, hi)
        if err <= budget or err == 0.0:
            return val, err
        if depth >= max_depth:
            raise QuadratureError(
                f"adaptive quadrature stalled on [{lo:g}, {hi:g}]: "
                f"error estimate {err:.3e} > {budget:.3e}",
                value=val,
                estimate=err,
            )
        mid = 0.5 * (lo + hi)
        v1, e1 = recurse(lo, mid, budget / 2, depth + 1)
        v2, e2 = recurse(mid, hi, budget / 2, depth + 1)
        return v1 + v2, e1 + e2

    return recurse(float(a), float(b), float(tol), 0)
