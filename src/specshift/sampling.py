"""Seeded random operators and symbols for verification campaigns.

Conventions: a random contraction is a complex Gaussian matrix divided by
its largest singular value times (1 + margin) with margin drawn from
{0, 0.1}; a random normal contraction conjugates a diagonal of points from
the closed unit disk by a Haar unitary; a random Hermitian is the Hermitian
part of a Gaussian rescaled to operator norm at most pi.
"""

from __future__ import annotations

import numpy as np

from .opcore import TrigPolynomial, op_norm
from .paths import PerturbationPath

__all__ = [
    "complex_gaussian",
    "random_coefficients",
    "random_contraction",
    "random_unitary",
    "random_normal_contraction",
    "random_hermitian",
    "random_psd",
    "random_dissipative",
    "random_analytic_polynomial",
    "random_trig_polynomial",
    "random_linear_path",
    "random_multiplicative_path",
]


def complex_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_coefficients(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.normal(size=count) + 1j * rng.normal(size=count)


def random_contraction(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = complex_gaussian(rng, dim)
    margin = rng.choice([0.0, 0.1])
    top = np.linalg.svd(g, compute_uv=False)[0]
    return g / (top * (1.0 + margin))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_gaussian(rng, dim))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_normal_contraction(rng: np.random.Generator, dim: int) -> np.ndarray:
    u = random_unitary(rng, dim)
    radii = np.sqrt(rng.uniform(0.0, 1.0, size=dim))
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=dim))
    return (u * (radii * phases)) @ u.conj().T


def random_hermitian(rng: np.random.Generator, dim: int, cap: float = np.pi) -> np.ndarray:
    g = complex_gaussian(rng, dim)
    h = 0.5 * (g + g.conj().T)
    norm = op_norm(h)
    if norm == 0.0:
        return h
    return h * (cap * rng.uniform(0.2, 1.0) / norm)


def random_psd(rng: np.random.Generator, dim: int, cap: float = 1.0) -> np.ndarray:
    g = complex_gaussian(rng, dim)
    p = g @ g.conj().T
    return p * (cap * rng.uniform(0.2, 1.0) / op_norm(p))


def random_dissipative(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random matrix with PSD imaginary part, bounded away from 0 in spectrum.

    Keeping 0 out of the spectrum keeps the Cayley image clear of
    eigenvalue 1.
    """
    for _ in range(64):
        l = random_hermitian(rng, dim, cap=2.0) + 1j * random_psd(rng, dim, cap=1.5)
        eigs = np.linalg.eigvals(l)
        if np.abs(eigs).min() > 1e-3:
            return l
    raise RuntimeError("failed to sample a well-separated dissipative matrix")


def random_analytic_polynomial(rng: np.random.Generator, max_deg: int, min_deg: int = 0):
    coeffs = random_coefficients(rng, max_deg - min_deg + 1)
    return TrigPolynomial({k + min_deg: c for k, c in enumerate(coeffs)})


def random_trig_polynomial(rng: np.random.Generator, max_abs: int):
    coeffs = random_coefficients(rng, 2 * max_abs + 1)
    return TrigPolynomial({k - max_abs: c for k, c in enumerate(coeffs)})


def random_linear_path(rng: np.random.Generator, dim: int) -> PerturbationPath:
    t0 = random_contraction(rng, dim)
    t1 = random_contraction(rng, dim)
    return PerturbationPath.linear(t0, t1 - t0)


def random_multiplicative_path(rng: np.random.Generator, dim: int) -> PerturbationPath:
    t0 = random_contraction(rng, dim)
    a = random_hermitian(rng, dim)
    return PerturbationPath.multiplicative(t0, a)
