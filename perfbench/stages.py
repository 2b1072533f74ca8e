"""Stage timings in isolation at fixed sizes, median of ``REPEATS`` runs.

Sizes: dimension 4 at dilation degree 8 (the largest degree a campaign
op uses: degree 6 plus the default margin of 2) and at degree 36 (the
resolvent degree).  Inputs come from the workload seed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from specshift import dilation, semispectral, shift
from specshift.paths import PerturbationPath

SIZES = ((4, 8), (4, 36))
REPEATS = 3
STAGES = (
    "dilation.n_dilation",
    "semispectral.spectral_cdf_unitary",
    "semispectral.semispectral_cdf",
    "semispectral.moment_residual",
    "shift.shift_step_representation",
    "shift.RealLineShift.pairing_realline",
    "shift.eta_moment_linear",
    "shift.eta_tilde_moments_mult",
)


def metric_names() -> list[str]:
    return [f"{stage}.d{d}-n{n}.ms" for d, n in SIZES for stage in STAGES]


def _contraction(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g / (1.1 * np.linalg.norm(g, 2))


def _median_ms(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def stage_timings(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4242]))
    out = {}
    for d, n in SIZES:
        t0, t1 = _contraction(rng, d), _contraction(rng, d)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = 0.5 * (g + g.conj().T)
        line_path = PerturbationPath.linear(t0, t1 - t0)
        mult_path = PerturbationPath.multiplicative(t0, a / np.linalg.norm(a, 2))
        u = dilation.n_dilation(t0, n).unitary
        cdf = semispectral.semispectral_cdf(t0, n)
        step = shift.shift_step_representation(line_path, max_power=n, degree=n)
        line = shift.RealLineShift(step, grid=4096)

        def weight(lam, z=-2j):
            lam = np.asarray(lam, dtype=np.complex128)
            return 2.0 * (1.0 + lam * z) / (lam - z) ** 3

        bodies = {
            "dilation.n_dilation": lambda: dilation.n_dilation(t0, n),
            "semispectral.spectral_cdf_unitary": lambda: semispectral.spectral_cdf_unitary(u),
            "semispectral.semispectral_cdf": lambda: semispectral.semispectral_cdf(t0, n),
            "semispectral.moment_residual": lambda: semispectral.moment_residual(cdf, t0, n),
            "shift.shift_step_representation": lambda: shift.shift_step_representation(
                line_path, max_power=n, degree=n
            ),
            "shift.RealLineShift.pairing_realline": lambda: line.pairing_realline(weight),
            "shift.eta_moment_linear": lambda: shift.eta_moment_linear(line_path, n),
            "shift.eta_tilde_moments_mult": lambda: shift.eta_tilde_moments_mult(
                mult_path, range(1, n + 1)
            ),
        }
        for stage in STAGES:
            out[f"{stage}.d{d}-n{n}.ms"] = _median_ms(bodies[stage])
    return out
