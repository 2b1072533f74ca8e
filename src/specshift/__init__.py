"""Second-order spectral shift functions for contraction, self-adjoint and
dissipative pairs, with every identity verified along independent routes."""

from .opcore import (
    DefectPair,
    NotAContractionError,
    TrigPolynomial,
    apply_function,
    as_operator,
    defects,
    hermitian_exp,
    hs_norm,
    is_contraction,
    is_hermitian,
    is_unitary,
    op_norm,
    power_ladder,
    signed_powers,
)
from .paths import PerturbationPath
from .dilation import (
    DilationError,
    NDilation,
    hs_difference_schaffer,
    n_dilation,
    schaffer_window,
)
from .semispectral import (
    MomentConsistencyError,
    SemiSpectralCDF,
    moment_residual,
    semispectral_cdf,
    semispectral_cdfs,
    spectral_cdf_unitary,
)
from .shift import (
    PipelineError,
    RealLineShift,
    StepFunction,
    eta_moment_linear,
    eta_tilde_moments_mult,
    gamma_pipeline,
    mode_integrals,
    mobius_polynomial_flux,
    quotient_bound_test,
    shift_step_representation,
    verify_trace_formula_linear,
    verify_trace_formula_mult,
)
from .cayley import (
    DegenerateTransformError,
    DissipativePair,
    SelfAdjointPair,
    cayley_dissipative,
    cayley_sa,
    resolvent_pipeline,
    verify_dissipative_formula,
    verify_resolvent_formula,
    verify_selfadjoint_formula,
)
from .truncate import ProjectionSequence, build_projections, reduction_diagnostics, truncation_gap
from .quadrature import QuadratureError, adaptive_gk15, gauss_legendre_01
from .report import VerificationReport

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
