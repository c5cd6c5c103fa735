"""Numerical library for the elliptic sinh-Gordon and sine-Gordon equations.

Provides closed-form solution catalogs, quartic-profile ODE integration,
the first-order transformation between the two equations by quadrature,
harmonic-map construction into the hyperbolic upper half-plane, and
finite-difference verification of every construction.
"""

from .grid import (
    ComplexField,
    Grid2D,
    NumericalError,
    ScalarField,
    complex_field,
    cumulative_integral_x,
    cumulative_integral_y,
    field,
    laplacian,
    make_grid,
    partial_x,
    partial_y,
    wirtinger,
)
from .profiles import (
    QuarticProfile,
    SampledProfile,
    assemble_tan_family,
    assemble_tanh_family,
    integrate_profile,
    tan_family_profiles,
    tanh_family_profiles,
)
from .families import (
    CATALOG,
    FAMILY_IDS,
    MetricSample,
    SolutionFamily,
    eval_family,
    get_family,
    hopf_weight,
    make_metric,
    residual_sine_gordon,
    residual_sinh_gordon,
    sign_probe,
)
from .backlund import (
    BacklundPair,
    backlund_residuals,
    closed_form_w_tanh,
    theta_to_w,
    w_to_theta,
)
from .harmonic import (
    HarmonicMapResult,
    correspondence_check,
    gaussian_curvature,
    hopf_residual,
    ppfd_construct,
    pullback_metric,
)
from .report import CheckResult, VerificationReport
from .acceptance import run_acceptance

__version__ = "0.1.0"

__all__ = [
    "BacklundPair",
    "CATALOG",
    "CheckResult",
    "ComplexField",
    "FAMILY_IDS",
    "Grid2D",
    "HarmonicMapResult",
    "MetricSample",
    "NumericalError",
    "QuarticProfile",
    "SampledProfile",
    "ScalarField",
    "SolutionFamily",
    "VerificationReport",
    "assemble_tan_family",
    "assemble_tanh_family",
    "backlund_residuals",
    "closed_form_w_tanh",
    "complex_field",
    "correspondence_check",
    "cumulative_integral_x",
    "cumulative_integral_y",
    "eval_family",
    "field",
    "gaussian_curvature",
    "get_family",
    "hopf_residual",
    "hopf_weight",
    "integrate_profile",
    "laplacian",
    "make_grid",
    "make_metric",
    "partial_x",
    "partial_y",
    "ppfd_construct",
    "pullback_metric",
    "residual_sine_gordon",
    "residual_sinh_gordon",
    "run_acceptance",
    "sign_probe",
    "tan_family_profiles",
    "tanh_family_profiles",
    "theta_to_w",
    "w_to_theta",
    "wirtinger",
]
