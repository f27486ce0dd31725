"""Finite-horizon exchange-rate target-zone model with non-Gaussian risk.

Closed-form stationary and transient solutions, eigenvalue spectra and
relaxation-time feasibility analysis, regime-shift detection, honeymoon
contact-point analysis, and Monte Carlo simulation of the regulated
fundamental with intervention policies and density estimation.
"""

from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    NumericalError,
    PoleError,
    SingularSystemError,
    ValidationError,
)
from .honeymoon import ContactReport, classify_honeymoon
from .mc import (
    DensityEstimate,
    PathEnsemble,
    SimConfig,
    classify_shape,
    estimate_density,
    exchange_paths,
    simulate,
)
from .params import ModelParams, RngStream, uniform_grid
from .specfun import kummer_1f1
from .spectral import (
    FeasibilityReport,
    Spectrum,
    build_spectrum,
    eigen_residual,
    ou_asymptotic_spectrum,
    regime_scan,
    regime_threshold,
    relaxation_time,
    soft_attractive_spectrum,
    spread_coefficient,
)
from .stationary import (
    OUStationary,
    StationarySolution,
    eval_stationary,
    eval_stationary_derivatives,
    ou_stationary,
    solve_smooth_pasting,
    stationary_ode_residual,
)
from .transient import (
    TransientSolution,
    build_transient,
    eval_full,
    eval_transient,
    surface,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "ContactReport",
    "ConvergenceError",
    "DensityEstimate",
    "DomainError",
    "FeasibilityReport",
    "ModelParams",
    "NumericalError",
    "OUStationary",
    "PathEnsemble",
    "PoleError",
    "RngStream",
    "SimConfig",
    "SingularSystemError",
    "Spectrum",
    "StationarySolution",
    "TransientSolution",
    "ValidationError",
    "build_spectrum",
    "build_transient",
    "classify_honeymoon",
    "classify_shape",
    "eigen_residual",
    "estimate_density",
    "eval_full",
    "eval_stationary",
    "eval_stationary_derivatives",
    "eval_transient",
    "exchange_paths",
    "kummer_1f1",
    "ou_asymptotic_spectrum",
    "ou_stationary",
    "regime_scan",
    "regime_threshold",
    "relaxation_time",
    "simulate",
    "soft_attractive_spectrum",
    "solve_smooth_pasting",
    "spread_coefficient",
    "stationary_ode_residual",
    "surface",
    "uniform_grid",
]
