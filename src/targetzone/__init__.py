"""Finite-horizon exchange-rate target-zone model with non-Gaussian risk.

Closed-form stationary and transient solutions, eigenvalue spectra and
relaxation-time feasibility analysis, regime-shift detection, honeymoon
contact-point analysis, and Monte Carlo simulation of the regulated
fundamental with intervention policies and density estimation.

Importing the package loads no submodule: each public name, and each
submodule, is imported on first access (PEP 562), so a CLI run loads only
what its command uses.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": (
        "BracketError",
        "ConvergenceError",
        "DomainError",
        "NumericalError",
        "PoleError",
        "SingularSystemError",
        "ValidationError",
    ),
    "honeymoon": ("ContactReport", "classify_honeymoon"),
    "mc": (
        "DensityEstimate",
        "PathEnsemble",
        "SimConfig",
        "classify_shape",
        "estimate_density",
        "exchange_density",
        "exchange_paths",
        "simulate",
    ),
    "params": ("ModelParams", "RngStream", "uniform_grid"),
    "specfun": ("kummer_1f1",),
    "spectral": (
        "FeasibilityReport",
        "Spectrum",
        "build_spectrum",
        "eigen_residual",
        "ou_asymptotic_spectrum",
        "regime_scan",
        "regime_threshold",
        "relaxation_time",
        "soft_attractive_spectrum",
        "spread_coefficient",
    ),
    "stationary": (
        "OUStationary",
        "StationarySolution",
        "eval_stationary",
        "eval_stationary_derivatives",
        "ou_stationary",
        "solve_smooth_pasting",
        "stationary_ode_residual",
    ),
    "transient": (
        "TransientSolution",
        "build_transient",
        "eval_full",
        "eval_transient",
        "surface",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "roots"}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    """Import a public name's submodule, or a submodule, on first access."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
