"""Eigenmode expansion of the non-stationary exchange rate.

The full rate is X(t, f) = X*(T - t, f) + X_S(f), where the transient
part decays mode by mode:

    X*(tau, f) = (1 / cosh(beta f)) * sum_k c_k
                 * exp[-(Omega_k^2 + rho) tau] * sin(sqrt(2) Omega_k f / sigma).

The coefficients are the orthogonal projection

    c_k = -<X_S cosh(beta f), psi_k> / <psi_k, psi_k>,   psi_k = sin(u_k f / f_bar),

in the plain L2 inner product under which the Robin-condition sine modes
are orthogonal.  It makes the terminal condition X*(0, f) = -X_S(f) hold
exactly in the K -> infinity limit, so X(T, f) -> 0 (terminal parity).
Both inner products are elementary and evaluated in closed form.  A
:class:`TransientSolution` sums over the first ``len(coeffs)`` roots of its
spectrum, so ``dataclasses.replace(ts, coeffs=ts.coeffs[:k])`` is the k-mode
partial sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .params import ModelParams
from .spectral import Spectrum, build_spectrum
from .stationary import (
    StationarySolution,
    _check_band,
    _sine_moments,
    eval_stationary,
    solve_smooth_pasting,
)

__all__ = [
    "TransientSolution",
    "build_transient",
    "eval_transient",
    "eval_full",
    "surface",
]


@dataclass(frozen=True, eq=False)
class TransientSolution:
    """Coefficients over the first ``len(coeffs)`` spectrum roots, and the X_S they offset."""

    spectrum: Spectrum
    coeffs: np.ndarray
    stationary: StationarySolution

    def decay_rates(self) -> np.ndarray:
        """Omega_k^2 + rho, the per-mode exponential decay rates."""
        return self.spectrum.eigenvalues[: len(self.coeffs)] ** 2 + self.spectrum.params.rho()


def _u_values(spectrum: Spectrum, k: int) -> np.ndarray:
    p = spectrum.params
    return math.sqrt(2.0) * spectrum.eigenvalues[:k] * p.f_bar / p.sigma


def build_transient(params: ModelParams, K: int = 50) -> TransientSolution:
    """Spectrum, smooth-pasted X_S and all K coefficients of -X_S, from one ``params``."""
    spectrum = build_spectrum(params, K)
    sol = solve_smooth_pasting(params)
    us = _u_values(spectrum, K)
    # closed-form L2 norm of each mode: integral of sin(u f / f_bar)^2 over the band
    norms = params.f_bar * (1.0 - np.sin(2.0 * us) / (2.0 * us))
    coeffs = -_sine_moments(sol, us) / norms
    return TransientSolution(spectrum=spectrum, coeffs=coeffs, stationary=sol)


def _transient_rows(ts: TransientSolution, t_grid, f):
    """Check every time and every f, then return the rows X*(T - t, f), one per t.

    The sine basis sin(u_k f / f_bar) and cosh(beta f) are built once; each
    row keeps its own matrix-vector product, so it rounds as a one-row call.
    """
    p = ts.spectrum.params
    times = np.asarray(t_grid, dtype=float)
    if not np.all((0.0 <= times) & (times <= p.horizon_T * (1.0 + 1e-12))):
        raise DomainError("time outside [0, horizon_T]")
    arr = _check_band(ts.stationary, f)
    basis = np.sin(np.multiply.outer(arr, _u_values(ts.spectrum, len(ts.coeffs)) / p.f_bar))
    damp = np.cosh(p.beta * arr)
    rates = ts.decay_rates()
    return ((basis @ (np.exp(-rates * (p.horizon_T - t)) * ts.coeffs)) / damp for t in times)


def eval_transient(ts: TransientSolution, t: float, f):
    """Transient part X*(T - t, f); scalar t, scalar or array f."""
    (out,) = _transient_rows(ts, [float(t)], f)
    return float(out) if np.ndim(f) == 0 else out


def eval_full(ts: TransientSolution, t: float, f):
    """Full exchange rate X(t, f) = X*(T - t, f) + X_S(f)."""
    return eval_transient(ts, t, f) + eval_stationary(ts.stationary, f)


def surface(ts: TransientSolution, t_grid, f_grid) -> np.ndarray:
    """Matrix X(t_i, f_j), row-major by time."""
    times = np.asarray(t_grid, dtype=float)
    f = np.asarray(f_grid, dtype=float)
    base = eval_stationary(ts.stationary, f)
    out = np.empty((len(times), len(f)))
    for i, row in enumerate(_transient_rows(ts, times, f)):
        out[i] = row + base
    return out
