"""Eigenmode expansion of the non-stationary exchange rate.

The full rate is X(t, f) = X*(T - t, f) + X_S(f), where the transient
part decays mode by mode:

    X*(tau, f) = (1 / cosh(beta f)) * sum_k c_k
                 * exp[-(sigma^2 u_k^2 / (2 f_bar^2) + rho) tau] * sin(u_k f / f_bar),

with u_k the roots of u cot(u) = beta f_bar tanh(beta f_bar) that the
spectrum stores.  The coefficients are the orthogonal projection

    c_k = -<X_S cosh(beta f), psi_k> / <psi_k, psi_k>,   psi_k = sin(u_k f / f_bar),

in the plain L2 inner product under which the Robin-condition sine modes
are orthogonal.  It makes the terminal condition X*(0, f) = -X_S(f) hold
exactly in the K -> infinity limit, so X(T, f) -> 0 (terminal parity).
Both inner products are elementary and evaluated in closed form.  A
:class:`TransientSolution` sums over the first ``len(coeffs)`` roots of its
spectrum, so ``dataclasses.replace(ts, coeffs=ts.coeffs[:k])`` is the k-mode
partial sum.

Each time row sums only the modes that can still move it: the shortest
prefix whose dropped bounds |c_k| exp(-(Omega_k^2 + rho)(T - t)) add up to
at most 1e-15 sum_k |c_k|, a cut relative to the solution's own size (see
``_kept_modes``).  The Monte Carlo skips the transient where it keeps none.

The n x k sine basis sin(u_k f / f_bar), as wide as the widest row's prefix,
is most of an evaluation's cost, so ``surface`` keeps its basis in the
solution's one private slot: ``eval_full`` after ``surface`` on one grid
builds no second basis.  The slot keys on the width and the grid's shape and
bytes (a grid changed in place, or whose 0.0 became -0.0, is rebuilt).  A
hit hands the basis over and leaves the slot empty, and no other evaluator
keeps one, so a basis is reused at most once and dies with its solution.  No
CLI command evaluates one solution twice on one grid: the slot speeds up none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    # {(width, shape, bytes) of a grid: its basis}, at most one entry; see _sine_basis
    _slot: dict = field(default_factory=dict, init=False, repr=False)

    def decay_rates(self) -> np.ndarray:
        """Omega_k^2 + rho, the per-mode exponential decay rates."""
        return self.spectrum.eigenvalues[: len(self.coeffs)] ** 2 + self.spectrum.params.rho()


def build_transient(params: ModelParams, K: int = 50) -> TransientSolution:
    """Spectrum, smooth-pasted X_S and all K coefficients of -X_S, from one ``params``.

    Raises :class:`DomainError` where f_bar is so small that the closed-form
    moments or decay rates of the K modes, which grow with u_K / f_bar, overflow.
    """
    spectrum = build_spectrum(params, K)
    sol = solve_smooth_pasting(params)
    us = spectrum.u
    # closed-form L2 norm of each mode: integral of sin(u f / f_bar)^2 over the band
    norms = params.f_bar * (1.0 - np.sin(2.0 * us) / (2.0 * us))
    try:
        with np.errstate(over="raise"):
            coeffs = -_sine_moments(sol, us) / norms
            ts = TransientSolution(spectrum=spectrum, coeffs=coeffs, stationary=sol)
            ts.decay_rates()  # evaluated for the overflow check only
    except FloatingPointError:
        raise DomainError(f"f_bar = {params.f_bar:g} too small: the moments or decay rates "
                          f"of {K} modes overflow") from None
    return ts


def _kept_modes(ts: TransientSolution, times: np.ndarray) -> np.ndarray:
    """Modes the row X*(T - t, .) sums, for each t of ``times`` (at most the horizon).

    Mode k is bounded by a_k = |c_k| exp(-(Omega_k^2 + rho)(T - t)), since
    |sin| / cosh(beta f) <= 1; a row keeps the shortest prefix of modes whose
    dropped bounds sum to at most 1e-15 sum_k |c_k|.  That sum is the
    solution's own scale: it bounds |X*(0, .)|, which is |X_S| up to
    truncation, so the cut is relative at every f_bar.
    """
    amps = np.abs(ts.coeffs)
    bounds = amps * np.exp(-np.multiply.outer(ts.spectrum.params.horizon_T - times, ts.decay_rates()))
    # dropped[j, k]: bound of what modes k.. add to row j
    dropped = np.cumsum(bounds[:, ::-1], axis=1)[:, ::-1]
    # row by row: count_nonzero(axis=1) sums a bool array, whose code no other
    # transient evaluation loads (64 kB more resident memory in a process)
    return np.array([np.count_nonzero(row) for row in dropped > 1e-15 * amps.sum()], dtype=np.intp)


def _sine_basis(ts: TransientSolution, arr: np.ndarray, width: int | None = None,
                keep: bool = False) -> np.ndarray:
    """The read-only basis sin(u_k f / f_bar) over ``arr`` and the first ``width`` modes (default all).

    It is taken from ``ts``'s slot when ``width`` and ``arr`` match its key; a hit
    empties the slot.  On a miss the old basis is let go before the new one fills
    one buffer in place (a second buffer, or the old basis kept through the build,
    costs page faults and RSS).  With ``keep`` the basis stays for the next call.
    """
    width = len(ts.coeffs) if width is None else width
    key = (width, arr.shape, arr.tobytes())
    basis = ts._slot.pop(key, None)
    if basis is None:
        ts._slot.clear()
        basis = np.multiply.outer(arr, ts.spectrum.u[:width] / ts.spectrum.params.f_bar)
        np.sin(basis, out=basis)
        basis.flags.writeable = False
    if keep:
        ts._slot[key] = basis
    return basis


def _transient_rows(ts: TransientSolution, t_grid, f, keep: bool = False):
    """Check every time and every f, then return the rows X*(T - t, f), one per t.

    Each row sums only its ``_kept_modes``, counted before the basis exists so that no
    times x K array lives beside it.  The basis, as wide as the widest row needs, and
    cosh(beta f) are built once, and each row's own product rounds as a one-row call.
    """
    p = ts.spectrum.params
    times = np.asarray(t_grid, dtype=float)
    if not np.all((0.0 <= times) & (times <= p.horizon_T * (1.0 + 1e-12))):
        raise DomainError("time outside [0, horizon_T]")
    arr = _check_band(ts.stationary, f)
    kept = _kept_modes(ts, times)
    basis = _sine_basis(ts, arr, int(kept.max(initial=0)), keep)
    damp = np.cosh(p.beta * arr)
    rates = ts.decay_rates()
    return ((basis[..., :k] @ (np.exp(-rates[:k] * (p.horizon_T - t)) * ts.coeffs[:k])) / damp
            for t, k in zip(times, kept))


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
    for i, row in enumerate(_transient_rows(ts, times, f, keep=True)):
        out[i] = row + base
    return out
