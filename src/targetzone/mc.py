"""Monte Carlo simulation of the regulated fundamental and its densities.

Paths follow a symmetrized Euler scheme: a predictor step

    F = f + b_hat(f) dt + sigma sqrt(dt) Z,

with the drift b evaluated in two Heun stages, is pushed back inside the
intervention radius whenever it escapes.  Two intervention styles are
supported: "law" clamps the overshooting predictor onto the trigger
boundary (leaning against the wind); "pure_reflection" mirrors the
overshoot back inside, iterating the reflection when a single fold does
not suffice.  The trigger radius is kappa * f_bar: kappa = 1 is marginal
intervention at the band edge, kappa < 1 intervenes intramarginally.

The drift comes in two representations of the mean-preserving-spread
force: "bernoulli" draws a single +-1 sign per path at t = 0 and uses the
constant drift beta * sign, "tanh" uses the state-dependent
beta * tanh(beta * f).  They are not equivalent in general: the Markov
projection of the Bernoulli drift is E[beta B | f] = beta tanh(beta f /
sigma^2), which matches the tanh drift only at sigma = 1.  Bernoulli is
the natural choice
against the free-space two-Gaussian-mixture oracle, tanh against the
closed-form reflected stationary density cosh(beta f)^(2/sigma^2).

Every path owns an :class:`RngStream` keyed by (seed, path index), so
ensembles are bit-reproducible and independent of thread count.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .params import ModelParams, RngStream, validate
from .stationary import eval_stationary
from .transient import TransientSolution, eval_transient

__all__ = [
    "SimConfig",
    "PathEnsemble",
    "DensityEstimate",
    "simulate",
    "exchange_paths",
    "estimate_density",
    "classify_shape",
]

DRIFT_MODES = ("bernoulli", "tanh")
INTERVENTIONS = ("law", "pure_reflection")


@dataclass(frozen=True)
class SimConfig:
    """Simulation inputs; dt defaults to the expectation-update time 1/alpha."""

    params: ModelParams
    n_paths: int = 5000
    dt: float | None = None
    drift_mode: str = "tanh"
    intervention: str = "pure_reflection"
    seed: int = 0
    kappa: float = 0.9

    def resolved_dt(self) -> float:
        return 1.0 / self.params.alpha if self.dt is None else self.dt


def _validate_config(config: SimConfig) -> float:
    validate(config.params)
    if config.n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    dt = config.resolved_dt()
    if dt <= 0.0:
        raise DomainError("dt must be positive")
    if config.drift_mode not in DRIFT_MODES:
        raise DomainError(f"unknown drift_mode {config.drift_mode!r}")
    if config.intervention not in INTERVENTIONS:
        raise DomainError(f"unknown intervention {config.intervention!r}")
    if not 0.0 < config.kappa <= 1.0:
        raise DomainError("kappa must lie in (0, 1]")
    ratio = dt * config.params.alpha
    if not 0.5 <= ratio <= 2.0:
        warnings.warn(
            f"dt*alpha = {ratio:.3g} outside [0.5, 2]; the step no longer "
            "matches the expectation-update frequency",
            stacklevel=3,
        )
    return dt


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Simulated fundamentals plus the intervention log.

    ``fundamentals`` has shape (n_paths, n_steps + 1); interventions are
    stored flat as parallel arrays (path index, time, overshoot beyond
    the trigger radius before projection).
    """

    config: SimConfig
    times: np.ndarray
    fundamentals: np.ndarray
    intervention_paths: np.ndarray
    intervention_times: np.ndarray
    intervention_overshoots: np.ndarray
    bernoulli_signs: np.ndarray | None

    def interventions(self, path: int) -> list[tuple[float, float]]:
        """(time, overshoot) events of one path, in time order."""
        mask = self.intervention_paths == path
        return list(
            zip(self.intervention_times[mask], self.intervention_overshoots[mask])
        )

    @property
    def n_interventions(self) -> int:
        return len(self.intervention_times)


def _path_noise(seed: int, path_ids: np.ndarray, n_steps: int, bernoulli: bool):
    """Per-path normals (and leading sign draw) from each path's own stream."""
    z = np.empty((len(path_ids), n_steps))
    signs = np.empty(len(path_ids)) if bernoulli else None
    for row, pid in enumerate(path_ids):
        gen = RngStream(seed, int(pid)).generator()
        if bernoulli:
            signs[row] = 1.0 if gen.random() < 0.5 else -1.0
        z[row] = gen.standard_normal(n_steps)
    return z, signs


def _reflect_into(values: np.ndarray, radius: float) -> np.ndarray:
    """Mirror overshoots back inside [-radius, radius], folding repeatedly."""
    out = values
    for _ in range(64):
        outside = (out > radius) | (out < -radius)
        if not outside.any():
            return out
        out = np.where(out > radius, 2.0 * radius - out, out)
        out = np.where(out < -radius, -2.0 * radius - out, out)
    # analytic fold for pathological overshoots (period 4*radius)
    period = 4.0 * radius
    y = np.mod(out + radius, period)
    return np.where(y <= 2.0 * radius, y - radius, 3.0 * radius - y)


def simulate(
    config: SimConfig,
    transient: TransientSolution | None = None,
    *,
    threads: int = 1,
) -> PathEnsemble:
    """Simulate the regulated fundamental; bit-identical for any thread count.

    Threads only split the per-path noise generation into chunks; the
    vectorized time stepping itself is deterministic.
    """
    dt = _validate_config(config)
    if transient is not None and transient.spectrum.params != config.params:
        raise DomainError("transient solution and simulation must share params")
    p = config.params
    n_steps = max(1, int(round(p.horizon_T / dt)))
    times = np.arange(n_steps + 1) * dt
    n = config.n_paths
    bernoulli = config.drift_mode == "bernoulli"

    path_ids = np.arange(n)
    if threads <= 1 or n < 2 * threads:
        z, signs = _path_noise(config.seed, path_ids, n_steps, bernoulli)
    else:
        chunks = np.array_split(path_ids, threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(
                    lambda ids: _path_noise(config.seed, ids, n_steps, bernoulli),
                    chunks,
                )
            )
        z = np.vstack([part[0] for part in parts])
        signs = np.concatenate([part[1] for part in parts]) if bernoulli else None

    radius = config.kappa * p.f_bar
    sig_dt = p.sigma * math.sqrt(dt)
    beta = p.beta

    funds = np.empty((n, n_steps + 1))
    funds[:, 0] = 0.0
    ev_paths: list[np.ndarray] = []
    ev_times: list[np.ndarray] = []
    ev_over: list[np.ndarray] = []

    f = np.zeros(n)
    for j in range(n_steps):
        if bernoulli:
            drift = beta * signs
        else:
            b1 = beta * np.tanh(beta * f)
            b2 = beta * np.tanh(beta * (f + b1 * dt))
            drift = 0.5 * (b1 + b2)
        pred = f + drift * dt + sig_dt * z[:, j]
        outside = np.abs(pred) > radius
        if outside.any():
            idx = np.nonzero(outside)[0]
            ev_paths.append(idx)
            ev_times.append(np.full(idx.size, times[j + 1]))
            ev_over.append(np.abs(pred[idx]) - radius)
            if config.intervention == "law":
                pred = np.clip(pred, -radius, radius)
            else:
                pred = _reflect_into(pred, radius)
        f = pred
        funds[:, j + 1] = f

    if ev_paths:
        ipaths = np.concatenate(ev_paths)
        itimes = np.concatenate(ev_times)
        iover = np.concatenate(ev_over)
    else:
        ipaths = np.empty(0, dtype=int)
        itimes = np.empty(0)
        iover = np.empty(0)
    return PathEnsemble(
        config=config,
        times=times,
        fundamentals=funds,
        intervention_paths=ipaths,
        intervention_times=itimes,
        intervention_overshoots=iover,
        bernoulli_signs=signs,
    )


def exchange_paths(ensemble: PathEnsemble, transient: TransientSolution) -> np.ndarray:
    """Exchange-rate paths X(t, f_t) = X*(T - t, f_t) + X_S(f_t).

    The transient part is skipped wherever its worst-case amplitude has
    decayed below 1e-16, which for fast expectation updating is every
    time slice except the last few before the horizon.
    """
    p = transient.spectrum.params
    if ensemble.config.params != p:
        raise DomainError("ensemble and transient solution must share params")
    rates = transient.decay_rates()
    amps = np.abs(transient.coeffs)
    funds = ensemble.fundamentals
    out = np.empty_like(funds)
    for j, t in enumerate(ensemble.times):
        t = min(float(t), p.horizon_T)
        col = funds[:, j]
        out[:, j] = eval_stationary(transient.stationary, col)
        tail = float(np.sum(amps * np.exp(-rates * (p.horizon_T - t))))
        if tail > 1e-16:
            out[:, j] += eval_transient(transient, t, col)
    return out


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """Binned density, trapezoid-normalized over the bin centers."""

    bin_edges: np.ndarray
    density: np.ndarray
    n_bins: int

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def interpolate(self, x) -> np.ndarray:
        """Linear interpolation between bin centers."""
        return np.interp(x, self.centers, self.density)

    def bin_masses(self) -> np.ndarray:
        """Per-bin probabilities, renormalized to sum to one."""
        widths = np.diff(self.bin_edges)
        mass = self.density * widths
        return mass / mass.sum()


def estimate_density(
    values, n_bins: int = 61, value_range: tuple[float, float] | None = None
) -> DensityEstimate:
    """Histogram density over equal-width bins.

    Bins span the observed range unless ``value_range`` pins them (the
    band, say, so that densities of different scenarios share an axis).
    The result is normalized so the trapezoid rule over bin centers
    integrates to one.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise DomainError("estimate_density needs at least one value")
    if n_bins < 10:
        raise DomainError("n_bins must be >= 10")
    counts, edges = np.histogram(arr, bins=n_bins, range=value_range)
    if counts.sum() == 0:
        raise DomainError("no values fall inside value_range")
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    density = counts / (counts.sum() * widths)
    density = density / np.trapezoid(density, centers)
    return DensityEstimate(bin_edges=edges, density=density, n_bins=n_bins)


def _local_maxima(d: np.ndarray) -> np.ndarray:
    """Indices that top both neighbors (ends count against one neighbor)."""
    idx = []
    n = len(d)
    for i in range(n):
        left = d[i - 1] if i > 0 else -np.inf
        right = d[i + 1] if i < n - 1 else -np.inf
        if d[i] > left and d[i] >= right and d[i] > 0.0:
            idx.append(i)
        elif d[i] >= left and d[i] > right and d[i] > 0.0:
            idx.append(i)
    return np.unique(np.asarray(idx, dtype=int))


def classify_shape(d: DensityEstimate) -> str:
    """Deterministic shape call: dirac_like, two_regime, u_shaped, or hump.

    Rules, applied in that priority order over the binned range:

    * dirac_like: more than 60% of the mass within the central 5%.
    * two_regime: local maxima both in the interior and within the outer
      10% (the band edges), each exceeding 1.2x the minimum between them.
    * u_shaped: outer-decile mean density > 1.5x central-decile mean.
    * hump: central-decile mean density > 1.5x outer-decile mean.

    Anything else is reported as "ambiguous", never silently defaulted.
    """
    edges, dens = d.bin_edges, d.density
    lo, hi = float(edges[0]), float(edges[-1])
    span = hi - lo
    if span <= 0.0 or not np.all(np.isfinite(dens)) or np.any(dens < 0.0):
        raise DomainError("density estimate is not a valid normalized density")
    centers = d.centers
    mass = d.bin_masses()
    mid = 0.5 * (lo + hi)

    central_5 = np.abs(centers - mid) <= 0.025 * span
    if mass[central_5].sum() > 0.60:
        return "dirac_like"

    edge_region = (centers - lo <= 0.10 * span) | (hi - centers <= 0.10 * span)
    maxima = _local_maxima(dens)
    if maxima.size:
        edge_peaks = [i for i in maxima if edge_region[i]]
        inner_peaks = [i for i in maxima if not edge_region[i]]
        if edge_peaks and inner_peaks:
            e = max(edge_peaks, key=lambda i: dens[i])
            c = max(inner_peaks, key=lambda i: dens[i])
            a, b = sorted((e, c))
            valley = dens[a : b + 1].min()
            if dens[e] > 1.2 * valley and dens[c] > 1.2 * valley:
                return "two_regime"

    # outer decile = outermost 5% of the range at each end (10% in total),
    # mirroring the central decile around the midpoint
    outer_decile = (centers - lo <= 0.05 * span) | (hi - centers <= 0.05 * span)
    central_decile = np.abs(centers - mid) <= 0.05 * span
    outer_mean = dens[outer_decile].mean() if outer_decile.any() else 0.0
    central_mean = dens[central_decile].mean() if central_decile.any() else 0.0
    if outer_mean > 1.5 * central_mean:
        return "u_shaped"
    if central_mean > 1.5 * outer_mean:
        return "hump"
    return "ambiguous"
