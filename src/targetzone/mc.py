"""Monte Carlo simulation of the regulated fundamental and its densities.

Paths follow a symmetrized Euler scheme: a predictor step

    F = f + b_hat(f) dt + sigma sqrt(dt) Z,

with the drift b evaluated in two Heun stages, is pushed back inside the
intervention radius whenever it escapes.  Two intervention styles are
supported: "law" clamps the overshooting predictor onto the trigger
boundary (leaning against the wind); "pure_reflection" mirrors the
overshoot back inside with one closed-form fold, which also covers
overshoots a single mirror would not bring back.  The trigger radius is
kappa * f_bar: kappa = 1 is marginal intervention at the band edge,
kappa < 1 intervenes intramarginally.

The drift comes in two representations of the mean-preserving-spread
force: "bernoulli" draws a single +-1 sign per path at t = 0 and uses the
constant drift beta * sign, "tanh" uses the state-dependent
beta * tanh(beta * f).  They are not equivalent in general: the Markov
projection of the Bernoulli drift is E[beta B | f] = beta tanh(beta f /
sigma^2), which matches the tanh drift only at sigma = 1.  Bernoulli is
the natural choice
against the free-space two-Gaussian-mixture oracle, tanh against the
closed-form reflected stationary density cosh(beta f)^(2/sigma^2).

Noise comes from one :class:`RngStream` per block of ``BLOCK`` = 256
paths, keyed by (seed, block index).  Each block draws its paths' normals
path-major, so path i's noise depends only on (seed, i): not on n_paths,
not on the thread count.  Ensembles are bit-reproducible, but a seeded
ensemble differs from the one versions with a stream per path drew at
the same seed.
"""

from __future__ import annotations

import functools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

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
# paths per noise stream; fixed, never derived from n_paths or threads
BLOCK = 256
# fewest histogram bins estimate_density accepts
MIN_BINS = 10
# values per eval_stationary call in exchange_paths: large enough to hide
# the per-call overhead, small enough for its temporaries to stay in cache
_XS_SLAB = 1 << 15


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

    def n_steps(self) -> int:
        """Steps over the horizon, at least one; dt must be finite and positive."""
        dt = self.resolved_dt()
        if not 0.0 < dt < math.inf:
            raise DomainError("dt must be positive and finite")
        return max(1, int(round(self.params.horizon_T / dt)))


def _validate_config(config: SimConfig) -> tuple[float, int]:
    validate(config.params)
    if config.n_paths < 1:
        raise DomainError("n_paths must be >= 1")
    if config.seed < 0:
        raise DomainError("seed must be >= 0")
    n_steps = config.n_steps()
    dt = config.resolved_dt()
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
    return dt, n_steps


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Simulated fundamentals and the count of interventions.

    ``fundamentals`` has shape (n_paths, n_steps + 1); ``n_interventions``
    counts the (path, step) pairs pushed back inside the trigger radius.
    """

    config: SimConfig
    times: np.ndarray
    fundamentals: np.ndarray
    n_interventions: int


def _fill_block(
    seed: int, block: int, buf: np.ndarray, signs: np.ndarray | None
) -> None:
    """Draw paths [block * BLOCK, ...) from stream (seed, block) into ``buf``.

    Signs come first and always a full block of them; the normals follow
    path-major, one row of n_steps per path.  Path i's draws are thus the
    same whether its block is full or the partial last one.
    """
    lo = block * BLOCK
    hi = min(lo + BLOCK, buf.shape[1])
    gen = RngStream(seed, block).generator()
    if signs is not None:
        signs[lo:hi] = np.where(gen.random(BLOCK)[: hi - lo] < 0.5, 1.0, -1.0)
    buf[1:, lo:hi] = gen.standard_normal((hi - lo, buf.shape[0] - 1)).T


def _reflect_into(values: np.ndarray, radius: float) -> np.ndarray:
    """Mirror overshoots back inside [-radius, radius], any number of folds.

    With m = floor((x + r) / 2r), x - 2rm lies in [-r, r); an odd m means
    an odd number of mirrors, so the sign flips.  One fold (m = +-1)
    gives +-2r - x, the single mirror, rounded the same way.
    """
    m = np.floor((values + radius) / (2.0 * radius))
    shift = 2.0 * radius * m
    return np.where(np.mod(m, 2.0) != 0.0, shift - values, values - shift)


def simulate(config: SimConfig, *, threads: int = 1) -> PathEnsemble:
    """Simulate the regulated fundamental; bit-identical for any thread count.

    Threads map over the 256-path noise blocks, each drawn from stream
    (seed, block), so path i's noise is the same for any n_paths and any
    thread count.  The time stepping runs over all paths at once, one
    contiguous time row per step.
    """
    dt, n_steps = _validate_config(config)
    p = config.params
    times = np.arange(n_steps + 1) * dt
    n = config.n_paths
    bernoulli = config.drift_mode == "bernoulli"

    # time-major buffer: row j + 1 holds step j's normals until the step
    # overwrites it with the state, so every step reads and writes one
    # contiguous row; fundamentals is its (n_paths, n_steps + 1) transpose
    buf = np.empty((n_steps + 1, n))
    buf[0] = 0.0
    signs = np.empty(n) if bernoulli else None
    n_blocks = -(-n // BLOCK)
    fill = functools.partial(_fill_block, config.seed, buf=buf, signs=signs)
    if threads <= 1 or n_blocks < 2:
        for block in range(n_blocks):
            fill(block)
    else:
        with ThreadPoolExecutor(max_workers=min(threads, n_blocks)) as pool:
            list(pool.map(fill, range(n_blocks)))

    radius = config.kappa * p.f_bar
    sig_dt = p.sigma * math.sqrt(dt)
    beta = p.beta

    n_interventions = 0
    for j in range(n_steps):
        f = buf[j]
        if bernoulli:
            drift = beta * signs
        else:
            b1 = beta * np.tanh(beta * f)
            b2 = beta * np.tanh(beta * (f + b1 * dt))
            drift = 0.5 * (b1 + b2)
        pred = buf[j + 1]
        pred *= sig_dt
        pred += f + drift * dt
        idx = np.flatnonzero(np.abs(pred) > radius)
        if idx.size:
            n_interventions += idx.size
            if config.intervention == "law":
                pred[idx] = np.clip(pred[idx], -radius, radius)
            else:
                pred[idx] = _reflect_into(pred[idx], radius)

    return PathEnsemble(
        config=config,
        times=times,
        fundamentals=buf.T,
        n_interventions=n_interventions,
    )


def exchange_paths(ensemble: PathEnsemble, transient: TransientSolution) -> np.ndarray:
    """Exchange-rate paths X(t, f_t) = X*(T - t, f_t) + X_S(f_t).

    Mode k of the transient is bounded by a_k = |c_k| exp(-(Omega_k^2 +
    rho)(T - t)), since |sin| / cosh(beta f) <= 1.  Each time slice keeps
    the shortest prefix of modes whose dropped bounds sum to at most
    1e-16, and evaluates only those; for fast expectation updating that
    prefix is empty, and the transient skipped, on every slice except the
    last few before the horizon.
    """
    p = transient.spectrum.params
    if ensemble.config.params != p:
        raise DomainError("ensemble and transient solution must share params")
    rows = ensemble.fundamentals.T
    out = np.empty_like(rows)
    # X_S is pointwise: evaluate it over slabs of whole time rows
    slab = max(1, _XS_SLAB // rows.shape[1])
    for j in range(0, len(rows), slab):
        out[j : j + slab] = eval_stationary(transient.stationary, rows[j : j + slab])
    times = np.minimum(ensemble.times, p.horizon_T)
    bounds = np.abs(transient.coeffs) * np.exp(
        -np.multiply.outer(p.horizon_T - times, transient.decay_rates())
    )
    # dropped[j, k]: bound of what modes k.. add to slice j
    dropped = np.cumsum(bounds[:, ::-1], axis=1)[:, ::-1]
    kept = np.count_nonzero(dropped > 1e-16, axis=1)
    spectrum = transient.spectrum
    for j in np.flatnonzero(kept):
        k = kept[j]
        modes = replace(spectrum, eigenvalues=spectrum.eigenvalues[:k],
                        brackets=spectrum.brackets[:k])
        view = replace(transient, coeffs=transient.coeffs[:k], spectrum=modes)
        out[j] += eval_transient(view, float(times[j]), rows[j])
    return out.T


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """Binned density, trapezoid-normalized over the bin centers."""

    bin_edges: np.ndarray
    density: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

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
    if n_bins < MIN_BINS:
        raise DomainError(f"n_bins must be >= {MIN_BINS}")
    counts, edges = np.histogram(arr, bins=n_bins, range=value_range)
    if counts.sum() == 0:
        raise DomainError("no values fall inside value_range")
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    density = counts / (counts.sum() * widths)
    density = density / np.trapezoid(density, centers)
    return DensityEstimate(bin_edges=edges, density=density)


def _local_maxima(d: np.ndarray) -> np.ndarray:
    """Positive bins as high as both neighbors and higher than one (ends face -inf)."""
    padded = np.concatenate(([-np.inf], d, [-np.inf]))
    left, right = padded[:-2], padded[2:]
    peak = (d >= left) & (d >= right) & ((d > left) | (d > right))
    return np.flatnonzero(peak & (d > 0.0))


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
    edge_peaks = maxima[edge_region[maxima]]
    inner_peaks = maxima[~edge_region[maxima]]
    if edge_peaks.size and inner_peaks.size:
        e = edge_peaks[np.argmax(dens[edge_peaks])]
        c = inner_peaks[np.argmax(dens[inner_peaks])]
        valley = dens[min(e, c) : max(e, c) + 1].min()
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
