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

Noise comes from one numpy stream per block of ``BLOCK`` = 256 paths:
block b draws from ``default_rng(SeedSequence(seed, spawn_key=(b,)))``,
so equal (seed, b) give equal draws and distinct b independent ones.
Each block draws its paths' normals path-major, so path i's noise depends
only on (seed, i): not on n_paths, not on the thread count.  Ensembles
are bit-reproducible, but a seeded ensemble differs from the one versions
with a stream per path drew at the same seed.

:func:`exchange_density` equals :func:`estimate_density` of
:func:`exchange_paths` bit for bit without building X, by one route:
where X = X_S(f), a lookup table over 2^14 uniform f-cells bins f, and
every value in a cell it leaves undecided (all of them where X_S is not
strictly increasing) is mapped once, in batches of up to 2^13 values
gathered from slabs of about 2^15.  Late columns, those where the
transient's mode cut (``transient._kept_modes``) keeps any mode, are
mapped one at a time from the horizon back: the last column keeps the
most modes, so its sine basis, the widest, is built before an observed
range has kept any late value.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .params import ModelParams, _check_count
from .stationary import _eval_error_bound, eval_stationary
from .transient import TransientSolution, _kept_modes, eval_transient

__all__ = [
    "SimConfig",
    "PathEnsemble",
    "DensityEstimate",
    "simulate",
    "exchange_paths",
    "exchange_density",
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
# values per eval_stationary call on the undecided values exchange_density
# joins over slabs: small enough that a batch's temporaries stay below one
# late column's sine basis (batches of 2^15 took fig6b's traced peak from
# 1.3 to 1.9 MB)
_UNDECIDED_BATCH = 1 << 13
# uniform f-cells of exchange_density's bin lookup table
_CELLS = 1 << 14


@dataclass(frozen=True)
class SimConfig:
    """Simulation inputs; dt defaults to the expectation-update time 1/alpha.

    The constructor, and so ``dataclasses.replace``, raises
    :class:`DomainError` unless n_paths >= 1 and seed >= 0 are integers,
    the resolved dt is finite and positive, drift_mode and intervention are
    known, kappa lies in (0, 1], and the (n_steps + 1) x n_paths float64
    path buffer fits numpy's largest array size.
    """

    params: ModelParams
    n_paths: int = 5000
    dt: float | None = None
    drift_mode: str = "tanh"
    intervention: str = "pure_reflection"
    seed: int = 0
    kappa: float = 0.9

    def __post_init__(self) -> None:
        _check_count(self.n_paths, "n_paths", 1)
        _check_count(self.seed, "seed", 0)
        if not 0.0 < self.resolved_dt() < math.inf:
            raise DomainError("dt must be positive and finite")
        if self.drift_mode not in DRIFT_MODES:
            raise DomainError(f"unknown drift_mode {self.drift_mode!r}")
        if self.intervention not in INTERVENTIONS:
            raise DomainError(f"unknown intervention {self.intervention!r}")
        if not 0.0 < self.kappa <= 1.0:
            raise DomainError("kappa must lie in (0, 1]")
        try:
            n_bytes = (self.n_steps() + 1) * self.n_paths * 8
        except OverflowError:  # horizon_T / dt past the double range
            n_bytes = math.inf
        if n_bytes > np.iinfo(np.intp).max:
            raise DomainError("the n_paths x (n_steps + 1) path buffer exceeds numpy's size limit")

    def resolved_dt(self) -> float:
        return 1.0 / self.params.alpha if self.dt is None else self.dt

    def n_steps(self) -> int:
        """Steps over the horizon, at least one."""
        return max(1, int(round(self.params.horizon_T / self.resolved_dt())))


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

    The stream is the generator of ``SeedSequence(seed, spawn_key=(block,))``.
    Signs come first and always a full block of them; the normals follow
    path-major, one row of n_steps per path.  Path i's draws are thus the
    same whether its block is full or the partial last one.
    """
    lo = block * BLOCK
    hi = min(lo + BLOCK, buf.shape[1])
    gen = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
    if signs is not None:
        signs[lo:hi] = np.where(gen.random(BLOCK)[: hi - lo] < 0.5, 1.0, -1.0)
    buf[1:, lo:hi] = gen.standard_normal((hi - lo, buf.shape[0] - 1)).T


def _reflect_into(values: np.ndarray, radius: float) -> np.ndarray:
    """Mirror overshoots back inside [-radius, radius], any number of folds.

    With m = floor((x + r) / 2r), x - 2rm lies in [-r, r); an odd m means
    an odd number of mirrors, so the sign flips.  One fold (m = +-1)
    gives +-2r - x, the single mirror, rounded the same way.  The parity
    test m != 2 floor(m / 2) is exact for every finite m (halving, floor
    and doubling do not round); it calls m = +-inf, where the state has
    already overflowed, even.
    """
    m = np.floor((values + radius) / (2.0 * radius))
    shift = 2.0 * radius * m
    return np.where(m != 2.0 * np.floor(0.5 * m), shift - values, values - shift)


def simulate(config: SimConfig, *, threads: int = 1) -> PathEnsemble:
    """Simulate the regulated fundamental; bit-identical for any thread count.

    Threads, at most one per CPU, map over the 256-path noise blocks, each
    drawn from stream (seed, block), so path i's noise is the same for any
    n_paths and any thread count.  The time stepping runs over all paths at
    once, one contiguous time row per step.
    """
    dt, n_steps = config.resolved_dt(), config.n_steps()
    p = config.params
    ratio = dt * p.alpha
    if not 0.5 <= ratio <= 2.0:
        warnings.warn(
            f"dt*alpha = {ratio:.3g} outside [0.5, 2]; the step no longer "
            "matches the expectation-update frequency",
            stacklevel=2,
        )
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
    workers = min(threads, n_blocks, os.cpu_count() or 1)
    if workers <= 1:
        for block in range(n_blocks):
            fill(block)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(n_blocks)))

    radius = config.kappa * p.f_bar
    sig_dt = p.sigma * math.sqrt(dt)
    beta = p.beta

    n_interventions = 0
    for j in range(n_steps):
        f = buf[j]
        if bernoulli:
            moved = f + beta * signs * dt
        elif beta == 0.0:
            # each tanh stage is then a zero with the sign of f, so
            # f + drift * dt == f bit for bit, +-0 included
            moved = f
        else:
            b1 = beta * np.tanh(beta * f)
            b2 = beta * np.tanh(beta * (f + b1 * dt))
            moved = f + 0.5 * (b1 + b2) * dt
        pred = buf[j + 1]
        pred *= sig_dt
        pred += moved
        if config.intervention == "law":
            # the whole row, in place: a value inside the band comes back as
            # it was, and no gather or scatter is needed
            n_interventions += int(np.count_nonzero(np.abs(pred) > radius))
            np.clip(pred, -radius, radius, out=pred)
        else:
            idx = np.flatnonzero(np.abs(pred) > radius)
            n_interventions += idx.size
            if idx.size:
                pred[idx] = _reflect_into(pred[idx], radius)

    return PathEnsemble(
        config=config,
        times=times,
        fundamentals=buf.T,
        n_interventions=n_interventions,
    )


def _shared_params(ensemble: PathEnsemble, transient: TransientSolution) -> ModelParams:
    """The parameters both the ensemble and the transient were built with."""
    if ensemble.config.params != transient.spectrum.params:
        raise DomainError("ensemble and transient solution must share params")
    return ensemble.config.params


def exchange_paths(ensemble: PathEnsemble, transient: TransientSolution) -> np.ndarray:
    """Exchange-rate paths X(t, f_t) = X*(T - t, f_t) + X_S(f_t).

    Each time slice sums only the transient's kept modes (see
    ``transient._kept_modes``); for fast expectation updating there are
    none, and the transient is skipped, on every slice except the last few
    before the horizon.
    """
    p = _shared_params(ensemble, transient)
    rows = ensemble.fundamentals.T
    out = np.empty_like(rows)
    # X_S is pointwise: evaluate it over slabs of whole time rows
    slab = max(1, _XS_SLAB // rows.shape[1])
    for j in range(0, len(rows), slab):
        out[j : j + slab] = eval_stationary(transient.stationary, rows[j : j + slab])
    times = np.minimum(ensemble.times, p.horizon_T)
    for j in np.flatnonzero(_kept_modes(transient, times)):
        out[j] += eval_transient(transient, float(times[j]), rows[j])
    return out.T


def _late_columns(ensemble: PathEnsemble, transient: TransientSolution, times: np.ndarray, first: int):
    """X*(T - t, f) + X_S(f) over columns ``first``.. at ``times``, one at a time from the last back."""
    for j in reversed(range(first, len(times))):
        f = ensemble.fundamentals[:, j]
        yield eval_transient(transient, float(times[j]), f) + eval_stationary(transient.stationary, f)


def _extremes(parts) -> tuple[float, float]:
    """Running (min, max) over the arrays ``parts``; raises unless both are finite."""
    lo, hi = np.inf, -np.inf
    for x in filter(np.size, parts):  # np.minimum and np.maximum keep NaN
        lo, hi = np.minimum(lo, x.min()), np.maximum(hi, x.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("density values must be finite")
    return lo, hi


def _batches(parts, size: int = _XS_SLAB):
    """The arrays ``parts`` joined in order, at most ``size`` values a batch unless one part is larger."""
    batch = []
    for x in parts:
        if batch and sum(map(len, batch)) + len(x) > size:
            joined, batch = np.concatenate(batch), []
            yield joined
        batch.append(x)
    if batch:
        yield np.concatenate(batch)


def _count(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``np.histogram`` counts of ``x`` over uniform ``edges``, which add up over parts of x."""
    if x.size:
        _extremes([x])  # refuses a non-finite value
    return np.histogram(x, len(edges) - 1, (edges[0], edges[-1]))[0]


def _bin_table(xb: np.ndarray, w: float, edges: np.ndarray, observed: bool) -> np.ndarray:
    """np.histogram's bin of every value in each f-cell, from cell boundary values ``xb``.

    Entry c is the bin counted from 1 (0 below the range, n_bins + 1 above
    it; the last bin is closed) of every X in [xb[c - 1] - w, xb[c + 2] + w],
    that interval clipped to the edges where the range is ``observed`` and
    so holds every value, or n_bins + 2 where the interval crosses an edge
    and the cell's values need exact X.  Max f may index one past the last
    cell, which entry _CELLS repeats.
    """
    c = np.minimum(np.arange(_CELLS + 1), _CELLS - 1)
    lo_x = xb[np.maximum(c - 1, 0)] - w
    hi_x = xb[np.minimum(c + 2, _CELLS)] + w
    if observed:  # every value lies within the edges
        np.maximum(lo_x, edges[0], out=lo_x)
        np.minimum(hi_x, edges[-1], out=hi_x)
    table, hi_bin = (np.searchsorted(edges[:-1], x, "right") + (x > edges[-1]) for x in (lo_x, hi_x))
    table[table != hi_bin] = len(edges) + 1
    return table


def _binned_by_table(slabs, table: np.ndarray, fmin: float, scale: float, counts: np.ndarray):
    """Add each slab's values that ``table`` decides to ``counts``; yield the others, slab by slab."""
    n_bins = len(counts)
    for s in slabs:
        slot = table[((s - fmin) * scale).astype(np.intp)]
        counts += np.bincount(slot.ravel(), minlength=n_bins + 1)[1 : n_bins + 1]
        yield s[slot == n_bins + 2]


def exchange_density(
    ensemble: PathEnsemble,
    transient: TransientSolution,
    n_bins: int = 61,
    value_range: tuple[float, float] | None = None,
) -> DensityEstimate:
    """``estimate_density`` of ``exchange_paths``, bit for bit, without building X.

    Columns up to the first that keeps a transient mode are stationary: X
    is X_S(f) there.  With w twice the bound on X_S's evaluation error, a
    value in f-cell c has X within [X_S(b_{c-1}) - w, X_S(b_{c+2}) + w]
    (cell boundaries b; one cell of padding absorbs the rounding of the
    cell index), clipped to an observed range, which holds every value; a
    cell whose interval lies inside one bin (the last bin is closed) maps
    to that bin without evaluating X.  Where the table cannot decide -- X_S
    not strictly increasing on the cell boundaries, cells narrower than a
    few ulps, or no stationary column -- every cell is undecided.  Values
    in undecided cells are mapped with ``eval_stationary``, and each late
    column once, as X*(T - t, f) + X_S(f).  An ``"observed"`` range
    spans X_S at min and max f, the other stationary values within two
    cells of them (all of them where the table cannot decide), and the
    late columns, which it keeps until it is known.  Work goes in slabs of
    ``_XS_SLAB`` values.  The stationary values the range needs are
    evaluated in batches of up to as many, the undecided ones in batches of
    up to ``_UNDECIDED_BATCH`` (a slab goes whole where no cell is decided).
    The late columns are mapped one at a time from the horizon back, so the
    widest sine basis, the last column's, is built before any late value is
    kept.  No temporary is larger than a slab but one late column's basis
    and the late values an observed range keeps.
    """
    value_range = _checked_bins(n_bins, value_range)
    observed = value_range is None
    p, sol = _shared_params(ensemble, transient), transient.stationary
    if ensemble.fundamentals.size == 0:
        raise DomainError("exchange_density needs at least one value")
    times = np.minimum(ensemble.times, p.horizon_T)
    late = np.flatnonzero(_kept_modes(transient, times))
    first = late[0] if late.size else len(times)
    rows = ensemble.fundamentals.T[:first]
    step = max(1, _XS_SLAB // rows.shape[1])
    slabs = [rows[j : j + step] for j in range(0, len(rows), step)]

    fmin, fmax = _extremes(slabs) if slabs else (0.0, 0.0)
    cells = np.linspace(fmin, fmax, _CELLS + 1)
    xb = eval_stationary(sol, cells)
    w = 2.0 * _eval_error_bound(sol)
    h = (fmax - fmin) / _CELLS
    decides = (
        h > max(8.0 * np.finfo(float).eps * max(abs(fmin), abs(fmax)), np.finfo(float).tiny)
        and np.all(np.diff(xb) > 0.0)
        and xb[2] - xb[0] > w
        and xb[-1] - xb[-3] > w
    )
    late_x = _late_columns(ensemble, transient, times, first)
    if observed:
        # min and max f map to xb[0] and xb[-1]; where the table decides, a value
        # beyond two cells of min f maps above X_S(b_2) - w > X_S(min f)
        near = (s[(s <= cells[2]) | (s >= cells[-3])] if decides else s for s in slabs)
        near = _batches(v[(v != fmin) & (v != fmax)] for v in near)
        near = map(functools.partial(eval_stationary, sol), near)
        ends = _extremes(itertools.chain([xb[[0, -1]]], near)) if slabs else ()
        late_x = list(late_x)
        value_range = _extremes([np.array(ends), *late_x])
    edges = np.histogram_bin_edges(xb, n_bins, value_range)
    counts = sum((_count(x, edges) for x in late_x), np.zeros(n_bins, dtype=np.intp))
    del late_x  # the slab loop runs without the kept late values
    undecided = map(np.ravel, slabs)  # every value, where the table cannot decide
    if decides:
        undecided = _binned_by_table(slabs, _bin_table(xb, w, edges, observed), fmin, 1.0 / h, counts)
    for f in _batches(undecided, _UNDECIDED_BATCH):  # one evaluation and count per batch
        counts += _count(eval_stationary(sol, f), edges)
    return _density(counts, edges)


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


def _checked_bins(n_bins: int, value_range) -> tuple[float, float] | None:
    """Refuse an n_bins that is not an integer >= MIN_BINS, and any range but finite lo < hi."""
    _check_count(n_bins, "n_bins", MIN_BINS)
    if value_range is None:
        return None
    try:
        lo, hi = (float(v) for v in value_range)
    except (TypeError, ValueError):
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError("value_range must be two finite numbers lo < hi")
    return lo, hi


def _density(counts: np.ndarray, edges: np.ndarray) -> DensityEstimate:
    """Normalize bin counts so the trapezoid rule over bin centers gives one."""
    if counts.sum() == 0:
        raise DomainError("no values fall inside value_range")
    centers = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    density = counts / (counts.sum() * widths)
    density = density / np.trapezoid(density, centers)
    return DensityEstimate(bin_edges=edges, density=density)


def estimate_density(
    values, n_bins: int = 61, value_range: tuple[float, float] | None = None
) -> DensityEstimate:
    """Histogram density over equal-width bins.

    Bins span the observed range unless ``value_range`` pins them (the
    band, say, so that densities of different scenarios share an axis).
    The result is normalized so the trapezoid rule over bin centers
    integrates to one.  Raises :class:`DomainError` unless every value is
    finite and ``value_range`` is None or two finite numbers lo < hi.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise DomainError("estimate_density needs at least one value")
    value_range = _checked_bins(n_bins, value_range)
    edges = np.histogram_bin_edges(arr, n_bins, value_range or _extremes([arr]))
    return _density(_count(arr, edges), edges)


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
