"""Model parameters and fundamental grids.

Every other module consumes :class:`ModelParams`, which is immutable after
construction and safe to share across threads.  It holds only values
inside the model's parameter box: the constructor, and therefore
``dataclasses.replace``, refuses any other with :class:`DomainError`, so
no consumer checks them again.

Units are a documented convention, never enforced: time in years, the
fundamental in log units.  The band is the symmetric interval
``[-f_bar, +f_bar]`` around central parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["ModelParams", "uniform_grid"]


@dataclass(frozen=True)
class ModelParams:
    """Scalar inputs of the target-zone model.

    alpha      expectation-updating rate (1/time unit)
    beta       risk intensity of the mean-preserving-spread drift
               (1/fundamental unit); beta = 0 is the Gaussian limit
    sigma      diffusion scale (fundamental unit / sqrt(time))
    f_bar      band half-width (log-fundamental units)
    horizon_T  exit time of the target zone (years)
    """

    alpha: float
    beta: float = 0.0
    sigma: float = 1.0
    f_bar: float = 0.1
    horizon_T: float = 3.0

    def __post_init__(self) -> None:
        """Raise :class:`DomainError` naming the first violated invariant."""
        if not np.isfinite(self.alpha) or self.alpha <= 0.0:
            raise DomainError("alpha must be positive")
        if not np.isfinite(self.sigma) or self.sigma <= 0.0:
            raise DomainError("sigma must be positive")
        if not np.isfinite(self.f_bar) or self.f_bar <= 0.0:
            raise DomainError("f_bar must be positive")
        if not np.isfinite(self.horizon_T) or self.horizon_T <= 0.0:
            raise DomainError("horizon_T must be positive")
        if not np.isfinite(self.beta) or self.beta < 0.0:
            raise DomainError("beta must be non-negative")
        try:
            rho = self.rho()
        except OverflowError:  # a float beta**2 past the double range raises
            rho = np.inf
        if not np.isfinite(rho):
            raise DomainError("rho = beta^2/2 + alpha must be finite")

    def rho(self) -> float:
        """Composite decay frequency beta^2/2 + alpha."""
        return 0.5 * self.beta**2 + self.alpha


def _check_count(n, name: str, least: int) -> None:
    """Refuse a count ``n`` that is not an int or numpy integer at least ``least`` (a bool is not)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise DomainError(f"{name} must be an integer >= {least}")


def _check_ou(lambda_speed: float, mu: float, params: ModelParams) -> None:
    """Refuse a lambda_speed that is not positive and finite, a mu that is not finite, or a
    sigma too small for z = lambda (f - mu)^2 / sigma^2, the mean-reverting variant's argument."""
    if not (math.isfinite(lambda_speed) and lambda_speed > 0.0):
        raise DomainError("lambda_speed must be positive and finite")
    if not math.isfinite(mu):
        raise DomainError("mu must be finite")
    s2 = params.sigma**2
    if s2 == 0.0 or not math.isfinite(lambda_speed / s2):
        raise DomainError("sigma too small: sigma^2 underflows to 0 or lambda_speed / sigma^2 overflows")


def uniform_grid(params: ModelParams, n_points: int) -> np.ndarray:
    """Uniform grid with endpoints exactly at -f_bar and +f_bar."""
    _check_count(n_points, "grid size n_points", 2)
    return np.linspace(-params.f_bar, params.f_bar, n_points)

