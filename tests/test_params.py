import dataclasses
import math

import numpy as np
import pytest

from targetzone import DomainError, ModelParams, uniform_grid

REFERENCE = dict(alpha=0.8, beta=1.0, sigma=1.0, f_bar=0.1, horizon_T=3.0)

# (field, value, start of the DomainError message); every float field also
# refuses NaN and +-inf
INVALID = [
    ("alpha", 0.0, "alpha"),
    ("alpha", -1.0, "alpha"),
    ("f_bar", 0.0, "f_bar"),
    ("horizon_T", -2.0, "horizon_T"),
    ("beta", -0.5, "beta"),
    ("beta", 1e200, "rho"),
] + [(field, bad, field) for field in REFERENCE for bad in (math.nan, math.inf, -math.inf)]


def test_validate_accepts_reference_parameters():
    p = ModelParams(**REFERENCE)
    assert dataclasses.asdict(p) == REFERENCE
    assert dataclasses.replace(p) == p


def test_validate_accepts_gaussian_limit():
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1, horizon_T=3.0)
    assert p.beta == 0.0 and p.rho() == p.alpha


def test_validate_rejects_zero_sigma():
    with pytest.raises(DomainError, match="sigma must be positive"):
        ModelParams(alpha=0.8, beta=1.0, sigma=0.0, f_bar=0.1)


@pytest.mark.parametrize("field,value,message", INVALID)
def test_validate_names_the_violated_field(field, value, message):
    with pytest.raises(DomainError, match=f"^{message}"):
        ModelParams(**{**REFERENCE, field: value})


@pytest.mark.parametrize("field,value,message", INVALID)
def test_replace_refuses_what_construction_refuses(field, value, message):
    valid = ModelParams(**REFERENCE)
    with pytest.raises(DomainError, match=f"^{message}"):
        dataclasses.replace(valid, **{field: value})


def test_no_discount_share_field():
    # the mean-reverting variant is solved at zero discount share only
    with pytest.raises(TypeError, match="r_share"):
        ModelParams(alpha=0.8, r_share=0.0)


def test_first_violated_invariant_is_named():
    with pytest.raises(DomainError, match="^alpha"):
        ModelParams(alpha=0.0, beta=-1.0, sigma=0.0, f_bar=0.0, horizon_T=0.0)
    with pytest.raises(DomainError, match="^sigma"):
        ModelParams(alpha=0.8, beta=math.nan, sigma=0.0, f_bar=math.nan)


def test_rho_values():
    assert ModelParams(alpha=0.8, beta=0.0).rho() == pytest.approx(0.8, abs=0)
    assert ModelParams(alpha=0.8, beta=1.0).rho() == pytest.approx(1.3, rel=1e-15)
    assert ModelParams(alpha=200.0, beta=5.0).rho() == pytest.approx(212.5, rel=1e-15)


def test_rho_at_least_alpha():
    rng = np.random.default_rng(11)
    for _ in range(200):
        alpha = float(rng.uniform(0.1, 250.0))
        beta = float(rng.uniform(0.0, 60.0))
        p = ModelParams(alpha=alpha, beta=beta)
        assert p.rho() >= alpha
        if beta == 0.0:
            assert p.rho() == alpha
    assert ModelParams(alpha=2.0, beta=0.0).rho() == 2.0


def test_grid_round_trip_endpoints_exact():
    p = ModelParams(alpha=0.8, f_bar=0.1)
    for n in (2, 51, 200, 1001):
        g = uniform_grid(p, n)
        assert abs(g[0] + p.f_bar) <= 1e-12
        assert abs(g[-1] - p.f_bar) <= 1e-12
        assert np.all(np.diff(g) > 0)
        assert len(g) == n


def test_grid_rejects_degenerate_size():
    for n_points in (1, 5.5, 2.0):
        with pytest.raises(DomainError, match="n_points must be an integer >= 2"):
            uniform_grid(ModelParams(alpha=0.8), n_points)

