import math

import numpy as np
import pytest

from targetzone import (
    DomainError,
    ModelParams,
    classify_honeymoon,
    gaussian_contact,
)


def test_gaussian_contact_residual_and_bracket():
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1)
    rho0 = math.sqrt(2.0 * p.alpha)
    W = gaussian_contact(0.1, p)
    assert abs(W - 0.1 - math.tanh(rho0 * W) / rho0) < 1e-12
    assert 0.1 < W <= 0.1 + 1.0 / rho0


def test_gaussian_contact_tends_to_target_for_stiff_dynamics():
    # rho0 -> infinity: the tanh correction vanishes and W -> F
    p = ModelParams(alpha=5e5, beta=0.0, sigma=1.0, f_bar=0.1)
    W = gaussian_contact(0.1, p)
    assert W == pytest.approx(0.1, abs=2e-3)


def test_gaussian_contact_exceeds_target_and_is_unique():
    rng = np.random.default_rng(5)
    for _ in range(20):
        alpha = float(rng.uniform(0.2, 50.0))
        F = float(rng.uniform(0.01, 1.0))
        p = ModelParams(alpha=alpha, beta=0.0, sigma=1.0, f_bar=0.1)
        W = gaussian_contact(F, p)
        assert W > F
        rho0 = math.sqrt(2.0 * alpha)
        grid = np.linspace(1e-9, 10.0 * (F + 1.0 / rho0), 4000)
        res = grid - F - np.tanh(rho0 * grid) / rho0
        sign_changes = np.sum(np.sign(res[:-1]) != np.sign(res[1:]))
        assert sign_changes == 1


def test_gaussian_contact_requires_gaussian_limit():
    with pytest.raises(DomainError):
        gaussian_contact(0.1, ModelParams(alpha=0.8, beta=1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_target_or_weight_refused(bad):
    gauss = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1)
    with pytest.raises(DomainError):
        gaussian_contact(bad, gauss)
    for p in (gauss, ModelParams(alpha=0.8, beta=1.0, sigma=1.0, f_bar=0.1)):
        with pytest.raises(DomainError):
            classify_honeymoon(p, bad)
        with pytest.raises(DomainError):
            classify_honeymoon(p, 0.1, omega=bad)


def delta(p, W):
    """Delta(W) = rho tanh(rho W) - beta tanh(beta W), rho = sqrt(beta^2 + 4 alpha)."""
    rho = math.sqrt(p.beta**2 + 4.0 * p.alpha)
    return rho * np.tanh(rho * W) - p.beta * np.tanh(p.beta * W)


def test_delta_vanishes_at_origin_and_stays_positive():
    p = ModelParams(alpha=0.8, beta=1.0, sigma=1.0, f_bar=0.1)
    grid = np.linspace(0.0, 50.0, 20000)
    deltas = delta(p, grid)
    assert deltas[0] == 0.0
    assert np.all(deltas[1:] > 0.0)  # rho > beta: no positive critical point


def test_classification_below_threshold_applicable():
    p = ModelParams(alpha=0.8, beta=1.0, sigma=1.0, f_bar=0.1)
    rep = classify_honeymoon(p, 0.1)
    assert rep.status == "ok"
    assert rep.applicable
    assert rep.W is not None and rep.W > 0


def test_classification_above_threshold_not_applicable():
    p = ModelParams(alpha=0.8, beta=50.0, sigma=1.0, f_bar=0.1)
    rep = classify_honeymoon(p, 0.1)
    assert rep.status == "ok"
    assert not rep.applicable


def test_classification_is_total_and_deterministic():
    rng = np.random.default_rng(17)
    for _ in range(25):
        p = ModelParams(
            alpha=float(rng.uniform(0.1, 100.0)),
            beta=float(rng.uniform(0.0, 60.0)),
            sigma=1.0,
            f_bar=float(rng.uniform(0.02, 0.2)),
        )
        first = classify_honeymoon(p, p.f_bar)
        second = classify_honeymoon(p, p.f_bar)
        assert first.status in ("ok", "inconclusive")
        assert isinstance(first.applicable, bool)
        assert first.applicable == second.applicable
        assert first.W == second.W


def test_contact_point_satisfies_printed_system():
    # plugging W back into the two-equation smooth-fit system at omega = 0
    p = ModelParams(alpha=0.8, beta=2.0, sigma=1.0, f_bar=0.1)
    F = 0.1
    rep = classify_honeymoon(p, F)
    W = rep.W
    rho = math.sqrt(p.beta**2 + 4.0 * p.alpha)
    b = p.beta
    a = -math.cosh(b * W) / (
        rho * math.cosh(rho * W) - b * math.sinh(rho * W) * math.tanh(b * W)
    )
    line1 = W + a * math.sinh(rho * W) / math.cosh(b * W) - F
    line2 = 1.0 + (a / math.cosh(b * W)) * (
        rho * math.cosh(rho * W) - b * math.sinh(rho * W) * math.tanh(b * W)
    )
    assert abs(line1) < 1e-10
    assert abs(line2) < 1e-12


def test_gaussian_reduction_of_contact_system():
    # at beta = 0 the smooth-fit system collapses to the fixed-point equation
    # with rho = sqrt(4 alpha)
    p = ModelParams(alpha=0.8, beta=1e-12, sigma=1.0, f_bar=0.1)
    rep = classify_honeymoon(p, 0.1)
    rho = math.sqrt(4.0 * p.alpha)
    assert abs(rep.W - 0.1 - math.tanh(rho * rep.W) / rho) < 1e-9
