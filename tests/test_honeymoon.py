import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from targetzone import (
    DomainError,
    ModelParams,
    classify_honeymoon,
)
from targetzone.honeymoon import _contact_problem


def gaussian_W(F, p):
    """Contact point of the Gaussian limit beta = 0, with rho0 = sqrt(2 alpha) / sigma."""
    assert p.beta == 0.0
    rep = classify_honeymoon(p, F)
    assert rep.status == "ok"
    return rep.W


def test_gaussian_contact_residual_and_bracket():
    p = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1)
    rho0 = math.sqrt(2.0 * p.alpha)
    W = gaussian_W(0.1, p)
    assert abs(W - 0.1 - math.tanh(rho0 * W) / rho0) < 1e-12
    assert 0.1 < W <= 0.1 + 1.0 / rho0


def test_gaussian_contact_tends_to_target_for_stiff_dynamics():
    # rho0 -> infinity: the tanh correction vanishes and W -> F
    p = ModelParams(alpha=5e5, beta=0.0, sigma=1.0, f_bar=0.1)
    W = gaussian_W(0.1, p)
    assert W == pytest.approx(0.1, abs=2e-3)


def test_gaussian_contact_exceeds_target_and_is_unique():
    rng = np.random.default_rng(5)
    for _ in range(20):
        alpha = float(rng.uniform(0.2, 50.0))
        F = float(rng.uniform(0.01, 1.0))
        p = ModelParams(alpha=alpha, beta=0.0, sigma=1.0, f_bar=0.1)
        W = gaussian_W(F, p)
        assert W > F
        rho0 = math.sqrt(2.0 * alpha)
        grid = np.linspace(1e-9, 10.0 * (F + 1.0 / rho0), 4000)
        res = grid - F - np.tanh(rho0 * grid) / rho0
        sign_changes = np.sum(np.sign(res[:-1]) != np.sign(res[1:]))
        assert sign_changes == 1


@pytest.mark.parametrize(
    "alpha, F", [(200.0, 1.0), (6.6296632410384815, 0.5015722283330702)], ids=["fig6a", "draw"]
)
def test_gaussian_contact_where_tanh_rounds_to_one(alpha, F):
    # tanh(rho0 W) rounds to 1 near the root, so the residual's sign at a
    # guessed upper end F + 1/rho0 was lost to rounding.
    p = ModelParams(alpha=alpha, beta=0.0, sigma=0.1, f_bar=0.1)
    rep = classify_honeymoon(p, F)
    assert rep.status == "ok"
    rho0 = math.sqrt(2.0 * alpha) / p.sigma
    assert abs(rep.W - F - math.tanh(rho0 * rep.W) / rho0) <= 1e-12


@pytest.mark.parametrize("beta", [1e8, 1e9, 1e12])
def test_contact_point_at_large_beta(beta):
    # tanh(beta W) = tanh(rho W) = 1 at the root, so g = 0 reads
    # W = F + 1 / (rho - beta) = F + (rho + beta) / (4 alpha).
    p = ModelParams(alpha=0.8, beta=beta, sigma=1.0, f_bar=0.1)
    rep = classify_honeymoon(p, 0.1)
    assert rep.status == "ok"
    rho = math.sqrt(beta**2 + 4.0 * p.alpha)
    assert rep.W == pytest.approx(0.1 + (rho + beta) / (4.0 * p.alpha), rel=1e-12, abs=0.0)


def contact_residual_mp(p, F, omega, W):
    """g(W), the bracket end hi and the sum of |term| of g, in 50-digit mpmath.

    g and hi are those of the honeymoon module docstring; a double
    evaluation of g carries a rounding error of a few eps times the sum.
    """
    with mpmath.workdps(50):
        beta, W, F, omega = (mpmath.mpf(v) for v in (p.beta, W, F, omega))
        alpha, sigma = mpmath.mpf(p.alpha), mpmath.mpf(p.sigma)
        k2 = 4 * alpha if p.beta > 0.0 else 2 * alpha / sigma**2
        rho = mpmath.sqrt(beta**2 + k2)
        gap = k2 / (rho + beta)
        one_minus = lambda x: 2 / (mpmath.exp(2 * x) + 1)
        tb, tr = mpmath.tanh(beta * W), mpmath.tanh(rho * W)
        denom = gap + beta * (one_minus(beta * W) + tb * one_minus(rho * W))
        last = (1 + omega * beta * mpmath.sech(beta * W) ** 2) * tr / denom
        terms = (W, -F, omega * tb, -last)
        hi = 2 * (F + 3 * abs(omega) + 1 / gap)
        return float(mpmath.fsum(terms)), hi, float(mpmath.fsum(abs(t) for t in terms))


@pytest.mark.parametrize("beta, omega", [(1.0, -1.0), (1.0, -10.0), (1.0, -1e6), (1e12, -1e300)])
def test_contact_point_at_negative_weight(beta, omega):
    # omega < 0 pushes W far beyond F + 1/(rho - beta); the proven bracket
    # [0, hi] holds it without growing.  W = 1e6 has an ulp of 1.2e-10, so
    # the residual bound scales with W.  At beta 1e12, omega * beta is past
    # the double range, though W = F + |omega| + 1/(rho - beta) is not.
    p = ModelParams(alpha=0.8, beta=beta, sigma=1.0, f_bar=0.1)
    rep = classify_honeymoon(p, 0.1, omega)
    assert rep.status == "ok"
    g, hi, _ = contact_residual_mp(p, 0.1, omega, rep.W)
    assert 0.0 < rep.W <= hi
    assert abs(g) <= 1e-12 * max(1.0, rep.W)


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    alpha=POSITIVE,
    sigma=POSITIVE,
    f_bar=POSITIVE,
    beta=st.floats(min_value=0.0, max_value=1e12),
    F=st.floats(min_value=0.0, max_value=10.0, exclude_min=True),
    omega=st.floats(min_value=-1e3, max_value=1e3),
)
def test_contact_point_over_the_parameter_box(alpha, sigma, f_bar, beta, F, omega):
    # g is the residual the solver stops on (|g| <= 1e-12 or a bracket 4 ulp
    # wide).  The 50-digit g checks it up to the rounding of a double g, and
    # the 50-digit hi decides independently whether W may overflow.
    p = ModelParams(alpha=alpha, beta=beta, sigma=sigma, f_bar=f_bar)
    try:
        rep = classify_honeymoon(p, F, omega)
    except OverflowError:
        assert contact_residual_mp(p, F, omega, 0.0)[1] > np.finfo(float).max
        return
    assert rep.status == "ok" and math.isfinite(rep.W)
    tol = 1e-12 * max(1.0, rep.W)
    g, hi = _contact_problem(p, F, omega)
    assert 0.0 <= rep.W <= hi
    assert abs(g(rep.W)) <= tol
    g_mp, _, size = contact_residual_mp(p, F, omega, rep.W)
    assert abs(g_mp) <= tol + 16.0 * np.finfo(float).eps * size


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_target_or_weight_refused(bad):
    gauss = ModelParams(alpha=0.8, beta=0.0, sigma=1.0, f_bar=0.1)
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
        assert first.status == "ok"
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
