import math

import mpmath
import numpy as np
import pytest

from targetzone import DomainError, NumericalError, kummer_1f1

mpmath.mp.dps = 50


def mp_1f1(a, b, x):
    return float(mpmath.hyp1f1(mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)))


def test_1f1_at_zero_is_one():
    for a, b in [(0.5, 1.5), (-3.2, 0.7), (10.0, 2.0)]:
        assert kummer_1f1(a, b, 0.0) == 1.0


def test_1f1_exponential_identity():
    for x in np.linspace(-10.0, 10.0, 41):
        assert kummer_1f1(1.0, 1.0, float(x)) == pytest.approx(math.exp(x), rel=1e-12)


def test_1f1_against_high_precision_series():
    assert kummer_1f1(0.5, 1.5, 1.0) == pytest.approx(mp_1f1(0.5, 1.5, 1.0), rel=1e-12)


def series_amplification(a, b, x):
    """Conditioning of the summed series: peak |term| over |sum|, at 50 digits."""
    if x < 0.0:
        a, x = b - a, -x
    term = mpmath.mpf(1)
    total = mpmath.mpf(1)
    peak = mpmath.mpf(1)
    for n in range(10_000):
        term = term * (a + n) / (b + n) * x / (n + 1)
        total += term
        peak = max(peak, abs(term))
        if abs(term) < mpmath.mpf("1e-45") * abs(total):
            break
    return float(peak / abs(total))


def test_1f1_well_conditioned_region_to_1e10():
    # nonnegative effective parameters: no cancellation, full accuracy
    rng = np.random.default_rng(314)
    for _ in range(40):
        a = float(rng.uniform(0.0, 20.0))
        b = float(rng.uniform(0.3, 20.0))
        x = float(rng.uniform(0.0, 50.0))
        assert kummer_1f1(a, b, x) == pytest.approx(mp_1f1(a, b, x), rel=1e-10)


def test_1f1_full_box_condition_aware():
    # negative parameters make the leading terms alternate; fixed-precision
    # summation cannot beat eps times the cancellation amplification, so the
    # tolerance follows the conditioning (extended-precision eps ~ 5.4e-20)
    rng = np.random.default_rng(314)
    checked = 0
    while checked < 40:
        a = float(rng.uniform(-20.0, 20.0))
        b = float(rng.uniform(-20.0, 20.0))
        if b <= 0.0 and abs(b - round(b)) < 0.05:
            continue
        x = float(rng.uniform(-50.0, 50.0))
        ref = mp_1f1(a, b, x)
        if abs(ref) < 1e-280:
            continue
        tol = max(1e-10, 200.0 * 5.4e-20 * series_amplification(a, b, x))
        assert kummer_1f1(a, b, x) == pytest.approx(ref, rel=tol), (a, b, x)
        checked += 1


def test_1f1_rejects_nonpositive_integer_b():
    for b in (0.0, -1.0, -2.0, -17.0):
        with pytest.raises(DomainError):
            kummer_1f1(0.5, b, 1.0)


def test_1f1_refuses_a_series_longer_than_its_budget():
    # M(1, b, b) = sum_n prod_{j<n} b / (b + j) ~ sqrt(pi b / 2): at b = 1e8
    # the terms fall like exp(-n^2 / 2b), still above 1e-16 of the sum
    # after the 10,000-term budget, and the sum never overflows
    with pytest.raises(NumericalError, match="did not converge"):
        kummer_1f1(1.0, 1e8, 1e8)


def test_1f1_contiguous_relation():
    # b*M(a,b,x) - b*M(a-1,b,x) - x*M(a,b+1,x) = 0
    rng = np.random.default_rng(2718)
    for _ in range(50):
        a = float(rng.uniform(-5.0, 5.0))
        b = float(rng.uniform(0.5, 8.0))
        x = float(rng.uniform(-20.0, 20.0))
        lhs = (
            b * kummer_1f1(a, b, x)
            - b * kummer_1f1(a - 1.0, b, x)
            - x * kummer_1f1(a, b + 1.0, x)
        )
        scale = max(1.0, abs(b * kummer_1f1(a, b, x)))
        assert abs(lhs) / scale < 1e-8


def test_specfun_is_pure():
    args = (0.7, 1.9, 13.5)
    assert kummer_1f1(*args) == kummer_1f1(*args)


def test_1f1_array_lanes_equal_scalar_calls():
    # one array call sums each element as its own lane: x = 0, lanes that stop
    # after a few terms and after many, x < 0 (Kummer transformation), and at
    # a = -15.2 lanes whose cancellation sends them to the extended re-sum; a
    # lane that kept adding terms after its own stop would move by an ulp
    xs = np.array([[0.0, 1e-3, 0.5, 40.0], [-0.7, -30.0, 25.0, 3.0]])
    amps = [series_amplification(-15.2, 7.0, x) for x in xs.ravel()]
    assert max(amps) > 1e5 and min(amps) < 1.0
    for a, b in [(0.5, 1.5), (-15.2, 7.0), (3.1, 0.4)]:
        got = kummer_1f1(a, b, xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        assert got.ravel().tolist() == [kummer_1f1(a, b, float(x)) for x in xs.ravel()]
    # a scalar x is the one-lane case
    for x in (0.0, 2.5, -2.5, np.float64(2.5), np.array(2.5)):
        assert type(kummer_1f1(0.5, 1.5, x)) is float
