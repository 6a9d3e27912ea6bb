"""Limit laws: profile algebra, densities, and certified series curves."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from prodspec.config import GinibreProductSpec, HaarProductSpec, SignPattern
from prodspec.limit_laws import (
    GinibreLimit,
    HaarLimit,
    SeriesAccuracyError,
    curve_inverse_cdf,
    curve_inverse_density,
    ginibre_limit_cdf,
    ginibre_limit_density,
    haar_limit_cdf,
    haar_limit_from_ratios,
    haar_limit_from_spec,
    haar_limit_growing,
    limit_curve,
    limit_curve_tail,
    log_mean_curve,
    radial_profile,
    radial_profile_inverse,
    series_coeff,
    series_coeff_bound,
    series_tail_bound,
    spherical_product_density,
)
from prodspec.limit_laws import _closed_curve, _closed_slope

# high-precision references (40-digit arithmetic, rounded to double)
GIN_CDF_A03_B07_Y2 = 0.78135886436936958
GIN_DENS_A03_B07_Y2 = 0.19921288002032492
HAAR_INV_N6_V01 = 0.58671714434936200  # n=6, signs "+-", dims (9,11), gamma 2


def haar(n, signs, dims):
    return HaarProductSpec(n, SignPattern.parse(signs), dims)


RANDOM_SPECS = [
    haar(4, "+", (6,)),
    haar(6, "+-", (9, 11)),
    haar(10, "-++", (12, 25, 11)),
    haar(3, "--", (5, 4)),
    haar(50, "+-+-", (80, 60, 51, 120)),
]


# --- profile -------------------------------------------------------------

def test_profile_special_cases():
    assert radial_profile(0.5, 0.5) == pytest.approx(1.0, rel=1e-14)
    assert radial_profile(1.0, 0.3) == pytest.approx(0.3, rel=1e-14)
    assert radial_profile(0.0, 0.75) == pytest.approx(4.0, rel=1e-14)


def test_profile_pinching_bounds():
    # x <= profile <= 1/(1-x) for every power in [0, 1]
    x = np.linspace(0.01, 0.99, 99)
    for alpha in (0.0, 0.2, 0.5, 0.9, 1.0):
        g = radial_profile(alpha, x)
        assert np.all(g >= x - 1e-12)
        assert np.all(g <= 1.0 / (1.0 - x) + 1e-12)


def test_profile_increasing_with_bounded_slope():
    x = np.linspace(0.02, 0.98, 400)
    for alpha in (0.0, 0.3, 0.7, 1.0):
        g = radial_profile(alpha, x)
        dg = np.diff(g) / np.diff(x)
        cap = 1.0 / (x[:-1] * (1.0 - x[1:]) ** 2)
        assert np.all(dg > 0)
        assert np.all(dg <= cap)


def test_profile_rejects_out_of_range():
    with pytest.raises(ValueError, match="alpha"):
        radial_profile(1.2, 0.5)
    with pytest.raises(ValueError, match="x"):
        radial_profile(0.5, 1.0)


def test_profile_inverse_round_trip():
    x = np.linspace(0.01, 0.99, 99)
    for alpha in (0.0, 0.17, 0.5, 0.83, 1.0):
        back = radial_profile_inverse(alpha, radial_profile(alpha, x))
        assert np.max(np.abs(back - x)) < 1e-9


def test_profile_inverse_closed_branches():
    assert radial_profile_inverse(0.0, 0.5) == 0.0
    assert radial_profile_inverse(0.0, 2.0) == pytest.approx(0.5, rel=1e-12)
    assert radial_profile_inverse(0.0, 4.0) == pytest.approx(0.75, rel=1e-12)
    assert radial_profile_inverse(1.0, -1.0) == 0.0
    assert radial_profile_inverse(1.0, 0.3) == pytest.approx(0.3, rel=1e-12)
    assert radial_profile_inverse(1.0, 7.0) == 1.0


def test_profile_inverse_saturates_outside_range():
    # below the infimum and above the finite supremum
    assert radial_profile_inverse(0.5, 0.0) == 0.0
    assert radial_profile_inverse(0.5, -3.0) == 0.0
    assert radial_profile_inverse(0.0, 1e300) == pytest.approx(1.0, abs=1e-12)


def test_profile_inverse_ordered_in_power():
    # pointwise sandwich between the two closed-form endpoints
    y = np.geomspace(0.05, 50.0, 60)
    lo = radial_profile_inverse(0.0, y)
    hi = radial_profile_inverse(1.0, y)
    for alpha in (0.25, 0.5, 0.75):
        mid = radial_profile_inverse(alpha, y)
        assert np.all(lo - 1e-9 <= mid)
        assert np.all(mid <= hi + 1e-9)


def test_profile_inverse_agrees_with_generic_bisection():
    ys = (0.2, 0.8, 1.0, 1.7, 9.0)
    for alpha in (0.05, 0.37, 0.5, 0.93):
        many = radial_profile_inverse(alpha, np.array(ys))
        for y, got in zip(ys, many):
            expect = brentq(
                lambda x: radial_profile(alpha, x) - y, 1e-15, 1.0 - 1e-15, xtol=1e-13
            )
            assert radial_profile_inverse(alpha, y) == pytest.approx(expect, abs=1e-9)
            assert got == radial_profile_inverse(alpha, y)


# --- Ginibre-type limits -------------------------------------------------

def test_ginibre_limit_validation():
    with pytest.raises(ValueError, match="alpha"):
        GinibreLimit(alpha=-0.1, beta=1.0)
    with pytest.raises(ValueError, match="beta"):
        GinibreLimit(alpha=0.5, beta=0.0)


def test_ginibre_limit_cdf_reference_value():
    lim = GinibreLimit(alpha=0.3, beta=0.7)
    assert ginibre_limit_cdf(lim, 2.0) == pytest.approx(GIN_CDF_A03_B07_Y2, rel=1e-10)


def test_ginibre_limit_cdf_spherical_closed_form():
    lim = GinibreLimit(alpha=0.5, beta=1.0)
    y = np.geomspace(0.05, 20.0, 50)
    assert np.allclose(ginibre_limit_cdf(lim, y), y**2 / (1 + y**2), atol=1e-9)


def test_ginibre_limit_cdf_uniform_case():
    lim = GinibreLimit(alpha=1.0, beta=1.0)
    assert ginibre_limit_cdf(lim, 0.3) == pytest.approx(0.3, abs=1e-12)
    assert ginibre_limit_cdf(lim, 2.0) == 1.0


def test_ginibre_limit_cdf_rejects_nonpositive_y():
    lim = GinibreLimit(alpha=0.5, beta=1.0)
    with pytest.raises(ValueError, match="y"):
        ginibre_limit_cdf(lim, 0.0)


def test_ginibre_limit_density_reference_values():
    lim = GinibreLimit(alpha=0.3, beta=0.7)
    assert ginibre_limit_density(lim, 2.0) == pytest.approx(
        GIN_DENS_A03_B07_Y2, rel=1e-10
    )
    half = GinibreLimit(alpha=0.5, beta=1.0)
    assert ginibre_limit_density(half, 1.0) == pytest.approx(0.5, rel=1e-10)


def test_ginibre_limit_density_matches_cdf_slope():
    lim = GinibreLimit(alpha=0.4, beta=1.3)
    h = 1e-6
    for y in (0.4, 1.0, 2.5):
        slope = (ginibre_limit_cdf(lim, y + h) - ginibre_limit_cdf(lim, y - h)) / (2 * h)
        assert ginibre_limit_density(lim, y) == pytest.approx(slope, rel=1e-5)


def test_spherical_density_values():
    assert spherical_product_density(1, 1.0) == pytest.approx(
        1.0 / (4 * math.pi), rel=1e-12
    )
    r = np.geomspace(0.1, 10.0, 40)
    assert np.allclose(
        spherical_product_density(1, r), 1.0 / (math.pi * (1 + r**2) ** 2), rtol=1e-12
    )


def test_spherical_density_matches_radial_cdf_slope():
    # 2*pi*r times the planar density must differentiate r^2/(1+r^2)
    r = np.linspace(0.2, 5.0, 30)
    radial = 2 * math.pi * r * spherical_product_density(1, r)
    assert np.allclose(radial, 2 * r / (1 + r**2) ** 2, rtol=1e-12)


def test_spherical_density_rejects_bad_args():
    with pytest.raises(ValueError, match="k"):
        spherical_product_density(0, 1.0)
    with pytest.raises(ValueError, match="r"):
        spherical_product_density(2, -1.0)


# --- finite-n curve ------------------------------------------------------

def test_series_coeff_hand_values():
    one = haar(2, "+", (4,))
    assert series_coeff(one, 1) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert series_coeff(one, 2) == pytest.approx(-4.0 / 9.0, rel=1e-14)
    flipped = haar(2, "-", (4,))
    assert series_coeff(flipped, 2) == pytest.approx(4.0 / 9.0, rel=1e-14)


def test_series_coeff_bound_dominates():
    for spec in RANDOM_SPECS:
        bound = series_coeff_bound(spec)
        assert series_coeff(spec, 1) <= bound + 1e-15
        for j in range(1, 200):
            assert abs(series_coeff(spec, j)) <= bound + 1e-15


def test_series_coeff_bound_is_first_coeff_for_all_direct():
    spec = haar(10, "++", (15, 30))
    assert series_coeff(spec, 1) == pytest.approx(series_coeff_bound(spec), rel=1e-14)


def test_series_coeff_bound_floor():
    # every factor contributes at least 2/(n+2)
    for spec in RANDOM_SPECS:
        assert series_coeff_bound(spec) >= 2.0 * spec.m / (spec.n + 2.0) - 1e-15


def test_log_mean_curve_hand_value():
    spec = haar(2, "+", (4,))
    assert log_mean_curve(spec, 0.75) == pytest.approx(math.log(9.0 / 7.0), rel=1e-12)
    assert log_mean_curve(spec, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_log_mean_curve_series_converges_to_closed():
    x = np.linspace(0.05, 0.95, 37)
    for spec in RANDOM_SPECS:
        closed = log_mean_curve(spec, x)
        series = log_mean_curve(spec, x, mode="series", terms=300)
        assert np.max(np.abs(closed - series)) < 1e-10


def test_log_mean_curve_tail_bound_is_honest():
    x = np.linspace(0.06, 0.94, 23)
    for spec in RANDOM_SPECS:
        closed = log_mean_curve(spec, x)
        for terms in (5, 20, 60):
            series = log_mean_curve(spec, x, mode="series", terms=terms)
            tail = series_tail_bound(spec, x, terms)
            assert np.all(np.abs(closed - series) <= tail + 1e-12)


def test_log_mean_curve_magnitude_bound():
    # |curve| <= bound * u/(1-u) with u the folded distance from the centre
    x = np.linspace(0.03, 0.97, 81)
    u = np.abs(2 * x - 1)
    for spec in RANDOM_SPECS:
        cap = series_coeff_bound(spec) * u / (1 - u)
        assert np.all(np.abs(log_mean_curve(spec, x)) <= cap + 1e-12)


def _curve_slope(spec, x):
    # closed-form derivative, one term per factor
    c = x - 0.5
    total = np.zeros_like(np.asarray(x, dtype=float))
    for sign, d in zip(spec.signs, spec.dims):
        b = 2.0 * spec.n / (2.0 * d - spec.n)
        total = total + (2.0 - b) / ((1.0 + 2.0 * sign * c) * (1.0 + b * sign * c))
    return total


def test_log_mean_curve_slope_bounds():
    # slope/bound is pinched between 2/(1+2d)^2 and 2/(1-2d)^2
    for spec in RANDOM_SPECS:
        for delta in (0.1, 0.3, 0.45):
            x = np.linspace(0.5 - delta, 0.5 + delta, 41)
            slope = _curve_slope(spec, x)
            bound = series_coeff_bound(spec)
            assert np.all(slope >= bound * 2.0 / (1 + 2 * delta) ** 2 - 1e-12)
            assert np.all(slope <= bound * 2.0 / (1 - 2 * delta) ** 2 + 1e-12)


def test_log_mean_curve_slope_matches_differences():
    spec = haar(6, "+-", (9, 11))
    x = np.linspace(0.1, 0.9, 17)
    h = 1e-7
    fd = (log_mean_curve(spec, x + h) - log_mean_curve(spec, x - h)) / (2 * h)
    assert np.allclose(fd, _curve_slope(spec, x), rtol=1e-6)


def test_log_mean_curve_input_validation():
    spec = haar(2, "+", (4,))
    with pytest.raises(ValueError, match="x"):
        log_mean_curve(spec, 0.0)
    with pytest.raises(ValueError, match="mode"):
        log_mean_curve(spec, 0.5, mode="other")
    with pytest.raises(ValueError, match="terms"):
        log_mean_curve(spec, 0.5, mode="series", terms=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda spec: series_coeff(spec, 1),
        series_coeff_bound,
        lambda spec: series_tail_bound(spec, 0.3, 10),
        lambda spec: log_mean_curve(spec, 0.3),
        lambda spec: haar_limit_from_spec(spec, 2.0),
    ],
    ids=[
        "series_coeff", "series_coeff_bound", "series_tail_bound",
        "log_mean_curve", "haar_limit_from_spec",
    ],
)
def test_series_functions_reject_gaussian_specs(call):
    # only truncated-unitary factors have the log-mean series
    with pytest.raises(ValueError, match="dims:"):
        call(GinibreProductSpec(5, SignPattern.parse("+-")))


# --- limit curves from coefficient prefixes ------------------------------

def test_haar_limit_validation():
    with pytest.raises(ValueError, match="betas"):
        HaarLimit(betas=())
    with pytest.raises(ValueError, match=r"betas\[0\]"):
        HaarLimit(betas=(-1.0, 0.2))
    with pytest.raises(ValueError, match="betas"):
        HaarLimit(betas=(1.0, math.nan))
    with pytest.raises(ValueError, match="tail_bound"):
        HaarLimit(betas=(1.0,), tail_bound=-0.5)
    # u - 2u^3 falls from 1 at x=0 to -1 at x=1: no bracket for the inverter
    with pytest.raises(ValueError, match="betas: partial sum must rise"):
        HaarLimit(betas=(1.0, 0.0, -2.0))
    # 1e308 (u + u^2) overflows to inf at x=1: its top end is no bracket either
    with pytest.raises(ValueError, match="betas: partial sum must rise"):
        HaarLimit(betas=(1e308, 1e308))


def test_haar_limit_from_spec_scales_coefficients():
    spec = haar(2, "+", (4,))
    lim = haar_limit_from_spec(spec, 2.0, terms=3)
    assert lim.betas == pytest.approx((1.0 / 3.0, -2.0 / 9.0, 26.0 / 81.0 / 2.0))
    assert lim.tail_bound == pytest.approx(1.0 / 3.0)
    assert lim.terms == 3


def test_haar_limit_from_ratios_hand_values():
    lim = haar_limit_from_ratios([1, -1], [0.5, 0.5], terms=3)
    assert lim.betas == pytest.approx((2.0 / 3.0, 0.0, 26.0 / 81.0))
    assert lim.tail_bound == pytest.approx(2.0 / 3.0)


def test_haar_limit_from_ratios_validation():
    with pytest.raises(ValueError, match="equal-length"):
        haar_limit_from_ratios([1], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"ratios\[0\]"):
        haar_limit_from_ratios([1], [0.0])


def test_haar_limit_growing_hand_values():
    lim = haar_limit_growing(1.0, 0.5, terms=3)
    assert lim.betas == pytest.approx((2.0 / 3.0, -4.0 / 9.0, 26.0 / 81.0))
    assert lim.tail_bound == pytest.approx(2.0 / 3.0)
    balanced = haar_limit_growing(0.5, 0.5, terms=2)
    assert balanced.betas[1] == 0.0


def test_haar_limit_growing_validation():
    with pytest.raises(ValueError, match="plus_fraction"):
        haar_limit_growing(1.5, 0.5)
    with pytest.raises(ValueError, match="ratio"):
        haar_limit_growing(0.5, 1.0)


def test_limit_curve_matches_scaled_finite_curve():
    # the from-spec prefix reproduces curve/gamma within its certified tail
    spec = haar(6, "+-", (9, 11))
    gamma = 2.0
    lim = haar_limit_from_spec(spec, gamma, terms=80)
    x = np.linspace(0.05, 0.95, 41)
    got = limit_curve(lim, x)
    want = log_mean_curve(spec, x) / gamma
    assert np.all(np.abs(got - want) <= limit_curve_tail(lim, x) + 1e-10)


def test_limit_curve_tail_values():
    lim = HaarLimit(betas=(1.0,), tail_bound=0.0)
    assert limit_curve_tail(lim, 0.99) == 0.0
    bounded = HaarLimit(betas=(1.0, 0.5), tail_bound=2.0)
    # u = 0.5: 2 * 0.5^3 / 0.5
    assert limit_curve_tail(bounded, 0.75) == pytest.approx(0.5, rel=1e-12)
    assert limit_curve_tail(bounded, 1.0) == math.inf


def test_limit_curve_refuses_uncertifiable_points():
    lim = haar_limit_from_spec(haar(6, "+-", (9, 11)), 2.0, terms=10)
    with pytest.raises(SeriesAccuracyError, match="tail bound"):
        limit_curve(lim, 0.9999, max_error=1e-10)
    # exact prefix: certification holds everywhere, endpoints included
    exact = HaarLimit(betas=(0.5,), tail_bound=0.0)
    assert limit_curve(exact, 1.0, max_error=0.0) == pytest.approx(0.5)


def test_limit_curve_domain_check():
    lim = HaarLimit(betas=(0.5,))
    with pytest.raises(ValueError, match="x"):
        limit_curve(lim, 1.5)


def test_curve_inverse_cdf_linear_case():
    lim = HaarLimit(betas=(0.5,))
    assert curve_inverse_cdf(lim, -0.25) == pytest.approx(0.25, abs=1e-9)
    assert curve_inverse_cdf(lim, 0.0) == pytest.approx(0.5, abs=1e-9)
    assert curve_inverse_cdf(lim, -0.6) == 0.0
    assert curve_inverse_cdf(lim, 0.6) == 1.0


def test_curve_inverse_cdf_round_trip():
    lim = haar_limit_from_spec(haar(6, "+-", (9, 11)), 2.0, terms=80)
    x = np.linspace(0.05, 0.95, 31)
    back = curve_inverse_cdf(lim, limit_curve(lim, x))
    assert np.max(np.abs(back - x)) < 1e-8


def test_curve_inverse_cdf_reference_value():
    lim = haar_limit_from_spec(haar(6, "+-", (9, 11)), 2.0, terms=80)
    assert curve_inverse_cdf(lim, 0.1) == pytest.approx(HAAR_INV_N6_V01, abs=1e-8)


def test_curve_inverse_cdf_monotone_with_saturating_tails():
    lim = haar_limit_from_spec(haar(10, "-++", (12, 25, 11)), 3.0, terms=80)
    v = np.linspace(-5.0, 5.0, 801)
    cdf = curve_inverse_cdf(lim, v)
    assert np.all(np.diff(cdf) >= 0)
    assert curve_inverse_cdf(lim, -1e10) == 0.0
    assert curve_inverse_cdf(lim, 1e10) == 1.0


def test_curve_inverse_cdf_on_dipping_prefixes_finds_the_first_root():
    # u - 0.9u^3 dips below its x=0 value before it rises, and falls back
    # after its peak; between its end values it crosses each level once
    lim = HaarLimit(betas=(1.0, 0.0, -0.9))
    v = np.linspace(-0.099, 0.099, 199)
    x = curve_inverse_cdf(lim, v)
    assert np.all(np.diff(x) > 0.0)
    assert np.max(np.abs(limit_curve(lim, x) - v)) <= 1e-14
    # u - 3u^3 + 3u^5 rises to 0.239 at u = 0.383, falls to 0.173 at
    # u = 0.673 and rises again: levels in between are crossed three times,
    # and the inverse takes the first crossing, so it stays monotone
    lim = HaarLimit(betas=(1.0, 0.0, -3.0, 0.0, 3.0))
    v = np.linspace(0.15, 0.26, 221)
    x = curve_inverse_cdf(lim, v)
    assert np.all(np.diff(x) >= 0.0)
    assert np.max(np.abs(limit_curve(lim, x) - v)) <= 1e-14
    assert np.all(x[v < 0.238] < 0.5 + 0.383 / 2)


def test_curve_inverse_density_linear_case():
    lim = HaarLimit(betas=(0.5,))
    assert curve_inverse_density(lim, 0.2) == pytest.approx(1.0, rel=1e-9)
    assert curve_inverse_density(lim, 0.9) == 0.0
    assert curve_inverse_density(lim, -0.9) == 0.0


def test_curve_inverse_density_integrates_to_one():
    from scipy.integrate import quad

    lim = haar_limit_from_spec(haar(6, "+-", (9, 11)), 2.0, terms=80)
    lo = limit_curve(lim, 0.0) + 1e-9
    hi = limit_curve(lim, 1.0) - 1e-9
    mass, err = quad(lambda v: curve_inverse_density(lim, v), lo, hi, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_haar_limit_pairs_validation():
    with pytest.raises(ValueError, match="pairs"):
        HaarLimit(betas=(0.5,), pairs=((2, 0.5, 0.3),))
    with pytest.raises(ValueError, match="pairs"):
        HaarLimit(betas=(0.5,), pairs=((1, -0.5, 0.3),))
    with pytest.raises(ValueError, match="pairs"):
        HaarLimit(betas=(0.5,), pairs=((1, 0.5, 1.5),))
    # ratio 1 cancels the pair's two logs: the sum would be flat
    with pytest.raises(ValueError, match="pairs"):
        HaarLimit(betas=(0.5,), pairs=((1, 0.5, 1.0),))


def test_haar_limit_rejects_pairs_whose_series_is_not_betas():
    # the closed form's first coefficient is 2.5, not 1: haar_limit_cdf
    # would read 0.385 at y = 0.5 where the prefix's inverse reads 0.153
    with pytest.raises(ValueError, match="pairs:"):
        HaarLimit(betas=(1.0,), pairs=((1, 5.0, 0.5),))
    lim = haar_limit_from_spec(haar(6, "+-", (9, 11)), 2.0, terms=80)
    assert HaarLimit(betas=lim.betas, tail_bound=lim.tail_bound, pairs=lim.pairs) == lim
    # one prefix coefficient off by 1e-9 of the largest is caught too
    betas = lim.betas[:40] + (lim.betas[40] + 1e-9 * lim.betas[0],) + lim.betas[41:]
    with pytest.raises(ValueError, match="pairs:"):
        HaarLimit(betas=betas, tail_bound=lim.tail_bound, pairs=lim.pairs)


def test_haar_limit_cdf_without_pairs_inverts_the_prefix():
    lim = haar_limit_from_spec(haar(6, "+-", (9, 11)), 2.0, terms=80)
    prefix = HaarLimit(betas=lim.betas, tail_bound=lim.tail_bound)
    y = np.array([0.3, 0.8, 1.0, 1.2, 5.0])
    assert np.array_equal(haar_limit_cdf(prefix, y), curve_inverse_cdf(prefix, np.log(y)))
    assert haar_limit_cdf(prefix, 0.0) == 0.0


def test_remark5_limit_cdf_rises_to_its_top_end_without_a_jump():
    # haar-remark5 at n=20: 8 direct factors, dims 40, gamma 8. The curve
    # ends at C(1) = log 1.5; its 80-term prefix peaks before x = 1, which
    # made the CDF jump from 0.990 to 1 at y = 1.4908
    lim = haar_limit_from_spec(haar(20, "+" * 8, (40,) * 8), 8.0)
    y = np.linspace(1.45, 1.5, 50001)[:-1]
    cdf = haar_limit_cdf(lim, y)
    steps = np.diff(cdf)
    assert np.all(steps >= 0.0) and np.max(steps) <= 1e-3
    assert np.all(cdf < 1.0)
    assert haar_limit_cdf(lim, 1.5 * (1.0 + 1e-12)) == 1.0


def test_closed_form_keeps_its_accuracy_for_ratios_near_one():
    # a ratio near 1 gives q near 1, where log1p(s*t) - log1p(q*s*t)
    # cancels; 40-digit decimal logs of the same doubles are the reference
    x = np.array([1e-9, 0.01, 0.3, 0.500001, 0.77, 1 - 1e-9])
    for a in (0.999, 1 - 1e-9, 0.9999999999999999):
        lim = haar_limit_from_ratios([1, -1], [a, 0.5])
        got = _closed_curve(lim.pairs, x, 1.0 - x)
        with localcontext() as ctx:
            ctx.prec = 40
            for xv, g in zip(x, got):
                t = 2 * Decimal(xv) - 1
                want = sum(
                    s * Decimal(w) * ((1 + s * t).ln() - (1 + Decimal(q) * s * t).ln())
                    for s, w, q in lim.pairs
                )
                assert g == pytest.approx(float(want), rel=1e-14)


def test_haar_limit_cdf_composes_with_log():
    lim = haar_limit_from_spec(haar(6, "+-", (9, 11)), 2.0, terms=80)
    y = np.array([0.8, 1.0, 1.2])
    assert np.allclose(haar_limit_cdf(lim, y), curve_inverse_cdf(lim, np.log(y)))
    assert haar_limit_cdf(lim, 0.0) == 0.0
    assert haar_limit_cdf(lim, -2.0) == 0.0


# --- properties over drawn laws ------------------------------------------

# sorted, with nonpositive points first and both saturated tails included
CDF_GRID = np.concatenate([[-np.inf, -1.0, 0.0], np.logspace(-12.0, 12.0, 241)])


@st.composite
def truncated_specs(draw):
    n = draw(st.integers(2, 30))
    factors = draw(
        st.lists(
            st.tuples(st.sampled_from("+-"), st.integers(n + 1, 3 * n)),
            min_size=1, max_size=4,
        )
    )
    return haar(n, "".join(s for s, _ in factors), tuple(d for _, d in factors))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    alpha=st.floats(0.0, 1.0),
    beta=st.floats(0.05, 10.0),
    spec=truncated_specs(),
    gamma_n=st.floats(0.5, 8.0),
)
def test_limit_cdfs_are_monotone_in_unit_interval_on_drawn_laws(alpha, beta, spec, gamma_n):
    gin = ginibre_limit_cdf(GinibreLimit(alpha, beta), CDF_GRID[3:])
    haar_cdf = haar_limit_cdf(haar_limit_from_spec(spec, gamma_n), CDF_GRID)
    for cdf in (gin, haar_cdf):
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))
        assert np.all(np.diff(cdf) >= 0.0)
    assert np.all(haar_cdf[:3] == 0.0)


def _log_ratio_sum(pairs, x):
    # closed form of a built-in curve: one log-ratio pair per (s, w, q)
    t = 2.0 * x - 1.0
    return sum(s * w * (np.log1p(s * t) - np.log1p(q * s * t)) for s, w, q in pairs)


# a spec with its gamma_n, (signs, ratios) and (plus_fraction, ratio)
DRAWN_LAWS = dict(
    spec=truncated_specs(),
    gamma_n=st.floats(0.5, 8.0),
    factors=st.lists(
        st.tuples(st.sampled_from((1, -1)), st.floats(0.05, 1.0)), min_size=1, max_size=4
    ).filter(lambda fs: any(a < 1.0 for _, a in fs)),
    plus_fraction=st.floats(0.0, 1.0),
    ratio=st.floats(0.05, 0.95),
)


def _built_laws(spec, gamma_n, factors, plus_fraction, ratio, terms):
    """Each builder's limit next to the log-ratio pairs of its closed form."""
    signs, ratios = [s for s, _ in factors], [a for _, a in factors]
    q = ratio / (2.0 - ratio)
    return [
        (
            haar_limit_from_spec(spec, gamma_n, terms=terms),
            [(s, 1.0 / gamma_n, n_q) for s, n_q in zip(spec.signs, spec.ratios)],
        ),
        (
            haar_limit_from_ratios(signs, ratios, terms=terms),
            [(s, 0.5, a / (2.0 - a)) for s, a in factors],
        ),
        (
            haar_limit_growing(plus_fraction, ratio, terms=terms),
            [(1, plus_fraction, q), (-1, 1.0 - plus_fraction, q)],
        ),
    ]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**DRAWN_LAWS)
def test_builders_match_their_log_ratio_sums_on_drawn_laws(**law):
    x = np.linspace(0.25, 0.75, 41)
    for lim, pairs in _built_laws(**law, terms=400):
        assert lim.tail_bound == lim.betas[0]
        assert np.max(np.abs(limit_curve(lim, x) - _log_ratio_sum(pairs, x))) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**DRAWN_LAWS)
def test_closed_curves_rise_and_invert_like_brentq_on_drawn_laws(**law):
    x = np.concatenate([[1e-12, 1e-6], np.linspace(0.01, 0.99, 99), [1 - 1e-6, 1 - 1e-12]])
    mid, h = x[2:-2], 1e-6
    for lim, pairs in _built_laws(**law, terms=80):
        assert lim.pairs == tuple(pairs)
        slope = _closed_slope(lim.pairs, x, 1.0 - x)
        assert np.all(slope > 0.0)
        diff = (_log_ratio_sum(pairs, mid + h) - _log_ratio_sum(pairs, mid - h)) / (2 * h)
        assert np.allclose(slope[2:-2], diff, rtol=1e-6, atol=1e-9)
        # the reference's two logs cancel to about 1e-16, which pins x to
        # 1e-12 only where the curve is not nearly flat (all q near 1)
        if lim.betas[0] < 1e-3 * sum(w for _, w, _ in pairs):
            continue
        for x0 in (1e-6, 0.02, 0.3, 0.5, 0.81, 0.999, 1 - 1e-6):
            target = float(_log_ratio_sum(pairs, x0))
            root = brentq(
                lambda v: _log_ratio_sum(pairs, v) - target, 1e-16, 1.0 - 1e-16,
                xtol=1e-15, rtol=4 * np.finfo(float).eps,
            )
            assert haar_limit_cdf(lim, math.exp(target)) == pytest.approx(root, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.0, 1.0), beta=st.floats(0.05, 10.0))
def test_ginibre_density_is_the_cdf_slope_on_drawn_laws(alpha, beta):
    lim = GinibreLimit(alpha, beta)
    dens = ginibre_limit_density(lim, CDF_GRID[3:])
    assert np.all(np.isfinite(dens) & (dens >= 0.0))
    # points whose CDF lies in [0.05, 0.95]: the profile to the power beta
    y = radial_profile(alpha, np.linspace(0.05, 0.95, 19)) ** beta
    cdf = ginibre_limit_cdf(lim, y)
    assert np.all((cdf >= 0.05 - 1e-9) & (cdf <= 0.95 + 1e-9))
    h = 1e-6 * y
    slope = (ginibre_limit_cdf(lim, y + h) - ginibre_limit_cdf(lim, y - h)) / (2 * h)
    assert np.allclose(ginibre_limit_density(lim, y), slope, rtol=1e-5, atol=0.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**DRAWN_LAWS)
def test_curve_inverse_densities_are_finite_and_nonnegative_on_drawn_laws(**law):
    for lim, _ in _built_laws(**law, terms=80):
        v = limit_curve(lim, np.linspace(0.0, 1.0, 201))
        v = np.concatenate([[v.min() - 1.0], v, [v.max() + 1.0]])
        dens = curve_inverse_density(lim, v)
        assert np.all(np.isfinite(dens) & (dens >= 0.0))
