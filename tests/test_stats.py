"""Empirical CDFs and KS machinery against closed forms and scipy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from prodspec.cli import _mass_in_window
from prodspec.config import ScalingPlan
from prodspec.numerics import RngStream
from prodspec.stats import (
    TWO_PI,
    EmpiricalCdf,
    KsReport,
    angle_uniformity,
    build_ecdf,
    ks_one_sample,
    ks_threshold,
    ks_two_sample,
    mgf_estimate,
    rescale_moduli,
)


def test_ecdf_sorts_and_steps():
    e = EmpiricalCdf(values=np.array([0.3, 0.1, 0.2]))
    assert np.array_equal(e.values, [0.1, 0.2, 0.3])
    assert e.n == 3
    # right-continuous: each sample point already counts itself
    assert e.evaluate(0.2) == pytest.approx(2.0 / 3.0)
    assert e.evaluate(0.05) == 0.0
    assert e.evaluate(0.3) == 1.0
    assert np.allclose(e.evaluate([0.1, 0.25]), [1.0 / 3.0, 2.0 / 3.0])


def test_ecdf_validation():
    with pytest.raises(ValueError, match="values"):
        EmpiricalCdf(values=np.array([]))
    with pytest.raises(ValueError, match="values"):
        EmpiricalCdf(values=np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="values"):
        EmpiricalCdf(values=np.array([1.0, np.nan]))


def test_rescale_moduli_formula():
    plan = ScalingPlan(gamma_n=4.0, log_scale=2.0)
    lm = np.array([0.0, 1.0, 3.0])
    expect = np.exp((2 * lm - 2.0) / 4.0)
    assert np.allclose(rescale_moduli(lm, plan), expect, rtol=1e-14)


def test_build_ecdf_pools_and_commutes():
    plan = ScalingPlan(gamma_n=2.0, log_scale=0.0)
    rng = RngStream(31)
    a = rng.standard_normal(50)
    b = rng.standard_normal(70)
    ab = build_ecdf([a, b], plan)
    ba = build_ecdf([b, a], plan)
    merged = build_ecdf([np.concatenate([a, b])], plan)
    assert np.array_equal(ab.values, ba.values)
    assert np.array_equal(ab.values, merged.values)
    assert ab.n == 120
    with pytest.raises(ValueError, match="log_moduli_sets"):
        build_ecdf([], plan)


def test_ks_one_sample_hand_value():
    e = EmpiricalCdf(values=np.array([0.25, 0.75]))
    report = ks_one_sample(e, lambda y: np.clip(y, 0, 1))
    assert report.statistic == pytest.approx(0.25, rel=1e-14)
    assert report.n == 2


def test_ks_one_sample_matches_scipy():
    rng = RngStream(32)
    sample = rng.uniform(size=500) ** 1.3
    ours = ks_one_sample(EmpiricalCdf(values=sample), lambda y: np.clip(y, 0, 1))
    ref = sps.kstest(sample, "uniform")
    assert ours.statistic == pytest.approx(ref.statistic, rel=1e-12)


def test_ks_one_sample_rejects_bad_reference():
    e = EmpiricalCdf(values=np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match="cdf"):
        ks_one_sample(e, lambda y: y)  # escapes [0, 1] at 1.5
    # NaN compares False against both bounds, so it must fail the check too
    e = EmpiricalCdf(values=np.array([0.1, 0.5, 0.9]))
    with pytest.raises(ValueError, match="cdf"):
        ks_one_sample(e, lambda y: np.full(y.shape, np.nan))
    with pytest.raises(ValueError, match="cdf"):
        ks_one_sample(e, lambda y: np.where(y > 0.7, np.nan, y))


def test_ks_one_sample_null_calibration():
    # uniform null: the 99% threshold should fail roughly 1 run in 100
    rng = RngStream(33)
    n = 2000
    cut = ks_threshold(n, allowance=0.0)
    below = sum(
        ks_one_sample(
            EmpiricalCdf(values=rng.substream(r).uniform(size=n)),
            lambda y: np.clip(y, 0, 1),
        ).statistic
        < cut
        for r in range(100)
    )
    assert below >= 95


def test_ks_two_sample_matches_scipy():
    rng = RngStream(34)
    a = rng.standard_normal(300)
    b = rng.standard_normal(400) * 1.2 + 0.1
    ours = ks_two_sample(EmpiricalCdf(values=a), EmpiricalCdf(values=b))
    ref = sps.ks_2samp(a, b, method="asymp")
    assert ours.statistic == pytest.approx(ref.statistic, rel=1e-12)
    assert ours.n == 300  # the first sample's size


def test_ks_two_sample_extremes_and_symmetry():
    a = EmpiricalCdf(values=np.array([1.0, 2.0, 3.0]))
    same = ks_two_sample(a, a)
    assert same.statistic == 0.0
    b = EmpiricalCdf(values=np.array([10.0, 11.0]))
    assert ks_two_sample(a, b).statistic == 1.0
    c = EmpiricalCdf(values=np.array([1.5, 2.5]))
    assert ks_two_sample(a, c).statistic == ks_two_sample(c, a).statistic


def test_ks_two_sample_invariant_under_monotone_maps():
    rng = RngStream(35)
    a = rng.standard_normal(150)
    b = rng.standard_normal(200) + 0.3
    plain = ks_two_sample(EmpiricalCdf(values=a), EmpiricalCdf(values=b))
    warped = ks_two_sample(
        EmpiricalCdf(values=np.exp(a)), EmpiricalCdf(values=np.exp(b))
    )
    assert plain.statistic == warped.statistic


# --- the statistics against the full formulas ----------------------------
#
# Each reference evaluates its statistic the long way, at every point the
# definition names; the library reads the same floats off the sorted values,
# so the two must agree byte for byte.

def ks_one_sample_reference(values, f):
    """max(i/n - F(x_i), F(x_i) - (i-1)/n) over the sorted sample, i = 1..n."""
    n = len(values)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def ks_two_sample_reference(a, b):
    """sup |Fa - Fb| over the merge-sorted union of both sorted samples."""
    grid = np.concatenate([a, b])
    grid.sort(kind="mergesort")
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def mass_in_window_reference(values):
    return float(np.mean((values >= 0.9) & (values <= 1.1)))


# sample values k/4 on a 13-point grid, so ties occur inside and across samples
GRID_SAMPLE = st.lists(st.integers(0, 12), min_size=1, max_size=60).map(
    lambda ks: EmpiricalCdf(values=np.array(ks) / 4.0)
)
# a monotone reference on that grid, hitting 0 and 1 exactly
GRID_LEVELS = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=13, max_size=13
).map(np.sort)
WINDOW_POINTS = [0.5, np.nextafter(0.9, 0.0), 0.9, 1.0, 1.1, np.nextafter(1.1, 2.0), 2.0]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(e=GRID_SAMPLE, levels=GRID_LEVELS)
def test_ks_one_sample_equals_the_full_formula(e, levels):
    def cdf(x):
        return levels[np.rint(x * 4.0).astype(int)]

    got = ks_one_sample(e, cdf)
    assert got.statistic == ks_one_sample_reference(e.values, cdf(e.values))
    assert got.n == e.n


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=GRID_SAMPLE, b=GRID_SAMPLE)
def test_ks_two_sample_equals_the_merged_formula(a, b):
    got = ks_two_sample(a, b)
    assert got.statistic == ks_two_sample_reference(a.values, b.values)
    assert got.n == a.n


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(v=st.lists(st.sampled_from(WINDOW_POINTS), min_size=1, max_size=60))
def test_mass_in_window_equals_the_mask_mean(v):
    e = EmpiricalCdf(values=np.array(v))
    assert _mass_in_window(e) == mass_in_window_reference(e.values)


def test_angle_uniformity_validates_and_folds():
    with pytest.raises(ValueError, match="angles"):
        angle_uniformity(np.array([]))
    with pytest.raises(ValueError, match="angles"):
        angle_uniformity(np.array([-0.1]))
    with pytest.raises(ValueError, match="angles"):
        angle_uniformity(np.array([TWO_PI + 0.1]))
    # the period endpoint is accepted and folded onto 0
    report = angle_uniformity(np.array([TWO_PI, 0.5 * TWO_PI]))
    assert report.statistic <= 0.5 + 1e-12


def test_angle_uniformity_accepts_uniform_rejects_clustered():
    rng = RngStream(36)
    n = 4000
    good = angle_uniformity(rng.uniform(size=n) * TWO_PI)
    assert good.statistic < ks_threshold(n, allowance=0.0)
    clustered = angle_uniformity(rng.uniform(size=n) * 0.5 * TWO_PI)
    assert clustered.statistic > 0.4


def test_mgf_estimate_known_cases():
    mean, err = mgf_estimate(np.array([0.7, 1.3, -0.2]), 0.0)
    assert (mean, err) == (1.0, 0.0)
    rng = RngStream(37)
    draws = rng.standard_normal(200_000)
    mean, err = mgf_estimate(draws, 1.0)
    assert err > 0
    assert abs(mean - math.exp(0.5)) <= 4 * err
    with pytest.raises(ValueError, match="log_values"):
        mgf_estimate(np.array([1.0]), 1.0)


def test_ks_threshold_values():
    # kolmogi(0.01) is about 1.6276
    assert ks_threshold(10_000, allowance=0.0) == pytest.approx(0.016276, abs=2e-5)
    assert ks_threshold(10_000) == pytest.approx(0.036276, abs=2e-5)
    assert ks_threshold(100, level=0.95, allowance=0.0) == pytest.approx(
        1.3581 / 10.0, abs=2e-4
    )
    with pytest.raises(ValueError, match="n"):
        ks_threshold(0)


def test_ks_report_is_frozen():
    r = KsReport(statistic=0.1, n=10)
    with pytest.raises(AttributeError):
        r.statistic = 0.2
