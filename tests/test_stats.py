"""Empirical CDFs and KS machinery against closed forms and scipy."""

import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy import stats as sps
from conftest import usable_cpus

from prodspec import stats
from prodspec.cli import (
    PRESETS,
    ExperimentConfig,
    ExperimentReport,
    _mass_in_window,
    apply_preset,
    run_experiment,
    write_outputs,
)
from prodspec.config import ScalingPlan
from prodspec.limit_laws import GinibreLimit, HaarLimit, haar_limit_from_spec
from prodspec.numerics import RngStream, map_tasks
from prodspec.stats import (
    TWO_PI,
    EmpiricalCdf,
    KsReport,
    _rescale_in_place,
    angle_uniformity,
    build_ecdf,
    fold_angles,
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
    # np.sort puts -inf first and +inf and NaN last, where the check reads
    for bad in (
        [1.0, np.nan],
        [-np.inf, 0.0, 1.0],
        [0.0, 1.0, np.inf],
        [0.0, np.nan, 1.0],
        [np.inf, 0.0, np.nan, 1.0],
        [np.nan, 0.0, -np.inf, 1.0],
    ):
        with pytest.raises(ValueError, match="values: sample contains non-finite entries"):
            EmpiricalCdf(values=np.array(bad))


def test_rescale_moduli_formula():
    plan = ScalingPlan(gamma_n=4.0, log_scale=2.0)
    lm = np.array([0.0, 1.0, 3.0])
    expect = np.exp((2 * lm - 2.0) / 4.0)
    assert np.allclose(rescale_moduli(lm, plan), expect, rtol=1e-14)


def test_rescale_in_place_keeps_the_formula_bytes():
    # the run's in-place path must round each step as rescale_moduli does
    plan = ScalingPlan(gamma_n=3.7, log_scale=-1.3)
    lm = RngStream(30).standard_normal(10_001) * 40.0
    for values in (lm.copy(), lm.copy()[1:]):  # a whole array and an offset view
        expect = rescale_moduli(values, plan)
        _rescale_in_place(values, plan)
        assert values.tobytes() == expect.tobytes()


def test_build_ecdf_leaves_the_callers_arrays():
    plan = ScalingPlan(gamma_n=2.0, log_scale=0.5)
    draws = RngStream(38).standard_normal((30, 7))
    kept = draws.copy()
    expect = np.sort(np.exp((2.0 * kept.ravel() - 0.5) / 2.0))
    # one array is pooled into a new one too, so the draws stay as they were
    for sets in ([draws], [draws[:10], draws[10:]], list(draws)):
        ecdf = build_ecdf(sets, plan)
        assert ecdf.values.tobytes() == expect.tobytes()
        assert not np.shares_memory(ecdf.values, draws)
        assert draws.tobytes() == kept.tobytes()
    with pytest.raises(ValueError, match="values"):
        build_ecdf([np.array([0.0, np.nan])], plan)


@pytest.mark.parametrize(
    "bad, error, needle",
    [
        (np.nan, ValueError, "values"),
        (-np.inf, OverflowError, "gamma: rescaled moduli leave the floating-point range"),
        (np.inf, OverflowError, "gamma: rescaled moduli leave the floating-point range"),
        (-2000.0, OverflowError, "gamma: rescaled moduli leave the floating-point range"),
        (2000.0, OverflowError, "gamma: rescaled moduli leave the floating-point range"),
        # two faults, NaN and an overflow: the NaN sorts last and names the error
        ((np.nan, np.inf), ValueError, "values"),
        ((np.nan, -2000.0), ValueError, "values"),
        # a run of NaNs longer than the last segment
        ((np.nan,) * 5, ValueError, "values"),
    ],
)
def test_build_ecdf_names_a_single_fault_anywhere_in_the_sample(bad, error, needle, monkeypatch):
    # the checks read the sorted sample's ends: a fault at either end or in
    # the middle keeps its error. Three CPUs cut the 10 values into segments
    # [0, 3), [3, 6) and [6, 10), so the fault starts in the first, a middle
    # and the last, and the partition at the cuts must carry it to its end.
    # Several faults fill the places from `at` on, wrapping past the last
    monkeypatch.setattr(stats, "_SEGMENT", 3)
    plan = ScalingPlan(gamma_n=1.0, log_scale=0.0)
    for cpus in (1, 3):
        for at in (0, 5, 9):
            values = np.linspace(-1.0, 1.0, 10)
            np.put(values, range(at, at + np.size(bad)), bad, mode="wrap")
            with usable_cpus(cpus), pytest.raises(error, match=needle):
                build_ecdf([values], plan)


def test_ecdf_in_place_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="values: need a nonempty"):
        stats._ecdf_in_place(np.empty(0), ScalingPlan(gamma_n=1.0, log_scale=0.0))


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_segmented_ecdf_is_np_sort_byte_for_byte(cpus, monkeypatch):
    # segments of at least 64 values, one per CPU, mostly at lengths the
    # segment count does not divide; values rounded to 3 and to 1 decimals
    # put cuts inside runs of equal values
    monkeypatch.setattr(stats, "_SEGMENT", 64)
    caller = threading.get_ident()
    pools = []

    def recording(task, count):
        # the count, and the threads that ran this call's tasks
        threads = set()
        pools.append((count, threads))

        def on_thread(s):
            threads.add(threading.get_ident())
            return task(s)

        return map_tasks(on_thread, count)

    monkeypatch.setattr(stats, "map_tasks", recording)
    plan = ScalingPlan(gamma_n=2.0, log_scale=0.3)
    rng = RngStream(40)
    tied_cut = False
    for length in (1, 63, 129, 255, 1001, 4099):
        segments = max(1, min(cpus, length // 64))
        cuts = [length * s // segments for s in range(1, segments)]
        for decimals in (None, 3, 1):
            lm = rng.standard_normal(length)
            if decimals is not None:
                lm = np.round(lm, decimals)
            expect = np.sort(rescale_moduli(lm, plan))
            tied_cut |= any(expect[c - 1] == expect[c] for c in cuts)
            pools.clear()
            with usable_cpus(cpus):
                ecdf = stats._ecdf_in_place(lm, plan)
            assert ecdf.values.tobytes() == expect.tobytes()
            # sorted where it lies, not copied
            assert np.shares_memory(ecdf.values, lm)
            # rescaled and sorted in one map_tasks call each, on at most one
            # thread per segment; one segment runs on the calling thread alone
            assert [count for count, _ in pools] == [segments, segments]
            for _, threads in pools:
                assert len(threads - {caller}) <= segments - 1
                assert segments > 1 or threads == {caller}
    assert tied_cut == (cpus > 1)


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
    cut = special.kolmogi(1.0 - 0.99) / np.sqrt(n)
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
    assert good.statistic < special.kolmogi(1.0 - 0.99) / np.sqrt(n)
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


# --- the split one-sample KS against the full formula ---------------------
#
# ks_one_sample reads the reference at _KS_FIRST_POINTS sorted indices and
# then only inside blocks that could hold a larger term. The references
# below map each point on their own, as the contract asks; the tests also
# lower the first-round count, so that small samples take many rounds.

def _step_reference(levels, width):
    """A step CDF: plateaus of the sorted levels, each `width` wide."""
    def cdf(y):
        return levels[np.clip((y / width).astype(int), 0, len(levels) - 1)]
    return cdf


def _smooth_reference(power, noise):
    """clip(y, 0, 1)**power plus rounding-size noise that is not monotone."""
    def cdf(y):
        return np.clip(y, 0.0, 1.0) ** power + noise * np.sin(1e4 * y)
    return cdf


@st.composite
def split_cases(draw):
    """A sorted sample well above the first-round count and a reference for it."""
    first = draw(st.sampled_from([2, 3, 7, 64, stats._KS_FIRST_POINTS]))
    n = draw(st.integers(first + 1, max(3 * first, 400)))
    rng = RngStream(draw(st.integers(0, 2**16)))
    # a coarse grid makes ties; the spread puts points past both clamps
    grid = draw(st.sampled_from([8, 64, 2**20]))
    shift = draw(st.floats(-0.3, 0.3))
    sample = np.rint((rng.uniform(size=n) ** draw(st.floats(0.3, 3.0)) * 1.4 - 0.2 + shift)
                     * grid) / grid
    if draw(st.booleans()):
        levels = np.sort(np.concatenate([[0.0, 0.0, 1.0, 1.0], rng.uniform(size=draw(st.integers(1, 40)))]))
        cdf = _step_reference(np.append(levels, 1.0), draw(st.sampled_from([0.01, 0.1, 0.37])))
    else:
        noise = draw(st.sampled_from([0.0, 2.0**-52, 1e-14, 5e-13]))
        cdf = _smooth_reference(draw(st.floats(0.2, 5.0)), noise)
    return first, EmpiricalCdf(values=sample), cdf


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=split_cases())
def test_split_ks_equals_the_full_formula(case):
    first, e, cdf = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_KS_FIRST_POINTS", first)
        got = ks_one_sample(e, cdf)
    assert got.statistic == ks_one_sample_reference(e.values, cdf(e.values))
    assert got.n == e.n


def _counting(cdf, sizes):
    def counted(y):
        sizes.append(len(y))
        return cdf(y)
    return counted


def test_split_ks_reads_few_points_of_a_large_sample():
    e = EmpiricalCdf(values=RngStream(39).uniform(size=400_000) ** 1.01)
    sizes = []
    got = ks_one_sample(e, _counting(lambda y: np.clip(y, 0.0, 1.0), sizes))
    assert got.statistic == ks_one_sample_reference(e.values, np.clip(e.values, 0.0, 1.0))
    assert sizes[0] == stats._KS_FIRST_POINTS
    assert sum(sizes) < 10 * stats._KS_FIRST_POINTS


def test_split_ks_reads_a_decreasing_reference_at_every_point():
    e = EmpiricalCdf(values=RngStream(40).uniform(size=3 * stats._KS_FIRST_POINTS))
    for fall, cdf in (
        (True, lambda y: 1.0 - y),
        # a plateau that falls once by just more than the slack, or by less
        (True, lambda y: np.where(y < 0.5, 0.4, 0.4 - 2e-12)),
        (False, lambda y: np.where(y < 0.5, 0.4, 0.4 - 5e-13)),
    ):
        sizes = []
        got = ks_one_sample(e, _counting(cdf, sizes))
        assert (sizes[-1] == e.n) == fall
        assert got.statistic == ks_one_sample_reference(e.values, cdf(e.values))


@pytest.mark.parametrize("at", [0, -1])
def test_split_ks_rejects_nan_at_a_first_round_index(at):
    # the first and last sorted points are always in the first round
    e = EmpiricalCdf(values=RngStream(41).uniform(size=2 * stats._KS_FIRST_POINTS))
    x_at = e.values[at]
    with pytest.raises(ValueError, match="cdf"):
        ks_one_sample(e, lambda y: np.where(y == x_at, np.nan, np.clip(y, 0.0, 1.0)))


def test_split_ks_does_not_see_nan_at_an_index_it_never_reads():
    # only read values are range-checked: the largest term lies in a run of
    # 100 ties at the middle, so no block of the lower half is split and a
    # NaN there off the first-round grid goes unseen, leaving the statistic
    # of the NaN-free reference
    n = 3 * stats._KS_FIRST_POINTS
    x = (np.arange(n) + 0.5) / n
    x[n // 2 : n // 2 + 100] = x[n // 2]
    e = EmpiricalCdf(values=x)
    first = np.rint(np.linspace(0, n - 1, stats._KS_FIRST_POINTS)).astype(np.intp)
    at = int(np.setdiff1d(np.arange(n // 4, n // 2), first)[0])
    x_at = e.values[at]
    got = ks_one_sample(e, lambda y: np.where(y == x_at, np.nan, y))
    assert np.isfinite(got.statistic)
    assert got.statistic == ks_one_sample_reference(e.values, e.values)
    # the same NaN raises once the sample is read whole
    small = EmpiricalCdf(values=e.values[: stats._KS_FIRST_POINTS])
    at = stats._KS_FIRST_POINTS // 2
    x_at = small.values[at]
    with pytest.raises(ValueError, match="cdf"):
        ks_one_sample(small, lambda y: np.where(y == x_at, np.nan, y))


def _preset_config(name, n, **kw):
    return ExperimentConfig(n=n, preset=name, **{**apply_preset(name, n), **kw})


def _reference_laws():
    """The reference CDFs a run can compare with: closed Haar, prefix-only
    betas, Ginibre profile and the point mass at 1."""
    haar = haar_limit_from_spec(_preset_config("haar-remark4ii", 20).build_spec(), 2.0)
    return {
        "haar-closed": haar,
        "haar-prefix": HaarLimit(betas=haar.betas, tail_bound=haar.tail_bound),
        "ginibre": GinibreLimit(alpha=0.5, beta=1.5),
        "ginibre-uniform": GinibreLimit(alpha=1.0, beta=1.0),
        "degenerate": None,
    }


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    law=st.sampled_from(sorted(_reference_laws())),
    seed=st.integers(0, 2**16),
    keep=st.floats(0.001, 1.0),
)
def test_reference_cdfs_map_each_point_on_its_own(law, seed, keep):
    # the split KS reads cdf(x[idx]) and relies on it equalling cdf(x)[idx]
    report = ExperimentReport(
        config=_preset_config("haar-remark4ii", 20), plan=ScalingPlan(2.0, 0.0),
        limit=_reference_laws()[law],
    )
    cdf = report.limit_cdf()
    rng = RngStream(seed)
    x = np.sort(np.exp(rng.standard_normal(3000) * 1.5))
    x[:5] = 1.0  # the point mass's step
    idx = np.flatnonzero(rng.uniform(size=x.size) < keep)
    assert np.asarray(cdf(x[idx])).tobytes() == np.asarray(cdf(x))[idx].tobytes()


@pytest.mark.parametrize("mode", ["scalar", "both"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_run_ks_values_equal_the_full_formula(preset, mode, tmp_path):
    cfg = _preset_config(preset, 60, replicates=200, mode=mode, seed=3)
    report = run_experiment(cfg)
    write_outputs(report, tmp_path)
    written = json.loads((tmp_path / "report.json").read_text())
    cdf = report.limit_cdf()
    expect = {}
    if report.limit is not None:
        for path in ("scalar", "matrix"):
            ecdf = getattr(report, f"{path}_ecdf")
            if ecdf is not None:
                expect[path] = ks_one_sample_reference(ecdf.values, cdf(ecdf.values))
    if report.pooled_angles is not None:
        theta = np.sort(fold_angles(report.pooled_angles))
        expect["angles"] = ks_one_sample_reference(theta, np.clip(theta / TWO_PI, 0.0, 1.0))
    # a point-mass limit leaves a scalar run no KS to compare
    assert expect or (report.limit is None and mode == "scalar")
    for name, value in expect.items():
        assert report.ks_results[name].statistic == value
        assert written[f"ks_{name}"] == value


def test_kolmogorov_quantile_is_scipys():
    assert stats._KS_QUANTILE == special.kolmogi(1.0 - 0.99)
    # every --assert threshold keeps the bytes of scipy's quantile
    for n in (1, 7, 60, 4000, 12_000, 400_000, 2_000_000):
        assert ks_threshold(n) == float(special.kolmogi(1.0 - 0.99) / np.sqrt(n) + 0.02)


def test_ks_threshold_values():
    # kolmogi(0.01) is about 1.6276
    assert ks_threshold(10_000) == pytest.approx(0.036276, abs=2e-5)
    with pytest.raises(ValueError, match="n"):
        ks_threshold(0)


def test_ks_report_is_frozen():
    r = KsReport(statistic=0.1, n=10)
    with pytest.raises(AttributeError):
        r.statistic = 0.2
