"""Radial surrogates: shapes, exact moments, and sampler consistency."""

import contextlib
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.special import digamma, polygamma
from conftest import usable_cpus

from prodspec import scalar_model
from prodspec.config import GinibreProductSpec, HaarProductSpec, ProductSpec, SignPattern
from prodspec.numerics import RngStream
from prodspec.scalar_model import (
    _log_radius_draws,
    _shape,
    log_mgf_ginibre,
    log_mgf_haar,
    log_weight_moment,
    sample_log_radius_ginibre,
    sample_log_radius_haar,
    sample_radial_spectrum,
    scaled_mean_ginibre,
)
from prodspec.stats import EmpiricalCdf, ks_one_sample

# high-precision references (40-digit arithmetic, rounded to double)
MGF_GINIBRE_N12_J4_T15 = 0.46220791555523563  # n=12, signs "+-+", j=4, t=1.5
MGF_HAAR_N6_J2_T2 = -0.10536051565782630  # n=6, signs "+-", dims=(9,11), j=2, t=2
WEIGHT_GINIBRE_N5_T25 = 2.4816385117193408  # n=5, signs "-+", t=2.5
WEIGHT_HAAR_N4_T3 = -4.5182305942865458  # n=4, signs "+-", dims=(7,6), t=3
SCALED_MEAN_N100_J50 = 0.99501256210044526  # n=100, signs "+-", j=50


def ginibre(n, signs):
    return GinibreProductSpec(n, SignPattern.parse(signs))

def haar(n, signs, dims):
    return HaarProductSpec(n, SignPattern.parse(signs), dims)


def test_factor_shape_values():
    assert _shape(10, 3, 1) == 3
    assert _shape(10, 3, -1) == 8
    assert _shape(5, 5, -1) == 1


def test_factor_shape_closed_form():
    # same thing as (n + 1 + sign*(2j - 1 - n)) / 2
    for n in (3, 8, 17):
        for j in range(1, n + 1):
            for s in (1, -1):
                assert _shape(n, j, s) == (n + 1 + s * (2 * j - 1 - n)) / 2


def test_surrogate_index_outside_1_to_n_is_rejected():
    spec = ginibre(5, "+-")
    with pytest.raises(ValueError, match="j:"):
        log_mgf_ginibre(spec, 0, 0.5)
    with pytest.raises(ValueError, match="j:"):
        sample_log_radius_ginibre(spec, spec.n + 1, RngStream(0))


def test_log_mgf_ginibre_single_inverse_factor():
    # one inverted factor, n=10, j=5, t=2: ratio G(4)/G(5) = 1/5
    spec = ginibre(10, "-")
    assert log_mgf_ginibre(spec, 5, 2.0) == pytest.approx(-math.log(5.0), rel=1e-12)


def test_log_mgf_ginibre_balanced_pair_is_flat_at_t2():
    # j and n+1-j shapes cancel: mean of squared radius is exactly 1
    spec = ginibre(10, "-+")
    assert log_mgf_ginibre(spec, 5, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_log_mgf_ginibre_reference_value():
    assert log_mgf_ginibre(ginibre(12, "+-+"), 4, 1.5) == pytest.approx(
        MGF_GINIBRE_N12_J4_T15, rel=1e-12
    )


def test_log_mgf_ginibre_rejects_t_outside_interval():
    spec = ginibre(10, "+-")
    with pytest.raises(ValueError, match="t:"):
        log_mgf_ginibre(spec, 3, -6.0)  # t <= -2j
    with pytest.raises(ValueError, match="t:"):
        log_mgf_ginibre(spec, 3, 16.0)  # t >= 2(n+1-j)


def test_log_mgf_haar_reference_value():
    spec = haar(6, "+-", (9, 11))
    assert log_mgf_haar(spec, 2, 2.0) == pytest.approx(MGF_HAAR_N6_J2_T2, rel=1e-12)


def test_log_mgf_haar_beta_ratio_hand_value():
    # n=2, one direct factor from dim 4, j=1, t=2: B(2,2)/B(1,2) = 1/3
    spec = haar(2, "+", (4,))
    assert log_mgf_haar(spec, 1, 2.0) == pytest.approx(math.log(1.0 / 3.0), rel=1e-12)


def test_log_mgf_haar_rejects_boundary_t():
    # inverted factor, j=n: shifted beta argument hits 0 exactly at t=2
    spec = haar(2, "-", (4,))
    with pytest.raises(ValueError, match="t:"):
        log_mgf_haar(spec, 2, 2.0)


def test_log_weight_moment_hand_values():
    # single direct factor: (1/2) * Gamma((1+t)/2) at n=3,t=3 and n=1,t=1
    assert log_weight_moment(ginibre(3, "+"), 3.0) == pytest.approx(
        math.log(0.5), rel=1e-12
    )
    assert log_weight_moment(ginibre(1, "+"), 1.0) == pytest.approx(
        -math.log(2.0), rel=1e-12
    )


def test_log_weight_moment_reference_values():
    assert log_weight_moment(ginibre(5, "-+"), 2.5) == pytest.approx(
        WEIGHT_GINIBRE_N5_T25, rel=1e-12
    )
    assert log_weight_moment(haar(4, "+-", (7, 6)), 3.0) == pytest.approx(
        WEIGHT_HAAR_N4_T3, rel=1e-12
    )


def test_log_weight_moment_rejects_bad_t():
    with pytest.raises(ValueError, match="t:"):
        log_weight_moment(ginibre(5, "+"), 0.0)
    with pytest.raises(ValueError, match="t:"):
        log_weight_moment(ginibre(5, "-"), 20.0)  # factor argument crosses 0


@st.composite
def product_specs(draw, max_n=30, max_m=4, min_n=1):
    """Gaussian or truncated-unitary specs with min_n <= n <= max_n and at most max_m factors."""
    n = draw(st.integers(min_n, max_n))
    signs = SignPattern(
        tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=max_m)))
    )
    if draw(st.booleans()):
        return ProductSpec(n, signs)
    dims = draw(st.lists(st.integers(n + 1, 3 * n), min_size=signs.m, max_size=signs.m))
    return ProductSpec(n, signs, tuple(dims))


def spec_case_id(spec):
    # case names keep the per-kind form they had before the two spec kinds merged
    if spec.dims is None:
        return f"GinibreProductSpec(n={spec.n}, signs={spec.signs!r})"
    return f"HaarProductSpec(n={spec.n}, signs={spec.signs!r}, dims={spec.dims})"


def assert_weight_moment_ratio_is_mgf(spec):
    # the weight's moment ratio at 2j-1 offsets must equal the mgf
    mgf = log_mgf_ginibre if spec.dims is None else log_mgf_haar
    for j in (1, spec.n // 2 + 1, spec.n):
        for t in (0.5, 1.0, 1.9):
            lhs = log_weight_moment(spec, 2 * j - 1 + t) - log_weight_moment(
                spec, 2 * j - 1
            )
            assert lhs == pytest.approx(mgf(spec, j, t), rel=1e-10, abs=1e-10)


@pytest.mark.parametrize(
    "spec",
    [
        ginibre(9, "+"),
        ginibre(9, "-+"),
        ginibre(14, "+-+"),
        haar(7, "+-", (12, 9)),
        haar(5, "--", (8, 11)),
    ],
    ids=spec_case_id,
)
def test_weight_moment_ratio_reproduces_mgf(spec):
    assert_weight_moment_ratio_is_mgf(spec)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=product_specs())
def test_weight_moment_ratio_reproduces_mgf_on_drawn_specs(spec):
    assert_weight_moment_ratio_is_mgf(spec)


def test_scaled_mean_single_factor_is_exactly_linear():
    spec = ginibre(40, "+")
    for j in (1, 13, 40):
        assert scaled_mean_ginibre(spec, j) == pytest.approx(j / 40.0, rel=1e-12)


def test_scaled_mean_reference_value():
    assert scaled_mean_ginibre(ginibre(100, "+-"), 50) == pytest.approx(
        SCALED_MEAN_N100_J50, rel=1e-12
    )


def test_sample_log_radius_ginibre_matches_mgf():
    spec = ginibre(8, "+-")
    rng = RngStream(101)
    draws = sample_log_radius_ginibre(spec, 3, rng, size=200_000)
    for t in (1.0, 2.0):
        w = np.exp(t * draws)
        expect = math.exp(log_mgf_ginibre(spec, 3, t))
        stderr = np.std(w, ddof=1) / math.sqrt(len(w))
        assert abs(np.mean(w) - expect) <= 4 * stderr


def test_sample_log_radius_haar_matches_mgf():
    spec = haar(6, "-+", (10, 13))
    rng = RngStream(102)
    draws = sample_log_radius_haar(spec, 4, rng, size=200_000)
    for t in (1.0, 2.0):
        w = np.exp(t * draws)
        expect = math.exp(log_mgf_haar(spec, 4, t))
        stderr = np.std(w, ddof=1) / math.sqrt(len(w))
        assert abs(np.mean(w) - expect) <= 4 * stderr


def test_sample_log_radius_mean_and_variance_ginibre():
    # mean (1/2) sum sign*psi(shape); variance (1/4) sum psi'(shape)
    spec = ginibre(12, "+-+")
    j = 5
    rng = RngStream(103)
    draws = sample_log_radius_ginibre(spec, j, rng, size=400_000)
    mean = sum(
        0.5 * s * digamma(_shape(spec.n, j, s)) for s in spec.signs
    )
    var = sum(
        0.25 * polygamma(1, _shape(spec.n, j, s)) for s in spec.signs
    )
    assert np.mean(draws) == pytest.approx(mean, abs=5 * math.sqrt(var / len(draws)))
    assert np.var(draws, ddof=1) == pytest.approx(var, rel=0.02)


def test_sample_log_radius_variance_haar():
    # each log-beta factor contributes psi'(a) - psi'(a+b) at quarter weight
    spec = haar(9, "+-", (14, 12))
    j = 4
    rng = RngStream(104)
    draws = sample_log_radius_haar(spec, j, rng, size=400_000)
    var = 0.0
    for s, d in zip(spec.signs, spec.dims):
        a = _shape(spec.n, j, s)
        var += 0.25 * (polygamma(1, a) - polygamma(1, a + d - spec.n))
    assert np.var(draws, ddof=1) == pytest.approx(var, rel=0.02)


def test_spectrum_reproducible_and_sized():
    spec = haar(25, "+-", (40, 31))
    a = sample_radial_spectrum(spec, RngStream(7).substream(0), 1)[0]
    b = sample_radial_spectrum(spec, RngStream(7).substream(0), 1)[0]
    assert isinstance(a, np.ndarray)
    assert a.shape == (25,)
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))


def test_spectrum_replicates_differ():
    spec = ginibre(25, "-+")
    a = sample_radial_spectrum(spec, RngStream(7).substream(0), 1)
    b = sample_radial_spectrum(spec, RngStream(7).substream(1), 1)
    assert not np.array_equal(a, b)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    spec=product_specs(max_n=40),
    count=st.integers(1, 8),
    extra=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectrum_rows_do_not_depend_on_the_count(spec, count, extra, seed):
    # R replicates are the first R rows of R + extra, byte for byte
    rng = RngStream(seed).substream(0, 3)
    fewer = sample_radial_spectrum(spec, rng, count)
    more = sample_radial_spectrum(spec, rng, count + extra)
    assert fewer.shape == (count, spec.n) and more.shape == (count + extra, spec.n)
    assert fewer.tobytes() == more[:count].tobytes()


def draw_per_chunk_and_factor(spec, rng, count, rows):
    """The spectrum drawn serially: chunk c's rows [c * rows, (c + 1) * rows)
    of factor k from rng.substream(k, c), summed in factor order."""
    j = np.arange(1, spec.n + 1, dtype=float)
    total = np.empty((count, spec.n))
    for c, start in enumerate(range(0, count, rows)):
        size = (min(rows, count - start), spec.n)
        part = None
        for k, sign in enumerate(spec.signs):
            shape = j if sign == 1 else spec.n + 1 - j
            stream = rng.substream(k, c)
            if spec.dims is None:
                draw = stream.gamma(shape, size=size)
            else:
                draw = stream.beta(shape, spec.dims[k] - spec.n, size=size)
            term = 0.5 * sign * np.log(draw)
            part = term if part is None else part + term
        total[start:start + size[0]] = part
    return total


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    spec=product_specs(max_n=40, max_m=8),
    count=st.integers(1, 8),
    threads=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectrum_bytes_do_not_depend_on_the_thread_count(spec, count, threads, seed):
    # a chunk of one row gives every replicate a task and streams of its own
    rng = RngStream(seed).substream(0)
    serial = draw_per_chunk_and_factor(spec, rng, count, 1)
    for cpus in (1, threads):
        with usable_cpus(cpus), mock.patch.object(scalar_model, "_CHUNK", spec.n):
            pooled = sample_radial_spectrum(spec, rng, count)
        assert pooled.shape == serial.shape == (count, spec.n)
        assert pooled.tobytes() == serial.tobytes()
    # a single index's draw is a scalar, as with a shared stream
    streams = [rng.substream(k) for k in range(spec.m)]
    single = _log_radius_draws(spec, float(spec.n), streams, np.empty(()))
    assert isinstance(single, np.float64)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    spec=product_specs(max_n=40),
    count=st.integers(1, 12),
    threads=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_spectrum_chunk_c_of_factor_k_draws_from_key_k_c(spec, count, threads, seed, data):
    # chunks run from one value (a row each) to more than the whole draw,
    # and their rows need not divide the replicates; each chunk size is its
    # own layout, so the bytes do depend on it
    chunk = data.draw(st.integers(1, (count + 1) * spec.n), label="chunk")
    rng = RngStream(seed).substream(0)
    with usable_cpus(threads), mock.patch.object(scalar_model, "_CHUNK", chunk):
        drawn = sample_radial_spectrum(spec, rng, count)
    rows = max(1, chunk // spec.n)
    assert drawn.tobytes() == draw_per_chunk_and_factor(spec, rng, count, rows).tobytes()


@contextlib.contextmanager
def first_two_chunks_meet():
    """Make factor 0's draws in chunks 0 and 1 wait for each other, so that
    a draw running them on one thread fails with BrokenBarrierError; yields
    the set of threads that made those two draws."""
    barrier, threads = threading.Barrier(2, timeout=10), set()

    def meeting(draw):
        def wrapped(self, *args, **kwargs):
            if self.path[-2:] in ((0, 0), (0, 1)):
                threads.add(threading.get_ident())
                barrier.wait()
            return draw(self, *args, **kwargs)

        return wrapped

    with (
        mock.patch.object(RngStream, "gamma", meeting(RngStream.gamma)),
        mock.patch.object(RngStream, "beta", meeting(RngStream.beta)),
    ):
        yield threads


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    spec=product_specs(max_n=40, max_m=8),
    count=st.integers(1, 12),
    cpus=st.integers(1, 4),
    rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(spec=ginibre(12, "-"), count=5, cpus=2, rows=2, seed=0)
@example(spec=haar(7, "+", (9,)), count=12, cpus=4, rows=1, seed=1)
def test_spectrum_draw_is_the_same_on_any_cpus_and_a_smaller_count_is_a_prefix(
    spec, count, cpus, rows, seed
):
    rng = RngStream(seed).substream(0)
    with mock.patch.object(scalar_model, "_CHUNK", rows * spec.n):
        with usable_cpus(1):
            alone = sample_radial_spectrum(spec, rng, count)
        # with more than one chunk and more than one CPU, even a single
        # factor's chunks draw on two threads at once
        meet = first_two_chunks_meet() if cpus > 1 and count > rows else contextlib.nullcontext()
        with usable_cpus(cpus), meet as threads:
            pooled = sample_radial_spectrum(spec, rng, count)
        assert threads is None or len(threads) == 2
        assert pooled.tobytes() == alone.tobytes()
        for fewer in range(count):
            first = sample_radial_spectrum(spec, rng, fewer)
            assert first.shape == (fewer, spec.n)
            assert first.tobytes() == pooled[:fewer].tobytes()


def test_chunked_spectrum_draw_under_frequent_thread_switches():
    # eight threads on 200 one-row chunks of eight factors, with the
    # interpreter switching threads about every microsecond: a chunk drawn
    # from another chunk's streams would change the bytes, and a hang
    # fails the join
    spec = haar(6, "+-+-++--", (9, 7, 12, 8, 10, 7, 11, 9))
    rng = RngStream(17).substream(0)
    drawn = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with usable_cpus(8), mock.patch.object(scalar_model, "_CHUNK", spec.n):
            run = threading.Thread(
                target=lambda: drawn.append(sample_radial_spectrum(spec, rng, 200)), daemon=True
            )
            run.start()
            run.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not run.is_alive(), "the chunked draw hangs"
    assert drawn[0].tobytes() == draw_per_chunk_and_factor(spec, rng, 200, 1).tobytes()


def test_spectrum_draw_holds_its_output_and_a_chunk_per_thread():
    # (R, n, m) = (2000, 200, 4) on two usable CPUs: the output is 3.05 MiB
    # and each of the two threads holds one chunk of 0.5 MiB at a time
    spec = ginibre(200, "++++")
    with usable_cpus(2):
        tracemalloc.start()
        try:
            drawn = sample_radial_spectrum(spec, RngStream(1).substream(0), 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 1.5 * drawn.nbytes


def exact_pooled_cdf(spec, x):
    """Exact CDF at x of a one- or two-factor spec's pooled log surrogates.

    One factor: Y = sign * log(draw) / 2, so P(Y <= x) is P(draw <= e^{2x})
    for a direct factor and P(draw >= e^{-2x}) for an inverted one.
    Two Gaussian factors of opposite sign: Y = (log G_j - log G'_{n+1-j}) / 2,
    and G_j / (G_j + G') ~ Beta(j, n+1-j), so P(Y <= x) is that beta's CDF
    at expit(2x). Both are averaged over j.
    """
    # written out rather than taken from _shape, which is under test
    j = np.arange(1.0, spec.n + 1)[:, None]
    if spec.m == 2:
        assert spec.dims is None and sum(spec.signs) == 0
        u = special.expit(2.0 * np.asarray(x))
        return special.betainc(j, spec.n + 1 - j, u).mean(axis=0)
    (sign,) = spec.signs
    shape = j if sign == 1 else spec.n + 1 - j
    u = np.exp(2.0 * sign * np.asarray(x))
    if spec.dims is None:
        per_index = special.gammainc(shape, u) if sign == 1 else special.gammaincc(shape, u)
    else:
        below = special.betainc(shape, spec.dims[0] - spec.n, u)
        per_index = below if sign == 1 else 1.0 - below
    return per_index.mean(axis=0)


@pytest.mark.parametrize(
    "spec",
    [
        ginibre(3, "+"),
        ginibre(3, "-"),
        ginibre(40, "+"),
        ginibre(40, "-"),
        haar(3, "+", (5,)),
        haar(3, "-", (4,)),
        haar(40, "+", (41,)),
        haar(40, "-", (90,)),
        ginibre(3, "-+"),
        ginibre(3, "+-"),
        ginibre(40, "-+"),
        ginibre(40, "+-"),
    ],
    ids=spec_case_id,
)
def test_pooled_block_draws_follow_the_exact_law(spec):
    draws = sample_radial_spectrum(spec, RngStream(106).substream(0), 40_000 // spec.n)
    report = ks_one_sample(EmpiricalCdf(draws.ravel()), lambda x: exact_pooled_cdf(spec, x))
    assert report.statistic <= special.kolmogi(0.01) / math.sqrt(report.n)


def test_spectrum_entry_distribution_matches_per_index_sampler():
    # pooled replicate means track the exact digamma means index by index
    spec = ginibre(30, "+-")
    reps = 4000
    got = sample_radial_spectrum(spec, RngStream(105), reps).mean(axis=0)
    for j in (1, 10, 20, 30):
        expect = sum(
            0.5 * s * digamma(_shape(spec.n, j, s)) for s in spec.signs
        )
        var = sum(
            0.25 * polygamma(1, _shape(spec.n, j, s)) for s in spec.signs
        )
        assert got[j - 1] == pytest.approx(expect, abs=5 * math.sqrt(var / reps))


def test_haar_radii_of_contractions_stay_below_one():
    # all-direct truncations are contractions, so every radius is below 1
    spec = haar(20, "++", (30, 25))
    sample = sample_radial_spectrum(spec, RngStream(9), 1)
    assert np.all(sample < 0)
