"""Special-function accuracy and stream reproducibility."""

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import special

from prodspec import numerics
from prodspec.numerics import RngStream, map_tasks
from prodspec.scalar_model import _log_norm


def log_gamma(x):
    # the normalizer of a Gaussian factor's gamma draw
    return _log_norm(x, None)


# high-precision references (40-digit arithmetic, rounded to double)
LOG_GAMMA_REFS = {
    0.001: 6.907178885383853,
    0.5: 0.5723649429247001,
    1.0: 0.0,
    2.0: 0.0,
    10.0: 12.801827480081469,
    171.5: 709.1431630309282,
    1e6: 12815504.569147611,
}


@pytest.mark.parametrize("x,ref", sorted(LOG_GAMMA_REFS.items()))
def test_log_gamma_reference_values(x, ref):
    assert log_gamma(x) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_log_gamma_recurrence():
    # log G(x+1) - log G(x) = log x across the working range
    for x in (1e-3, 0.3, 1.7, 25.0, 4000.0):
        assert log_gamma(x + 1.0) - log_gamma(x) == pytest.approx(
            math.log(x), rel=1e-10
        )


def test_log_gamma_ratio_asymptotic():
    # |log G(x+b) - log G(x) - b log x| <= C |b| / x with one global C
    bs = np.array([-2.0, -1.3, -0.4, 0.7, 1.2, 2.0])
    worst = 0.0
    residual_by_x = {}
    for x in (10.0, 100.0, 1000.0):
        res = np.abs(log_gamma(x + bs) - log_gamma(x) - bs * np.log(x))
        worst = max(worst, np.max(res * x / np.abs(bs)))
        residual_by_x[x] = np.max(res)
    assert worst <= 3.0
    # residuals shrink about tenfold per decade
    assert 5.0 < residual_by_x[10.0] / residual_by_x[100.0] < 20.0
    assert 5.0 < residual_by_x[100.0] / residual_by_x[1000.0] < 20.0


def test_log_beta_consistency():
    for a, b in ((1.0, 2.0), (0.5, 0.5), (3.0, 7.0), (40.0, 2.5)):
        expect = log_gamma(a) + log_gamma(b) - log_gamma(a + b)
        assert _log_norm(a, b) == pytest.approx(expect, rel=1e-12)
    assert _log_norm(1.0, 2.0) == pytest.approx(math.log(0.5), rel=1e-14)


def test_stream_reproducible():
    a = RngStream(42).substream(3).gamma(2.5, size=5)
    b = RngStream(42).substream(3).gamma(2.5, size=5)
    assert np.array_equal(a, b)


def test_stream_distinct_paths_differ():
    a = RngStream(42, path=(0,)).standard_normal(size=8)
    b = RngStream(42, path=(1,)).standard_normal(size=8)
    assert not np.array_equal(a, b)


def test_substream_nesting_matches_explicit_path():
    via_nesting = RngStream(7).substream(1).substream(4).uniform(size=3)
    direct = RngStream(7, path=(1, 4)).uniform(size=3)
    assert np.array_equal(via_nesting, direct)


def test_stream_independence_is_statistical():
    # correlation between sibling streams stays at noise level
    x = RngStream(0, path=(11,)).standard_normal(size=20000)
    y = RngStream(0, path=(12,)).standard_normal(size=20000)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.03


@pytest.mark.parametrize("size", [None, (327, 200)])
@pytest.mark.parametrize("shape", [0.3, 1.0, 6.0, "j"])
def test_gamma_draws_are_numpys_gamma_bytes(shape, size):
    # standard_gamma is numpy's gamma at scale 1.0, draw for draw; "j" is
    # the 1..200 shape array of a Gaussian factor's surrogates
    if shape == "j":
        shape = np.arange(1, 201, dtype=float)
    drawn = RngStream(11, path=(0, 2, 5)).gamma(shape, size=size)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(11, spawn_key=(0, 2, 5))))
    expect = gen.gamma(shape, size=size)
    assert type(drawn) is type(expect) and np.shape(drawn) == np.shape(expect)
    assert np.asarray(drawn).tobytes() == np.asarray(expect).tobytes()


def test_gamma_sampler_moments():
    rng = RngStream(3)
    n = 200_000
    for shape in (0.7, 1.0, 6.0):
        draws = rng.gamma(shape, size=n)
        assert np.mean(draws) == pytest.approx(shape, abs=5 * math.sqrt(shape / n))


def test_gamma_sampler_log_mgf():
    # E[exp(t log X)] = G(shape+t)/G(shape), checked at 4 standard errors
    rng = RngStream(12)
    n = 1_000_000
    shape = 3.0
    logs = np.log(rng.gamma(shape, size=n))
    for t in (-0.5, 0.5):
        w = np.exp(t * logs)
        expect = math.exp(special.gammaln(shape + t) - special.gammaln(shape))
        stderr = np.std(w, ddof=1) / math.sqrt(n)
        assert abs(np.mean(w) - expect) <= 4 * stderr


def test_beta_sampler_log_mgf():
    # E[exp(t log X)] = B(a+t,b)/B(a,b)
    rng = RngStream(13)
    n = 1_000_000
    a, b = 2.0, 5.0
    logs = np.log(rng.beta(a, b, size=n))
    for t in (-0.5, 0.5):
        w = np.exp(t * logs)
        expect = math.exp(special.betaln(a + t, b) - special.betaln(a, b))
        stderr = np.std(w, ddof=1) / math.sqrt(n)
        assert abs(np.mean(w) - expect) <= 4 * stderr


def test_sampler_rejects_bad_parameters():
    rng = RngStream(0)
    with pytest.raises(ValueError):
        rng.gamma(0.0)
    with pytest.raises(ValueError):
        rng.beta(1.0, 0.0)


def test_map_tasks_threads_follow_the_tasks_and_the_usable_cpus(monkeypatch):
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    def threads(count):
        # the results come back in index order, whatever the pool's size
        assert map_tasks(lambda i: i * i, count) == [i * i for i in range(count)]
        return sizes[-1]

    monkeypatch.setattr(numerics, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)), raising=False)
    assert numerics.usable_cpus() == 5
    assert [threads(count) for count in (1, 4, 5, 8)] == [1, 4, 5, 5]
    # no task still gets a pool of one thread
    assert threads(0) == 1
    # without an affinity call the CPU count stands in, or 1 when it is unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert (numerics.usable_cpus(), threads(8)) == (3, 3)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert (numerics.usable_cpus(), threads(8)) == (1, 1)
