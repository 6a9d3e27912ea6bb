"""Special-function accuracy and stream reproducibility."""

import math
import os
import random
import sys
import threading
import time

import mpmath
import numpy as np
import pytest
from scipy import special

from prodspec import numerics
from prodspec.config import ProductSpec, SignPattern
from prodspec.numerics import RngStream, map_tasks
from prodspec.scalar_model import _log_norm, log_mgf_ginibre, log_mgf_haar

from conftest import usable_cpus


def log_gamma(x):
    # the normalizer of a Gaussian factor's gamma draw; it takes scalars,
    # so an array is mapped over elementwise
    if np.ndim(x) == 0:
        return _log_norm(x, None)
    return np.array([_log_norm(v, None) for v in x])


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
    # b is the whole number of rows cut from the unitary
    for a, b in ((1.0, 2), (0.5, 1), (3.0, 7), (40.0, 3)):
        expect = log_gamma(a) + log_gamma(b) - log_gamma(a + b)
        assert _log_norm(a, b) == pytest.approx(expect, rel=1e-12)
    assert _log_norm(1.0, 2) == pytest.approx(math.log(0.5), rel=1e-14)


def mp_log_beta(a, b):
    return mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)


def drawn_indices(rnd):
    """n <= 400, j in 1..n and a rows-cut count b in 1..2n, as the log-MGF
    helpers meet them."""
    n = rnd.randint(1, 400)
    return n, rnd.randint(1, n), rnd.randint(1, 2 * n)


def test_log_beta_matches_mpmath_at_integer_b():
    # shape j or n+1-j, as a direct or an inverted truncation's draw has it
    rnd, worst = random.Random(1), 0.0
    with mpmath.workdps(40):
        for _ in range(3000):
            n, j, b = drawn_indices(rnd)
            shape = float(rnd.choice((j, n + 1 - j)))
            ref = mp_log_beta(mpmath.mpf(shape), b)
            got = _log_norm(shape, b)
            # B(1, 1) = 1 is the one case with log B = 0, and it is exact
            worst = max(worst, float(abs(got - ref) / abs(ref)) if ref else abs(got))
    # -log(shape) minus a sum of positive log1p terms; log Gamma(b) minus
    # the logs of shape + i cancels, and lost 8e-14 here at B(1, 547)
    assert worst <= 1e-15


def test_log_mgf_matches_mpmath_to_1e12_of_its_size():
    # t strictly inside the domain; it is unbounded on a side without a
    # factor of that orientation, so t is drawn up to 4n there
    rnd, worst = random.Random(2), 0.0
    with mpmath.workdps(40):
        for _ in range(2000):
            n, j, _ = drawn_indices(rnd)
            signs = SignPattern(tuple(rnd.choice((-1, 1)) for _ in range(rnd.randint(1, 4))))
            truncated = rnd.random() < 0.5
            dims = tuple(n + rnd.randint(1, 2 * n) for _ in signs) if truncated else None
            spec = ProductSpec(n, signs, dims)
            lo = -2 * j if spec.plus_count > 0 else -4 * n
            hi = 2 * (n + 1 - j) if spec.plus_count < spec.m else 4 * n
            t = lo + (hi - lo) * rnd.uniform(1e-6, 1 - 1e-6)
            got = (log_mgf_haar if truncated else log_mgf_ginibre)(spec, j, t)
            ref = mpmath.mpf(0)
            for k, sign in enumerate(signs):
                shape = j if sign == 1 else n + 1 - j
                moved = shape + sign * mpmath.mpf(t) / 2
                if truncated:
                    ref += mp_log_beta(moved, dims[k] - n) - mp_log_beta(shape, dims[k] - n)
                else:
                    ref += mpmath.loggamma(moved) - mpmath.loggamma(shape)
            worst = max(worst, float(abs(got - ref)) / max(1.0, abs(float(ref))))
    assert worst <= 1e-12


def test_log_gamma_matches_mpmath_away_from_its_zeros():
    # near its zeros at 1 and 2 log Gamma is accurate in absolute, not in
    # relative terms; arguments span the helpers' shapes and rows cut
    rnd, worst = random.Random(3), 0.0
    with mpmath.workdps(40):
        for _ in range(3000):
            x = math.exp(rnd.uniform(math.log(1e-3), math.log(2000.0)))
            ref = mpmath.loggamma(x)
            if abs(ref) > 0.5:
                worst = max(worst, float(abs((log_gamma(x) - ref) / ref)))
    assert worst <= 4e-15


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


class _RecordingThread(threading.Thread):
    """threading.Thread that records each thread started."""

    started = []

    def start(self):
        self.started.append(self)
        super().start()


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs, a list that grows."""
    monkeypatch.setattr(_RecordingThread, "started", [])
    monkeypatch.setattr(threading, "Thread", _RecordingThread)
    return _RecordingThread.started


def test_map_tasks_threads_follow_the_tasks_and_the_usable_cpus(monkeypatch, started):
    caller = threading.get_ident()

    def threads(count):
        # the first min(count, CPUs) tasks meet at a barrier, so that many
        # threads run at once, the calling thread among them
        k = max(1, min(count, numerics.usable_cpus()))
        barrier, ran = threading.Barrier(k, timeout=10), set()

        def task(i):
            ran.add(threading.get_ident())
            if i < k:
                barrier.wait()
            return i * i

        started.clear()
        before = threading.active_count()
        # the results come back in index order, whatever the thread count
        assert map_tasks(task, count) == [i * i for i in range(count)]
        assert threading.active_count() == before
        assert all(not t.is_alive() for t in started)
        assert len(ran) == min(count, k) and (count == 0 or caller in ran)
        # the calling thread is one of the k, so k - 1 are started
        assert len(started) == k - 1
        return k

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)), raising=False)
    assert numerics.usable_cpus() == 5
    assert [threads(count) for count in (1, 4, 5, 8)] == [1, 4, 5, 5]
    # no task starts no thread
    assert threads(0) == 1 and started == []
    # without an affinity call the CPU count stands in, or 1 when it is unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert (numerics.usable_cpus(), threads(8)) == (3, 3)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert (numerics.usable_cpus(), threads(8)) == (1, 1)
    # one usable CPU starts no thread: every task runs on the calling thread
    assert started == []


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_map_tasks_returns_results_in_index_order(cpus):
    # later indices end first: each task sleeps the longer the lower its index
    count = 24

    def task(i):
        time.sleep(0.0005 * (count - i))
        return (i, threading.get_ident())

    with usable_cpus(cpus):
        out = map_tasks(task, count)
    assert [i for i, _ in out] == list(range(count))
    assert len({t for _, t in out}) <= min(count, cpus)


def test_map_tasks_runs_each_index_once_under_fast_thread_switches():
    # more threads than cores and a short switch interval: an index taken
    # twice or skipped by a lost update of the shared counter shows here
    calls = [0] * 5000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with usable_cpus(8):
            out = map_tasks(lambda i: calls.__setitem__(i, calls[i] + 1) or i, len(calls))
    finally:
        sys.setswitchinterval(interval)
    assert out == list(range(len(calls)))
    assert calls == [1] * len(calls)


def test_map_tasks_of_no_task_is_empty_and_starts_no_thread(started):
    with usable_cpus(8):
        assert map_tasks(lambda i: 1 / 0, 0) == []
    assert started == []


def test_map_tasks_raises_the_lowest_failed_index_not_the_first_to_fail():
    # task 0 fails only once task 1 has failed
    later_failed = threading.Event()

    def task(i):
        if i == 1:
            later_failed.set()
            raise KeyError("task 1")
        if i == 0:
            assert later_failed.wait(10)
            raise ValueError("task 0")
        return i

    with usable_cpus(2), pytest.raises(ValueError, match="task 0"):
        map_tasks(task, 6)


@pytest.mark.parametrize("cpus", [1, 2])
def test_map_tasks_starts_no_task_after_a_failure(cpus):
    # on one CPU the tasks run in index order on the calling thread. On two,
    # tasks 0 and 1 are taken first; task 0 ends well after task 1 has
    # failed, so the thread that ran either finds the failure
    began, failed = [], threading.Event()

    def task(i):
        began.append(i)
        if i == 1:
            failed.set()
            raise ValueError("task 1")
        if i == 0 and cpus > 1:
            assert failed.wait(10)
            time.sleep(0.1)
        return i

    with usable_cpus(cpus), pytest.raises(ValueError, match="task 1"):
        map_tasks(task, 50)
    assert sorted(began) == [0, 1]


def test_map_tasks_runs_a_task_that_calls_map_tasks(started):
    before = threading.active_count()
    with usable_cpus(2):
        out = map_tasks(lambda i: map_tasks(lambda j: (i, j), 3), 4)
    assert out == [[(i, j) for j in range(3)] for i in range(4)]
    assert threading.active_count() == before
    # one thread for the outer call and one for each inner call, at most
    assert 1 <= len(started) <= 1 + 4


@pytest.mark.parametrize("on_caller", [False, True], ids=["task", "caller"])
def test_map_tasks_after_a_keyboard_interrupt_leaves_no_thread_alive(on_caller, started):
    # the interrupt is raised in task 5, or on the calling thread by
    # _thread.interrupt_main, where it may land in a task or between tasks
    import _thread

    began = []

    def task(i):
        began.append(i)
        if i == 5:
            if on_caller:
                _thread.interrupt_main()
            else:
                raise KeyboardInterrupt
        time.sleep(0.002)
        return i

    before = threading.active_count()
    with usable_cpus(4), pytest.raises(KeyboardInterrupt):
        map_tasks(task, 200)
        # the interrupt may land after the last task; it is raised here then
        time.sleep(1)
    assert threading.active_count() == before
    assert started and all(not t.is_alive() for t in started)
    assert len(began) < 200


def test_map_tasks_interrupted_while_joining_stops_and_joins_the_threads(monkeypatch, started):
    # the first join raises a KeyboardInterrupt at once: map_tasks still
    # waits for the started thread's task before the interrupt propagates
    caller = threading.get_ident()
    join = _RecordingThread.join
    calls = []

    def interrupted(self, *args):
        calls.append(self)
        if len(calls) == 1:
            raise KeyboardInterrupt
        return join(self, *args)

    monkeypatch.setattr(_RecordingThread, "join", interrupted)
    before = threading.active_count()
    with usable_cpus(2), pytest.raises(KeyboardInterrupt):
        map_tasks(lambda i: time.sleep(0.2 * (threading.get_ident() != caller)), 2)
    assert threading.active_count() == before
    assert len(started) == 1 and not started[0].is_alive()


def test_map_tasks_that_cannot_start_a_thread_stops_the_started_ones(monkeypatch, started):
    # the second thread fails to start while the first is taking tasks: no
    # task starts after that, and the first thread ends before the error
    # propagates
    start, began = _RecordingThread.start, []

    def failing(self):
        if len(started) == 1:
            time.sleep(0.01)
            raise RuntimeError("can't start new thread")
        start(self)

    def task(i):
        began.append(i)
        time.sleep(0.001)

    monkeypatch.setattr(_RecordingThread, "start", failing)
    before = threading.active_count()
    with usable_cpus(3), pytest.raises(RuntimeError, match="can't start"):
        map_tasks(task, 200)
    assert threading.active_count() == before
    assert len(started) == 1 and not started[0].is_alive()
    assert 1 <= len(began) < 200
