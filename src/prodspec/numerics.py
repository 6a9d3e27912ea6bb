"""Seeded random streams with checked gamma and beta draws, and map_tasks,
which runs the scalar chunks, the matrix replicates and the ECDF's
segments on at most one thread per usable CPU (usable_cpus), the calling
thread being one of them.

Each draw task owns its streams' keys, so it draws the same values on
whichever thread runs it; each ECDF segment is a slice of its own.
"""

from __future__ import annotations

import os
import threading

import numpy as np
# numpy loads its random module on first use; loading it here keeps that
# import in a program's start-up rather than in its first draw
import numpy.random


def usable_cpus() -> int:
    """The CPUs this process may run on: the affinity mask's, or
    os.cpu_count() where that cannot be read, or 1 where neither is known.
    A cgroup's CPU quota is not seen."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_tasks(task, count: int) -> list:
    """[task(i) for i in range(count)], computed on k = min(count,
    usable_cpus()) threads, at least one: threads beyond the CPUs add no
    speed.

    The calling thread is one of the k; the other k - 1 are started here,
    so one task or one usable CPU starts none. Each thread takes the next
    index in increasing order until none is left. Once a task has failed
    no thread takes a new index, and when every thread has ended the
    error of the lowest failed index is raised. An exception on the
    calling thread outside a task, such as a KeyboardInterrupt, also
    stops new tasks, and the started ones end before it propagates.
    """
    results = [None] * count
    failures = []
    lock = threading.Lock()
    indices = iter(range(count))

    def run():
        while True:
            with lock:
                i = next(indices, None) if not failures else None
            if i is None:
                return
            try:
                results[i] = task(i)
            except BaseException as exc:
                with lock:
                    failures.append((i, exc))

    threads = []
    try:
        for _ in range(min(count, usable_cpus()) - 1):
            thread = threading.Thread(target=run)
            thread.start()
            threads.append(thread)
        run()
        for thread in threads:
            thread.join()
    except BaseException:
        # the calling thread is leaving on an exception of its own: no
        # index is taken from here on, and the started tasks end first
        with lock:
            indices = iter(())
        for thread in threads:
            thread.join()
        raise
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


def _positive(name: str, *args):
    """args as float arrays; raises ValueError naming `name` unless all are > 0."""
    arrays = [np.asarray(a, dtype=float) for a in args]
    if any(np.any(~(a > 0)) for a in arrays):
        raise ValueError(f"{name}: arguments must be > 0 (got {', '.join(map(repr, arrays))})")
    return arrays


class RngStream:
    """Deterministic pseudo-random stream keyed by (seed, path).

    Two streams with the same key yield identical draws; distinct paths are
    statistically independent. substream() derives a child key, so replicate
    r can own key (r,) and hand (r, j) to per-index work without any
    coordination between workers.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def substream(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(indices))

    def gamma(self, shape, size=None):
        """Gamma(shape) draws of unit scale. numpy's gamma is scale times
        standard_gamma, so these are its bytes at scale 1.0, without
        broadcasting a scale that changes nothing."""
        return self._gen.standard_gamma(*_positive("gamma", shape), size=size)

    def beta(self, a, b, size=None):
        return self._gen.beta(*_positive("beta", a, b), size=size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size=size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path})"

