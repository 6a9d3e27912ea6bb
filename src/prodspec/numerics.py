"""Seeded random streams with checked gamma and beta draws, and map_tasks,
the thread pool that runs the scalar chunks, the matrix replicates and the
ECDF's segments on at most one thread per usable CPU (usable_cpus).

Each draw task owns its streams' keys, so it draws the same values on
whichever thread runs it; each ECDF segment is a slice of its own.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

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
    """[task(i) for i in range(count)], computed on a pool of threads.

    The pool has one thread per task, at most usable_cpus(), and at least
    one: threads beyond the CPUs add no speed. Every task is submitted at
    once and the results come back in index order. The first failed task's
    error, in index order, is raised once the started tasks have ended;
    the tasks not started by then are cancelled.
    """
    with ThreadPoolExecutor(max_workers=max(1, min(count, usable_cpus()))) as pool:
        return list(pool.map(task, range(count)))


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

