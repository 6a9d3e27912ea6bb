"""Special functions, seeded random streams, and monotone inversion.

Everything downstream works with log-gamma and log-beta values directly;
ratios of gamma functions at the sizes we care about overflow long before
the statistics become interesting, so plain Gamma is never formed.
"""

from __future__ import annotations

import numpy as np
from scipy import special


def log_gamma(x):
    """log of the gamma function for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(~(x > 0)):
        raise ValueError(f"log_gamma: argument must be > 0 (got {x!r})")
    out = special.gammaln(x)
    return float(out) if out.ndim == 0 else out


def digamma(x):
    """Logarithmic derivative of the gamma function for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(~(x > 0)):
        raise ValueError(f"digamma: argument must be > 0 (got {x!r})")
    out = special.psi(x)
    return float(out) if out.ndim == 0 else out


def log_beta(a, b):
    """log of the beta function, log_gamma(a) + log_gamma(b) - log_gamma(a+b)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(~(a > 0)) or np.any(~(b > 0)):
        raise ValueError(f"log_beta: arguments must be > 0 (got {a!r}, {b!r})")
    out = special.betaln(a, b)
    return float(out) if out.ndim == 0 else out


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
        shape = np.asarray(shape, dtype=float)
        if np.any(~(shape > 0)):
            raise ValueError(f"gamma: shape must be > 0 (got {shape!r})")
        return self._gen.gamma(shape, size=size)

    def beta(self, a, b, size=None):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if np.any(~(a > 0)) or np.any(~(b > 0)):
            raise ValueError(f"beta: parameters must be > 0 (got {a!r}, {b!r})")
        return self._gen.beta(a, b, size=size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size=size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size=size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path})"


def invert_monotone(f, target, lo, hi, tol=1e-12, max_iter=200):
    """Solve f(x) = target for nondecreasing f by bisection on [lo, hi].

    Stops when the bracket width or the residual drops below tol.
    Requires f(lo) <= target <= f(hi).
    """
    if not (lo < hi):
        raise ValueError(f"invert_monotone: need lo < hi (got {lo}, {hi})")
    if not (tol > 0):
        raise ValueError(f"invert_monotone: tol must be > 0 (got {tol})")
    flo, fhi = f(lo), f(hi)
    if not (flo <= target <= fhi):
        raise ValueError(
            f"invert_monotone: target {target} not bracketed by "
            f"f({lo})={flo}, f({hi})={fhi}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid - target) <= tol or (hi - lo) <= tol:
            return mid
        if fmid < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
