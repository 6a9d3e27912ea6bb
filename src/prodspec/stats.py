"""Pooled empirical distributions and Kolmogorov-Smirnov comparisons.

Replicates are pooled into one empirical CDF before any comparison; the
rescaling from log-moduli to the comparison variable is the shared
power map h = exp((2*log_modulus - log_scale) / gamma_n), which is
monotone and therefore leaves KS statistics untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScalingPlan
from .numerics import map_tasks, usable_cpus

TWO_PI = 2.0 * np.pi

# _ecdf_in_place works one segment per usable CPU, each of at least this
# many values: below it a started thread costs more than it saves (on two
# CPUs, two segments broke even with one sort at 131k-160k values and took
# 12% less time at 262k, 20% less at 400k)
_SEGMENT = 1 << 17
# ks_one_sample first reads the reference at this many evenly spaced sorted
# indices, so a sample of at most this size is read whole: below about 10k
# points the split's rounds cost more than reading even the closed Haar
# curve at every point
_KS_FIRST_POINTS = 8192
# rounding slack of ks_one_sample's block bounds, and the largest fall
# between evaluated neighbours it takes for rounding noise in the reference
_KS_SLACK = 1e-12
# ks_threshold's terms: the 99% quantile of Kolmogorov's distribution
# (Kolmogorov 1933), scipy.special.kolmogi(1.0 - 0.99) to the bit, and the
# flat allowance added to it
_KS_QUANTILE = 1.6276236115189502
_KS_ALLOWANCE = 0.02


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous step CDF of a pooled sample, values kept sorted."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("values: need a nonempty 1-d sample")
        v = np.sort(v)
        # np.sort puts -inf first and +inf and NaN last
        if not (np.isfinite(v[0]) and np.isfinite(v[-1])):
            raise ValueError("values: sample contains non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return len(self.values)

    def evaluate(self, y):
        """Fraction of the sample at or below y."""
        out = np.searchsorted(self.values, np.asarray(y, dtype=float), side="right") / self.n
        return float(out) if np.ndim(y) == 0 else out


@dataclass(frozen=True)
class KsReport:
    """One KS comparison: statistic and the size of the (first) sample."""

    statistic: float
    n: int


def rescale_moduli(log_moduli, plan: ScalingPlan):
    """Map log-moduli to the comparison variable h via the scaling plan."""
    lm = np.asarray(log_moduli, dtype=float)
    return np.exp((2.0 * lm - plan.log_scale) / plan.gamma_n)


def _rescale_in_place(values: np.ndarray, plan: ScalingPlan) -> None:
    """rescale_moduli on a float array, written over it: the same operations
    in the same order, so the same bytes, with no temporary."""
    values *= 2.0
    values -= plan.log_scale
    values /= plan.gamma_n
    np.exp(values, out=values)


def _ecdf_in_place(log_moduli: np.ndarray, plan: ScalingPlan) -> EmpiricalCdf:
    """The ECDF of a new float array's rescaled entries, built in the array.

    The array is rescaled and sorted where it lies, not copied, so it must
    be the caller's own and not be read as log-moduli again. It is worked
    in s = min(usable CPUs, len // _SEGMENT) contiguous segments, at least
    one, on numerics.map_tasks. Each segment is rescaled, a partition at
    the s - 1 interior cuts leaves in each segment the values of its
    sorted ranks, and each segment is sorted. Positive finite doubles that
    compare equal have equal bytes, so the result is np.sort's however
    many segments there are. One segment is worked on the calling thread.
    The checks then read the sorted ends, where partition and sort put
    NaN after inf, so a NaN is named before a 0 or an inf.
    """
    values = log_moduli.reshape(-1)
    if len(values) == 0:
        raise ValueError("values: need a nonempty 1-d sample")
    count = max(1, min(usable_cpus(), len(values) // _SEGMENT))
    cuts = [len(values) * s // count for s in range(count + 1)]
    segments = [values[a:b] for a, b in zip(cuts, cuts[1:])]

    def rescale(s):
        # the error state is the thread's own, so each task sets it
        with np.errstate(over="ignore", under="ignore"):
            _rescale_in_place(segments[s], plan)

    map_tasks(rescale, count)
    if count > 1:
        values.partition(cuts[1:-1])
    map_tasks(lambda s: segments[s].sort(), count)
    if np.isnan(values[-1]):
        raise ValueError("values: sample contains non-finite entries")
    # a modulus rounded to 0 or inf has lost its order against the others
    if values[0] == 0.0 or values[-1] == np.inf:
        raise OverflowError(
            f"gamma: rescaled moduli leave the floating-point range at "
            f"gamma_n={plan.gamma_n!r}; a larger gamma is needed"
        )
    ecdf = EmpiricalCdf.__new__(EmpiricalCdf)
    object.__setattr__(ecdf, "values", values)
    return ecdf


def build_ecdf(log_moduli_sets, plan: ScalingPlan) -> EmpiricalCdf:
    """Pool replicate log-moduli, rescale, and build one empirical CDF.

    The sets are copied into one new array, which is rescaled and sorted
    in place; the caller's arrays are left as they were.
    """
    parts = [np.asarray(s, dtype=float).ravel() for s in log_moduli_sets]
    if not parts:
        raise ValueError("log_moduli_sets: need at least one replicate")
    return _ecdf_in_place(np.concatenate(parts), plan)


def ks_one_sample(ecdf: EmpiricalCdf, cdf) -> KsReport:
    """Exact KS distance to a reference CDF, read at the sorted sample against levels k/n.

    The statistic is the largest (i+1)/n - F(x_i) or F(x_i) - i/n over the
    sorted sample x_0..x_(n-1), found without reading F at every point.
    The contract on cdf: it is nondecreasing, and it maps each point on
    its own, so that cdf(x[idx]) equals cdf(x)[idx] to the bit.
    Between read indices a < b, monotonicity bounds every term of the
    block by b/n - F(x_a) or F(x_b) - (a+1)/n. F is first read at
    _KS_FIRST_POINTS evenly spaced indices (at every index of a smaller
    sample); then each round halves, in one cdf call, every block whose
    bound is at or above the largest term read, less a slack of 1e-12,
    until no block can hold a larger term. The statistic is the largest
    term read, the same float as the full formula's.
    Every value read must lie in [0, 1], up to 1e-12, and be a number.
    Only read values are checked: on a sample larger than _KS_FIRST_POINTS
    a NaN or out-of-range value at an index the split never reads goes
    unseen, and the statistic stays finite. A nondecreasing reference
    whose first and last read values pass cannot leave [0, 1] between
    them; a NaN breaks the nondecreasing contract. Two read neighbours
    that fall by more than 1e-12 show a decreasing reference, which is
    then read at every point.
    """
    x = ecdf.values
    n = ecdf.n

    def read(idx):
        f = np.asarray(cdf(x[idx]), dtype=float)
        if f.shape != idx.shape or not np.all((f >= -_KS_SLACK) & (f <= 1 + _KS_SLACK)):
            raise ValueError("cdf: reference must map the sample into [0, 1]")
        return f

    # strictly increasing indices: their spacing exceeds 1 whenever n exceeds the count
    idx = np.rint(np.linspace(0, n - 1, min(n, _KS_FIRST_POINTS))).astype(np.intp)
    f = read(idx)
    while idx.size < n:
        if np.any(np.diff(f) < -_KS_SLACK):
            idx = np.arange(n)
            f = read(idx)
            break
        best = max(np.max((idx + 1) / n - f), np.max(f - idx / n))
        a, b = idx[:-1], idx[1:]
        bound = np.maximum(b / n - f[:-1], f[1:] - (a + 1) / n)
        split = np.flatnonzero((b - a > 1) & (bound >= best - _KS_SLACK))
        if split.size == 0:
            break
        mid = (a[split] + b[split]) // 2
        idx = np.insert(idx, split + 1, mid)
        f = np.insert(f, split + 1, read(mid))
    d_plus = np.max((idx + 1) / n - f)
    d_minus = np.max(f - idx / n)
    return KsReport(statistic=float(max(d_plus, d_minus)), n=n)


def ks_two_sample(a: EmpiricalCdf, b: EmpiricalCdf) -> KsReport:
    """Sup distance between two step CDFs, read at each sample's own points."""
    d = max(np.max(np.abs(a.evaluate(v) - b.evaluate(v))) for v in (a.values, b.values))
    return KsReport(statistic=float(d), n=a.n)


def fold_angles(theta):
    """Angles taken mod 2*pi into [0, 2*pi)."""
    theta = np.mod(theta, TWO_PI)
    # mod of a tiny negative can round up to the period itself
    return np.where(theta >= TWO_PI, 0.0, theta)


def angle_uniformity(angles) -> KsReport:
    """KS distance of pooled angles to the uniform law on [0, 2*pi)."""
    th = np.asarray(angles, dtype=float).ravel()
    if len(th) == 0:
        raise ValueError("angles: need a nonempty sample")
    if np.any(~np.isfinite(th)) or np.any(th < 0) or np.any(th > TWO_PI):
        raise ValueError("angles: entries must lie in [0, 2*pi]")
    ecdf = EmpiricalCdf(values=fold_angles(th))
    return ks_one_sample(ecdf, lambda t: np.clip(t / TWO_PI, 0.0, 1.0))


def mgf_estimate(log_values, t: float):
    """Monte Carlo mean and standard error of exp(t * log_value)."""
    s = np.asarray(log_values, dtype=float).ravel()
    if len(s) < 2:
        raise ValueError("log_values: need at least two draws")
    w = np.exp(t * s)
    mean = float(np.mean(w))
    stderr = float(np.std(w, ddof=1) / np.sqrt(len(w)))
    return mean, stderr


def ks_threshold(n: int) -> float:
    """The --assert bound on a KS statistic of sample size n: the 99%
    asymptotic Kolmogorov quantile over sqrt(n), plus a flat allowance."""
    if n < 1:
        raise ValueError(f"n: must be >= 1 (got {n})")
    return float(_KS_QUANTILE / np.sqrt(n) + _KS_ALLOWANCE)
