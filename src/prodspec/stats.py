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

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous step CDF of a pooled sample, values kept sorted."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("values: need a nonempty 1-d sample")
        if not np.all(np.isfinite(v)):
            raise ValueError("values: sample contains non-finite entries")
        object.__setattr__(self, "values", np.sort(v))

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


def build_ecdf(log_moduli_sets, plan: ScalingPlan) -> EmpiricalCdf:
    """Pool replicate log-moduli, rescale, and build one empirical CDF."""
    parts = [np.asarray(s, dtype=float).ravel() for s in log_moduli_sets]
    if not parts:
        raise ValueError("log_moduli_sets: need at least one replicate")
    with np.errstate(over="ignore", under="ignore"):
        values = rescale_moduli(np.concatenate(parts), plan)
    # a modulus rounded to 0 or inf has lost its order against the others
    if np.any((values == 0.0) | np.isinf(values)):
        raise OverflowError(
            f"gamma: rescaled moduli leave the floating-point range at "
            f"gamma_n={plan.gamma_n!r}; a larger gamma is needed"
        )
    return EmpiricalCdf(values=values)


def ks_one_sample(ecdf: EmpiricalCdf, cdf) -> KsReport:
    """Exact KS distance to a reference CDF, read at the sorted sample against levels k/n."""
    x = ecdf.values
    n = ecdf.n
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape or not np.all((f >= -1e-12) & (f <= 1 + 1e-12)):
        raise ValueError("cdf: reference must map the sample into [0, 1]")
    levels = np.arange(n + 1) / n
    d_plus = np.max(levels[1:] - f)
    d_minus = np.max(f - levels[:-1])
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


def ks_threshold(n: int, level: float = 0.99, allowance: float = 0.02) -> float:
    """Asymptotic Kolmogorov quantile at the given level plus a flat allowance.

    Only --assert needs the quantile, so scipy.special is imported here,
    after a run's sampling and comparisons.
    """
    from scipy import special

    if n < 1:
        raise ValueError(f"n: must be >= 1 (got {n})")
    return float(special.kolmogi(1.0 - level) / np.sqrt(n) + allowance)
