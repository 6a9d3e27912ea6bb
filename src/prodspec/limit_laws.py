"""Limiting radial laws of rescaled product spectra and their finite-n curves.

Two families appear. For Gaussian-factor products the limit CDF is a
generalized inverse of the increasing bijection
    profile(alpha, x) = x^alpha * (1-x)^(alpha-1)
composed with a power of the argument. For truncated-unitary products the
limit is the inverse-function law of an increasing analytic curve. Every
built-in curve is a sum of log ratios s*w*[log1p(s*t) - log1p(q*s*t)] at
t = 2x - 1, one per (s, w, q) pair, and its series is their Taylor
expansion at x = 1/2. Limits carry a finite coefficient prefix of that
series, so evaluations carry a certified geometric tail bound. Every
prefix becomes a law through _haar_limit or HaarLimit. Only the builders
attach the closed form; a law built from a prefix alone, such as one read
from a coefficient file, has none and is also checked on the seed grid.
The run's reference CDF, haar_limit_cdf, inverts the closed form when a
limit has one and the prefix otherwise; limit_curve, the curve_inverse_*
functions and the limit_* report keys describe the prefix. Each curve
family is one function giving value and slope at (x, 1 - x), and one
safeguarded Newton loop inverts them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .config import ProductSpec, SignPattern


class SeriesAccuracyError(RuntimeError):
    """A truncated series cannot meet the requested accuracy."""


# ---------------------------------------------------------------------------
# profile family for Gaussian-factor products

def radial_profile(alpha: float, x: float):
    """x^alpha * (1-x)^(alpha-1) on 0 < x < 1, for 0 <= alpha <= 1."""
    _check_alpha(alpha)
    x = np.asarray(x, dtype=float)
    if np.any(~((x > 0) & (x < 1))):
        raise ValueError(f"x: must lie in (0, 1) (got {x!r})")
    with np.errstate(over="ignore"):  # the slope, unused here, overflows at subnormal x
        return _float_if_scalar(x, np.exp(_profile(alpha, x, 1.0 - x)[0]))


def _check_alpha(alpha):
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha: must lie in [0, 1] (got {alpha!r})")


def _profile(alpha, x, xc):
    """The log-profile at x, with xc = 1 - x, and its slope in x."""
    return alpha * np.log(x) + (alpha - 1.0) * np.log(xc), alpha / x + (1.0 - alpha) / xc


def _float_if_scalar(arg, out):
    """out for an array arg; its one value as a Python float for a scalar arg."""
    return np.asarray(out).item() if np.ndim(arg) == 0 else out


_EDGE = 1e-16  # evaluation guard; roots beyond it are indistinguishable from 0/1

_SEED_POINTS = 2049  # grid in z = logit(x) that seeds and brackets each root
_BLOCK = 1 << 14  # roots solved together; bounds the loop's working memory
_NEWTON_STEPS = 8  # Newton budget per root; bisection only after it
_BISECTIONS = 64  # halvings that shrink any grid cell below _Z_TOL
_Z_TOL = 1e-13  # converged once a step moves z (x by that relative amount) this little


def _expit(z):
    """Logistic function 1 / (1 + exp(-z)), elementwise."""
    return 1.0 / (1.0 + np.exp(-z))


def _seed_grid(edge):
    """The inverter's grid on [edge, 1 - edge]: z evenly spaced, x = expit(z), xc = 1 - x."""
    z = np.linspace(*(math.log(x / (1.0 - x)) for x in (edge, 1.0 - edge)), _SEED_POINTS)
    x, xc = _expit(z), _expit(-z)
    x[[0, -1]] = edge, 1.0 - edge
    xc[[0, -1]] = 1.0 - x[[0, -1]]
    return z, x, xc


def _invert_increasing(curve, target, edge):
    """Generalized inverse of an increasing curve on [edge, 1 - edge].

    curve(x, xc) gives value and slope at x, with xc = 1 - x, each accurate
    to its own ulp, so roots next to 1 are resolved too. The result is 1
    where target >= value(1 - edge), 0 where target <= value(edge) or is
    NaN, otherwise a root of value = target from Newton steps in z = logit(x).
    """
    flat = np.atleast_1d(np.asarray(target, dtype=float))
    z_grid, x, xc = _seed_grid(edge)
    f_grid = curve(x, xc)[0]
    out = np.where(flat >= f_grid[-1], 1.0, 0.0)
    active = (flat > f_grid[0]) & (flat < f_grid[-1])
    tgt = flat[active]
    # a running maximum makes the grid monotone, so that the first cell
    # where it reaches a target starts below it and ends at or above it
    f_mono = np.maximum.accumulate(f_grid)
    z = np.empty(tgt.shape)
    for start in range(0, tgt.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        z[block] = _newton_roots(curve, tgt[block], z_grid, f_mono)
    out[active] = _expit(z)
    return _float_if_scalar(target, out)


def _newton_roots(curve, tgt, z_grid, f_mono):
    """Roots in z of the curve's value = tgt, each seeded by linear
    interpolation in its grid cell. The cell brackets a sign change of
    value - tgt, the bracket narrows at every step, and a Newton step that
    would leave it bisects instead."""
    cell = np.searchsorted(f_mono, tgt)
    lo, hi = z_grid[cell - 1], z_grid[cell]
    z = lo + (hi - lo) * (tgt - f_mono[cell - 1]) / (f_mono[cell] - f_mono[cell - 1])
    root = np.empty(tgt.shape)
    left = np.arange(tgt.size)
    for k in range(_NEWTON_STEPS + _BISECTIONS):
        x, xc = _expit(z), _expit(-z)
        value, slope = curve(x, xc)
        gap = value - tgt
        below = gap < 0.0
        lo = np.where(below, z, lo)
        hi = np.where(below, hi, z)
        nxt = 0.5 * (lo + hi)
        if k < _NEWTON_STEPS:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                newton = z - gap / (slope * x * xc)
            nxt = np.where((newton >= lo) & (newton <= hi), newton, nxt)
        done = np.abs(nxt - z) <= _Z_TOL
        root[left[done]] = nxt[done]
        keep = ~done
        left, tgt, z, lo, hi = left[keep], tgt[keep], nxt[keep], lo[keep], hi[keep]
        if left.size == 0:
            break
    root[left] = z
    return root


def _log_or_neg_inf(y):
    """log y where y > 0 and -inf elsewhere, so an inverse maps y <= 0 to 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(y > 0, np.log(y), -np.inf)


def radial_profile_inverse(alpha: float, y):
    """Generalized inverse of the profile, extended to all of the real line.

    Below the profile's infimum the value is 0, above its supremum (finite
    only at alpha = 1) the value is 1, in between the unique root.
    The endpoint cases alpha in {0, 1} use their closed inverses.
    """
    _check_alpha(alpha)
    y_arr = np.asarray(y, dtype=float)
    if alpha == 0.0:
        # profile is 1/(1-x), increasing from 1
        out = np.where(y_arr > 1.0, 1.0 - 1.0 / np.maximum(y_arr, 1.0), 0.0)
    elif alpha == 1.0:
        out = np.clip(y_arr, 0.0, 1.0)
    else:
        out = _invert_increasing(partial(_profile, alpha), _log_or_neg_inf(y_arr), _EDGE)
    return _float_if_scalar(y, out)


@dataclass(frozen=True)
class GinibreLimit:
    """Limit parameters for a Gaussian-factor product: alpha and the power beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta: must be finite and > 0 (got {self.beta!r})")


def _powered(lim: GinibreLimit, y):
    """y^(1/beta) at y > 0 through logs; overflow is a genuine "beyond the support" inf."""
    y_arr = np.asarray(y, dtype=float)
    if np.any(~(y_arr > 0)):
        raise ValueError(f"y: must be > 0 (got {y!r})")
    with np.errstate(over="ignore"):
        return np.exp(np.log(y_arr) / lim.beta)


def ginibre_limit_cdf(lim: GinibreLimit, y):
    """Limiting CDF of the rescaled moduli at y > 0."""
    return radial_profile_inverse(lim.alpha, _powered(lim, y))


def ginibre_limit_density(lim: GinibreLimit, y):
    """Density of the limiting CDF at y > 0; 0 outside the support."""
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    powered = np.atleast_1d(_powered(lim, y))
    x = radial_profile_inverse(lim.alpha, powered)
    out = np.zeros(y_arr.shape)
    inside = (x > _EDGE) & (x < 1.0 - _EDGE) & np.isfinite(powered)
    xi, yi, ui = x[inside], y_arr[inside], powered[inside]
    # d profile / dx = profile * (d log profile / dx); profile(x*) = u
    dprofile = ui * _profile(lim.alpha, xi, 1.0 - xi)[1]
    out[inside] = (ui / yi) / (lim.beta * dprofile)
    return _float_if_scalar(y, out)


def spherical_product_density(k: int, r):
    """Planar density at radius r for the k-fold spherical-type product.

    Normalized against area measure: integrating 2*pi*r times this over
    r > 0 gives 1. At k = 1 it reduces to 1/(pi*(1+r^2)^2).
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k: must be a positive integer (got {k!r})")
    r_arr = np.asarray(r, dtype=float)
    if np.any(~(r_arr > 0)):
        raise ValueError(f"r: must be > 0 (got {r!r})")
    s = r_arr ** (2.0 / k)
    return _float_if_scalar(r, s / (k * np.pi * r_arr**2 * (1.0 + s) ** 2))


# ---------------------------------------------------------------------------
# finite-n log-mean curve for truncated-unitary products

def _spec_pairs(spec: ProductSpec) -> list[tuple[int, float, float]]:
    """One (s_k, 1, q_k) pair per factor; only truncations have a log-mean curve."""
    if spec.dims is None:
        raise ValueError("dims: the series needs truncated-unitary factors (got none)")
    return [(s, 1.0, q) for s, q in zip(spec.signs, spec.ratios)]


def _coeff(pairs, j: int) -> float:
    """j-th Taylor coefficient at t = 0 of sum s*w*[log1p(s*t) - log1p(q*s*t)].

    Summed term by term with Python float powers: numpy's vectorised q**j
    can differ from them in the last bit, which would move the coefficients.
    """
    total = 0.0
    for s, w, q in pairs:
        total += w * (-s) ** (j - 1) * (1.0 - q**j)
    return total / j


def _closed_curve(pairs, x, xc):
    """sum s*w*[log1p(s*t) - log1p(q*s*t)] at t = 2x - 1, with xc = 1 - x, and its slope in x.

    With u = (1 + s*t)/2, which is x or xc, and d = (1 - q)(1 - 2u), a term
    is -s*w*log1p(d/(2u)), of slope w*(1 - q)/(u*(2u + d)) > 0: no two logs
    cancel, so it stays accurate next to the end where it diverges and for q near 1.
    """
    value, slope = np.zeros(np.shape(x)), np.zeros(np.shape(x))
    for s, w, q in pairs:
        u = x if s > 0 else xc
        d = (1.0 - q) * (1.0 - 2.0 * u)
        value -= s * w * np.log1p(d / (2.0 * u))
        slope += w * (1.0 - q) / (u * (2.0 * u + d))
    return value, slope


def _geometric_tail(bound: float, terms: int, x):
    """Tail past `terms` coefficients of size <= bound at u = |2x - 1|; 0 if bound is 0."""
    u = np.abs(2.0 * np.asarray(x, dtype=float) - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(u < 1.0, bound * u ** (terms + 1) / (1.0 - u), np.inf if bound else 0.0)
    return _float_if_scalar(x, tail)


def series_coeff(spec: ProductSpec, j: int) -> float:
    """j-th series coefficient of the centered log-mean curve."""
    if not (isinstance(j, (int, np.integer)) and j >= 1):
        raise ValueError(f"j: must be a positive integer (got {j!r})")
    return _coeff(_spec_pairs(spec), j)


def series_coeff_bound(spec: ProductSpec) -> float:
    """First coefficient; it dominates every |series_coeff(spec, j)|."""
    return series_coeff(spec, 1)


def series_tail_bound(spec: ProductSpec, x, terms: int):
    """Certified bound on the dropped tail after `terms` series terms."""
    if not (isinstance(terms, (int, np.integer)) and terms >= 1):
        raise ValueError(f"terms: must be a positive integer (got {terms!r})")
    return _geometric_tail(series_coeff_bound(spec), terms, x)


def log_mean_curve(spec: ProductSpec, x, mode: str = "closed", terms: int = 60):
    """Centered log-mean curve on 0 < x < 1.

    The closed form is a signed sum of log ratios, one per factor; the
    series form sums its first `terms` Taylor coefficients at x = 1/2 and
    its truncation error is certified by series_tail_bound.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(~((x_arr > 0) & (x_arr < 1))):
        raise ValueError(f"x: must lie in (0, 1) (got {x!r})")
    pairs = _spec_pairs(spec)
    if mode == "closed":
        out = _closed_curve(pairs, x_arr, 1.0 - x_arr)[0]
    elif mode == "series":
        out = _curve_partial(_haar_limit(pairs, terms), x_arr)
    else:
        raise ValueError(f"mode: expected 'closed' or 'series' (got {mode!r})")
    return _float_if_scalar(x, out)


# ---------------------------------------------------------------------------
# limit law built from a coefficient prefix

LIMIT_TERMS = 80  # prefix length of the builders' laws, and so of a run's automatic one


@dataclass(frozen=True)
class HaarLimit:
    """Increasing analytic curve known through its first len(betas) coefficients.

    tail_bound caps the magnitude of every coefficient past the prefix;
    0 declares the prefix to be the whole series. The constructor takes
    the prefix alone, so a law built with it, such as a betas:FILE law,
    is prefix-only. pairs, the (s, w, q) log-ratio pairs of the curve's
    closed form with w already divided by gamma_n, are set only by the
    haar_limit_* builders, which derive betas from those same pairs;
    haar_limit_cdf then inverts the closed form.
    """

    betas: tuple[float, ...]
    tail_bound: float = 0.0
    pairs: tuple[tuple[int, float, float], ...] = field(default=(), init=False)

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        if len(betas) == 0:
            raise ValueError("betas: need at least the first coefficient")
        if not (betas[0] > 0 and math.isfinite(betas[0])):
            raise ValueError(f"betas[0]: must be finite and > 0 (got {betas[0]!r})")
        if not all(math.isfinite(b) for b in betas):
            raise ValueError("betas: all coefficients must be finite")
        if not (self.tail_bound >= 0 and math.isfinite(self.tail_bound)):
            raise ValueError(f"tail_bound: must be finite and >= 0 (got {self.tail_bound!r})")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "tail_bound", float(self.tail_bound))
        # the inverter brackets its targets between the curve's two finite ends
        with np.errstate(over="ignore"):
            lo, hi = (float(_curve_partial(self, x)) for x in (_CURVE_EDGE, 1.0 - _CURVE_EDGE))
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise ValueError(f"betas: partial sum must rise from x=0 to x=1 (got {lo!r} to {hi!r})")
        # it bounds every Horner partial of _curve_slope on [0, 1], so Newton never divides by inf
        slope_bound = 2.0 * sum(j * abs(b) for j, b in enumerate(betas, start=1))
        if not math.isfinite(slope_bound):
            raise ValueError(f"betas: slope bound 2*sum(j*|b_j|) must be finite (got {slope_bound!r})")

    @property
    def terms(self) -> int:
        return len(self.betas)


def _haar_limit(pairs, terms: int, gamma_n: float = 1.0) -> HaarLimit:
    """The pairs' curve over gamma_n: its prefix, capped by the first
    coefficient, and its closed form, which the prefix matches by construction."""
    if not (isinstance(terms, (int, np.integer)) and terms >= 1):
        raise ValueError(f"terms: must be a positive integer (got {terms!r})")
    pairs = tuple((s, w / gamma_n, q) for s, w, q in pairs)
    betas = tuple(_coeff(pairs, j) for j in range(1, terms + 1))
    lim = HaarLimit(betas=betas, tail_bound=betas[0])
    object.__setattr__(lim, "pairs", pairs)
    return lim


def haar_limit_from_spec(spec: ProductSpec, gamma_n: float, terms: int = LIMIT_TERMS) -> HaarLimit:
    """Finite-n limit curve: series coefficients over gamma_n, bound included."""
    if not (gamma_n > 0 and math.isfinite(gamma_n)):
        raise ValueError(f"gamma_n: must be finite and > 0 (got {gamma_n!r})")
    return _haar_limit(_spec_pairs(spec), terms, gamma_n)


def haar_limit_from_ratios(signs, ratios, terms: int = LIMIT_TERMS) -> HaarLimit:
    """Limit curve for fixed factor count with dims growing proportionally.

    ratios[k] is the limit of n / dims[k] in (0, 1]; the curve's power is
    fixed at 2, matching squared moduli taken to the 1/2.
    """
    signs = list(signs)
    ratios = [float(a) for a in ratios]
    if len(signs) != len(ratios) or not signs:
        raise ValueError("signs and ratios must be equal-length and nonempty")
    signs = SignPattern(tuple(signs)).entries
    for k, a in enumerate(ratios):
        if not (0.0 < a <= 1.0):
            raise ValueError(f"ratios[{k}]: must lie in (0, 1] (got {a!r})")
    return _haar_limit([(s, 0.5, a / (2.0 - a)) for s, a in zip(signs, ratios)], terms)


def haar_limit_growing(plus_fraction: float, ratio: float, terms: int = LIMIT_TERMS) -> HaarLimit:
    """Limit curve when the factor count grows, with the power tied to it.

    plus_fraction is the limiting share of direct (non-inverted) factors,
    ratio the common limit of n / dims[k].
    """
    if not (0.0 <= plus_fraction <= 1.0):
        raise ValueError(f"plus_fraction: must lie in [0, 1] (got {plus_fraction!r})")
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio: must lie in (0, 1) (got {ratio!r})")
    q = ratio / (2.0 - ratio)
    return _haar_limit([(1, plus_fraction, q), (-1, 1.0 - plus_fraction, q)], terms)


def _curve_partial(lim: HaarLimit, x):
    """The prefix's partial sum, sum_j betas[j-1] t^j at t = 2x - 1."""
    return np.polyval(np.append(lim.betas[::-1], 0.0), 2.0 * x - 1.0)


def _curve_slope(lim: HaarLimit, x):
    """Derivative of the partial sum in x."""
    dcoeffs = np.asarray(lim.betas) * np.arange(1, lim.terms + 1)
    return 2.0 * np.polyval(dcoeffs[::-1], 2.0 * x - 1.0)


def limit_curve_tail(lim: HaarLimit, x):
    """Certified bound on the curve's dropped tail at x in [0, 1]."""
    return _geometric_tail(lim.tail_bound, lim.terms, x)


def limit_curve(lim: HaarLimit, x, max_error: float | None = None):
    """Partial sum of the curve at x in [0, 1].

    With max_error set, raises SeriesAccuracyError wherever the certified
    tail bound exceeds it (this happens near the endpoints whenever the
    prefix is not the whole series).
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(~((x_arr >= 0) & (x_arr <= 1))):
        raise ValueError(f"x: must lie in [0, 1] (got {x!r})")
    if max_error is not None:
        tail = np.asarray(limit_curve_tail(lim, x_arr))
        if np.any(tail > max_error):
            raise SeriesAccuracyError(
                f"tail bound {np.max(tail):.3e} exceeds max_error {max_error:.3e}; "
                f"more terms or a narrower x range needed"
            )
    return _float_if_scalar(x, _curve_partial(lim, x_arr))


_CURVE_EDGE = 1e-8  # endpoint stand-ins for the open unit interval


def _check_rising(lim: HaarLimit):
    """Raise unless the partial sum rises across the seed grid of curve_inverse_cdf,
    whose running maximum would flatten a dip; the builders' laws invert their closed form."""
    if np.any(np.diff(_curve_partial(lim, _seed_grid(_CURVE_EDGE)[1])) < 0.0):
        raise ValueError("betas: partial sum must rise on all of [0, 1]")


def curve_inverse_cdf(lim: HaarLimit, value):
    """CDF of the partial sum's value under a uniform argument, total on the line.

    0 at and below the prefix's low end, 1 at and above its high end,
    otherwise the preimage of the partial sum.
    """
    return _invert_increasing(
        lambda x, xc: (_curve_partial(lim, x), _curve_slope(lim, x)), value, _CURVE_EDGE
    )


def curve_inverse_density(lim: HaarLimit, value):
    """Density of the partial sum's value under a uniform argument; 0 outside."""
    x = np.atleast_1d(curve_inverse_cdf(lim, value))
    out = np.zeros(x.shape)
    inside = (x > _CURVE_EDGE) & (x < 1.0 - _CURVE_EDGE)
    slope = _curve_slope(lim, x[inside])
    out[inside] = np.where(slope > 0, 1.0 / np.maximum(slope, 1e-300), 0.0)
    return _float_if_scalar(value, out)


def haar_limit_cdf(lim: HaarLimit, y):
    """Limiting CDF of the rescaled moduli at y, 0 for y <= 0.

    The inverse of the closed-form curve at log y when lim has pairs
    (0 and 1 only beyond a finite end of the curve); otherwise the
    prefix's curve_inverse_cdf at log y.
    """
    target = _log_or_neg_inf(np.asarray(y, dtype=float))
    if not lim.pairs:
        return curve_inverse_cdf(lim, target)
    return _invert_increasing(partial(_closed_curve, lim.pairs), target, _EDGE)
