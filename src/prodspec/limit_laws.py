"""Limiting radial laws of rescaled product spectra and their finite-n curves.

Two families appear. For Gaussian-factor products the limit CDF is a
generalized inverse of the increasing bijection
    profile(alpha, x) = x^alpha * (1-x)^(alpha-1)
composed with a power of the argument. For truncated-unitary products the
limit is the inverse-function law of an increasing analytic curve. Every
built-in curve is a sum of log ratios s*w*[log1p(s*t) - log1p(q*s*t)] at
t = 2x - 1, one per (s, w, q) pair, and its series is their Taylor
expansion at x = 1/2. Limits carry a finite coefficient prefix of that
series, so evaluations carry a certified geometric tail bound; a prefix
read from a coefficient file is the only one without a closed form.
The run's reference CDF, haar_limit_cdf, inverts the closed form when a
limit has one and the prefix otherwise; limit_curve, the curve_inverse_*
functions and the limit_* report keys describe the prefix. One
safeguarded Newton loop inverts every increasing curve here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .config import ProductSpec


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
    out = np.exp(_profile_log(alpha, x, 1.0 - x))
    return float(out) if out.ndim == 0 else out


def _check_alpha(alpha):
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha: must lie in [0, 1] (got {alpha!r})")


def _profile_log(alpha, x, xc):
    """log of the profile at x, with xc = 1 - x."""
    return alpha * np.log(x) + (alpha - 1.0) * np.log(xc)


_EDGE = 1e-16  # evaluation guard; roots beyond it are indistinguishable from 0/1

_SEED_POINTS = 2049  # grid in z = logit(x) that seeds and brackets each root
_BLOCK = 1 << 14  # roots solved together; bounds the loop's working memory
_NEWTON_STEPS = 8  # Newton budget per root; bisection only after it
_BISECTIONS = 64  # halvings that shrink any grid cell below _Z_TOL
_Z_TOL = 1e-13  # converged once a step moves z (x by that relative amount) this little


def _invert_increasing(f, fprime, target, edge):
    """Generalized inverse of an increasing f on [edge, 1 - edge].

    f and its derivative fprime take (x, 1 - x), each accurate to its own
    ulp, so roots next to 1 are resolved too. The value is 1 where
    target >= f(1 - edge), 0 where target <= f(edge) or is NaN, otherwise
    a root of f = target from Newton steps in z = logit(x); a float for a
    scalar target.
    """
    scalar = np.ndim(target) == 0
    target = np.atleast_1d(np.asarray(target, dtype=float))
    z_grid = np.linspace(logit(edge), logit(1.0 - edge), _SEED_POINTS)
    x, xc = expit(z_grid), expit(-z_grid)
    x[[0, -1]] = edge, 1.0 - edge
    xc[[0, -1]] = 1.0 - x[[0, -1]]
    f_grid = f(x, xc)
    out = np.where(target >= f_grid[-1], 1.0, 0.0)
    active = (target > f_grid[0]) & (target < f_grid[-1])
    tgt = target[active]
    # a running maximum makes the grid monotone, so that the first cell
    # where it reaches a target starts below it and ends at or above it
    f_mono = np.maximum.accumulate(f_grid)
    z = np.empty(tgt.shape)
    for start in range(0, tgt.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        z[block] = _newton_roots(f, fprime, tgt[block], z_grid, f_mono)
    out[active] = expit(z)
    return float(out[0]) if scalar else out


def _newton_roots(f, fprime, tgt, z_grid, f_mono):
    """Roots in z of f = tgt, each seeded by linear interpolation in its
    grid cell. The cell brackets a sign change of f - tgt, the bracket
    narrows at every step, and a Newton step that would leave it bisects
    instead."""
    cell = np.searchsorted(f_mono, tgt)
    lo, hi = z_grid[cell - 1], z_grid[cell]
    z = lo + (hi - lo) * (tgt - f_mono[cell - 1]) / (f_mono[cell] - f_mono[cell - 1])
    root = np.empty(tgt.shape)
    left = np.arange(tgt.size)
    for k in range(_NEWTON_STEPS + _BISECTIONS):
        x, xc = expit(z), expit(-z)
        gap = f(x, xc) - tgt
        below = gap < 0.0
        lo = np.where(below, z, lo)
        hi = np.where(below, hi, z)
        nxt = 0.5 * (lo + hi)
        if k < _NEWTON_STEPS:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                newton = z - gap / (fprime(x, xc) * x * xc)
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
    scalar = y_arr.ndim == 0
    y_arr = np.atleast_1d(y_arr)
    if alpha == 0.0:
        # profile is 1/(1-x), increasing from 1
        out = np.where(y_arr > 1.0, 1.0 - 1.0 / np.maximum(y_arr, 1.0), 0.0)
    elif alpha == 1.0:
        out = np.clip(y_arr, 0.0, 1.0)
    else:
        out = _invert_increasing(
            lambda x, xc: _profile_log(alpha, x, xc),
            lambda x, xc: alpha / x + (1.0 - alpha) / xc,
            _log_or_neg_inf(y_arr),
            _EDGE,
        )
    return float(out[0]) if scalar else out


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
    # d profile / dx = profile * (alpha/x + (1-alpha)/(1-x)); profile(x*) = u
    dprofile = ui * (lim.alpha / xi + (1.0 - lim.alpha) / (1.0 - xi))
    out[inside] = (ui / yi) / (lim.beta * dprofile)
    return float(out[0]) if np.ndim(y) == 0 else out


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
    out = s / (k * np.pi * r_arr**2 * (1.0 + s) ** 2)
    return float(out) if out.ndim == 0 else out


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


def _power_series(coeffs, t):
    """sum_j coeffs[j-1] t^j: a power series with no constant term."""
    return np.polyval(np.append(np.asarray(coeffs)[::-1], 0.0), t)


def _closed_curve(pairs, x, xc):
    """sum s*w*[log1p(s*t) - log1p(q*s*t)] at t = 2x - 1, with xc = 1 - x.

    With u = (1 + s*t)/2, which is x or xc, a term is
    -s*w*log1p((1 - q)(1 - 2u)/(2u)): no two logs cancel, so it stays
    accurate next to the end where it diverges and for q near 1.
    """
    out = np.zeros(np.shape(x))
    for s, w, q in pairs:
        u = x if s > 0 else xc
        out -= s * w * np.log1p((1.0 - q) * (1.0 - 2.0 * u) / (2.0 * u))
    return out


def _closed_slope(pairs, x, xc):
    """Derivative of _closed_curve in x: sum 2w*(1 - q)/((1 + s*t)(1 + q*s*t)) > 0."""
    out = np.zeros(np.shape(x))
    for s, w, q in pairs:
        u = x if s > 0 else xc
        out += w * (1.0 - q) / (u * (2.0 * u + (1.0 - q) * (1.0 - 2.0 * u)))
    return out


def _geometric_tail(bound: float, terms: int, x):
    """Tail past `terms` coefficients of size <= bound at u = |2x - 1|; 0 if bound is 0."""
    u = np.abs(2.0 * np.asarray(x, dtype=float) - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            u < 1.0, bound * u ** (terms + 1) / (1.0 - u), np.inf if bound else 0.0
        )
    return float(out) if out.ndim == 0 else out


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
    t = 2.0 * (x_arr - 0.5)
    if mode == "closed":
        out = _closed_curve(pairs, x_arr, 1.0 - x_arr)
        return float(out) if out.ndim == 0 else out
    if mode == "series":
        if not (isinstance(terms, (int, np.integer)) and terms >= 1):
            raise ValueError(f"terms: must be a positive integer (got {terms!r})")
        out = _power_series([_coeff(pairs, j) for j in range(1, terms + 1)], t)
        return float(out) if np.ndim(out) == 0 else out
    raise ValueError(f"mode: expected 'closed' or 'series' (got {mode!r})")


# ---------------------------------------------------------------------------
# limit law built from a coefficient prefix

LIMIT_TERMS = 80  # prefix length of the builders' laws, and so of a run's automatic one


@dataclass(frozen=True)
class HaarLimit:
    """Increasing analytic curve known through its first len(betas) coefficients.

    tail_bound caps the magnitude of every coefficient past the prefix;
    0 declares the prefix to be the whole series. pairs, when given, are
    the (s, w, q) log-ratio pairs of the curve's closed form, w already
    divided by gamma_n, whose series must match betas; haar_limit_cdf then
    inverts the closed form.
    """

    betas: tuple[float, ...]
    tail_bound: float = 0.0
    pairs: tuple[tuple[int, float, float], ...] = ()

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
        pairs = tuple((s, float(w), float(q)) for s, w, q in self.pairs)
        # each pair's slope is w*(1 - q)/(...) >= 0; one must be > 0
        if pairs and not (
            all(s in (1, -1) and 0.0 <= w < math.inf and 0.0 <= q <= 1.0 for s, w, q in pairs)
            and sum(w * (1.0 - q) for _, w, q in pairs) > 0.0
        ):
            raise ValueError(
                f"pairs: need signs +-1, weights >= 0, ratios in [0, 1] and a "
                f"rising sum (got {pairs!r})"
            )
        scale = max(abs(b) for b in betas)
        if pairs and any(abs(b - _coeff(pairs, j)) > 1e-12 * scale for j, b in enumerate(betas, 1)):
            raise ValueError("pairs: their series must match betas to 1e-12 of its largest term")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "tail_bound", float(self.tail_bound))
        object.__setattr__(self, "pairs", pairs)
        # the inverter brackets its targets between the curve's two finite ends
        with np.errstate(over="ignore"):
            lo, hi = (float(_curve_partial(self, x)) for x in (_CURVE_EDGE, 1.0 - _CURVE_EDGE))
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise ValueError(f"betas: partial sum must rise from x=0 to x=1 (got {lo!r} to {hi!r})")

    @property
    def terms(self) -> int:
        return len(self.betas)


def _haar_limit(pairs, terms: int, gamma_n: float = 1.0) -> HaarLimit:
    """The pairs' curve over gamma_n: its prefix, capped by the first
    coefficient, and its closed form."""
    betas = tuple(_coeff(pairs, j) / gamma_n for j in range(1, terms + 1))
    return HaarLimit(
        betas=betas,
        tail_bound=_coeff(pairs, 1) / gamma_n,
        pairs=tuple((s, w / gamma_n, q) for s, w, q in pairs),
    )


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
    return _power_series(lim.betas, 2.0 * x - 1.0)


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
            worst = float(np.max(tail))
            raise SeriesAccuracyError(
                f"tail bound {worst:.3e} exceeds max_error {max_error:.3e}; "
                f"more terms or a narrower x range needed"
            )
    out = _curve_partial(lim, x_arr)
    return float(out) if np.ndim(out) == 0 else out


_CURVE_EDGE = 1e-8  # endpoint stand-ins for the open unit interval


def curve_inverse_cdf(lim: HaarLimit, value):
    """CDF of the partial sum's value under a uniform argument, total on the line.

    0 at and below the prefix's low end, 1 at and above its high end,
    otherwise the preimage of the partial sum.
    """
    return _invert_increasing(
        lambda x, xc: _curve_partial(lim, x),
        lambda x, xc: _curve_slope(lim, x),
        value,
        _CURVE_EDGE,
    )


def curve_inverse_density(lim: HaarLimit, value):
    """Density of the partial sum's value under a uniform argument; 0 outside."""
    v = np.asarray(value, dtype=float)
    x = curve_inverse_cdf(lim, np.atleast_1d(v))
    out = np.zeros(x.shape)
    inside = (x > _CURVE_EDGE) & (x < 1.0 - _CURVE_EDGE)
    slope = _curve_slope(lim, x[inside])
    out[inside] = np.where(slope > 0, 1.0 / np.maximum(slope, 1e-300), 0.0)
    return float(out[0]) if v.ndim == 0 else out


def haar_limit_cdf(lim: HaarLimit, y):
    """Limiting CDF of the rescaled moduli at y, 0 for y <= 0.

    The inverse of the closed-form curve at log y when lim has pairs
    (0 and 1 only beyond a finite end of the curve); otherwise the
    prefix's curve_inverse_cdf at log y.
    """
    target = _log_or_neg_inf(np.asarray(y, dtype=float))
    if not lim.pairs:
        return curve_inverse_cdf(lim, target)
    return _invert_increasing(
        lambda x, xc: _closed_curve(lim.pairs, x, xc),
        lambda x, xc: _closed_slope(lim.pairs, x, xc),
        target,
        _EDGE,
    )
