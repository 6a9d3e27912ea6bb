"""Independent radial surrogates for the eigenvalue moduli of a product.

The moduli of a product's eigenvalues agree in law, as an unordered set,
with n independent scalars indexed by j = 1..n. Each scalar is a
half-power product of one gamma (Gaussian factors) or beta (truncated
unitary factors) draw per factor, with shape parameter j for a direct
factor and n+1-j for an inverted one.

sample_radial_spectrum draws many replicates into one array, one row per
replicate, in chunks of rows whose layout depends on n alone: chunk c of
factor k draws from its own substream (k, c), so the first rows do not
depend on how many follow. Because no two chunks share a stream, the
chunks are independent tasks for numerics.map_tasks (numpy fills gamma
and beta draws with the interpreter lock released), and the bytes do not
depend on how many threads run them. A draw holds its output and a chunk
per thread, however many factors there are.

Everything here works with the scalars' logarithms; moment generating
functions are exact gamma/beta ratios and are kept in log form. Ratios of
gamma functions at the sizes we care about overflow long before the
statistics become interesting, so plain Gamma is never formed.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ProductSpec
from .numerics import RngStream, map_tasks

# sample_radial_spectrum draws and sums its rows in chunks of about this
# many values, so a thread holds one chunk of a factor's term at a time.
# Each chunk has streams of its own, so a new value changes every byte
_CHUNK = 1 << 16


def _shape(n, j, sign):
    """Shape of the j-th surrogate's draw for one factor; j may be an array."""
    return j if sign == 1 else n + 1 - j


def _check_index(spec, j):
    if not isinstance(j, (int, np.integer)) or not (1 <= j <= spec.n):
        raise ValueError(f"j: must be an integer in 1..{spec.n} (got {j!r})")


def _factors(spec: ProductSpec):
    """(sign, b) per factor: b = dims[k] - n, or None for a Gaussian factor."""
    if spec.dims is None:
        return [(sign, None) for sign in spec.signs]
    return [(sign, d - spec.n) for sign, d in zip(spec.signs, spec.dims)]


def _log_norm(shape, b):
    """log of the surrogate draw's normalizer: Gamma(shape), or B(shape, b).

    Callers pass scalars, shape > 0 and whole b > 0: 1 / B(shape, b) is then
    shape times the product over 0 < i < b of 1 + shape / i, each log > 0.
    """
    if b is None:
        return math.lgamma(shape)
    return -math.log(shape) - math.fsum(math.log1p(shape / i) for i in range(1, b))


def _log_radius_draws(spec: ProductSpec, j, streams, out):
    """Half the signed sum of one log draw per factor, factor k from streams[k].

    Factor k draws Gamma(shape) if Gaussian and Beta(shape, b) if
    truncated, with _shape's shape for index (or indices) j, in out's
    shape. Each term is worked out in place in its draw and summed in
    factor order into out; it is dropped before the next is drawn, so a
    term holds one array of out's size. Returns out[()], which turns a 0-d
    out back into a scalar.
    """
    for k, ((sign, b), rng) in enumerate(zip(_factors(spec), streams)):
        shape = _shape(spec.n, j, sign)
        term = rng.gamma(shape, size=out.shape) if b is None else rng.beta(shape, b, size=out.shape)
        np.log(term, out=term)
        term *= 0.5 * sign
        if k == 0:
            out[...] = term
        else:
            out += term
        del term
    return out[()]


def sample_log_radius_ginibre(spec: ProductSpec, j: int, rng: RngStream, size=None):
    """Draw log of the j-th surrogate: half the signed sum of log draws.

    The spec's dims pick gamma or beta draws, so the same function is
    exported as sample_log_radius_haar.
    """
    _check_index(spec, j)
    out = np.empty(() if size is None else size)
    return _log_radius_draws(spec, float(j), [rng] * spec.m, out)


sample_log_radius_haar = sample_log_radius_ginibre


def sample_radial_spectrum(spec: ProductSpec, rng: RngStream, count: int) -> np.ndarray:
    """Draw the logs of count replicates' n surrogates, index j in column j-1.

    Returns a new array of shape (count, n). Chunk c holds rows
    [c * rows, (c + 1) * rows), rows = _CHUNK // n or 1, and factor k
    draws them from rng.substream(k, c), so the first rows are the same
    whatever count is. map_tasks fills the chunks, each summing its terms
    in factor order straight into its rows; the bytes do not depend on
    how many threads run them. The first failed chunk's error, in chunk
    order, is raised here: no chunk starts after a failure, and the
    started ones end first.
    """
    out = np.empty((count, spec.n))
    j = np.arange(1, spec.n + 1, dtype=float)
    rows = max(1, _CHUNK // spec.n)

    def fill(c):
        streams = [rng.substream(k, c) for k in range(spec.m)]
        _log_radius_draws(spec, j, streams, out[c * rows:(c + 1) * rows])

    map_tasks(fill, -(-count // rows))
    return out


def _check_t_domain(spec, j, t):
    # each bound binds only when a factor of that orientation is present
    lo = -2.0 * _shape(spec.n, j, 1) if spec.plus_count > 0 else -math.inf
    hi = 2.0 * _shape(spec.n, j, -1) if spec.plus_count < spec.m else math.inf
    if not (lo < t < hi):
        raise ValueError(f"t: must lie in ({lo}, {hi}) for j={j} (got {t})")


def log_mgf_ginibre(spec: ProductSpec, j: int, t: float) -> float:
    """log E[radius^t] for the j-th surrogate.

    One log-gamma ratio per Gaussian factor or log-beta ratio per
    truncation; for Gaussian factors this equals
        p * (log Gamma(j + t/2) - log Gamma(j))
      + (m-p) * (log Gamma(n+1-j - t/2) - log Gamma(n+1-j)),
    finite exactly on -2j < t < 2(n+1-j). The same function is exported
    as log_mgf_haar.
    """
    _check_index(spec, j)
    _check_t_domain(spec, j, t)
    out = 0.0
    for sign, b in _factors(spec):
        shape = _shape(spec.n, j, sign)
        out += _log_norm(shape + sign * t / 2.0, b) - _log_norm(float(shape), b)
    return float(out)


log_mgf_haar = log_mgf_ginibre


def log_weight_moment(spec: ProductSpec, t: float) -> float:
    """log of the t-th moment of the shared radial weight, t > 0.

    The surrogate densities are proportional to y^(2j-1) times a common
    weight; this closed moment makes the identity
    log_weight_moment(2j-1+t) - log_weight_moment(2j-1) = log mgf(j, t)
    available as an independent cross-check.
    """
    if not (t > 0):
        raise ValueError(f"t: must be > 0 (got {t})")
    n, m = spec.n, spec.m
    out = (m - 1) * np.log(np.pi) - np.log(2.0)
    for sign, b in _factors(spec):
        arg = _shape(n, 0.5 * (t + 1.0), sign)
        if not (arg > 0):
            raise ValueError(f"t: factor argument {arg} not positive (t={t})")
        out += _log_norm(arg, b)
    return float(out)


def scaled_mean_ginibre(spec: ProductSpec, j: int) -> float:
    """Exact mean of (radius^2 / scale)^(1/m) for the j-th surrogate."""
    t = 2.0 / spec.m
    return float(np.exp(log_mgf_ginibre(spec, j, t) - spec.log_scale() / spec.m))
