"""Direct sampling of product eigenvalues for cross-checking the surrogates.

Factors are standard complex Gaussian matrices or n x n corners of Haar
unitaries. Inverse factors are applied through LU solves on the factor as
drawn; no matrix is ever inverted explicitly, and a factor whose estimated
condition number passes 1e12 aborts the replicate instead of feeding noise
into the statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack, lu_factor, lu_solve

from .config import ProductSpec
from .numerics import RngStream
from .stats import fold_angles

# refuse solves beyond this estimated condition number
CONDITION_LIMIT = 1e12

# eigensolver and solve accuracy are vetted up to this product size
MAX_PRODUCT_SIZE = 200
MAX_FACTORS = 8


class ConditioningError(RuntimeError):
    """An inverse factor is too ill-conditioned to apply reliably."""


@dataclass(frozen=True)
class EigenSample:
    """One replicate's product eigenvalues, split into moduli and angles."""

    log_moduli: np.ndarray
    angles: np.ndarray


def sample_ginibre(dim: int, rng: RngStream) -> np.ndarray:
    """dim x dim matrix of independent CN(0,1) entries."""
    if dim < 1:
        raise ValueError(f"dim: must be >= 1 (got {dim})")
    re = rng.standard_normal((dim, dim))
    im = rng.standard_normal((dim, dim))
    return (re + 1j * im) / np.sqrt(2.0)


def sample_haar_unitary(dim: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed dim x dim unitary via QR with phase correction."""
    q, r = np.linalg.qr(sample_ginibre(dim, rng))
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q


def truncate(u: np.ndarray, n: int) -> np.ndarray:
    """Top-left n x n corner of a matrix."""
    if n < 1 or n > u.shape[0] or n > u.shape[1]:
        raise ValueError(f"n: must lie in 1..{min(u.shape)} (got {n})")
    return np.ascontiguousarray(u[:n, :n])


def product_eigenvalues(factors, signs) -> EigenSample:
    """Eigenvalues of factors[0]^s0 * factors[1]^s1 * ... with s in {+1,-1}.

    Inverse factors enter through LU solves from the right. Raises
    ConditioningError when an inverted factor's 1-norm condition estimate
    exceeds CONDITION_LIMIT.
    """
    factors = [np.asarray(a, dtype=complex) for a in factors]
    signs = list(signs)
    if len(factors) == 0 or len(factors) != len(signs):
        raise ValueError(
            f"factors: got {len(factors)} factors for {len(signs)} signs"
        )
    if len(factors) > MAX_FACTORS:
        raise ValueError(f"factors: at most {MAX_FACTORS} supported (got {len(factors)})")
    n = factors[0].shape[0]
    if n > MAX_PRODUCT_SIZE:
        raise ValueError(f"factors: product size capped at {MAX_PRODUCT_SIZE} (got {n})")
    for k, a in enumerate(factors):
        if a.shape != (n, n):
            raise ValueError(f"factors[{k}]: expected shape {(n, n)}, got {a.shape}")
    prod = np.eye(n, dtype=complex)
    for k, (a, sign) in enumerate(zip(factors, signs)):
        if sign == 1:
            prod = prod @ a
        elif sign == -1:
            lu, piv = lu_factor(a, check_finite=False)
            anorm = np.linalg.norm(a, 1)
            rcond, info = lapack.zgecon(lu, anorm, norm="1")
            if info != 0 or not (rcond > 1.0 / CONDITION_LIMIT):
                raise ConditioningError(
                    f"factor {k}: condition estimate "
                    f"{np.inf if rcond == 0 else 1.0 / rcond:.3e} beyond {CONDITION_LIMIT:.0e}"
                )
            # right division: solve a^T x^T = prod^T
            prod = lu_solve((lu, piv), prod.T, trans=1, check_finite=False).T
        else:
            raise ValueError(f"signs[{k}]: must be +-1 (got {sign!r})")
    eig = np.linalg.eigvals(prod)
    return EigenSample(
        log_moduli=np.log(np.abs(eig)),
        angles=fold_angles(np.angle(eig)),
    )


def sample_product_eigenvalues(spec: ProductSpec, rng: RngStream) -> EigenSample:
    """Draw the factors described by a spec and return the product's eigenvalues."""
    if spec.dims is None:
        factors = [sample_ginibre(spec.n, rng) for _ in range(spec.m)]
    else:
        factors = [
            truncate(sample_haar_unitary(d, rng), spec.n) for d in spec.dims
        ]
    return product_eigenvalues(factors, spec.signs)
