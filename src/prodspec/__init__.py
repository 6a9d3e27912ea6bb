"""Radial and angular statistics of products of random matrices and their inverses.

prodspec makes no use of BLAS threads: the scalar path calls no BLAS, and
the matrix path runs every OpenBLAS on one thread (matrix_model) and
spreads its replicates over threads of its own. Importing the package
therefore sets OPENBLAS_NUM_THREADS to 1, before any of its modules
imports numpy, unless the variable is already set; a value given is
kept. The variable stays set for processes started later. OpenBLAS reads
it when numpy loads the library, so it starts no worker thread. An idle
worker busy-waits before it sleeps: left to start, it kept a CPU busy
for about the first 100 ms after the import (measured on 2 vCPUs), while
a run's own threads started, and setting the count to 1 after the load
does not stop it. Where numpy was imported before prodspec, its OpenBLAS
keeps the count it was loaded with; the matrix path still holds it to
one thread while it runs. No output depends on the variable either way.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .config import (
    GinibreProductSpec,
    HaarProductSpec,
    ProductSpec,
    ScalingPlan,
    SignPattern,
    resolve_gamma,
)
from .limit_laws import (
    GinibreLimit,
    HaarLimit,
    SeriesAccuracyError,
    curve_inverse_cdf,
    curve_inverse_density,
    ginibre_limit_cdf,
    ginibre_limit_density,
    haar_limit_cdf,
    haar_limit_from_ratios,
    haar_limit_from_spec,
    haar_limit_growing,
    limit_curve,
    limit_curve_tail,
    log_mean_curve,
    radial_profile,
    radial_profile_inverse,
    series_coeff,
    series_coeff_bound,
    series_tail_bound,
    spherical_product_density,
)
from .matrix_model import (
    ConditioningError,
    product_eigenvalues,
    sample_ginibre,
    sample_haar_unitary,
    sample_product_eigenvalues,
    truncate,
)
from .numerics import RngStream
from .scalar_model import (
    log_mgf_ginibre,
    log_mgf_haar,
    log_weight_moment,
    sample_log_radius_ginibre,
    sample_log_radius_haar,
    sample_radial_spectrum,
    scaled_mean_ginibre,
)
from .stats import (
    EmpiricalCdf,
    KsReport,
    angle_uniformity,
    build_ecdf,
    fold_angles,
    ks_one_sample,
    ks_threshold,
    ks_two_sample,
    mgf_estimate,
    rescale_moduli,
)

__all__ = [name for name in dir() if not name.startswith("_")]
