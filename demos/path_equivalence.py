"""Two routes to the same radial law.

The eigenvalue moduli of a product of random matrix factors share their
joint law (as a multiset) with a family of independent scalar radii, one
per index. This script draws both, at modest size, and shows that the
pooled distributions are statistically indistinguishable while the scalar
route is orders of magnitude cheaper.

Run:  python3 demos/path_equivalence.py
"""

import time

import numpy as np

from prodspec import (
    EmpiricalCdf,
    GinibreProductSpec,
    HaarProductSpec,
    RngStream,
    SignPattern,
    ks_two_sample,
    sample_product_eigenvalues,
    sample_radial_spectrum,
)

N = 30
REPLICATES = 400


def compare(spec, seed):
    root = RngStream(seed)
    t0 = time.perf_counter()
    matrix = np.concatenate(
        [
            sample_product_eigenvalues(spec, root.substream(1, r)).log_moduli
            for r in range(REPLICATES)
        ]
    )
    t_matrix = time.perf_counter() - t0
    t0 = time.perf_counter()
    # every replicate in one call, drawn in chunks of rows, as prodspec run does
    scalar = sample_radial_spectrum(spec, root.substream(0), REPLICATES).ravel()
    t_scalar = time.perf_counter() - t0
    report = ks_two_sample(EmpiricalCdf(matrix), EmpiricalCdf(scalar))
    return report.statistic, t_matrix, t_scalar


print(f"n = {N}, {REPLICATES} replicates per path, pooled sample size "
      f"{N * REPLICATES} per side\n")

# one Gaussian factor inverted, one direct
spec = GinibreProductSpec(N, SignPattern.parse("-+"))
ks, tm, ts = compare(spec, seed=1)
print("Gaussian factors, signs -+")
print(f"  two-sample KS  {ks:.4f}   (same law: expect ~1/sqrt(pooled size))")
print(f"  matrix path    {tm:.2f} s   scalar path {ts:.3f} s\n")

# truncated-unitary factors from twice-size unitaries
spec = HaarProductSpec(N, SignPattern.parse("-+"), (2 * N, 2 * N))
ks, tm, ts = compare(spec, seed=2)
print("Truncated-unitary factors, signs -+, source dims 2n")
print(f"  two-sample KS  {ks:.4f}")
print(f"  matrix path    {tm:.2f} s   scalar path {ts:.3f} s")
