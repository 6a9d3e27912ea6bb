"""Radial limit laws for products of Gaussian factors.

Three regimes of the rescaled moduli h = exp((2 log|z| - log a_n) / g):

  1. all factors direct, g = m      -> Unif[0, 1]
  2. one inverted, one direct, g=2  -> CDF y^2/(1+y^2) (spherical type)
  3. g growing like m*n             -> point mass at 1

Each block samples through the scalar surrogates, compares the pooled
empirical CDF with the predicted law, and prints the verdict numbers.

Run:  python3 demos/gaussian_limits.py
"""

import numpy as np

from prodspec import (
    GinibreLimit,
    GinibreProductSpec,
    RngStream,
    ScalingPlan,
    SignPattern,
    build_ecdf,
    ginibre_limit_cdf,
    ginibre_limit_density,
    ks_one_sample,
    sample_radial_spectrum,
    spherical_product_density,
)

REPLICATES = 200


def pooled_ecdf(spec, gamma, seed):
    plan = ScalingPlan.for_spec(spec, gamma)
    root = RngStream(seed)
    # one (REPLICATES, n) array, drawn and pooled the way prodspec run does
    draws = sample_radial_spectrum(spec, root.substream(0), REPLICATES)
    return build_ecdf([draws], plan)


# 1. four direct factors: the radial limit is uniform on [0, 1]
spec = GinibreProductSpec(500, SignPattern.parse("++++"))
ecdf = pooled_ecdf(spec, gamma=4.0, seed=11)
lim = GinibreLimit(alpha=1.0, beta=1.0)
ks = ks_one_sample(ecdf, lambda y: ginibre_limit_cdf(lim, y)).statistic
print("all-direct, m=4, n=500, gamma=m")
print(f"  KS vs Unif[0,1]      {ks:.4f}")
print(f"  sample quartiles     {np.percentile(ecdf.values, [25, 50, 75]).round(3)}\n")

# 2. inverse times direct at gamma=2: moduli follow the spherical-type law
spec = GinibreProductSpec(200, SignPattern.parse("-+"))
ecdf = pooled_ecdf(spec, gamma=2.0, seed=12)
lim = GinibreLimit(alpha=0.5, beta=1.0)
ks = ks_one_sample(ecdf, lambda y: y**2 / (1 + y**2)).statistic
print("signs -+, n=200, gamma=2")
print(f"  KS vs y^2/(1+y^2)    {ks:.4f}")
med = float(np.median(ecdf.values))
print(f"  sample median        {med:.3f}  (law median = 1 exactly)")
# the same law written as a planar density, radius part only
dens = ginibre_limit_density(lim, 1.0)
planar = 2 * np.pi * 1.0 * spherical_product_density(1, 1.0)
print(f"  radial density at 1  {dens:.4f} = 2*pi*r*kappa(1) = {planar:.4f}\n")

# 3. rescaling power m*n: everything collapses onto the unit circle
spec = GinibreProductSpec(300, SignPattern.parse("++++"))
ecdf = pooled_ecdf(spec, gamma=4.0 * 300, seed=13)
mass = float(np.mean((ecdf.values >= 0.9) & (ecdf.values <= 1.1)))
print("all-direct, n=300, gamma=m*n")
print(f"  mass in [0.9, 1.1]   {mass:.3f}  (degenerate limit: mass -> 1)")
