"""Radial limits for products of truncated unitary factors.

The limiting radial CDF is the inverse function of an increasing analytic
curve known through its power-series coefficients. The curve can be built
three ways: from a concrete spec at finite n, from limiting dimension
ratios, or for a growing factor count. This script prints the coefficient
decay, shows the certified truncation control, and checks the sampled
moduli against the curve's CDF.

Run:  python3 demos/truncation_limits.py
"""

import numpy as np

from prodspec import (
    HaarProductSpec,
    RngStream,
    ScalingPlan,
    SeriesAccuracyError,
    SignPattern,
    build_ecdf,
    haar_limit_cdf,
    haar_limit_from_ratios,
    haar_limit_from_spec,
    haar_limit_growing,
    ks_one_sample,
    limit_curve,
    limit_curve_tail,
    log_mean_curve,
    sample_radial_spectrum,
)

# 1. the series curve and its certified error control
spec = HaarProductSpec(200, SignPattern.parse("+-"), (400, 400))
lim = haar_limit_from_spec(spec, gamma_n=2.0, terms=80)
print("signs +-, dims 2n, n=200, gamma=2")
print(f"  leading coefficients  {np.round(lim.betas[:4], 6)}")
print(f"  coefficient cap       {lim.tail_bound:.4f}")
for x in (0.75, 0.95, 0.999):
    print(f"  tail bound at x={x:<6} {limit_curve_tail(lim, x):.3e}")
try:
    limit_curve(lim, 0.9999, max_error=1e-10)
except SeriesAccuracyError as exc:
    print(f"  refused at x=0.9999 with max_error=1e-10: {exc}")
closed = log_mean_curve(spec, 0.75) / 2.0
print(f"  partial sum vs closed form at x=0.75: "
      f"{limit_curve(lim, 0.75):.12f} vs {closed:.12f}\n")

# 2. sampled moduli against the curve's CDF
plan = ScalingPlan.for_spec(spec, 2.0)
root = RngStream(21)
draws = [
    sample_radial_spectrum(spec, root.substream(0, r), 1)[0]
    for r in range(200)
]
ecdf = build_ecdf(draws, plan)
ks = ks_one_sample(ecdf, lambda y: haar_limit_cdf(lim, y)).statistic
print(f"  KS of sampled moduli vs curve CDF  {ks:.4f}\n")

# 3. near-square truncations: the curve flattens and the law degenerates
near = HaarProductSpec(400, SignPattern.parse("++"), (401, 401))
near_lim = haar_limit_from_spec(near, gamma_n=2.0, terms=80)
plan = ScalingPlan.for_spec(near, 2.0)
draws = [
    sample_radial_spectrum(near, RngStream(22).substream(0, r), 1)[0]
    for r in range(200)
]
h = build_ecdf(draws, plan).values
mass = float(np.mean((h >= 0.9) & (h <= 1.1)))
print("signs ++, dims n+1, n=400, gamma=2")
print(f"  first coefficient  {near_lim.betas[0]:.5f}  (flat curve)")
print(f"  mass in [0.9,1.1]  {mass:.3f}  (moduli collapse onto 1)\n")

# 4. the same curve object from limiting ratios or a growing factor count
ratio_lim = haar_limit_from_ratios([1, -1], [0.5, 0.5], terms=80)
grow_lim = haar_limit_growing(1.0, 0.5, terms=80)
print("constructor comparison, first three coefficients")
print(f"  from spec n=200     {np.round(lim.betas[:3], 6)}")
print(f"  from ratios 1/2     {np.round(ratio_lim.betas[:3], 6)}")
print(f"  growing, all direct {np.round(grow_lim.betas[:3], 6)}")
print(f"  curve midpoints     {limit_curve(lim, 0.5):.6f} "
      f"{limit_curve(ratio_lim, 0.5):.6f} {limit_curve(grow_lim, 0.5):.6f}")
