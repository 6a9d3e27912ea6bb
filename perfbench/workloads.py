"""Workloads, seeds and metric definitions of the benchmark.

BENCHMARK.json at the repository root repeats the names, units and
directions defined here; the benchmark's tests check that the two agree.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

# The seed claims are tuned on, and one held back to re-check them on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# Removed from every measured child so that the program's own BLAS
# threading defaults are what gets measured.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One `prodspec run` flag set; BENCHMARK.json gives the reason for it."""

    flags: dict
    replicates: int

    def points(self, replicates: int | None = None) -> int:
        """Rescaled moduli compared against the limit in one run."""
        paths = 2 if self.flags["mode"] == "both" else 1
        return self.flags["n"] * (replicates or self.replicates) * paths


WORKLOADS = {
    "scalar-haar-series": Workload({"preset": "haar-remark4ii", "n": 200, "mode": "scalar"}, 2000),
    "scalar-ginibre-draws": Workload({"preset": "ginibre-allplus", "n": 200, "mode": "scalar"}, 10000),
    "matrix-ginibre-inverse": Workload(
        {"ensemble": "ginibre", "signs": "-+-", "n": 100, "mode": "matrix"}, 40
    ),
    "both-haar-truncation": Workload({"preset": "haar-remark4ii", "n": 100, "mode": "both"}, 40),
}

# Every flag `prodspec run` reads from its parsed arguments.
_RUN_FLAGS = (
    "config", "preset", "ensemble", "n", "signs", "dims", "gamma",
    "replicates", "mode", "seed", "workers", "limit", "out",
)


def run_flags(workload: Workload, seed: int, out: str, replicates: int | None = None):
    """The parsed arguments `prodspec run` would see for this workload."""
    flags = dict.fromkeys(_RUN_FLAGS)
    flags.update(workload.flags)
    flags.update(replicates=replicates or workload.replicates, seed=seed, out=out)
    return argparse.Namespace(**flags)


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str
    moves: tuple[str, ...] = ()  # end-to-end metrics a change in this one should move
    on: tuple[str, ...] = ()  # the workloads where it shows most


END_TO_END = {
    "run_s": Metric("s", "lower"),
    "points_per_s": Metric("1/s", "higher"),
    "setup_s": Metric("s", "lower"),
    "peak_rss_mb": Metric("MB", "lower"),
    "ok_fraction": Metric("ratio", "higher"),
}

_HAAR = ("scalar-haar-series", "both-haar-truncation")
_DRAWS = ("scalar-ginibre-draws",)
_MATRIX = ("matrix-ginibre-inverse", "both-haar-truncation")
_TIME = ("run_s", "points_per_s")

PER_LAYER = {
    "cli.resolve_limit_s": Metric("s", "lower", ("setup_s",), _HAAR),
    "cli.write_outputs_s": Metric("s", "lower", ("run_s",), _DRAWS),
    "numerics.substream_s": Metric("s", "lower", _TIME, _DRAWS),
    "numerics.streams": Metric("count", "lower", _TIME, _DRAWS),
    "scalar_model.sample_radial_spectrum_s": Metric("s", "lower", _TIME, _DRAWS),
    "scalar_model.calls": Metric("count", "lower", _TIME, _DRAWS),
    "matrix_model.sample_ginibre_s": Metric("s", "lower", ("run_s",), _MATRIX),
    # QR self time; zero on matrix-ginibre-inverse
    "matrix_model.sample_haar_unitary_s": Metric("s", "lower", ("run_s",), ("both-haar-truncation",)),
    "matrix_model.factor_draws": Metric("count", "lower", ("run_s",), _MATRIX),
    "matrix_model.product_eigenvalues_s": Metric("s", "lower", ("run_s",), _MATRIX),
    "matrix_model.replicates_ok_ratio": Metric("ratio", "higher", ("ok_fraction",), _MATRIX),
    "stats.build_ecdf_s": Metric("s", "lower", ("run_s", "peak_rss_mb"), _DRAWS),
    "stats.ks_one_sample_self_s": Metric("s", "lower", ("run_s", "peak_rss_mb"), _DRAWS),
    "stats.ks_two_sample_s": Metric("s", "lower", ("run_s",), ("both-haar-truncation",)),
    "stats.angle_uniformity_s": Metric("s", "lower", ("run_s",), ("both-haar-truncation",)),
    # about zero on scalar-ginibre-draws, whose limit is closed-form
    "limit_laws.limit_cdf_s": Metric("s", "lower", _TIME, ("scalar-haar-series",)),
    "limit_laws.limit_cdf_points": Metric("count", "lower", _TIME, ("scalar-haar-series",)),
    "limit_laws.limit_cdf_ns_per_point": Metric("ns", "lower", _TIME, ("scalar-haar-series",)),
    # share of CDF outputs exactly 0 or 1: a health ratio, not a speed
    "limit_laws.clamped_fraction": Metric("ratio", "lower", (), _HAAR),
    # traced minus untraced run_s
    "trace.overhead_s": Metric("s", "lower", (), tuple(WORKLOADS)),
}
