"""Spans around the calls into prodspec's public functions.

Each name is patched where its caller looks it up: `prodspec.cli` for the
names `cli` imports, `prodspec.matrix_model` for the factor samplers and
`product_eigenvalues`, and the `RngStream` class for `substream`. Spans
stay in memory until the run ends; nothing inside `src/` changes.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np


class Span:
    __slots__ = ("name", "parent", "start", "end", "ok", "points", "clamped")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.ok = False
        self.points = 0
        self.clamped = 0
        self.start = time.perf_counter()


def _observe_cdf(span, args, result):
    out = np.asarray(result)
    span.points = out.size
    span.clamped = int(np.count_nonzero((out == 0.0) | (out == 1.0)))


class Tracer:
    """Patches functions to record spans; undoes every patch on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches = []

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        original = getattr(owner, attr)
        spans = self.spans
        local = self._local

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
                span.ok = True
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                spans.append(span)
                if span.ok and observe is not None:
                    observe(span, args, result)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def __enter__(self):
        from prodspec import cli, matrix_model
        from prodspec.numerics import RngStream

        for attr, name in (
            ("resolve_limit", "cli.resolve_limit"),
            ("write_outputs", "cli.write_outputs"),
            ("sample_radial_spectrum", "scalar_model.sample_radial_spectrum"),
            ("sample_product_eigenvalues", "matrix_model.sample_product_eigenvalues"),
            ("build_ecdf", "stats.build_ecdf"),
            ("ks_one_sample", "stats.ks_one_sample"),
            ("ks_two_sample", "stats.ks_two_sample"),
            ("angle_uniformity", "stats.angle_uniformity"),
        ):
            self.wrap(cli, attr, name)
        for attr in ("ginibre_limit_cdf", "haar_limit_cdf"):
            self.wrap(cli, attr, "limit_laws.limit_cdf", observe=_observe_cdf)
        for attr in ("sample_ginibre", "sample_haar_unitary", "product_eigenvalues"):
            self.wrap(matrix_model, attr, f"matrix_model.{attr}")
        self.wrap(RngStream, "substream", "numerics.substream")
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def layer_metrics(self) -> dict:
        """Per-layer metrics from the recorded spans; times are self times."""
        self_s, count = {}, {}
        for span in self.spans:
            took = span.end - span.start
            self_s[span.name] = self_s.get(span.name, 0.0) + took
            count[span.name] = count.get(span.name, 0) + 1
            if span.parent is not None:
                self_s[span.parent.name] = self_s.get(span.parent.name, 0.0) - took

        haar = "matrix_model.sample_haar_unitary"
        direct_ginibre = sum(
            1 for s in self.spans
            if s.name == "matrix_model.sample_ginibre"
            and (s.parent is None or s.parent.name != haar)
        )
        replicates = [s for s in self.spans if s.name == "matrix_model.sample_product_eigenvalues"]
        cdf = [s for s in self.spans if s.name == "limit_laws.limit_cdf"]
        points = sum(s.points for s in cdf)
        cdf_s = self_s.get("limit_laws.limit_cdf", 0.0)

        def t(name):
            return self_s.get(name, 0.0)

        return {
            "cli.resolve_limit_s": t("cli.resolve_limit"),
            "cli.write_outputs_s": t("cli.write_outputs"),
            "numerics.substream_s": t("numerics.substream"),
            "numerics.streams": count.get("numerics.substream", 0),
            "scalar_model.sample_radial_spectrum_s": t("scalar_model.sample_radial_spectrum"),
            "scalar_model.calls": count.get("scalar_model.sample_radial_spectrum", 0),
            "matrix_model.sample_ginibre_s": t("matrix_model.sample_ginibre"),
            "matrix_model.sample_haar_unitary_s": t(haar),
            "matrix_model.factor_draws": count.get(haar, 0) + direct_ginibre,
            "matrix_model.product_eigenvalues_s": t("matrix_model.product_eigenvalues"),
            # no matrix replicate attempted means none was wasted
            "matrix_model.replicates_ok_ratio": (
                sum(s.ok for s in replicates) / len(replicates) if replicates else 1.0
            ),
            "stats.build_ecdf_s": t("stats.build_ecdf"),
            "stats.ks_one_sample_self_s": t("stats.ks_one_sample"),
            "stats.ks_two_sample_s": t("stats.ks_two_sample"),
            "stats.angle_uniformity_s": t("stats.angle_uniformity"),
            "limit_laws.limit_cdf_s": cdf_s,
            "limit_laws.limit_cdf_points": points,
            "limit_laws.limit_cdf_ns_per_point": cdf_s / points * 1e9 if points else 0.0,
            "limit_laws.clamped_fraction": sum(s.clamped for s in cdf) / points if points else 0.0,
        }
