"""Experiment runner and the prodspec command line.

prodspec run samples a configured product ensemble through the scalar
surrogates and/or the matrix path, compares pooled empirical CDFs with
the resolved limit law, and writes cdf.csv, angles.csv, and report.json
into --out. prodspec presets lists the named scenarios.

Exit codes: 0 success, 2 invalid configuration, 3 conditioning abort,
4 threshold failure under --assert.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import ProductSpec, ScalingPlan, SignPattern, resolve_gamma
from .limit_laws import (
    GinibreLimit,
    HaarLimit,
    ginibre_limit_cdf,
    haar_limit_cdf,
    haar_limit_from_spec,
)
from .matrix_model import (
    MAX_FACTORS,
    MAX_PRODUCT_SIZE,
    ConditioningError,
    sample_product_eigenvalues,
)
from .numerics import RngStream
from .scalar_model import sample_radial_spectrum
from .stats import (
    TWO_PI,
    EmpiricalCdf,
    angle_uniformity,
    build_ecdf,
    ks_one_sample,
    ks_threshold,
    ks_two_sample,
)

# below this value of (first coefficient)/gamma_n the limit is treated as
# the point mass at 1 and concentration replaces the KS comparison
DEGENERATE_THRESHOLD = 0.05

# concentration gate used by --assert in the degenerate regime
MASS_WINDOW = (0.9, 1.1)
MASS_THRESHOLD = 0.95

LIMIT_TERMS = 80


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; built from flags, file, and preset."""

    ensemble: str
    n: int
    signs: str
    gamma: str = "m"
    dims: tuple[int, ...] | None = None
    replicates: int = 200
    mode: str = "scalar"
    seed: int = 0
    workers: int = 1
    limit: str = "auto"
    out: str | None = None
    preset: str | None = None

    def build_spec(self) -> ProductSpec:
        signs = SignPattern.parse(self.signs)
        if self.ensemble not in ("ginibre", "haar"):
            raise ConfigError(f"ensemble: expected 'ginibre' or 'haar' (got {self.ensemble!r})")
        if self.ensemble == "ginibre" and self.dims is not None:
            raise ConfigError("dims: only truncated-unitary ensembles take dims")
        if self.ensemble == "haar" and self.dims is None:
            raise ConfigError("dims: required for the haar ensemble")
        return ProductSpec(self.n, signs, self.dims)

    def validated(self) -> "ExperimentConfig":
        if self.n < 2:
            raise ConfigError(f"n: experiments need n >= 2 (got {self.n})")
        if self.replicates < 1:
            raise ConfigError(f"replicates: must be >= 1 (got {self.replicates})")
        if self.mode not in ("scalar", "matrix", "both"):
            raise ConfigError(f"mode: expected scalar|matrix|both (got {self.mode!r})")
        if self.workers < 1:
            raise ConfigError(f"workers: must be >= 1 (got {self.workers})")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0 (got {self.seed})")
        spec = self.build_spec()  # surfaces spec-level problems early
        resolve_gamma(self.gamma, spec.m)
        if self.mode in ("matrix", "both"):
            if self.n > MAX_PRODUCT_SIZE:
                raise ConfigError(
                    f"n: matrix mode is capped at n <= {MAX_PRODUCT_SIZE} (got {self.n})"
                )
            if spec.m > MAX_FACTORS:
                raise ConfigError(
                    f"signs: matrix mode is capped at {MAX_FACTORS} factors (got {spec.m})"
                )
        return self


@dataclass
class ExperimentReport:
    """Results of one run; record() flattens everything scalar for JSON."""

    config: ExperimentConfig
    plan: ScalingPlan
    limit_kind: str
    limit: object | None
    scalar_ecdf: EmpiricalCdf | None = None
    matrix_ecdf: EmpiricalCdf | None = None
    pooled_angles: np.ndarray | None = None
    ks_results: dict = field(default_factory=dict)
    mass_scalar: float | None = None
    mass_matrix: float | None = None
    runtimes: dict = field(default_factory=dict)
    conditioning_error: str | None = None

    def limit_cdf(self):
        """Reference CDF callable for the resolved limit, or None."""
        if self.limit_kind == "ginibre":
            return lambda y: ginibre_limit_cdf(self.limit, y)
        if self.limit_kind == "haar":
            return lambda y: haar_limit_cdf(self.limit, y)
        if self.limit_kind == "degenerate":
            return lambda y: np.where(np.asarray(y, dtype=float) >= 1.0, 1.0, 0.0)
        return None

    def record(self) -> dict:
        cfg = self.config
        out = {
            "version": __version__,
            "ensemble": cfg.ensemble,
            "n": cfg.n,
            "signs": cfg.signs,
            "dims": "" if cfg.dims is None else ",".join(str(d) for d in cfg.dims),
            "gamma_n": self.plan.gamma_n,
            "log_scale": self.plan.log_scale,
            "replicates": cfg.replicates,
            "mode": cfg.mode,
            "seed": cfg.seed,
            "workers": cfg.workers,
            "preset": cfg.preset or "",
            "limit_kind": self.limit_kind,
            "conditioning_aborted": self.conditioning_error is not None,
        }
        if isinstance(self.limit, GinibreLimit):
            out["limit_alpha"] = self.limit.alpha
            out["limit_beta"] = self.limit.beta
        elif isinstance(self.limit, HaarLimit):
            out["limit_terms"] = self.limit.terms
            out["limit_beta1"] = self.limit.betas[0]
            out["limit_tail_bound"] = self.limit.tail_bound
        for name, rep in sorted(self.ks_results.items()):
            out[f"ks_{name}"] = rep.statistic
            out[f"ks_{name}_n"] = rep.n
        if self.mass_scalar is not None:
            out["mass_scalar"] = self.mass_scalar
        if self.mass_matrix is not None:
            out["mass_matrix"] = self.mass_matrix
        for name, secs in sorted(self.runtimes.items()):
            out[f"runtime_{name}_s"] = secs
        return out

    def threshold_failures(self) -> list[str]:
        """Checks --assert enforces: KS under threshold, or mass in the window."""
        bad = []
        if self.limit_kind == "degenerate":
            for name, mass in (("scalar", self.mass_scalar), ("matrix", self.mass_matrix)):
                if mass is not None and mass < MASS_THRESHOLD:
                    bad.append(f"mass_{name}={mass:.4f} < {MASS_THRESHOLD}")
        else:
            for name in ("scalar", "matrix"):
                rep = self.ks_results.get(name)
                if rep is not None and rep.statistic > ks_threshold(rep.n):
                    bad.append(f"ks_{name}={rep.statistic:.4f} > {ks_threshold(rep.n):.4f}")
        rep = self.ks_results.get("angles")
        if rep is not None and rep.statistic > ks_threshold(rep.n):
            bad.append(f"ks_angles={rep.statistic:.4f} > {ks_threshold(rep.n):.4f}")
        return bad


def resolve_limit(cfg: ExperimentConfig, spec: ProductSpec, plan: ScalingPlan):
    """Pick the reference law: (kind, limit object or None)."""
    token = cfg.limit.strip()
    if token == "degenerate":
        return "degenerate", None
    if token.startswith("ginibre:"):
        try:
            a, b = (float(v) for v in token[len("ginibre:"):].split(","))
        except ValueError:
            raise ConfigError(f"limit: expected ginibre:alpha,beta (got {token!r})") from None
        try:
            return "ginibre", GinibreLimit(alpha=a, beta=b)
        except ValueError as exc:
            raise ConfigError(f"limit: {exc}") from None
    if token.startswith("betas:"):
        return "haar", _read_betas_file(token[len("betas:"):])
    if token != "auto":
        raise ConfigError(f"limit: expected auto|degenerate|ginibre:a,b|betas:PATH (got {token!r})")
    if spec.dims is None:
        beta = spec.m / plan.gamma_n
        if beta < DEGENERATE_THRESHOLD:
            return "degenerate", None
        return "ginibre", GinibreLimit(alpha=spec.plus_count / spec.m, beta=beta)
    lim = haar_limit_from_spec(spec, plan.gamma_n, terms=LIMIT_TERMS)
    if lim.betas[0] < DEGENERATE_THRESHOLD:
        return "degenerate", None
    return "haar", lim


def _read_betas_file(path: str) -> HaarLimit:
    betas, bound = [], None
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"limit: cannot read betas file: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if sep and key.strip() != "bound":
            raise ConfigError(f"limit: unknown betas-file key {key.strip()!r}")
        try:
            value = float(val if sep else line)
        except ValueError:
            raise ConfigError(
                f"limit: betas file line {lineno}: expected a number (got {line!r})"
            ) from None
        if sep:
            bound = value
        else:
            betas.append(value)
    if not betas:
        raise ConfigError("limit: betas file holds no coefficients")
    if bound is None:
        bound = max(abs(b) for b in betas)
    try:
        return HaarLimit(betas=tuple(betas), tail_bound=bound)
    except ValueError as exc:
        raise ConfigError(f"limit: {exc}") from None


def _mass_in_window(values) -> float:
    lo, hi = MASS_WINDOW
    v = np.asarray(values)
    return float(np.mean((v >= lo) & (v <= hi)))


def _map_replicates(fn, count, workers):
    if workers == 1:
        return [fn(r) for r in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Sample, compare, and assemble a report; raises ConditioningError on abort."""
    cfg = cfg.validated()
    spec = cfg.build_spec()
    plan = ScalingPlan.for_spec(spec, resolve_gamma(cfg.gamma, spec.m))
    kind, limit = resolve_limit(cfg, spec, plan)
    report = ExperimentReport(config=cfg, plan=plan, limit_kind=kind, limit=limit)
    root = RngStream(cfg.seed)
    cdf = report.limit_cdf()

    if cfg.mode in ("scalar", "both"):
        t0 = time.perf_counter()
        # stream key (0, r): scalar path, replicate r
        draws = _map_replicates(
            lambda r: sample_radial_spectrum(spec, root.substream(0, r)).log_radii,
            cfg.replicates,
            cfg.workers,
        )
        ecdf = build_ecdf(draws, plan)
        report.scalar_ecdf = ecdf
        report.mass_scalar = _mass_in_window(ecdf.values)
        if kind != "degenerate":
            report.ks_results["scalar"] = ks_one_sample(ecdf, cdf, label="scalar vs limit")
        report.runtimes["scalar"] = time.perf_counter() - t0

    if cfg.mode in ("matrix", "both"):
        t0 = time.perf_counter()
        # stream key (1, r): matrix path, replicate r
        samples = _map_replicates(
            lambda r: sample_product_eigenvalues(spec, root.substream(1, r)),
            cfg.replicates,
            cfg.workers,
        )
        ecdf = build_ecdf([s.log_moduli for s in samples], plan)
        report.matrix_ecdf = ecdf
        report.mass_matrix = _mass_in_window(ecdf.values)
        report.pooled_angles = np.concatenate([s.angles for s in samples])
        if kind != "degenerate":
            report.ks_results["matrix"] = ks_one_sample(ecdf, cdf, label="matrix vs limit")
        report.ks_results["angles"] = angle_uniformity(report.pooled_angles)
        report.runtimes["matrix"] = time.perf_counter() - t0

    if report.scalar_ecdf is not None and report.matrix_ecdf is not None:
        report.ks_results["paths"] = ks_two_sample(
            report.scalar_ecdf, report.matrix_ecdf, label="scalar vs matrix"
        )
    return report


# ---------------------------------------------------------------------------
# output files

def _fmt(value) -> str:
    return repr(float(value))


def _quantile_grid(values: np.ndarray, points: int = 1001) -> np.ndarray:
    # deterministic order-statistic grid; repr of the same doubles is stable
    idx = np.round(np.linspace(0, len(values) - 1, points)).astype(int)
    return np.unique(values[idx])


def write_outputs(report: ExperimentReport, out_dir) -> None:
    """Write cdf.csv, angles.csv (matrix modes), and report.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ecdf = report.scalar_ecdf if report.scalar_ecdf is not None else report.matrix_ecdf
    cdf = report.limit_cdf()
    if ecdf is not None:
        grid = _quantile_grid(ecdf.values)
        ref = np.asarray(cdf(grid), dtype=float)
        emp = ecdf.evaluate(grid)
        lines = ["y,empirical,limit"]
        lines += [
            f"{_fmt(y)},{_fmt(e)},{_fmt(f)}" for y, e, f in zip(grid, emp, ref)
        ]
        (out / "cdf.csv").write_text("\n".join(lines) + "\n")
    if report.pooled_angles is not None:
        th = np.sort(report.pooled_angles)
        grid = _quantile_grid(th)
        ecdf_th = EmpiricalCdf(values=th)
        lines = ["theta,empirical,uniform"]
        lines += [
            f"{_fmt(t)},{_fmt(e)},{_fmt(t / TWO_PI)}"
            for t, e in zip(grid, ecdf_th.evaluate(grid))
        ]
        (out / "angles.csv").write_text("\n".join(lines) + "\n")
    record = report.record()
    record["wall_clock_s"] = sum(report.runtimes.values())
    (out / "report.json").write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# presets

def _preset_ginibre_allplus(n):
    return {"ensemble": "ginibre", "signs": "++++", "gamma": "m"}


def _preset_spherical(n):
    return {"ensemble": "ginibre", "signs": "-+", "gamma": "2"}


def _preset_haar_remark4i(n):
    return {
        "ensemble": "haar", "signs": "++", "gamma": "2",
        "dims": (n + 1, n + 1),
    }


def _preset_haar_remark4ii(n):
    return {
        "ensemble": "haar", "signs": "+-", "gamma": "2",
        "dims": (2 * n, 2 * n),
    }


def _preset_haar_remark5(n):
    return {
        "ensemble": "haar", "signs": "+" * 8, "gamma": "m",
        "dims": (2 * n,) * 8,
    }


PRESETS = {
    "ginibre-allplus": (
        _preset_ginibre_allplus,
        "four direct Gaussian factors; rescaled moduli approach Unif[0,1]",
    ),
    "spherical": (
        _preset_spherical,
        "inverse Gaussian times Gaussian; radial limit CDF y^2/(1+y^2)",
    ),
    "haar-remark4i": (
        _preset_haar_remark4i,
        "two near-square truncations; rescaled moduli concentrate at 1",
    ),
    "haar-remark4ii": (
        _preset_haar_remark4ii,
        "half-size truncation times an inverted one; series limit curve",
    ),
    "haar-remark5": (
        _preset_haar_remark5,
        "eight direct half-size truncations with the power tied to the count",
    ),
}


def apply_preset(name: str, n: int) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"preset: unknown name {name!r} (see 'prodspec presets')")
    return PRESETS[name][0](n)


# ---------------------------------------------------------------------------
# argument handling

_FILE_KEYS = {
    "ensemble", "n", "signs", "dims", "gamma", "replicates", "mode",
    "seed", "workers", "limit", "out", "preset",
}
_INT_KEYS = {"n", "replicates", "seed", "workers"}


def parse_config_file(path: str) -> dict:
    """Read flat key = value lines; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise ConfigError(f"config: line {lineno}: expected 'key = value'")
        if key not in _FILE_KEYS:
            raise ConfigError(f"config: line {lineno}: unknown key {key!r}")
        out[key] = val
    return out


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"dims: expected comma-separated integers (got {text!r})") from None


def build_config(args) -> ExperimentConfig:
    """Layer defaults, config file, preset, then explicit flags."""
    settings = {
        "ensemble": "ginibre", "n": None, "signs": None, "gamma": "m",
        "dims": None, "replicates": 200, "mode": "scalar", "seed": 0,
        "workers": 1, "limit": "auto", "out": None, "preset": None,
    }
    if args.config:
        file_settings = parse_config_file(args.config)
        for key, val in file_settings.items():
            settings[key] = int(val) if key in _INT_KEYS else val
    if args.preset:
        settings["preset"] = args.preset
    flag_items = {
        "ensemble": args.ensemble, "n": args.n, "signs": args.signs,
        "gamma": args.gamma, "dims": args.dims, "replicates": args.replicates,
        "mode": args.mode, "seed": args.seed, "workers": args.workers,
        "limit": args.limit, "out": args.out,
    }
    if settings["preset"]:
        if settings["n"] is None and flag_items["n"] is None:
            raise ConfigError("n: presets still need --n")
        n_for_preset = flag_items["n"] if flag_items["n"] is not None else settings["n"]
        settings.update(apply_preset(settings["preset"], int(n_for_preset)))
    for key, val in flag_items.items():
        if val is not None:
            settings[key] = val
    if settings["n"] is None:
        raise ConfigError("n: required")
    if settings["signs"] is None:
        raise ConfigError("signs: required")
    if isinstance(settings["dims"], str):
        settings["dims"] = _parse_dims(settings["dims"])
    return ExperimentConfig(
        ensemble=str(settings["ensemble"]),
        n=int(settings["n"]),
        signs=str(settings["signs"]),
        gamma=str(settings["gamma"]),
        dims=settings["dims"],
        replicates=int(settings["replicates"]),
        mode=str(settings["mode"]),
        seed=int(settings["seed"]),
        workers=int(settings["workers"]),
        limit=str(settings["limit"]),
        out=settings["out"],
        preset=settings["preset"],
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodspec",
        description="Radial and angular statistics of random matrix products",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="sample an ensemble and compare with its limit")
    run.add_argument("--ensemble", choices=("ginibre", "haar"))
    run.add_argument("--n", type=int)
    run.add_argument("--signs", help='factor exponents, e.g. "-+"')
    run.add_argument("--dims", help="comma-separated source dimensions (haar)")
    run.add_argument("--gamma", help="rescaling power: a number or 'm'")
    run.add_argument("--replicates", type=int)
    run.add_argument("--mode", choices=("scalar", "matrix", "both"))
    run.add_argument("--seed", type=int)
    run.add_argument("--workers", type=int)
    run.add_argument("--limit", help="auto | degenerate | ginibre:a,b | betas:PATH")
    run.add_argument("--out", help="directory for cdf.csv, angles.csv, report.json")
    run.add_argument("--preset", help="named scenario (see 'prodspec presets')")
    run.add_argument("--config", help="flat key = value file; flags override")
    run.add_argument(
        "--assert", dest="assert_mode", action="store_true",
        help="exit 4 when a KS or concentration threshold fails",
    )
    sub.add_parser("presets", help="list named scenarios")
    return parser


def _cmd_presets() -> int:
    width = max(len(name) for name in PRESETS)
    for name, (builder, desc) in PRESETS.items():
        template = builder(100)
        parts = [f"signs={template['signs']}", f"gamma={template['gamma']}"]
        if "dims" in template:
            parts.append("dims=" + ",".join(str(d) for d in template["dims"]))
        print(f"{name:<{width}}  {desc}")
        print(f"{'':<{width}}  {template['ensemble']}: {'  '.join(parts)} (shown at n=100)")
    return 0


def _cmd_run(args) -> int:
    try:
        cfg = build_config(args).validated()
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(cfg)
    except (ConfigError, OverflowError) as exc:
        # limit tokens, betas files and the rescaled range are only
        # known during the run
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConditioningError as exc:
        print(f"error: conditioning abort: {exc}", file=sys.stderr)
        return 3
    if cfg.out:
        write_outputs(report, cfg.out)
    for key, val in sorted(report.record().items()):
        print(f"{key} = {val}")
    if args.assert_mode:
        failures = report.threshold_failures()
        if failures:
            for f in failures:
                print(f"threshold failure: {f}", file=sys.stderr)
            return 4
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "presets":
        return _cmd_presets()
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
