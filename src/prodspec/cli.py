"""Experiment runner and the prodspec command line.

prodspec run samples a configured product ensemble through the scalar
surrogates and/or the matrix path, compares pooled empirical CDFs with
the resolved limit law, and writes cdf.csv, angles.csv, and report.json
into --out. prodspec presets lists the named scenarios.

Exit codes: 0 success, 2 invalid configuration, a size too large to
allocate, an unwritable --out or a thread the system refuses to start,
3 conditioning abort, 4 threshold failure under --assert.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .config import ProductSpec, ScalingPlan, SignPattern, resolve_gamma
from .limit_laws import (
    LIMIT_TERMS,
    GinibreLimit,
    HaarLimit,
    _check_rising,
    ginibre_limit_cdf,
    haar_limit_cdf,
    haar_limit_from_spec,
)
from .matrix_model import (
    MAX_FACTORS,
    MAX_PRODUCT_SIZE,
    ConditioningError,
    _one_blas_thread,
    sample_product_eigenvalues,
)
from .numerics import RngStream, map_tasks
from .scalar_model import sample_radial_spectrum
from .stats import (
    TWO_PI,
    EmpiricalCdf,
    _ecdf_in_place,
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


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Everything one run needs; the fields are the settings that flags,
    config files and presets set, and a field without a default is required.
    workers is a class attribute, not a field, and no run reads it."""

    ensemble: str = "ginibre"
    n: int
    signs: str
    gamma: str = "m"
    dims: tuple[int, ...] | None = None
    replicates: int = 200
    mode: str = "scalar"
    seed: int = 0
    workers = 1  # not a setting: --workers is accepted and ignored
    limit: str = "auto"
    out: str | None = None
    preset: str | None = None

    def build_spec(self) -> ProductSpec:
        signs = SignPattern.parse(self.signs)
        if self.ensemble not in ("ginibre", "haar"):
            raise ValueError(f"ensemble: expected 'ginibre' or 'haar' (got {self.ensemble!r})")
        if self.ensemble == "ginibre" and self.dims is not None:
            raise ValueError("dims: only truncated-unitary ensembles take dims")
        if self.ensemble == "haar" and self.dims is None:
            raise ValueError("dims: required for the haar ensemble")
        return ProductSpec(self.n, signs, self.dims)

    def validated(self) -> "ExperimentConfig":
        if self.n < 2:
            raise ValueError(f"n: experiments need n >= 2 (got {self.n})")
        if self.replicates < 1:
            raise ValueError(f"replicates: must be >= 1 (got {self.replicates})")
        if self.mode not in ("scalar", "matrix", "both"):
            raise ValueError(f"mode: expected scalar|matrix|both (got {self.mode!r})")
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0 (got {self.seed})")
        spec = self.build_spec()  # surfaces spec-level problems early
        resolve_gamma(self.gamma, spec.m)
        if self.mode in ("matrix", "both"):
            if self.n > MAX_PRODUCT_SIZE:
                raise ValueError(
                    f"n: matrix mode is capped at n <= {MAX_PRODUCT_SIZE} (got {self.n})"
                )
            if spec.m > MAX_FACTORS:
                raise ValueError(
                    f"signs: matrix mode is capped at {MAX_FACTORS} factors (got {spec.m})"
                )
        return self


@dataclass
class ExperimentReport:
    """Results of one run; record() flattens everything scalar for JSON.

    limit is the resolved law: GinibreLimit, HaarLimit, or None for the point mass at 1."""

    config: ExperimentConfig
    plan: ScalingPlan
    limit: GinibreLimit | HaarLimit | None
    scalar_ecdf: EmpiricalCdf | None = None
    matrix_ecdf: EmpiricalCdf | None = None
    pooled_angles: np.ndarray | None = None
    ks_results: dict = field(default_factory=dict)
    mass_scalar: float | None = None
    mass_matrix: float | None = None
    # 1 when the matrix path ran every OpenBLAS on one thread, else None
    blas_threads: int | None = None
    runtimes: dict = field(default_factory=dict)

    @property
    def limit_kind(self) -> str:
        if self.limit is None:
            return "degenerate"
        return "ginibre" if isinstance(self.limit, GinibreLimit) else "haar"

    def limit_cdf(self):
        """Reference CDF callable for the resolved limit."""
        if self.limit is None:
            return lambda y: np.where(np.asarray(y, dtype=float) >= 1.0, 1.0, 0.0)
        if isinstance(self.limit, GinibreLimit):
            return lambda y: ginibre_limit_cdf(self.limit, y)
        return lambda y: haar_limit_cdf(self.limit, y)

    def record(self) -> dict:
        out = {
            "version": __version__,
            "gamma_n": self.plan.gamma_n,
            "log_scale": self.plan.log_scale,
            "limit_kind": self.limit_kind,
        }
        # gamma and limit are reported resolved, as gamma_n and limit_kind
        for f in fields(ExperimentConfig):
            value = getattr(self.config, f.name)
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            if f.name not in ("gamma", "limit", "out"):
                out[f.name] = "" if value is None else value
        if isinstance(self.limit, GinibreLimit):
            out["limit_alpha"] = self.limit.alpha
            out["limit_beta"] = self.limit.beta
        elif isinstance(self.limit, HaarLimit):
            out["limit_terms"] = self.limit.terms
            out["limit_beta1"] = self.limit.betas[0]
            out["limit_tail_bound"] = self.limit.tail_bound
            # the run's reference CDF; the limit_* keys above describe the prefix
            out["limit_reference"] = "closed" if self.limit.pairs else "prefix"
        for name, rep in sorted(self.ks_results.items()):
            out[f"ks_{name}"] = rep.statistic
            out[f"ks_{name}_n"] = rep.n
        if self.mass_scalar is not None:
            out["mass_scalar"] = self.mass_scalar
        if self.mass_matrix is not None:
            out["mass_matrix"] = self.mass_matrix
        if self.config.mode != "scalar":
            out["blas_threads"] = self.blas_threads
        for name, secs in sorted(self.runtimes.items()):
            out[f"runtime_{name}_s"] = secs
        return out

    def threshold_failures(self) -> list[str]:
        """Checks --assert enforces: KS under threshold, or mass in the window."""
        bad = []
        if self.limit is None:
            for name, mass in (("scalar", self.mass_scalar), ("matrix", self.mass_matrix)):
                if mass is not None and mass < MASS_THRESHOLD:
                    bad.append(f"mass_{name}={mass:.4f} < {MASS_THRESHOLD}")
        # a degenerate limit has no scalar/matrix KS results to check
        for name in ("scalar", "matrix", "angles"):
            rep = self.ks_results.get(name)
            if rep is not None and rep.statistic > (limit := ks_threshold(rep.n)):
                bad.append(f"ks_{name}={rep.statistic:.4f} > {limit:.4f}")
        return bad


def resolve_limit(cfg: ExperimentConfig, spec: ProductSpec, plan: ScalingPlan):
    """Pick the reference law: GinibreLimit, HaarLimit, or None for the point mass at 1."""
    token = cfg.limit.strip()
    if token == "degenerate":
        return None
    if token.startswith("ginibre:"):
        try:
            a, b = (float(v) for v in token[len("ginibre:"):].split(","))
        except ValueError:
            raise ValueError(f"limit: expected ginibre:alpha,beta (got {token!r})") from None
        try:
            return GinibreLimit(alpha=a, beta=b)
        except ValueError as exc:
            raise ValueError(f"limit: {exc}") from None
    if token.startswith("betas:"):
        return _read_betas_file(token[len("betas:"):])
    if token != "auto":
        raise ValueError(f"limit: expected auto|degenerate|ginibre:a,b|betas:PATH (got {token!r})")
    try:
        if spec.dims is None:
            beta = spec.m / plan.gamma_n
            if beta < DEGENERATE_THRESHOLD:
                return None
            return GinibreLimit(alpha=spec.plus_count / spec.m, beta=beta)
        lim = haar_limit_from_spec(spec, plan.gamma_n, terms=LIMIT_TERMS)
    except ValueError as exc:
        # the user set gamma, not the parameters of the law built from it,
        # so an overflow there is reported as a gamma too small
        raise ValueError(
            f"gamma: no auto limit at gamma_n={plan.gamma_n!r}; a larger gamma is needed ({exc})"
        ) from None
    if lim.betas[0] < DEGENERATE_THRESHOLD:
        return None
    return lim


def _key_value_lines(path: str, cannot_read: str):
    """Yield (lineno, line, key, sep, value) per non-blank line; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{cannot_read}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, sep, val = line.partition("=")
            yield lineno, line, key.strip(), sep, val.strip()


def _read_betas_file(path: str) -> HaarLimit:
    betas, bound = [], None
    for lineno, line, key, sep, val in _key_value_lines(path, "limit: cannot read betas file"):
        if sep and key != "bound":
            raise ValueError(f"limit: unknown betas-file key {key!r}")
        if sep and bound is not None:
            raise ValueError(f"limit: betas file line {lineno}: key 'bound' given twice")
        try:
            value = float(val if sep else line)
        except ValueError:
            raise ValueError(
                f"limit: betas file line {lineno}: expected a number (got {line!r})"
            ) from None
        if sep:
            bound = value
        else:
            betas.append(value)
    if not betas:
        raise ValueError("limit: betas file holds no coefficients")
    if bound is None:
        bound = max(abs(b) for b in betas)
    try:
        lim = HaarLimit(betas=tuple(betas), tail_bound=bound)
        _check_rising(lim)
    except ValueError as exc:
        raise ValueError(f"limit: {exc}") from None
    return lim


def _mass_in_window(ecdf: EmpiricalCdf) -> float:
    lo, hi = MASS_WINDOW
    v = ecdf.values
    return float((np.searchsorted(v, hi, "right") - np.searchsorted(v, lo, "left")) / ecdf.n)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Sample, compare, and assemble a report; raises ValueError for a bad
    setting and ConditioningError on abort."""
    cfg = cfg.validated()
    spec = cfg.build_spec()
    plan = ScalingPlan.for_spec(spec, resolve_gamma(cfg.gamma, spec.m))
    report = ExperimentReport(config=cfg, plan=plan, limit=resolve_limit(cfg, spec, plan))
    # every setting is checked by now, and nothing is drawn yet: a bad setting
    # leaves no --out behind, and an unwritable --out loses no run
    if cfg.out:
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
    root = RngStream(cfg.seed)
    cdf = report.limit_cdf()

    # stream key (0, k, c): factor k of scalar chunk c, one row per replicate;
    # (1, r): matrix replicate r, one task of map_tasks. The samplers are
    # looked up on this module at call time, so that they can be patched here
    for path in ("scalar", "matrix"):
        if cfg.mode not in (path, "both"):
            continue
        t0 = time.perf_counter()
        if path == "scalar":
            # sample_radial_spectrum draws through map_tasks into a new (R, n)
            # array that nothing else holds, so the ECDF is rescaled and
            # sorted in it, in segments through map_tasks when it is large
            ecdf = _ecdf_in_place(
                sample_radial_spectrum(spec, root.substream(0), cfg.replicates), plan
            )
        else:
            # each replicate draws, inverts and solves on one thread, the
            # calling one or one that map_tasks started; the solve runs off
            # the interpreter lock (matrix_model._eigvals) and BLAS runs one
            # thread throughout, so no output depends on either. The pin
            # below holds BLAS to one thread whatever OPENBLAS_NUM_THREADS
            # says (see the package docstring for its default)
            with _one_blas_thread as report.blas_threads:
                samples = map_tasks(
                    lambda r: sample_product_eigenvalues(spec, root.substream(1, r)),
                    cfg.replicates,
                )
            report.pooled_angles = np.concatenate([s.angles for s in samples])
            report.ks_results["angles"] = angle_uniformity(report.pooled_angles)
            ecdf = build_ecdf([s.log_moduli for s in samples], plan)
            # the ECDF holds its own copy; the draws need not stay alive during KS
            del samples
        setattr(report, f"{path}_ecdf", ecdf)
        setattr(report, f"mass_{path}", _mass_in_window(ecdf))
        if report.limit is not None:
            report.ks_results[path] = ks_one_sample(ecdf, cdf)
        report.runtimes[path] = time.perf_counter() - t0

    if report.scalar_ecdf is not None and report.matrix_ecdf is not None:
        report.ks_results["paths"] = ks_two_sample(report.scalar_ecdf, report.matrix_ecdf)
    return report


# ---------------------------------------------------------------------------
# output files

def _quantile_grid(values: np.ndarray, points: int = 1001) -> np.ndarray:
    """Distinct order statistics of sorted values at evenly spaced ranks.

    repr of the same doubles is stable, so the grid's text is deterministic.
    The picks are already sorted, so dropping a value equal to its left
    neighbour leaves what np.unique would, without the import of numpy.ma
    that np.unique makes on its first call.
    """
    idx = np.round(np.linspace(0, len(values) - 1, points)).astype(int)
    picks = values[idx]
    return picks[np.concatenate(([True], picks[1:] != picks[:-1]))]


def _write_cdf_csv(path: Path, header: str, ecdf: EmpiricalCdf, reference) -> None:
    """One row per quantile-grid point: the point, the ECDF, reference(grid).

    Each value is the repr of its Python float, taken a column at a time
    from tolist(), which gives the same floats as converting each value.
    """
    grid = _quantile_grid(ecdf.values)
    columns = (grid, ecdf.evaluate(grid), np.asarray(reference(grid), dtype=float))
    rows = map(",".join, zip(*(map(repr, c.tolist()) for c in columns)))
    path.write_text("\n".join([header, *rows]) + "\n")


def write_outputs(report: ExperimentReport, out_dir) -> None:
    """Write cdf.csv, angles.csv (matrix modes), and report.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ecdf = report.scalar_ecdf if report.scalar_ecdf is not None else report.matrix_ecdf
    if ecdf is not None:
        _write_cdf_csv(out / "cdf.csv", "y,empirical,limit", ecdf, report.limit_cdf())
    if report.pooled_angles is not None:
        _write_cdf_csv(
            out / "angles.csv", "theta,empirical,uniform",
            EmpiricalCdf(values=report.pooled_angles), lambda t: t / TWO_PI,
        )
    (out / "report.json").write_text(json.dumps(report.record(), sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# presets

# name -> (settings template as a function of n, description)
PRESETS = {
    "ginibre-allplus": (
        lambda n: {"ensemble": "ginibre", "signs": "++++", "gamma": "m"},
        "four direct Gaussian factors; rescaled moduli approach Unif[0,1]",
    ),
    "spherical": (
        lambda n: {"ensemble": "ginibre", "signs": "-+", "gamma": "2"},
        "inverse Gaussian times Gaussian; radial limit CDF y^2/(1+y^2)",
    ),
    "haar-remark4i": (
        lambda n: {"ensemble": "haar", "signs": "++", "gamma": "2", "dims": (n + 1,) * 2},
        "two near-square truncations concentrating at 1; the mean mass in the --assert"
        " window first reaches 0.95 at n = 160",
    ),
    "haar-remark4ii": (
        lambda n: {"ensemble": "haar", "signs": "+-", "gamma": "2", "dims": (2 * n,) * 2},
        "half-size truncation times an inverted one; series limit curve",
    ),
    "haar-remark5": (
        lambda n: {"ensemble": "haar", "signs": "+" * 8, "gamma": "m", "dims": (2 * n,) * 8},
        "eight direct half-size truncations with the power tied to the count",
    ),
}


def apply_preset(name: str, n: int) -> dict:
    if name not in PRESETS:
        raise ValueError(f"preset: unknown name {name!r} (see 'prodspec presets')")
    return PRESETS[name][0](n)


# ---------------------------------------------------------------------------
# argument handling

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def parse_config_file(path: str) -> dict:
    """Read flat key = value lines, one ExperimentConfig field each; '#' starts a comment.

    Values stay strings; build_config converts them.
    """
    out = {}
    for lineno, _, key, sep, val in _key_value_lines(path, f"config: cannot read {path}"):
        if not sep or not key or not val:
            raise ValueError(f"config: line {lineno}: expected 'key = value'")
        if key not in _FIELD_TYPES:
            raise ValueError(f"config: line {lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"config: line {lineno}: key {key!r} given twice")
        out[key] = val
    return out


def _typed(key: str, value):
    """A setting's text as an int for int fields, an int tuple for dims, else unchanged."""
    if not isinstance(value, str) or (key != "dims" and _FIELD_TYPES[key] != "int"):
        return value
    try:
        return tuple(int(p) for p in value.split(",")) if key == "dims" else int(value)
    except ValueError:
        kind = "comma-separated integers" if key == "dims" else "an integer"
        raise ValueError(f"{key}: expected {kind} (got {value!r})") from None


def build_config(args) -> ExperimentConfig:
    """Layer field defaults, preset, config file, then explicit flags.

    args holds config and one attribute per ExperimentConfig field, None when
    unset; file and flag text is converted here, and checked by validated().
    The preset is named by its flag, or else by the config file.
    """
    settings = {
        f.name: None if f.default is MISSING else f.default
        for f in fields(ExperimentConfig)
    }
    # argparse parses a lone "--" value, as in --signs=--, to []
    flags = {
        k: "--" if v == [] else v
        for k in ("config", *settings) if (v := getattr(args, k)) is not None
    }
    config = flags.pop("config", None)
    file = parse_config_file(config) if config else {}
    # every value is converted, a file value that a flag overrides too
    given = {k: _typed(k, v) for k, v in [*file.items(), *flags.items()]}
    if given.get("preset"):
        if given.get("n") is None:
            raise ValueError("n: presets still need --n")
        settings.update(apply_preset(given["preset"], given["n"]))
    settings.update(given)
    for f in fields(ExperimentConfig):
        if f.default is MISSING and settings[f.name] is None:
            raise ValueError(f"{f.name}: required")
    return ExperimentConfig(**settings)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodspec",
        description="Radial and angular statistics of random matrix products",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="sample an ensemble and compare with its limit")
    run.add_argument("--ensemble", help="ginibre | haar")
    run.add_argument("--n")
    run.add_argument("--signs", help='factor exponents, e.g. "-+"')
    run.add_argument("--dims", help="comma-separated source dimensions (haar)")
    run.add_argument("--gamma", help="rescaling power: a number or 'm'")
    run.add_argument("--replicates")
    run.add_argument("--mode", help="scalar | matrix | both")
    run.add_argument("--seed")
    run.add_argument("--workers", help="accepted and ignored; the threads follow the usable CPUs")
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
    for name, (template_of, desc) in PRESETS.items():
        template = template_of(100)
        parts = [f"signs={template['signs']}", f"gamma={template['gamma']}"]
        if "dims" in template:
            parts.append("dims=" + ",".join(str(d) for d in template["dims"]))
        print(f"{name:<{width}}  {desc}")
        print(f"{'':<{width}}  {template['ensemble']}: {'  '.join(parts)} (shown at n=100)")
    return 0


def _cmd_run(args) -> int:
    try:
        report = run_experiment(build_config(args))
        if report.config.out:
            write_outputs(report, report.config.out)
    except OSError as exc:
        print(f"error: out: {exc}", file=sys.stderr)
        return 2
    except ConditioningError as exc:
        print(f"error: conditioning abort: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, MemoryError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, val in sorted(report.record().items()):
        print(f"{key} = {val}")
    failures = report.threshold_failures() if args.assert_mode else []
    for f in failures:
        print(f"threshold failure: {f}", file=sys.stderr)
    return 4 if failures else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "presets":
        return _cmd_presets()
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
