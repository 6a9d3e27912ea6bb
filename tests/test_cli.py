"""CLI layer: config layering, limit resolution, runs, files, exit codes."""

import argparse
import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodspec.cli as cli
import prodspec.matrix_model as matrix_model
import prodspec.scalar_model as scalar_model
from prodspec.cli import (
    DEGENERATE_THRESHOLD,
    PRESETS,
    ConfigError,
    ExperimentConfig,
    _build_parser,
    apply_preset,
    build_config,
    main,
    parse_config_file,
    resolve_limit,
    run_experiment,
    write_outputs,
)
from prodspec.config import ScalingPlan, resolve_gamma
from prodspec.limit_laws import GinibreLimit, HaarLimit
from prodspec.matrix_model import ConditioningError, _openblas_thread_controls
from prodspec.numerics import RngStream
from prodspec.scalar_model import sample_radial_spectrum


def parse_run(*argv):
    return _build_parser().parse_args(["run", *argv])


def config_from(*argv) -> ExperimentConfig:
    return build_config(parse_run(*argv))


def test_run_flags_match_config_fields_and_readme():
    # the ExperimentConfig fields are the one list of run settings: each
    # needs its flag, and each flag its row in the README flag table
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in sub.choices["run"]._actions if a.dest != "help"]
    assert {a.dest for a in actions} == (
        {f.name for f in fields(ExperimentConfig)} | {"config", "assert_mode"}
    )
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for flag in (s for a in actions for s in a.option_strings):
        assert f"| `{flag}` |" in readme, flag


def test_flags_alone_build_a_config():
    cfg = config_from("--ensemble", "ginibre", "--n", "30", "--signs", "+-")
    assert (cfg.ensemble, cfg.n, cfg.signs) == ("ginibre", 30, "+-")
    assert cfg.replicates == 200 and cfg.mode == "scalar" and cfg.gamma == "m"


def test_workers_default_to_one_and_a_config_line_or_the_flag_sets_it(monkeypatch, tmp_path):
    # --workers sizes no pool; its default does not follow the machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)), raising=False)
    assert config_from("--n", "10", "--signs", "+").workers == 1
    p = tmp_path / "exp.cfg"
    p.write_text("n = 10\nsigns = +\nworkers = 2\n")
    assert config_from("--config", str(p)).workers == 2
    assert config_from("--config", str(p), "--workers", "7").workers == 7


def test_required_keys_are_enforced():
    with pytest.raises(ConfigError, match="n:"):
        config_from("--ensemble", "ginibre", "--signs", "+")
    with pytest.raises(ConfigError, match="signs:"):
        config_from("--ensemble", "ginibre", "--n", "10")


def test_config_file_layering(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(
        "# spherical check\n"
        "ensemble = ginibre\n"
        "n = 20\n"
        "signs = -+\n"
        "gamma = 2\n"
        "replicates = 30\n"
    )
    cfg = config_from("--config", str(p))
    assert (cfg.n, cfg.signs, cfg.gamma, cfg.replicates) == (20, "-+", "2", 30)
    # explicit flags win over the file
    cfg = config_from("--config", str(p), "--n", "25", "--gamma", "4")
    assert (cfg.n, cfg.gamma) == (25, "4")
    # a preset, named in the file or by flag, sits under the file's settings
    p.write_text("preset = haar-remark4ii\ngamma = 5\nmode = both\n")
    cfg = config_from("--config", str(p), "--n", "9")
    assert (cfg.preset, cfg.ensemble, cfg.dims) == ("haar-remark4ii", "haar", (18, 18))
    assert (cfg.gamma, cfg.mode) == ("5", "both")
    cfg = config_from("--config", str(p), "--n", "9", "--preset", "spherical")
    assert (cfg.preset, cfg.signs, cfg.gamma) == ("spherical", "-+", "5")
    cfg = config_from("--config", str(p), "--n", "9", "--gamma", "3")
    assert cfg.gamma == "3"


def test_config_file_rejects_bad_lines(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("ensemble = ginibre\nshape = 3\n")
    with pytest.raises(ConfigError, match="unknown key 'shape'"):
        parse_config_file(str(bad_key))
    bad_line = tmp_path / "b.cfg"
    bad_line.write_text("just words\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_file(str(bad_line))
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(str(tmp_path / "missing.cfg"))


def test_preset_application_and_override():
    cfg = config_from("--preset", "spherical", "--n", "40")
    assert (cfg.ensemble, cfg.signs, cfg.gamma) == ("ginibre", "-+", "2")
    assert cfg.preset == "spherical"
    # a flag still beats the preset's template
    cfg = config_from("--preset", "spherical", "--n", "40", "--gamma", "3")
    assert cfg.gamma == "3"
    cfg = config_from("--preset", "haar-remark4ii", "--n", "50")
    assert cfg.ensemble == "haar" and cfg.dims == (100, 100)


def test_preset_needs_n_and_a_known_name():
    with pytest.raises(ConfigError, match="presets still need"):
        config_from("--preset", "spherical")
    with pytest.raises(ConfigError, match="unknown name"):
        apply_preset("nope", 100)


def test_dims_parsing():
    cfg = config_from(
        "--ensemble", "haar", "--n", "10", "--signs", "+-", "--dims", "15,20"
    )
    assert cfg.dims == (15, 20)
    with pytest.raises(ConfigError, match="dims"):
        config_from("--ensemble", "haar", "--n", "10", "--signs", "+", "--dims", "x")


def test_validated_rejects_bad_settings():
    base = dict(ensemble="ginibre", n=10, signs="+")
    with pytest.raises(ConfigError, match="n:"):
        ExperimentConfig(**{**base, "n": 1}).validated()
    with pytest.raises(ConfigError, match="mode"):
        ExperimentConfig(**base, mode="fast").validated()
    with pytest.raises(ConfigError, match="replicates"):
        ExperimentConfig(**base, replicates=0).validated()
    with pytest.raises(ConfigError, match="seed: must be >= 0"):
        ExperimentConfig(**base, seed=-1).validated()
    with pytest.raises(ConfigError, match="capped"):
        ExperimentConfig(**{**base, "n": 300}, mode="matrix").validated()
    with pytest.raises(ConfigError, match="capped"):
        ExperimentConfig(
            **{**base, "signs": "+" * 9}, mode="matrix"
        ).validated()
    with pytest.raises(ConfigError, match="dims"):
        ExperimentConfig(ensemble="haar", n=10, signs="+").validated()
    with pytest.raises(ConfigError, match="dims"):
        ExperimentConfig(ensemble="ginibre", n=10, signs="+", dims=(15,)).validated()
    with pytest.raises(ConfigError, match="ensemble"):
        ExperimentConfig(ensemble="wishart", n=10, signs="+").validated()


def resolved(cfg):
    cfg = cfg.validated()
    spec = cfg.build_spec()
    plan = ScalingPlan.for_spec(spec, resolve_gamma(cfg.gamma, spec.m))
    return resolve_limit(cfg, spec, plan)


def test_resolve_limit_auto_ginibre():
    lim = resolved(ExperimentConfig(ensemble="ginibre", n=50, signs="-+", gamma="2"))
    assert isinstance(lim, GinibreLimit)
    assert (lim.alpha, lim.beta) == (0.5, 1.0)


def test_resolve_limit_auto_degenerate_for_large_gamma():
    lim = resolved(ExperimentConfig(ensemble="ginibre", n=300, signs="++++", gamma="1200"))
    assert lim is None


def test_resolve_limit_auto_haar_and_degenerate():
    lim = resolved(
        ExperimentConfig(
            ensemble="haar", n=200, signs="+-", gamma="2", dims=(400, 400)
        )
    )
    assert isinstance(lim, HaarLimit)
    assert lim.betas[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert lim.terms == 80
    lim = resolved(
        ExperimentConfig(
            ensemble="haar", n=400, signs="++", gamma="2", dims=(401, 401)
        )
    )
    assert lim is None
    # the near-square curve really does sit under the cutoff
    assert 2.0 * (1.0 - 400.0 / 402.0) / 2.0 < DEGENERATE_THRESHOLD


def test_resolve_limit_explicit_tokens(tmp_path):
    base = ExperimentConfig(ensemble="ginibre", n=20, signs="+")
    cfg = ExperimentConfig(**{**base.__dict__, "limit": "degenerate"})
    assert resolved(cfg) is None
    cfg = ExperimentConfig(**{**base.__dict__, "limit": "ginibre:0.3,0.7"})
    assert resolved(cfg) == GinibreLimit(alpha=0.3, beta=0.7)
    with pytest.raises(ConfigError, match="ginibre:alpha,beta"):
        resolved(ExperimentConfig(**{**base.__dict__, "limit": "ginibre:0.3"}))
    with pytest.raises(ConfigError, match="limit"):
        resolved(ExperimentConfig(**{**base.__dict__, "limit": "bogus"}))
    p = tmp_path / "betas.txt"
    p.write_text("# curve prefix\n0.5\n-0.25\nbound = 0.5\n")
    lim = resolved(ExperimentConfig(**{**base.__dict__, "limit": f"betas:{p}"}))
    assert lim == HaarLimit(betas=(0.5, -0.25), tail_bound=0.5)


def test_betas_file_defaults_and_errors(tmp_path):
    base = ExperimentConfig(ensemble="ginibre", n=20, signs="+")
    p = tmp_path / "betas.txt"
    p.write_text("0.5\n-0.75\n")
    lim = resolved(ExperimentConfig(**{**base.__dict__, "limit": f"betas:{p}"}))
    assert lim.tail_bound == 0.75  # defaults to the largest magnitude
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ConfigError, match="no coefficients"):
        resolved(ExperimentConfig(**{**base.__dict__, "limit": f"betas:{empty}"}))
    odd = tmp_path / "odd.txt"
    odd.write_text("cap = 1\n")
    with pytest.raises(ConfigError, match="unknown betas-file key"):
        resolved(ExperimentConfig(**{**base.__dict__, "limit": f"betas:{odd}"}))
    with pytest.raises(ConfigError, match="cannot read"):
        resolved(
            ExperimentConfig(**{**base.__dict__, "limit": "betas:/no/such/file"})
        )


def small_cfg(**kw):
    base = dict(
        ensemble="ginibre", n=12, signs="-+", gamma="2", replicates=20, seed=5
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_scalar_report():
    report = run_experiment(small_cfg())
    assert report.limit_kind == "ginibre"
    assert report.scalar_ecdf is not None and report.scalar_ecdf.n == 12 * 20
    assert 0.0 <= report.ks_results["scalar"].statistic <= 1.0
    assert report.mass_scalar is not None
    assert "scalar" in report.runtimes
    rec = report.record()
    assert rec["limit_alpha"] == 0.5 and rec["ks_scalar_n"] == 240


def test_auto_haar_run_calls_cli_haar_limit_cdf_on_the_closed_curve(monkeypatch):
    # the benchmark times the reference CDF by patching this module-level name
    sizes, real = [], cli.haar_limit_cdf
    monkeypatch.setattr(
        cli, "haar_limit_cdf", lambda lim, y: sizes.append(np.size(y)) or real(lim, y)
    )
    report = run_experiment(small_cfg(ensemble="haar", signs="+-", dims=(24, 24)))
    assert report.limit_kind == "haar" and sizes == [12 * 20]
    assert report.record()["limit_reference"] == "closed"


def test_betas_file_run_reports_a_prefix_reference(tmp_path):
    p = tmp_path / "betas.txt"
    p.write_text("0.5\n-0.25\n")
    report = run_experiment(small_cfg(limit=f"betas:{p}"))
    assert report.limit_kind == "haar" and report.limit.pairs == ()
    assert report.record()["limit_reference"] == "prefix"


GINIBRE_KEYS = {"limit_alpha", "limit_beta"}
HAAR_KEYS = {"limit_terms", "limit_beta1", "limit_tail_bound", "limit_reference"}


@pytest.mark.parametrize(
    "kw, kind, limit_keys",
    [
        ({}, "ginibre", GINIBRE_KEYS),
        ({"ensemble": "haar", "signs": "+-", "dims": (24, 24)}, "haar", HAAR_KEYS),
        ({"limit": "betas:{tmp}/betas.txt"}, "haar", HAAR_KEYS),
        ({"limit": "ginibre:0.3,0.7"}, "ginibre", GINIBRE_KEYS),
        ({"limit": "degenerate"}, "degenerate", set()),
        ({"signs": "++++", "gamma": "1200"}, "degenerate", set()),
    ],
    ids=["auto-ginibre", "auto-haar", "betas-file", "ginibre-token", "degenerate-token",
         "auto-degenerate"],
)
def test_record_keys_for_each_law(tmp_path, kw, kind, limit_keys):
    (tmp_path / "betas.txt").write_text("0.5\n-0.25\n")
    kw = {k: v.format(tmp=tmp_path) if isinstance(v, str) else v for k, v in kw.items()}
    report = run_experiment(small_cfg(replicates=4, **kw))
    rec = report.record()
    assert report.limit_kind == rec["limit_kind"] == kind
    assert {k for k in rec if k.startswith("limit_")} - {"limit_kind"} == limit_keys
    # every setting but the two reported resolved (gamma_n, limit_kind) and --out
    settings = {
        k for k in rec
        if not k.startswith(("limit_", "ks_", "mass_", "runtime_"))
        and k not in ("version", "gamma_n", "log_scale")
    }
    assert settings == {f.name for f in fields(ExperimentConfig)} - {"gamma", "limit", "out"}
    assert rec["dims"] == ("24,24" if "dims" in kw else "") and rec["preset"] == ""


def usable_cpus(count):
    """os.sched_getaffinity patched to report count CPUs, which bound map_tasks' threads."""
    return mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(count)), create=True)


def test_run_experiment_deterministic_across_workers(monkeypatch):
    # one thread per path against up to four: the 20 scalar replicates of
    # n = 12 come in four chunks of 5 rows here, and --workers, which sizes
    # nothing, is varied alongside
    monkeypatch.setattr(scalar_model, "_CHUNK", 60)
    with usable_cpus(1):
        a = run_experiment(small_cfg(mode="both"))
    with usable_cpus(4):
        b = run_experiment(small_cfg(mode="both", workers=4))
    assert np.array_equal(a.scalar_ecdf.values, b.scalar_ecdf.values)
    assert np.array_equal(a.matrix_ecdf.values, b.matrix_ecdf.values)
    assert np.array_equal(np.sort(a.pooled_angles), np.sort(b.pooled_angles))
    assert a.ks_results["paths"].statistic == b.ks_results["paths"].statistic


@st.composite
def small_matrix_configs(draw):
    n = draw(st.integers(2, 12))
    signs = draw(st.text("+-", min_size=1, max_size=4))
    dims = tuple(draw(st.integers(n + 1, 2 * n)) for _ in signs) if draw(st.booleans()) else None
    return small_cfg(
        ensemble="ginibre" if dims is None else "haar", n=n, signs=signs, dims=dims,
        replicates=draw(st.integers(1, 12)), seed=draw(st.integers(0, 1000)),
        mode="matrix", limit="degenerate",
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(cfg=small_matrix_configs(), cpus=st.integers(1, 4))
def test_matrix_run_is_its_replicates_drawn_one_by_one(cfg, cpus):
    # the pooled moduli and angles are those of replicate r drawn from key
    # (1, r) in replicate order, however many threads the CPUs allow; a
    # short switch interval makes the threads interleave more often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with usable_cpus(cpus):
            report = run_experiment(cfg)
    finally:
        sys.setswitchinterval(interval)
    spec = cfg.build_spec()
    serial = [
        cli.sample_product_eigenvalues(spec, RngStream(cfg.seed).substream(1, r))
        for r in range(cfg.replicates)
    ]
    expected = cli.build_ecdf([s.log_moduli for s in serial], report.plan)
    assert report.matrix_ecdf.values.tobytes() == expected.values.tobytes()
    assert report.pooled_angles.tobytes() == np.concatenate([s.angles for s in serial]).tobytes()


@pytest.mark.parametrize(
    "kw", [{}, {"ensemble": "haar", "dims": (24, 24)}], ids=["gamma", "beta"]
)
def test_scalar_chunks_and_matrix_replicates_run_as_tasks_on_pool_threads(monkeypatch, kw):
    caller = threading.get_ident()
    seen, lock, local = {}, threading.Lock(), threading.local()

    def radial(*args, draw=cli.sample_radial_spectrum):
        seen["radial"].append(threading.get_ident())
        return draw(*args)

    def replicate(spec, rng, sample=cli.sample_product_eigenvalues):
        local.path = rng.path
        with lock:
            seen["replicates"].append((rng.path, threading.get_ident()))
            seen["running"] += 1
            seen["peak"] = max(seen["peak"], seen["running"])
            seen["threads"] = max(seen["threads"], threading.active_count())
        try:
            # long enough for every pool thread to take a replicate
            time.sleep(0.005)
            return sample(spec, rng)
        finally:
            with lock:
                seen["running"] -= 1

    def solve(factors, signs, solve=matrix_model.product_eigenvalues):
        with lock:
            seen["solves"].append((local.path, threading.get_ident()))
        return solve(factors, signs)

    def run(cpus):
        seen.update(radial=[], factors=[], replicates=[], solves=[], running=0, peak=0,
                    threads=0)
        before = threading.active_count()
        run_experiment(small_cfg(mode="both", workers=1, **kw))
        # the 20 scalar replicates are drawn in one call on this thread
        assert seen["radial"] == [caller]
        # matrix replicate r is drawn from key (1, r) once, on a pool thread,
        # and solved on the thread that drew it
        assert sorted(path for path, _ in seen["replicates"]) == [(1, r) for r in range(20)]
        assert sorted(seen["solves"]) == sorted(seen["replicates"])
        threads = {t for _, t in seen["replicates"]}
        assert caller not in threads and len(threads) <= cpus
        # at most min(replicates, usable CPUs) threads run, whatever --workers is
        assert 1 <= seen["peak"] <= cpus
        assert seen["threads"] <= before + cpus
        return seen["factors"]

    monkeypatch.setattr(cli, "sample_radial_spectrum", radial)
    monkeypatch.setattr(cli, "sample_product_eigenvalues", replicate)
    monkeypatch.setattr(matrix_model, "product_eigenvalues", solve)
    for name in ("gamma", "beta"):
        def drawing(self, *args, draw=getattr(RngStream, name), **kwargs):
            seen["factors"].append(threading.get_ident())
            return draw(self, *args, **kwargs)

        monkeypatch.setattr(RngStream, name, drawing)
    # the 20 scalar replicates of n = 12 come in two chunks of 10 rows,
    # which get a thread each on a machine with 4 usable CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    monkeypatch.setattr(scalar_model, "_CHUNK", 120)
    factors = run(4)
    assert len(factors) == 2 * 2 and caller not in factors
    # with one usable CPU the 2 x 2 scalar draws, and every matrix replicate,
    # run on one pool thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    factors = run(1)
    assert len(factors) == 2 * 2 and len(set(factors)) == 1
    assert caller not in factors


def test_scalar_run_draws_key_0_in_one_array_and_extends_as_a_prefix(monkeypatch):
    # factor k of scalar chunk c comes from stream (0, k, c), one row per replicate
    drawn = []

    def recording(*args, draw=cli.sample_radial_spectrum):
        out = draw(*args)
        # a copy: the run rescales and sorts the drawn array where it lies
        drawn.append(out.copy())
        return out

    monkeypatch.setattr(cli, "sample_radial_spectrum", recording)
    for replicates in (7, 8):
        cfg = small_cfg(replicates=replicates)
        report = run_experiment(cfg)
        assert report.scalar_ecdf.n == replicates * cfg.n
        expected = sample_radial_spectrum(
            cfg.build_spec(), RngStream(cfg.seed).substream(0), replicates
        )
        assert drawn[-1].shape == (replicates, cfg.n)
        assert drawn[-1].tobytes() == expected.tobytes()
        # the ECDF built in the run's own array is the one build_ecdf pools
        pooled = cli.build_ecdf([drawn[-1]], report.plan)
        assert report.scalar_ecdf.values.tobytes() == pooled.values.tobytes()
    fewer, more = drawn
    assert fewer.tobytes() == more[: len(fewer)].tobytes()


def test_scalar_run_holds_about_one_array_of_its_draws(monkeypatch):
    # (R, n, m) = (2000, 200, 4) on two usable CPUs: the draws are 3.05 MiB,
    # and the ECDF is built in them rather than in a pooled copy
    cfg = ExperimentConfig(n=200, signs="++++", gamma="m", replicates=2000)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.scalar_ecdf.n == 2000 * 200
    assert peak < 1.5 * 8 * 2000 * 200


def test_matrix_runs_pin_blas_and_restore_it(monkeypatch):
    controls, complete = _openblas_thread_controls()
    seen = []

    def recording(*args, call):
        seen.append([get() for _, get in controls])
        return call(*args)

    # each replicate, and the solve inside it
    monkeypatch.setattr(cli, "sample_product_eigenvalues", functools.partial(
        recording, call=cli.sample_product_eigenvalues
    ))
    monkeypatch.setattr(matrix_model, "product_eigenvalues", functools.partial(
        recording, call=matrix_model.product_eigenvalues
    ))
    before = [get() for _, get in controls]
    report = run_experiment(small_cfg(mode="matrix", workers=2))
    assert seen == [[1] * len(controls)] * (2 * 20)
    assert [get() for _, get in controls] == before
    assert report.record()["blas_threads"] == (1 if complete else None)
    assert "blas_threads" not in run_experiment(small_cfg()).record()


# a child reads the OpenBLAS thread counts it loaded with, hashes ten
# replicates drawn by direct library calls, outside any run, and then runs
# the CLI on its arguments
_BLAS_CHILD = """
import hashlib, json, sys
from prodspec.cli import main
from prodspec.config import ProductSpec, SignPattern
from prodspec.matrix_model import (
    _openblas_thread_controls, product_eigenvalues, sample_ginibre, sample_product_eigenvalues,
)
from prodspec.numerics import RngStream

loaded = [get() for _, get in _openblas_thread_controls()[0]]
spec = ProductSpec(100, SignPattern.parse("-+-"))
digest = hashlib.sha256()
for r in range(10):
    direct = sample_product_eigenvalues(spec, RngStream(1).substream(1, r))
    factors = [sample_ginibre(100, RngStream(2).substream(r, k)) for k in range(3)]
    for sample in (direct, product_eigenvalues(factors, spec.signs)):
        digest.update(sample.log_moduli.tobytes() + sample.angles.tobytes())
code = main(sys.argv[1:])
print(digest.hexdigest())
print(json.dumps(loaded))
sys.exit(code)
"""


def _child_env():
    """This environment, without the BLAS thread variables and with prodspec importable.

    Importing prodspec here set OPENBLAS_NUM_THREADS, so a child would
    otherwise inherit it; without it a child gets prodspec's own default.
    """
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def test_matrix_outputs_do_not_depend_on_blas_threads(tmp_path):
    # n = 100: at n = 40 OpenBLAS runs on one thread anyway, so bytes could not differ
    env = _child_env()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    outputs = {}
    # unset is prodspec's default of one thread; a value set is kept, so the
    # "2" child loads OpenBLAS with two threads (OpenBLAS caps it at the CPUs)
    for threads, loaded in (("unset", 1), ("1", 1), ("2", min(2, cpus))):
        out = tmp_path / threads
        argv = [
            sys.executable, "-c", _BLAS_CHILD, "run", "--ensemble", "ginibre",
            "--signs=-+-", "--n", "100", "--replicates", "10", "--mode", "matrix",
            "--seed", "1", "--out", str(out),
        ]
        proc = subprocess.run(
            argv, env=env if threads == "unset" else {**env, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        *_, digest, counts = proc.stdout.splitlines()
        assert all(count == loaded for count in json.loads(counts))
        outputs[threads] = [(out / name).read_bytes() for name in ("cdf.csv", "angles.csv")]
        outputs[threads].append(digest)
    assert outputs["unset"] == outputs["1"] == outputs["2"]


# a child imports prodspec, after numpy when asked, and reports each loaded
# OpenBLAS's thread count and its own thread count, then runs the matrix
# path and reports the counts again
_DEFAULT_BLAS_CHILD = """
import json, os, sys
tasks = lambda: len(os.listdir("/proc/self/task"))
if sys.argv[1] == "numpy-first":
    import numpy
    numpy_loaded = tasks()
import prodspec.cli as cli
from prodspec.matrix_model import _openblas_thread_controls

controls, complete = _openblas_thread_controls()
counts = lambda: [get() for _, get in controls]
state = {"env": os.environ["OPENBLAS_NUM_THREADS"], "counts": counts(), "tasks": tasks()}
if sys.argv[1] == "numpy-first":
    state["numpy_loaded"] = numpy_loaded
cfg = cli.ExperimentConfig(n=100, signs="-+", gamma="2", replicates=2, mode="matrix")
state["blas_threads"] = cli.run_experiment(cfg).blas_threads
state["counts_after"] = counts()
print(json.dumps({**state, "complete": complete, "controls": len(controls)}))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
@pytest.mark.parametrize("case", ["unset", "set-2", "numpy-first"])
def test_import_loads_openblas_with_one_thread_unless_set_or_numpy_came_first(case):
    env = _child_env()
    if case == "set-2":
        env["OPENBLAS_NUM_THREADS"] = "2"
    proc = subprocess.run(
        [sys.executable, "-c", _DEFAULT_BLAS_CHILD, case], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout.splitlines()[-1])
    counts = state["counts"]
    if case == "unset":
        # no OpenBLAS worker was started: the interpreter is the one thread
        assert state["env"] == "1" and counts == [1] * state["controls"]
        assert state["tasks"] == 1
    elif case == "set-2":
        assert state["env"] == "2"
        assert counts == [min(2, len(os.sched_getaffinity(0)))] * state["controls"]
    else:
        # numpy's OpenBLAS was loaded before the variable was set, and keeps
        # its count: its workers are every thread but the interpreter's
        assert state["env"] == "1"
        assert counts == [state["numpy_loaded"]] * state["controls"]
    # the matrix path pins every OpenBLAS to one thread and restores it
    assert state["blas_threads"] == (1 if state["complete"] else None)
    assert state["counts_after"] == counts


# a child imports the CLI, builds scalar, matrix and both configs, and then
# lists the modules that running, writing and checking them as --assert
# does imported for the first time
_IMPORT_CHILD = """
import json, sys, tempfile
from prodspec import cli

parser = cli._build_parser()
configs = [
    cli.build_config(parser.parse_args(["run", *flags, "--n", "6", "--replicates", "3"]))
    for flags in (
        ["--ensemble", "ginibre", "--signs=-+", "--mode", "scalar"],
        ["--ensemble", "ginibre", "--signs=-+-", "--mode", "matrix"],
        ["--preset", "haar-remark4ii", "--mode", "both"],
    )
]
before = set(sys.modules)
with tempfile.TemporaryDirectory() as out:
    for cfg in configs:
        report = cli.run_experiment(cfg)
        cli.write_outputs(report, out)
        report.threshold_failures()
print(json.dumps({
    "new": sorted(set(sys.modules) - before),
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def test_a_run_imports_no_scipy_and_nothing_after_start_up():
    # scipy.special and scipy.linalg load numpy.ma, numpy.testing and more
    # at start-up; a module numpy loads lazily would land in the run's time
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHILD], env=_child_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"new": [], "scipy": []}


def test_run_experiment_seed_matters():
    a = run_experiment(small_cfg())
    b = run_experiment(small_cfg(seed=6))
    assert not np.array_equal(a.scalar_ecdf.values, b.scalar_ecdf.values)


def test_run_experiment_matrix_mode_reports_angles():
    report = run_experiment(small_cfg(mode="matrix"))
    assert report.matrix_ecdf is not None and report.scalar_ecdf is None
    assert report.pooled_angles is not None
    assert "angles" in report.ks_results
    assert "paths" not in report.ks_results


def test_run_experiment_degenerate_skips_ks():
    report = run_experiment(small_cfg(limit="degenerate"))
    assert report.limit_kind == "degenerate"
    assert "scalar" not in report.ks_results
    assert report.mass_scalar is not None
    # spherical-type data spreads far outside the concentration window
    assert report.mass_scalar < 0.9
    assert report.threshold_failures()


def test_write_outputs_and_byte_determinism(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "c1", tmp_path / "c4"
    # as in test_run_experiment_deterministic_across_workers: one thread per
    # path against up to four, over four scalar chunks, --workers varied too
    monkeypatch.setattr(scalar_model, "_CHUNK", 60)
    with usable_cpus(1):
        write_outputs(run_experiment(small_cfg(mode="both")), out1)
    with usable_cpus(4):
        write_outputs(run_experiment(small_cfg(mode="both", workers=8)), out2)
    cdf = (out1 / "cdf.csv").read_text()
    assert cdf.splitlines()[0] == "y,empirical,limit"
    assert (out1 / "angles.csv").read_text().splitlines()[0] == "theta,empirical,uniform"
    assert (out1 / "cdf.csv").read_bytes() == (out2 / "cdf.csv").read_bytes()
    assert (out1 / "angles.csv").read_bytes() == (out2 / "angles.csv").read_bytes()
    rec1 = json.loads((out1 / "report.json").read_text())
    rec2 = json.loads((out2 / "report.json").read_text())
    drop = lambda d: {
        k: v
        for k, v in d.items()
        if not k.startswith("runtime_") and k not in ("wall_clock_s", "workers")
    }
    assert drop(rec1) == drop(rec2)
    assert rec1["version"] and rec1["limit_kind"] == "ginibre"


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    values=st.lists(
        # few distinct values, so most neighbours tie; + 0.0 turns -0.0 into 0.0
        st.sampled_from([-2.5, 0.0, 0.25, 1.0, 3.0]) | st.floats(-10, 10).map(lambda x: x + 0.0),
        min_size=1, max_size=400,
    ),
    points=st.integers(1, 1001),
)
def test_quantile_grid_is_the_unique_picks_of_sorted_values(values, points):
    v = np.sort(np.array(values))
    idx = np.round(np.linspace(0, len(v) - 1, points)).astype(int)
    assert cli._quantile_grid(v, points).tobytes() == np.unique(v[idx]).tobytes()


def test_cli_run_exit_zero_and_stdout(tmp_path, capsys):
    out = tmp_path / "res"
    code = main(
        [
            "run", "--ensemble", "ginibre", "--n", "10", "--signs=-+",
            "--gamma", "2", "--replicates", "10", "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "ks_scalar = " in capsys.readouterr().out
    assert (out / "cdf.csv").exists() and (out / "report.json").exists()


def test_cli_presets_listing(capsys):
    assert main(["presets"]) == 0
    text = capsys.readouterr().out
    for name in PRESETS:
        assert name in text


@pytest.mark.parametrize(
    "argv, needle",
    [(["run", "--ensemble", "ginibre", "--signs", "+"], "error: n:")]
    + [
        (["run", "--n", "10", "--signs", "+", "--replicates", "4", f"--gamma={g}"],
         "error: gamma:")
        for g in ("-1", "0", "nan", "inf", "abc")
    ]
    + [
        (["run", "--config", "{tmp}/word-n.cfg"], "error: n: expected an integer (got 'abc')"),
        (["run", "--config", "{tmp}/float-workers.cfg"],
         "error: workers: expected an integer (got '2.5')"),
    ]
    # a bad flag value gets the same error line as the same value in a file
    + [
        (["run", "--signs", "+", "--n", "abc"], "error: n: expected an integer (got 'abc')"),
        (["run", "--signs", "+", "--n", "10", "--workers=2.5"],
         "error: workers: expected an integer (got '2.5')"),
        (["run", "--signs", "+", "--n", "10", "--mode=fast"],
         "error: mode: expected scalar|matrix|both (got 'fast')"),
        (["run", "--signs", "+", "--n", "10", "--ensemble=wishart"],
         "error: ensemble: expected 'ginibre' or 'haar' (got 'wishart')"),
        # one replicate starts one thread at most, so this cannot exhaust threads
        (["run", "--signs", "+", "--n", "10", "--replicates", "1", "--workers", "1000000"],
         "error: workers: must lie in 1..64 (got 1000000)"),
    ],
    ids=[
        "no-n", "gamma-negative", "gamma-zero", "gamma-nan", "gamma-inf", "gamma-word",
        "config-n-word", "config-workers-float", "flag-n-word", "flag-workers-float",
        "flag-mode-unknown", "flag-ensemble-unknown", "flag-workers-above-cap",
    ],
)
def test_cli_invalid_config_is_exit_2(tmp_path, capsys, argv, needle):
    (tmp_path / "word-n.cfg").write_text("n = abc\nsigns = +\n")
    (tmp_path / "float-workers.cfg").write_text("n = 10\nsigns = +\nworkers = 2.5\n")
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", ["n", "replicates", "seed", "workers", "dims", "gamma", "limit", "preset", "config"]
)
def test_cli_lone_dashes_flag_value_is_read_as_text(tmp_path, capsys, monkeypatch, flag):
    # argparse parses --X=-- to []; the value must reach the same checks as "--"
    monkeypatch.chdir(tmp_path)
    argv = ["run", "--n", "4", "--signs", "+", "--replicates", "2", f"--{flag}=--"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}:") and "'--'" in err


def test_cli_lone_dashes_are_a_sign_pattern_and_a_directory(tmp_path, capsys, monkeypatch):
    # two inverse factors, as `signs = --` in a config file gives
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--n", "4", "--signs=--", "--replicates", "2", "--out=--"]) == 0
    assert "signs = --" in capsys.readouterr().out
    assert json.loads((tmp_path / "--" / "report.json").read_text())["signs"] == "--"


def test_cli_bad_limit_token_is_exit_2(capsys):
    # resolved mid-run, so it must not surface as a traceback
    code = main(
        ["run", "--n", "10", "--signs", "+", "--replicates", "4",
         "--limit", "bogus"]
    )
    assert code == 2
    assert "limit:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, needle",
    [
        (["--limit", "ginibre:0.5,0"], "beta:"),
        (["--limit", "ginibre:2,1"], "alpha:"),
        (["--limit", "betas:{tmp}/word.txt"], "line 2"),
        (["--limit", "betas:{tmp}/negative.txt"], "betas[0]:"),
        (["--limit", "betas:{tmp}/falling.txt"], "limit: betas: partial sum must rise"),
        (["--limit", "betas:{tmp}/overflow.txt"], "limit: betas: partial sum must rise"),
        (["--gamma", "1e-300"], "gamma"),
        (["--gamma", "0.003"], "gamma"),
        # each asks numpy for about 710 PiB, which it refuses before touching memory
        (["--n", "100000000000000000"], "Unable to allocate"),
        (["--ensemble", "haar", "--dims", "10000000000000000", "--mode", "matrix"],
         "Unable to allocate"),
    ],
    ids=[
        "ginibre-beta-zero", "ginibre-alpha-above-one", "betas-file-word",
        "betas-file-negative-first", "betas-file-falling", "betas-file-overflow",
        "gamma-overflow", "gamma-underflow", "scalar-size-unallocatable",
        "haar-dims-unallocatable",
    ],
)
def test_cli_values_rejected_mid_run_are_exit_2(tmp_path, capsys, flags, needle):
    # limit objects and the rescaled range only exist once the run starts
    (tmp_path / "word.txt").write_text("0.5\nhalf\n")
    (tmp_path / "negative.txt").write_text("-0.5\n0.25\n")
    (tmp_path / "falling.txt").write_text("1\n0\n-2\n")
    (tmp_path / "overflow.txt").write_text("1e308\n1e308\n")
    argv = ["run", "--n", "10", "--signs", "+", "--replicates", "4"]
    code = main(argv + [f.format(tmp=tmp_path) for f in flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and needle in err


@pytest.mark.parametrize(
    "out", ["{tmp}/afile", "{tmp}/afile/sub"], ids=["out-is-a-file", "out-under-a-file"]
)
def test_cli_unwritable_out_is_exit_2(tmp_path, capsys, monkeypatch, out):
    # the --out check comes before the sampling, so no run is lost to it
    def never(cfg):
        raise AssertionError("run_experiment called before --out was checked")

    monkeypatch.setattr("prodspec.cli.run_experiment", never)
    (tmp_path / "afile").write_text("taken\n")
    code = main(
        ["run", "--n", "10", "--signs", "+", "--replicates", "4",
         "--out", out.format(tmp=tmp_path)]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: out:")


def test_cli_conditioning_abort_is_exit_3(monkeypatch, capsys):
    def explode(spec, rng):
        raise ConditioningError("synthetic refusal")

    monkeypatch.setattr("prodspec.cli.sample_product_eigenvalues", explode)
    code = main(
        [
            "run", "--ensemble", "ginibre", "--n", "10", "--signs", "+",
            "--mode", "matrix", "--replicates", "4",
        ]
    )
    assert code == 3
    assert "conditioning abort" in capsys.readouterr().err


# a child runs the CLI on argv[2] usable CPUs with the first factor drawn
# for matrix replicate argv[1] made singular; that factor is inverted, so
# the run aborts there. Each draw first sleeps for 1 ms, with the
# interpreter lock released, so the calling thread takes the abort without
# waiting for the lock. It prints the exit code, the replicates whose
# factors were drawn, and the threads alive before and after the run
_SINGULAR_FACTOR_CHILD = """
import json, os, sys, threading, time
import prodspec.matrix_model as matrix_model
from prodspec.cli import main

k, cpus = int(sys.argv[1]), int(sys.argv[2])
drawn, lock = set(), threading.Lock()

def sample_ginibre(dim, rng, cols=None, draw=matrix_model.sample_ginibre):
    time.sleep(0.001)
    a = draw(dim, rng, cols)
    with lock:
        if rng.path == (1, k) and rng.path[1] not in drawn:
            a[:, 0] = 0.0
        drawn.add(rng.path[1])
    return a

matrix_model.sample_ginibre = sample_ginibre
os.sched_getaffinity = lambda pid: set(range(cpus))
before = threading.active_count()
code = main([
    "run", "--ensemble", "ginibre", "--signs=-+", "--n", "12", "--mode", "matrix",
    "--replicates", "400",
])
print(json.dumps({
    "code": code,
    "drawn": sorted(drawn),
    "threads": [before, threading.active_count()],
}))
"""


@pytest.mark.parametrize("cpus", [1, 3])
def test_cli_conditioning_abort_in_a_replicate_is_exit_3_and_cancels_the_replicates_not_started(
    cpus,
):
    # a hang fails here as TimeoutExpired instead of stalling pytest
    k = 5
    proc = subprocess.run(
        [sys.executable, "-c", _SINGULAR_FACTOR_CHILD, str(k), str(cpus)],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["code"] == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: conditioning abort: factor 0:")
    assert "Traceback" not in proc.stderr
    # replicates 0..k were all drawn; replicates past k may have started
    # before the abort reached the run, but those not started were
    # cancelled: were none, all 400 would be drawn
    assert set(range(k + 1)) <= set(seen["drawn"])
    assert len(seen["drawn"]) < 400 // 2
    before, after = seen["threads"]
    assert after == before


# a child runs the CLI on two usable CPUs with matrix replicates 1 and 2
# failing, replicate 2 first: replicate 1 waits until replicate 2 has
# failed. Replicate 2 raises a ConditioningError and replicate 1 a
# LinAlgError. The child prints the exit code, the failed replicates in the
# order they failed, and the threads alive before and after the run
_FAILING_REPLICATES_CHILD = """
import json, os, threading
import numpy as np
import prodspec.cli as cli
from prodspec.cli import main
from prodspec.matrix_model import ConditioningError

failed, later_failed = [], threading.Event()

def sample_product_eigenvalues(spec, rng, sample=cli.sample_product_eigenvalues):
    r = rng.path[1]
    if r == 1:
        if not later_failed.wait(30):
            raise RuntimeError("replicate 2 never failed")
        failed.append(r)
        raise np.linalg.LinAlgError("synthetic failure of replicate 1")
    if r == 2:
        failed.append(r)
        later_failed.set()
        raise ConditioningError("synthetic abort of replicate 2")
    return sample(spec, rng)

cli.sample_product_eigenvalues = sample_product_eigenvalues
os.sched_getaffinity = lambda pid: {0, 1}
before = threading.active_count()
code = main([
    "run", "--ensemble", "ginibre", "--signs=-+", "--n", "12", "--mode", "matrix",
    "--replicates", "20",
])
print(json.dumps({
    "code": code,
    "failed": failed,
    "threads": [before, threading.active_count()],
}))
"""


def test_cli_failing_replicates_surface_in_replicate_order_as_exit_2():
    # a hang fails here as TimeoutExpired instead of stalling pytest
    proc = subprocess.run(
        [sys.executable, "-c", _FAILING_REPLICATES_CHILD],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    # replicate 2's abort came first, but replicate 1's error is the one
    # reported, whatever its kind
    assert seen["failed"] == [2, 1]
    assert seen["code"] == 2
    assert proc.stderr.splitlines() == ["error: synthetic failure of replicate 1"]
    assert "Traceback" not in proc.stderr
    before, after = seen["threads"]
    assert after == before


def test_cli_value_error_while_sampling_is_exit_2(monkeypatch, capsys):
    def refuse(*args):
        raise ValueError("synthetic refusal")

    monkeypatch.setattr("prodspec.cli.sample_radial_spectrum", refuse)
    assert main(["run", "--n", "10", "--signs", "+", "--replicates", "4"]) == 2
    assert capsys.readouterr().err == "error: synthetic refusal\n"


# a child runs the CLI on 2000 one-row chunks of three factors and 4
# usable CPUs, with RngStream.gamma refusing each draw for which the
# lambda in argv[1], given the stream's path and its call count, holds;
# it prints what it saw: the draws per stream, whether the calling thread
# drew, and the threads alive before and after the run. Each draw it lets
# through first sleeps for 1 ms, with the interpreter lock released, so the
# calling thread takes a refusal's error without waiting for the lock
_REFUSED_DRAW_CHILD = """
import json, os, sys, threading, time
import prodspec.scalar_model as scalar_model
from prodspec.cli import main
from prodspec.numerics import RngStream

refuse = eval(sys.argv[1])
calls, drawers, lock = {}, [], threading.Lock()

def gamma(self, *args, draw=RngStream.gamma, **kwargs):
    with lock:
        calls[self.path] = calls.get(self.path, 0) + 1
        drawers.append(threading.get_ident())
        refused = refuse(self.path, calls[self.path])
    if refused:
        raise ValueError("synthetic refusal")
    time.sleep(0.001)
    return draw(self, *args, **kwargs)

RngStream.gamma = gamma
os.sched_getaffinity = lambda pid: set(range(4))
scalar_model._CHUNK = 10
before = threading.active_count()
code = main(["run", "--n", "10", "--signs", "+-+", "--replicates", "2000"])
print(json.dumps({
    "code": code,
    "calls": [[path, count] for path, count in calls.items()],
    "drew": len(drawers),
    "caller_drew": threading.get_ident() in drawers,
    "threads": [before, threading.active_count()],
}))
"""


def run_with_refused_draws(refuse):
    """Run _REFUSED_DRAW_CHILD with the refusal lambda's source; return what
    it printed, with calls as a dict keyed by path, and its stderr.

    A run that hangs fails here as TimeoutExpired; in this process it would
    stall pytest at exit, where concurrent.futures joins its threads.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _REFUSED_DRAW_CHILD, refuse], env=_child_env(),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    seen["calls"] = {tuple(path): count for path, count in seen["calls"]}
    return seen, proc.stderr


def test_cli_value_error_on_a_pool_thread_is_exit_2_and_ends_the_pool():
    # every draw is refused, so the first refusal ends the run
    seen, err = run_with_refused_draws("lambda path, call: True")
    assert seen["code"] == 2
    assert err == "error: synthetic refusal\n"
    assert seen["drew"] and not seen["caller_drew"]
    before, after = seen["threads"]
    assert after == before


def test_cli_value_error_in_chunk_0_is_exit_2_and_cancels_the_chunks_not_started():
    # factor 1's draw in chunk 0 is refused while other chunks are in flight
    seen, err = run_with_refused_draws("lambda path, call: path == (0, 1, 0)")
    assert seen["code"] == 2
    # one error line and no traceback
    assert err == "error: synthetic refusal\n"
    calls = seen["calls"]
    # chunk 0 draws its factors in order and stops at the refusal
    assert calls[(0, 0, 0)] == calls[(0, 1, 0)] == 1 and (0, 2, 0) not in calls
    # the chunks not started when the error reached the run never drew;
    # were none cancelled, the other 1999 chunks would make 3 draws each
    assert sum(calls.values()) < 2000 * 3 // 2
    before, after = seen["threads"]
    assert after == before


def test_cli_write_failure_after_sampling_is_exit_2(tmp_path, capsys):
    out = tmp_path / "res"
    (out / "cdf.csv").mkdir(parents=True)  # --out itself is writable
    code = main(
        ["run", "--n", "10", "--signs", "+", "--replicates", "4", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: out:") and captured.out == ""


def test_cli_threshold_failure_is_exit_4(capsys):
    # a deliberately wrong reference law cannot pass the KS gate
    code = main(
        [
            "run", "--ensemble", "ginibre", "--n", "20", "--signs=-+",
            "--gamma", "2", "--replicates", "50", "--seed", "3",
            "--limit", "ginibre:1.0,1.0", "--assert",
        ]
    )
    assert code == 4
    assert "threshold failure" in capsys.readouterr().err


@pytest.mark.parametrize("n, code", [(100, 4), (200, 0)])
def test_haar_remark4i_assert_passes_from_about_n_200(capsys, n, code):
    # the near-square truncations concentrate slowly: mass_scalar is 0.923
    # at n=100 and 0.959 at n=200, against the 0.95 gate
    argv = ["run", "--preset", "haar-remark4i", "--n", str(n), "--replicates", "50",
            "--seed", "1", "--assert"]
    assert main(argv) == code
    capsys.readouterr()


def remark4i_window_mass(n):
    """Expected mass of haar-remark4i's rescaled moduli in MASS_WINDOW.

    With dims n + 1, |lambda_j|^2 is a product of two Beta(j, 1) draws, so
    -log|lambda_j|^2 is a Gamma(2) sum with rate j, whose CDF at x > 0 is
    1 - e^(-jx) (1 + jx). The rescaled modulus exp(-(sum + log_scale) /
    gamma_n) lies in the window while the sum lies between the edges' x;
    from n = 10 on the upper edge's x is negative, so it drops out.
    """
    spec = ExperimentConfig(n=n, **apply_preset("haar-remark4i", n)).build_spec()
    plan = ScalingPlan.for_spec(spec, resolve_gamma("2", spec.m))
    j = np.arange(1, n + 1)

    def below(x):
        jx = j * max(x, 0.0)
        return 1.0 - np.exp(-jx) * (1.0 + jx)

    lo, hi = (-(plan.gamma_n * np.log(edge) + plan.log_scale) for edge in cli.MASS_WINDOW)
    return float(np.mean(below(lo) - below(hi)))


def test_haar_remark4i_window_mass_first_reaches_the_gate_at_n_160():
    masses = {n: remark4i_window_mass(n) for n in range(2, 201)}
    assert masses[100] == pytest.approx(0.9251, abs=1e-4)
    assert masses[159] == pytest.approx(0.94978, abs=1e-5)
    assert masses[160] == pytest.approx(0.95006, abs=1e-5)
    assert masses[200] == pytest.approx(0.9591, abs=1e-4)
    assert min(n for n, mass in masses.items() if mass >= cli.MASS_THRESHOLD) == 160
    # the sampled masses the gate reads agree with the exact ones
    for n in (100, 200):
        cfg = ExperimentConfig(n=n, replicates=50, seed=1, **apply_preset("haar-remark4i", n))
        assert run_experiment(cfg).mass_scalar == pytest.approx(masses[n], abs=0.02)


def test_cli_assert_passes_on_matching_limit(capsys):
    code = main(
        [
            "run", "--ensemble", "ginibre", "--n", "20", "--signs=-+",
            "--gamma", "2", "--replicates", "100", "--seed", "3", "--assert",
        ]
    )
    assert code == 0
    capsys.readouterr()


_MISSING_BETAS = Path(__file__).with_name("no-such-betas-file.txt")

# config files each drawn run finds in its working directory, by name; the
# first is valid, the second names an unknown key
_DRAWN_CONFIGS = {"good.cfg": "replicates = 2\nseed = 3\n", "bad.cfg": "bogus = 1\n"}


@st.composite
def run_argvs(draw):
    """`run` argv lists that mix valid and invalid values of every flag.

    Each flag given draws an invalid value one time in eight, so that many
    lists reach a run. n stays at most 8 and replicates at most 3. Paths
    are relative to the run's working directory, apart from an --out below
    this test file, which cannot be made.
    """
    # flag -> (valid values, invalid values)
    pools = {
        "ensemble": (st.sampled_from(["ginibre", "haar"]), st.just("bogus")),
        "n": (st.integers(2, 8).map(str), st.sampled_from(["0", "1", "x"])),
        "signs": (
            st.sampled_from(["+-", "-+", "+", "-", "-+-"]),
            st.sampled_from(["", "x", "+-+-+-+-+"]),
        ),
        # valid dims depend on n and signs: see below
        "dims": (None, st.sampled_from(["a", "0", "1,,2", "9,9,9,9"])),
        "gamma": (st.sampled_from(["m", "2", "1e-300"]), st.sampled_from(["nan", "-1", "x"])),
        "replicates": (st.integers(1, 3).map(str), st.sampled_from(["0", "x"])),
        "mode": (st.sampled_from(["scalar", "matrix", "both"]), st.just("bogus")),
        "seed": (st.sampled_from(["0", "7"]), st.sampled_from(["-1", "x"])),
        "workers": (st.sampled_from(["1", "2"]), st.sampled_from(["0", "65", "x"])),
        "limit": (
            st.sampled_from(["auto", "degenerate", "ginibre:0.5,1"]),
            st.sampled_from(
                ["ginibre:0.5,0", "ginibre:a", "bogus", f"betas:{_MISSING_BETAS}"]
            ),
        ),
        "out": (
            st.sampled_from(["out", "out/sub"]), st.just(str(Path(__file__) / "out"))
        ),
        "preset": (st.sampled_from(list(PRESETS)), st.just("bogus")),
        "config": (st.just("good.cfg"), st.sampled_from(["bad.cfg", "missing.cfg"])),
    }
    argv, values = ["run"], {}
    for name, (valid, invalid) in pools.items():
        if name == "dims":
            # one source dimension per sign, above n, for the haar
            # ensemble, and now and then given to ginibre or left out
            n, signs = values.get("n", ""), values.get("signs", "")
            valid = st.lists(
                st.integers(int(n) + 1, int(n) + 4) if n.isdigit() else st.integers(2, 12),
                min_size=max(1, len(signs)), max_size=max(1, len(signs)),
            ).map(lambda ds: ",".join(map(str, ds)))
            given = (values.get("ensemble") == "haar") != (draw(st.integers(0, 7)) == 7)
        else:
            # n, signs and replicates are always given: the first two to
            # reach the run, the last to keep it small
            given = name in ("n", "signs", "replicates") or draw(st.booleans())
        if given:
            # argparse parses a lone "--" value to [], so that is drawn too
            bad = draw(st.integers(0, 7)) == 7
            values[name] = draw(st.one_of(invalid, st.just("--")) if bad else valid)
            argv.append(f"--{name}={values[name]}")
    if draw(st.booleans()):
        argv.append("--assert")
    # now and then an argv that argparse itself rejects
    if draw(st.integers(0, 19)) == 7:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus=1", "x"])))
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=run_argvs())
def test_cli_contract_on_drawn_run_flags(argv):
    # the documented contract: exit 0/2/3/4, or argparse's exit 2, and never
    # a traceback; a RuntimeWarning fails the test (pyproject's filterwarnings)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _DRAWN_CONFIGS.items():
            Path(tmp, name).write_text(text)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            # only argparse exits instead of returning
            assert exc.code == 2 and err.getvalue().startswith("usage:"), argv
            code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
