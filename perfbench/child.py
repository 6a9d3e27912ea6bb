"""One measured `prodspec run` in a fresh interpreter.

    python3 -m perfbench.child --workload NAME --seed N --out DIR --trace 0|1

Prints one JSON line: set-up and run times, peak resident memory, the
correctness verdict, KS statistics, the environment block and, when
traced, the per-layer metrics. `src/` must be on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from perfbench.workloads import WORKLOADS, run_flags


def check_outputs(report, out: Path) -> list[str]:
    """What `prodspec run --assert` rejects, plus the files the run must write."""
    problems = list(report.threshold_failures())
    needed = ["cdf.csv", "report.json"]
    if report.config.mode in ("matrix", "both"):
        needed.append("angles.csv")
    problems += [f"{name} missing" for name in needed if not (out / name).is_file()]
    if (out / "report.json").is_file():
        written = json.loads((out / "report.json").read_text())
        if written.get("seed") != report.config.seed:
            problems.append("report.json: seed differs from the config")
    return problems


def measure(workload: str, seed: int, out: str, trace: bool, replicates: int | None = None) -> dict:
    """Set up and run one workload; the import of prodspec is part of set-up."""
    wl = WORKLOADS[workload]
    result = {"ok": False, "points": wl.points(replicates), "problems": []}
    t0 = time.perf_counter()
    try:
        from prodspec import cli
        from prodspec.config import ScalingPlan, resolve_gamma

        if trace:
            from perfbench.tracer import Tracer
        with Tracer() if trace else nullcontext() as tracer:
            cfg = cli.build_config(run_flags(wl, seed, out, replicates)).validated()
            spec = cfg.build_spec()
            cli.resolve_limit(cfg, spec, ScalingPlan.for_spec(spec, resolve_gamma(cfg.gamma, spec.m)))
            t1 = time.perf_counter()
            report = cli.run_experiment(cfg)
            cli.write_outputs(report, out)
            t2 = time.perf_counter()
            if tracer is not None:
                result["layers"] = tracer.layer_metrics()
    except Exception:  # every failure is counted, never hidden
        result["problems"].append(traceback.format_exc(limit=3))
        return result
    result.update(setup_s=t1 - t0, run_s=t2 - t1)
    result["ks"] = {name: rep.statistic for name, rep in sorted(report.ks_results.items())}
    result["problems"] = check_outputs(report, Path(out))
    result["ok"] = not result["problems"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def _openblas_libraries() -> list[dict]:
    """Loaded OpenBLAS builds, their configuration and effective thread count."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({
                line.split()[-1] for line in maps
                if "openblas" in line.rsplit("/", 1)[-1].lower()
            })
    except OSError:
        return []
    symbols = [
        (f"{prefix}get_config{suffix}", f"{prefix}get_num_threads{suffix}")
        for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")
    ]
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path), "version": "unknown", "threads": "unknown"}
        for config_name, threads_name in symbols:
            config = getattr(lib, config_name, None)
            threads = getattr(lib, threads_name, None)
            if config is not None and threads is not None:
                config.argtypes, config.restype = [], ctypes.c_char_p
                threads.argtypes, threads.restype = [], ctypes.c_int
                entry.update(version=config().decode(), threads=threads())
                break
        found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import prodspec
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas_libraries(),
        "prodspec": os.path.dirname(prodspec.__file__),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.out, bool(args.trace))
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
