"""Benchmark of `prodspec run` on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload again and again, each time in a fresh interpreter, until
the next run would end after S seconds (at least MIN_RUNS runs). Run k
uses the config seed N * 1000 + k, so a seed fixes every input. Each run's
outputs are checked as `prodspec run --assert` checks them.

With --trace 0 the last line reports the end-to-end metrics: medians of
run_s, points_per_s, setup_s and peak_rss_mb over the runs, and
ok_fraction over all of them. With --trace 1 runs alternate between
traced and untraced, and the last line reports the per-layer medians of
the traced runs plus the tracing overhead. Exits 2 when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import (  # noqa: E402
    BLAS_THREAD_VARS,
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
)

MIN_RUNS = 3
# every run must end well inside the 180 s a benchmark invocation may take
RUN_LIMIT_S = 170.0


def child_env() -> tuple[dict, dict]:
    """Environment of a measured run, and the BLAS variables removed from it."""
    env = dict(os.environ)
    removed = {name: env.pop(name) for name in BLAS_THREAD_VARS if name in env}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env, removed


def run_child(workload: str, seed: int, trace: bool, env: dict, out: Path, timeout: float) -> dict:
    cmd = [
        sys.executable, "-m", "perfbench.child", "--workload", workload,
        "--seed", str(seed), "--out", str(out), "--trace", str(int(trace)),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"timed out after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "problems": [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], dict]:
    """Measured runs of one workload, and the BLAS variables removed for them."""
    env, removed = child_env()
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    started = time.perf_counter()
    # untimed: compiles bytecode and fills the file cache, as any earlier use would
    subprocess.run([sys.executable, "-c", "import prodspec.cli"], cwd=ROOT, env=env,
                   capture_output=True, timeout=RUN_LIMIT_S)
    deadline = time.perf_counter() + seconds
    runs, walls = [], []
    while True:
        now = time.perf_counter()
        typical = statistics.median(walls) if walls else 0.0
        if len(runs) >= MIN_RUNS and (now + typical > deadline or now - started + typical > RUN_LIMIT_S):
            break
        k = len(runs)
        traced = trace and k % 2 == 0
        result = run_child(
            workload, seed * 1000 + k, traced, env,
            out_root / f"{workload}-{seed}-{k}", timeout=max(1.0, RUN_LIMIT_S - (now - started)),
        )
        result["traced"] = traced
        runs.append(result)
        walls.append(time.perf_counter() - now)
    try:
        out_root.rmdir()
    except OSError:
        pass  # another benchmark is still writing there
    return runs, removed


def _median(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def summarize(runs: list[dict], trace: bool) -> dict:
    """Metrics of one benchmark invocation, named as in BENCHMARK.json."""
    timed = [r for r in runs if "run_s" in r]
    untraced = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"] and "layers" in r]
    if trace:
        if not traced or not untraced:
            raise RuntimeError("no traced or no untraced run completed")
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in PER_LAYER if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = _median(traced, "run_s") - _median(untraced, "run_s")
        table = PER_LAYER
    else:
        if not untraced:
            raise RuntimeError("no run completed")
        values = {
            "run_s": _median(untraced, "run_s"),
            "points_per_s": statistics.median(r["points"] / r["run_s"] for r in untraced),
            "setup_s": _median(untraced, "setup_s"),
            "peak_rss_mb": _median(untraced, "peak_rss_mb"),
            "ok_fraction": sum(r["ok"] for r in runs) / len(runs),
        }
        table = END_TO_END
    return {name: {"value": values[name], "unit": table[name].unit} for name in table}


def dominant_layers(layers: dict) -> list[str]:
    """The three layers with the largest self times, largest first."""
    times = {k[:-2]: v for k, v in layers.items() if k.endswith("_s") and k != "trace.overhead_s"}
    return sorted(times, key=times.get, reverse=True)[:3]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "prodspec" / "__init__.py").is_file():
        print(f"error: no prodspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    runs, removed = collect(args.workload, args.seed, args.seconds, trace)
    try:
        metrics = summarize(runs, trace)
    except RuntimeError as exc:
        for r in runs:
            print("\n".join(r["problems"]), file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(not r["ok"] for r in runs)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "runs": len(runs),
        "fail_fraction": failed / len(runs),
        "samples": {
            key: [r[key] for r in runs if key in r and not r["traced"]]
            for key in ("setup_s", "run_s", "peak_rss_mb")
        },
        "ks_information_only": [r.get("ks") for r in runs],
        "problems": [p for r in runs for p in r["problems"]],
        "blas_vars_removed": removed,
        "env": next((r["env"] for r in runs if "env" in r), None),
    }
    if trace:
        info["dominant_layers"] = dominant_layers({k: v["value"] for k, v in metrics.items()})
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
