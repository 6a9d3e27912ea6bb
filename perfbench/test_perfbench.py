"""The benchmark's definitions, and a tiny-replicate smoke run of every workload."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import child, run
from perfbench.workloads import (
    DEFAULT_SEED,
    END_TO_END,
    HELD_OUT_SEED,
    PER_LAYER,
    WORKLOADS,
    run_flags,
)
from prodspec import cli

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_builds_a_valid_config(name):
    cfg = cli.build_config(run_flags(WORKLOADS[name], DEFAULT_SEED, "out")).validated()
    assert cfg.workers == 1  # the program's default, no --workers flag
    assert cfg.seed == DEFAULT_SEED != HELD_OUT_SEED


def test_benchmark_json_matches_the_definitions():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(w["why"] and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    e2e, layers = BENCHMARK["end_to_end"], BENCHMARK["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers + BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert {m["name"]: (m["unit"], m["better"]) for m in e2e} == {
        k: (m.unit, m.better) for k, m in END_TO_END.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in layers} == {
        k: (m.unit, m.better) for k, m in PER_LAYER.items()
    }
    bounds = {m["name"]: m["bound"] for m in e2e}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in PER_LAYER.values():
        assert set(metric.moves) <= set(END_TO_END)
        assert metric.on and set(metric.on) <= set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(name, tmp_path):
    runs = []
    for k, traced in enumerate((True, False)):
        result = child.measure(name, DEFAULT_SEED, str(tmp_path / str(k)), traced, replicates=3)
        assert result["ok"], result["problems"]
        runs.append(dict(result, traced=traced))
    assert set(run.summarize(runs, trace=False)) == set(END_TO_END)
    layers = run.summarize(runs, trace=True)
    assert set(layers) == set(PER_LAYER)
    assert layers["matrix_model.replicates_ok_ratio"]["value"] == 1.0
    assert not hasattr(cli.resolve_limit, "__wrapped__")  # the tracer undid its patches


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", next(iter(WORKLOADS)),
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
