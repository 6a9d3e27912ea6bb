"""Digest of every preset's outputs in every mode, to compare two trees byte for byte.

Runs `prodspec run` in-process for the five presets in scalar, matrix and
both modes at seed 11, each into a temporary --out: scalar mode at n = 200
with 1500 replicates (300k moduli, so the ECDF sort runs in segments on
two or more CPUs), matrix and both at n = 40 with 60 replicates. Prints
one line per run: preset, mode, exit code, and SHA-256 prefixes of
cdf.csv, angles.csv ("-" where a run writes none), stdout and
report.json, the last two without their runtime_* keys. The package is
imported from this tree's src/, so two checkouts print identical lines
exactly when their outputs match.

Run:  python3 tools/output_digest.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from prodspec.cli import PRESETS, main  # noqa: E402

SEED = 11
SIZES = {"scalar": (200, 1500), "matrix": (40, 60), "both": (40, 60)}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def file_digest(path: Path) -> str:
    return digest(path.read_bytes()) if path.exists() else "-"


def run(preset: str, mode: str) -> str:
    n, replicates = SIZES[mode]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([
                "run", "--preset", preset, "--mode", mode, "--n", str(n),
                "--replicates", str(replicates), "--seed", str(SEED), "--out", str(out),
            ])
        lines = [line for line in stdout.getvalue().splitlines(True)
                 if not line.startswith("runtime_")]
        report = out / "report.json"
        if report.exists():
            record = json.loads(report.read_text())
            kept = {k: v for k, v in record.items() if not k.startswith("runtime_")}
            report_digest = digest(json.dumps(kept, sort_keys=True).encode())
        else:
            report_digest = "-"
        return (
            f"{preset} {mode} exit={code} cdf={file_digest(out / 'cdf.csv')} "
            f"angles={file_digest(out / 'angles.csv')} "
            f"stdout={digest(''.join(lines).encode())} report={report_digest}"
        )


if __name__ == "__main__":
    for preset in PRESETS:
        for mode in SIZES:
            print(run(preset, mode), flush=True)
