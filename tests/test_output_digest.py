"""tools/output_digest.py: one exit-0 line per preset and mode."""

import subprocess
import sys
from pathlib import Path

from prodspec.cli import PRESETS

ROOT = Path(__file__).resolve().parents[1]


def test_output_digest_prints_one_exit_0_line_per_preset_and_mode():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 15
    assert [tuple(line.split()[:2]) for line in lines] == [
        (preset, mode) for preset in PRESETS for mode in ("scalar", "matrix", "both")
    ]
    for line in lines:
        assert line.split()[2] == "exit=0", line
