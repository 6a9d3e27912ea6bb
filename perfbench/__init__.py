"""Benchmark of `prodspec run`: end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 -m perfbench.run --workload scalar-haar-series --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the samples behind each median, the KS statistics (information only) and
the environment block.
"""
