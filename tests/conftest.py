"""Shared fixtures: the acceptance-criteria verdict log, and usable_cpus.

Criterion tests record one line each; the terminal summary replays them
so every pass/fail verdict is visible in ordinary pytest output, where
per-test capture would otherwise swallow prints from passing tests.
"""

import os
from unittest import mock

import pytest

_LINES = pytest.StashKey[list]()


@pytest.fixture
def verdict(request):
    store = request.config.stash.setdefault(_LINES, [])

    def log(num: int, label: str, ok: bool, detail: str) -> None:
        line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
        store.append(line)
        assert ok, line

    return log


def usable_cpus(count):
    """os.sched_getaffinity patched to report count CPUs, which bound the
    threads of numerics.map_tasks and the segments of the ECDF sort."""
    return mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(count)), create=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = config.stash.get(_LINES, [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
