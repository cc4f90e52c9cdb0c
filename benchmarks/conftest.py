"""Benchmark-suite plumbing.

Every benchmark regenerates one table or figure of the paper and emits
its rows through the ``paper_report`` fixture, which (a) saves them under
``benchmarks/results/<test>.txt`` and (b) replays them in the pytest
terminal summary so ``pytest benchmarks/ --benchmark-only`` output
contains every reproduced table/figure even with output capture on.
``benchmarks/results/`` is a run output: git ignores it, and each run
rewrites its files at the scale it ran.

Scale control: set ``REPRO_SCALE=smoke|default|paper`` (see
repro.sparse.suite).
"""

from pathlib import Path
from typing import List, Tuple

import pytest

_REPORTS: List[Tuple[str, str]] = []
_RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def paper_report(request):
    """Callable collecting report blocks for this benchmark."""
    node = request.node.name
    first = True

    def emit(text: str) -> None:
        nonlocal first
        _REPORTS.append((node, text))
        _RESULTS_DIR.mkdir(exist_ok=True)
        path = _RESULTS_DIR / f"{node}.txt"
        mode = "w" if first else "a"
        with open(path, mode) as fh:
            fh.write(text + "\n\n")
        first = False

    return emit


def pytest_terminal_summary(terminalreporter):
    if not _REPORTS:
        return
    terminalreporter.section("reproduced paper tables and figures")
    for node, text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"--- {node} ---")
        for line in text.splitlines():
            terminalreporter.write_line(line)
