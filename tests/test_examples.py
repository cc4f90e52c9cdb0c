"""Smoke tests: every bundled example must run end-to-end.

Examples are user-facing deliverables; these tests execute each one in a
subprocess at smoke scale and check for a clean exit and the expected
headline output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

CASES = {
    "quickstart.py": "compression ratio",
    "compression_walkthrough.py": "e_max",
    "cfd_solver_comparison.py": "storage-format comparison",
    "compression_study.py": "compressors on v_0",
    "roofline_h100.py": "bandwidth eff",
    "orthogonality_analysis.py": "iterations",
    "fault_tolerance_demo.py": "survival",
}


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    # propagate src/ so examples import repro from a clean checkout
    # without requiring `pip install -e .`
    pythonpath = str(SRC_DIR)
    if os.environ.get("PYTHONPATH"):
        pythonpath += os.pathsep + os.environ["PYTHONPATH"]
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
        env={"REPRO_SCALE": "smoke", "PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath},
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_example_runs_clean(name):
    proc = run_example(name)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert CASES[name].lower() in proc.stdout.lower()


def test_examples_directory_is_covered():
    """Every example script has a smoke test (no orphan examples)."""
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(CASES)


def test_cfd_comparison_accepts_matrix_arguments():
    proc = run_example("cfd_solver_comparison.py", "lung2")
    assert proc.returncode == 0
    assert "lung2" in proc.stdout


def test_cfd_comparison_rejects_unknown_matrix():
    proc = run_example("cfd_solver_comparison.py", "not-a-matrix")
    assert proc.returncode != 0
