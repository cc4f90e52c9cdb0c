"""The committed digest gate: "no bit moves" as a test, not a paragraph.

``tests/data/digests.json`` holds, for every cell of the smoke table, the
SHA-256 of the solution ``x`` and the iteration count of a restarted
solve at m = 30.  The table is atmosmodd / cfd2 / lung2 x float64 /
frsz2_16 / frsz2_21 / frsz2_32 x cached / streaming, plus two atmosmodd
cells: the adaptive rung, and frsz2_32 under an ILU(0) preconditioner.
One digest serves each (matrix, storage, mode): the numpy backend and
the compiled one, on one thread and on the pool's, must all equal it.

Beside the solves it holds one fault campaign: RM07R at smoke scale,
four storages x the four default faults x two rates, whose cells take
every branch of the storage escalation — a climb up the ladder
(frsz2_16 -> frsz2_32), a jump from an off-ladder format to float64
(float32 under ``readout_nan`` at 0.05) and an adaptive retry with its
floor raised.  Each cell keeps its outcome, its counts and the exact
bits of ``final_rrn``.

A change that means to move bits regenerates the file on purpose and
says so::

    PYTHONPATH=src python -m tests.test_digests
"""

import functools
import hashlib
import json
import pathlib

import pytest

from repro.jit import dispatch
from repro.robust import run_campaign
from repro.solvers import SolveOptions, make_problem

from .backends import requires_jit

DIGESTS = pathlib.Path(__file__).parent / "data" / "digests.json"

#: the restart length and the scale every cell runs at
M, SCALE = 30, "smoke"

#: ``(matrix, storage, basis_mode, preconditioner)`` of every cell
CELLS = [
    (matrix, storage, mode, "none")
    for matrix in ("atmosmodd", "cfd2", "lung2")
    for storage in ("float64", "frsz2_16", "frsz2_21", "frsz2_32")
    for mode in ("cached", "streaming")
] + [
    ("atmosmodd", "adaptive", "cached", "none"),
    ("atmosmodd", "frsz2_32", "streaming", "ilu0"),
]


#: the escalation campaign: its matrix and storages (the default faults,
#: rates, seed, m = 50 and scale of ``run_campaign`` otherwise)
CAMPAIGN = dict(matrix="RM07R", scale=SCALE,
                storages=("frsz2_16", "frsz2_32", "float32", "adaptive"))

#: the campaign-cell fields a digest keeps (besides ``final_rrn``'s hex)
CAMPAIGN_FIELDS = ("outcome", "storage_used", "attempts", "iterations",
                   "recoveries", "breakdowns", "faults_injected")


def cell_key(cell) -> str:
    matrix, storage, mode, prec = cell
    return "/".join((matrix, storage, mode) + ((prec,) if prec != "none" else ()))


@functools.lru_cache(maxsize=None)
def _problem(matrix):
    return make_problem(matrix, SCALE)


def solve_digest(cell, backend: str) -> dict:
    """The SHA-256 of ``x`` and the iteration count of one cell."""
    matrix, storage, mode, prec = cell
    p = _problem(matrix)
    r = SolveOptions(storage=storage, m=M, basis_mode=mode, backend=backend,
                     preconditioner=prec).build(p.a).solve(p.b, p.target_rrn)
    return {"x_sha256": hashlib.sha256(r.x.tobytes()).hexdigest(),
            "iterations": int(r.iterations)}


def campaign_digests(backend: str) -> dict:
    """Every cell of the escalation campaign, keyed fault/storage/rate."""
    return {
        f"{c.fault}/{c.storage}/{c.rate}": {
            **{name: getattr(c, name) for name in CAMPAIGN_FIELDS},
            "final_rrn": c.final_rrn.hex(),
        }
        for c in run_campaign(backend=backend, **CAMPAIGN).cells
    }


@pytest.fixture(scope="module")
def committed():
    doc = json.loads(DIGESTS.read_text())
    assert (doc["m"], doc["scale"]) == (M, SCALE)
    assert sorted(doc["cells"]) == sorted(map(cell_key, CELLS))
    return doc["cells"]


@pytest.fixture
def pool_threads():
    """The thread counts a jit cell runs at — one, and the pool's own —
    restored afterwards."""
    engine = dispatch.load_engine()
    pool = engine.threads
    try:
        yield sorted({1, pool})
    finally:
        engine.set_threads(pool)


@pytest.mark.parametrize("cell", CELLS, ids=cell_key)
def test_numpy_matches_the_committed_digest(committed, cell):
    assert solve_digest(cell, "numpy") == committed[cell_key(cell)]


@requires_jit
@pytest.mark.parametrize("cell", CELLS, ids=cell_key)
def test_jit_matches_the_committed_digest(committed, pool_threads, cell):
    engine = dispatch.load_engine()
    for threads in pool_threads:
        engine.set_threads(threads)
        assert solve_digest(cell, "jit") == committed[cell_key(cell)], \
            f"T={threads}"


@pytest.mark.parametrize("backend", [
    "numpy", pytest.param("jit", marks=requires_jit)])
def test_campaign_matches_the_committed_digest(backend):
    doc = json.loads(DIGESTS.read_text())
    assert campaign_digests(backend) == doc["campaign"]


if __name__ == "__main__":
    cells = {cell_key(cell): solve_digest(cell, "numpy") for cell in CELLS}
    campaign = campaign_digests("numpy")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(
        {"m": M, "scale": SCALE, "cells": cells, "campaign": campaign},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cells)} digests and {len(campaign)} campaign cells "
          f"to {DIGESTS}")
