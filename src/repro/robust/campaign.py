"""Fault-injection campaign: fault kind × storage format × rate sweep.

Each campaign cell runs one CB-GMRES solve under a seeded fault
injector and classifies the outcome:

* ``converged``  — the first-choice storage format survived the faults;
* ``fell_back``  — recovery escalated
  (:func:`repro.solvers.adaptive.escalation`) and a later attempt
  (float64 at the latest) converged;
* ``failed``     — no attempt converged (should not happen
  with the hardened solver on the bundled problems);
* ``crashed``    — an exception escaped the solve (only reachable with
  ``hardened=False``: the unhardened baseline the campaign exists to
  measure against), or the cell's worker *process* died outright —
  parallel sweeps run with ``on_error="collect"``, so one dead worker
  costs one cell, never the campaign;
* ``diverged``   — unhardened solve finished with a non-finite or
  worse-than-initial residual.

The sweep is a pure function of its seed: per-cell injectors are seeded
with ``(seed, fault index, storage index, rate index)`` spawn keys.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..bench.report import format_table
from ..parallel import WorkerCrashError, run_grid
from ..solvers.options import SolveOptions, check_choice
from ..solvers.problems import Problem, make_problem
from .fallback import RobustCbGmres
from .faults import FAULT_KINDS, FaultInjector, fault_hooks

__all__ = [
    "DEFAULT_FAULTS",
    "DEFAULT_STORAGES",
    "DEFAULT_RATES",
    "SURVIVING_OUTCOMES",
    "CampaignCell",
    "CampaignResult",
    "run_campaign",
]

DEFAULT_FAULTS = ("payload_bitflip", "exponent_bitflip", "readout_nan", "spmv_nan")
DEFAULT_STORAGES = ("frsz2_16", "frsz2_32", "float32")
DEFAULT_RATES = (0.02, 0.05)

#: outcomes that count as surviving the injected faults
SURVIVING_OUTCOMES = ("converged", "fell_back")


@dataclass(frozen=True)
class CampaignCell:
    """One (fault, storage, rate) cell of the sweep."""

    fault: str
    storage: str
    rate: float
    outcome: str
    #: storage format of the attempt that produced the reported x
    storage_used: str
    #: escalation attempts consumed (1 = no fallback)
    attempts: int
    iterations: int
    recoveries: int
    breakdowns: int
    #: faults the injector actually fired during the solve
    faults_injected: int
    final_rrn: float

    @property
    def survived(self) -> bool:
        return self.outcome in SURVIVING_OUTCOMES


@dataclass
class CampaignResult:
    """All cells of a sweep plus the knobs that produced them."""

    matrix: str
    scale: str
    seed: int
    hardened: bool
    fallback: bool
    cells: List[CampaignCell]

    @property
    def survival_rate(self) -> float:
        if not self.cells:
            return 0.0
        return sum(c.survived for c in self.cells) / len(self.cells)

    def survival_by_fault(self) -> List[Tuple[str, int, int, float]]:
        """Rows ``(fault, cells, survived, rate)`` aggregated per kind."""
        rows = []
        for fault in dict.fromkeys(c.fault for c in self.cells):
            group = [c for c in self.cells if c.fault == fault]
            hits = sum(c.survived for c in group)
            rows.append((fault, len(group), hits, hits / len(group)))
        return rows

    def table(self) -> str:
        """The full survival-rate table (one row per cell)."""
        mode = "hardened" if self.hardened else "unhardened"
        rows = [
            (c.fault, c.storage, c.rate, c.outcome, c.storage_used,
             c.attempts, c.iterations, c.recoveries, c.breakdowns,
             c.faults_injected, c.final_rrn)
            for c in self.cells
        ]
        return format_table(
            f"fault-injection campaign — {self.matrix} ({self.scale}, {mode}, "
            f"seed {self.seed})",
            ["fault", "storage", "rate", "outcome", "used", "attempts",
             "iters", "recov", "brkdwn", "faults", "final rrn"],
            rows,
        )

    def summary(self) -> str:
        """Per-fault survival rates plus the overall rate."""
        rows = [
            (fault, cells, survived, f"{rate:.0%}")
            for fault, cells, survived, rate in self.survival_by_fault()
        ]
        rows.append(("overall", len(self.cells),
                     sum(c.survived for c in self.cells),
                     f"{self.survival_rate:.0%}"))
        return format_table(
            "survival rates", ["fault", "cells", "survived", "rate"], rows
        )


def _crashed(fault: str, storage: str, rate: float, injected: int = 0) -> CampaignCell:
    return CampaignCell(
        fault=fault, storage=storage, rate=rate,
        outcome="crashed", storage_used=storage, attempts=1,
        iterations=0, recoveries=0, breakdowns=0,
        faults_injected=injected, final_rrn=float("nan"),
    )


def _run_cell(
    problem: Problem,
    fault: str,
    rate: float,
    seed_key: Sequence[int],
    hardened: bool,
    fallback: bool,
    options: SolveOptions,
) -> CampaignCell:
    injector = FaultInjector(rate, seed_key)
    storage = options.storage
    hooks = fault_hooks(fault, injector)
    try:
        if hardened and fallback:
            solver = options.build(problem.a, solver=RobustCbGmres, **hooks)
            rr = solver.solve(problem.b, problem.target_rrn)
            return CampaignCell(
                fault=fault, storage=storage, rate=rate,
                outcome=rr.outcome, storage_used=rr.storage_used,
                attempts=len(rr.attempts),
                iterations=rr.total_iterations,
                recoveries=rr.total_recoveries,
                breakdowns=sum(len(x.breakdown_events) for x in rr.attempts),
                faults_injected=injector.injected,
                final_rrn=rr.final_rrn,
            )
        solver = options.build(problem.a, recovery=hardened, **hooks)
        res = solver.solve(problem.b, problem.target_rrn)
        if res.converged:
            outcome = "converged"
        elif not np.isfinite(res.final_rrn) or res.final_rrn > 1.0:
            outcome = "diverged"
        elif res.recovery_exhausted:
            outcome = "failed"
        else:
            outcome = "stalled" if res.stalled else "capped"
        return CampaignCell(
            fault=fault, storage=storage, rate=rate,
            outcome=outcome, storage_used=res.storage, attempts=1,
            iterations=res.iterations, recoveries=res.recoveries,
            breakdowns=len(res.breakdown_events),
            faults_injected=injector.injected,
            final_rrn=res.final_rrn,
        )
    except Exception:  # the unhardened baseline crashes; report it
        return _crashed(fault, storage, rate, injector.injected)


def run_campaign(
    matrix: str = "atmosmodd",
    scale: Optional[str] = None,
    faults: Sequence[str] = DEFAULT_FAULTS,
    storages: Sequence[str] = DEFAULT_STORAGES,
    rates: Sequence[float] = DEFAULT_RATES,
    seed: int = 0,
    m: int = 50,
    max_iter: int = 2000,
    hardened: bool = True,
    fallback: bool = True,
    target_rrn: Optional[float] = None,
    jobs: int = 1,
    spmv_format: str = "csr",
    basis_mode: str = "cached",
    backend: "str | None" = None,
    preconditioner: str = "none",
    prec_storage: str = "float64",
) -> CampaignResult:
    """Sweep fault kind × storage format × rate on one suite matrix.

    ``preconditioner``/``prec_storage`` apply a right preconditioner to
    every cell's solver (hardened and baseline alike); the factors are
    built per cell from the raw operator, so injected faults never
    corrupt the factorization itself.

    Deterministic: identical arguments (including ``seed``) reproduce
    every injected fault and therefore every cell bit-for-bit.  Each
    cell's injector is seeded from its grid coordinates ``(seed, fault
    index, storage index, rate index)``, so fanning the grid out over
    ``jobs`` worker processes (:mod:`repro.parallel`) cannot reorder
    any random stream: any ``jobs`` value yields identical cells, in
    identical order.  ``jobs=1`` keeps the historical serial path.
    """
    for fault in faults:
        check_choice("fault kind", fault, FAULT_KINDS)
    for rate in rates:
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
    # one validated description per storage.  the backend is resolved
    # here, in the parent, so an unavailable jit engine warns a single
    # time and not once per grid cell or worker (``None`` means numpy)
    base = SolveOptions(
        m=m, max_iter=max_iter, spmv_format=spmv_format,
        basis_mode=basis_mode, backend=backend or "numpy",
        preconditioner=preconditioner, prec_storage=prec_storage,
    ).resolved()
    grid = [replace(base, storage=storage) for storage in storages]
    problem = make_problem(matrix, scale, target_rrn=target_rrn)
    tasks = [
        dict(
            problem=problem, fault=fault, rate=float(rate),
            seed_key=(seed, i_f, i_s, i_r), hardened=hardened,
            fallback=fallback, options=options,
        )
        for i_f, fault in enumerate(faults)
        for i_s, options in enumerate(grid)
        for i_r, rate in enumerate(rates)
    ]
    # collect mode: a worker that dies outright (OOM kill, segfault)
    # becomes a "crashed" cell with its grid coordinates intact instead
    # of aborting the whole sweep — the campaign exists to *measure*
    # failure, so it must survive it too
    raw = run_grid(
        _run_cell,
        tasks,
        jobs=jobs,
        labels=[
            f"faults[{t['fault']}/{t['options'].storage}@{t['rate']}]"
            for t in tasks
        ],
        on_error="collect",
    )
    cells = [
        _crashed(t["fault"], t["options"].storage, t["rate"])
        if isinstance(cell, WorkerCrashError)
        else cell
        for t, cell in zip(tasks, raw)
    ]
    return CampaignResult(
        matrix=matrix,
        scale=problem.scale,
        seed=seed,
        hardened=hardened,
        fallback=fallback,
        cells=cells,
    )
