"""Solver-wide performance bench: ``python -m repro bench``.

Replays a fixed matrix × storage-format grid through the traced
CB-GMRES solver and merges two views of every solve:

* **observed** — wall-clock spans from a :class:`repro.observe.Tracer`
  threaded through the solver, basis, accessors, codec and SpMV;
* **modeled** — the GPU timing model's predicted per-kernel seconds
  (:meth:`repro.gpu.timing.GmresTimingModel.phase_times`), the quantity
  the paper's Fig. 11 argues about.

The merged per-phase attribution (``spmv`` / ``preconditioner`` /
``orthogonalize`` / ``basis_read`` / ``basis_write`` / ``update`` /
``other``) is emitted as
a schema-versioned ``BENCH_gmres.json`` so successive commits leave a
comparable perf trajectory; ``compare_bench`` diffs two such files and
flags regressions beyond a tolerance (convergence lost, iteration-count
or modeled-time growth).  Wall-clock seconds are recorded but never
compared — they depend on the host — while iteration counts and modeled
times are deterministic for a fixed grid.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..gpu.device import DeviceSpec, H100_PCIE
from ..gpu.timing import GmresTimingModel
from ..jit import dispatch as _dispatch
from ..observe import NULL_TRACER, Tracer
from ..parallel import run_grid
from ..solvers.adaptive import ADAPTIVE_STORAGE
from ..solvers.basis import BASIS_MODES
from ..solvers.gmres import CbGmres
from ..solvers.preconditioner import (
    PRECONDITIONERS,
    PREC_STORAGES,
    make_preconditioner,
)
from ..solvers.problems import make_problem
from ..sparse.engine import SPMV_FORMATS
from ..sparse.suite import resolve_scale, suite_names

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "BENCH_PHASES",
    "BENCH_BASIS_MODES",
    "DEFAULT_BENCH_STORAGES",
    "DEFAULT_BENCH_MATRICES",
    "DEFAULT_PREC_TIER",
    "PRECISION_BASELINE_STORAGE",
    "Regression",
    "run_bench_entry",
    "run_bench",
    "validate_bench",
    "write_bench",
    "load_bench",
    "compare_bench",
]

#: schema identifier embedded in every bench file
BENCH_SCHEMA = "repro.bench.gmres"
#: bump on any incompatible change to the document layout
#: (v2: top-level ``spmv_format`` + per-entry ``spmv`` block;
#: v3: top-level ``basis_mode`` + per-entry ``basis`` block with
#: per-mode wall time / peak float64 bytes and modeled fused-kernel time;
#: v4: ``adaptive`` joins the default storage grid and adaptive entries
#: carry a ``precision`` block — per-restart storage trace, modeled
#: stored-basis bytes saved vs a fixed frsz2_32 companion solve, and the
#: iteration-count delta;
#: v5: kernel backends — top-level and per-entry ``backend`` blocks
#: recording the requested/resolved backend and jit engine, a
#: best-of-rounds codec write+read microbench with ``speedup_vs_numpy``
#: on codec-bound (frsz2_*) entries, and an in-bench full-solve
#: jit-vs-numpy bit-identity gate that refuses to emit on divergence;
#: every entry is preceded by an untimed warm-up solve so jit compile
#: and first-round cold caches never pollute the timed regions;
#: v6: preconditioning tier — ``preconditioner`` joins the phase keys,
#: the document records the grid's ``preconditioner``/``prec_storage``,
#: preconditioned entries carry a ``preconditioner`` block (setup
#: seconds, apply count, stored-preconditioner bytes vs float64, and
#: iteration ratio / wall speedup against an untraced unpreconditioned
#: companion solve), and the default grid appends a preconditioned
#: tier: ILU(0) on the two stalling stencil scenarios plus a
#: frsz2_16-compressed block-Jacobi entry)
BENCH_SCHEMA_VERSION = 6
#: per-phase attribution keys (observe span names + the remainder)
BENCH_PHASES = (
    "spmv",
    "preconditioner",
    "orthogonalize",
    "basis_read",
    "basis_write",
    "update",
    "other",
)
#: basis modes every entry's ``basis.modes`` block must cover
BENCH_BASIS_MODES = BASIS_MODES
#: the storage grid the perf trajectory tracks (acceptance floor)
DEFAULT_BENCH_STORAGES = ("float64", "float32", "frsz2_32", "adaptive")
#: fixed-storage companion every adaptive entry's ``precision`` block
#: measures its bytes-moved savings and iteration delta against
PRECISION_BASELINE_STORAGE = "frsz2_32"
#: small-but-varied default matrix grid (fast at smoke scale)
DEFAULT_BENCH_MATRICES = ("atmosmodd", "cfd2", "lung2")
#: (matrix, storage, preconditioner, prec_storage) cells appended to the
#: default grid (schema v6): ILU(0) on the two scenario stencils where
#: unpreconditioned CB-GMRES stalls at the iteration cap, plus
#: compressed block-Jacobi storage on a Table I matrix — together the
#: preconditioned perf trajectory the CI gate tracks
DEFAULT_PREC_TIER = (
    ("aniso_jump", "frsz2_32", "ilu0", "float64"),
    ("conv_dom", "frsz2_32", "ilu0", "float64"),
    ("bem_dense", "frsz2_32", "ilu0", "float64"),
    ("lung2", "frsz2_32", "block_jacobi", "frsz2_16"),
)

_ENTRY_SCALARS = {
    "matrix": str,
    "storage": str,
    "n": int,
    "nnz": int,
    "converged": bool,
    "iterations": int,
    "restarts": int,
    "reorthogonalizations": int,
    "final_rrn": float,
    "target_rrn": float,
    "bits_per_value": float,
    "wall_seconds": float,
    "modeled_seconds": float,
}


def _spmv_wall_seconds(op, x, rounds: int = 7, reps: int = 10) -> float:
    """Best-of-``rounds`` mean matvec wall time over ``reps`` calls.

    The minimum over rounds is the standard noise-robust wall-clock
    estimate: scheduler preemption and frequency scaling only ever make
    a round slower, never faster.
    """
    op.matvec(x)  # warm caches and lazy allocations outside the timing
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            op.matvec(x)
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def _codec_cycle_seconds(
    n: int, bit_length: int, backend: str, rounds: int = 5, reps: int = 3
) -> float:
    """Best-of-``rounds`` mean FRSZ2 write+read cycle wall time.

    The per-entry ``speedup_vs_numpy`` microbench: one compress of an
    ``n``-vector followed by one full decompress, through the given
    kernel backend.  The warm-up call outside the timing absorbs the
    jit engine's one-time compile/load (and numpy's first-touch
    allocations), so best-of-rounds only ever sees steady state.
    """
    from ..accessor.frsz2_accessor import Frsz2Accessor

    rng = np.random.default_rng(0)
    values = rng.standard_normal(n)
    acc = Frsz2Accessor(n, bit_length=bit_length, backend=backend)
    acc.write(values)
    acc.read()  # warm-up: engine compile + allocations outside the timing
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            acc.write(values)
            acc.read()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def run_bench_entry(
    matrix: str,
    storage: str,
    scale: str = "smoke",
    m: int = 50,
    max_iter: int = 2000,
    target_rrn: Optional[float] = None,
    device: DeviceSpec = H100_PCIE,
    spmv_format: str = "auto",
    basis_mode: str = "cached",
    backend: str = "numpy",
    preconditioner: str = "none",
    prec_storage: str = "float64",
) -> dict:
    """Run one traced solve and return its bench entry.

    Parameters
    ----------
    matrix : str
        Suite matrix name (``python -m repro list``).
    storage : str
        Krylov-basis storage format label (``float64``, ``frsz2_32``, ...).
    scale : str, default "smoke"
        Problem scale; controls the analog matrix dimension.
    m, max_iter : int
        Restart length and iteration cap.
    target_rrn : float, optional
        Override the matrix's calibrated target.
    device : DeviceSpec
        Device model for the ``modeled_seconds`` attribution.
    spmv_format : str, default "auto"
        SpMV engine format (``auto`` / ``csr`` / ``ell`` / ``sell``);
        the entry's ``spmv`` block records the requested and resolved
        format plus a measured matvec speedup over the CSR kernel.
    basis_mode : str, default "cached"
        Basis kernel structure of the primary traced solve (``cached``
        or ``streaming``).  Both modes additionally run once untraced
        for the entry's ``basis.modes`` wall/peak-memory comparison and
        its ``bit_identical_modes`` equality check.
    backend : str, default "numpy"
        Kernel backend (``numpy``/``jit``) applied to the solver, the
        SpMV engine and the codec.  ``jit`` entries additionally run an
        untraced full solve on the numpy backend and raise
        ``ValueError`` on any bit divergence — a diverging grid refuses
        to emit a bench document.  The entry's ``backend`` block
        records the resolved backend, the jit engine name, and (for
        frsz2_* storages) the codec write+read microbench with its
        ``speedup_vs_numpy``.
    preconditioner : str, default "none"
        Right preconditioner applied to every solve in the entry
        (``none``/``jacobi``/``block_jacobi``/``ilu0``).  Preconditioned
        entries additionally run an untraced *unpreconditioned*
        companion solve and carry a ``preconditioner`` block: setup
        seconds, apply count, stored-preconditioner bytes vs float64,
        and the iteration ratio / wall speedup against that companion.
    prec_storage : str, default "float64"
        Storage rung for the preconditioner's factor values
        (``float64``/``float32``/``frsz2_32``/``frsz2_16``); decoded
        per apply, so compression trades preconditioner memory traffic
        against decode work exactly like the Krylov basis does.

    Returns
    -------
    dict
        One ``entries[]`` element of the bench schema: deterministic
        solve metrics, per-phase wall/modeled seconds, the ``spmv``
        format/speedup block, the ``basis`` fused-kernel block, and the
        tracer's counter snapshot.  Top-level callable for the
        ``--jobs`` worker pool (must stay picklable).
    """
    if basis_mode not in BASIS_MODES:
        raise ValueError(
            f"unknown basis_mode {basis_mode!r}; expected one of {BASIS_MODES}"
        )
    if preconditioner not in PRECONDITIONERS:
        raise ValueError(
            f"unknown preconditioner {preconditioner!r}; "
            f"expected one of {PRECONDITIONERS}"
        )
    if prec_storage not in PREC_STORAGES:
        raise ValueError(
            f"unknown prec_storage {prec_storage!r}; "
            f"expected one of {PREC_STORAGES}"
        )
    requested_backend = str(backend)
    backend = _dispatch.resolve_backend(backend)
    engine_name = _dispatch.jit_engine_name() if backend == "jit" else None
    problem = make_problem(matrix, scale, target_rrn=target_rrn)
    # the preconditioner is factored once from the raw CSR operator and
    # shared by every solve in the entry; setup is timed directly (it
    # happens before the tracer exists) and reported in the entry's
    # ``preconditioner`` block rather than inside wall_total
    prec = None
    prec_setup_seconds = 0.0
    if preconditioner != "none":
        pt0 = time.perf_counter()
        prec = make_preconditioner(
            preconditioner, problem.a, storage=prec_storage, backend=backend,
        )
        prec_setup_seconds = time.perf_counter() - pt0
    # untimed warm-up pass (schema v5): a single-restart solve touches
    # every kernel family first, so the jit engine's one-time compile
    # and the numpy path's first-round cold caches are paid here, never
    # inside wall_total or the best-of-rounds microbenches below
    CbGmres(
        problem.a, storage, m=m, max_iter=m,
        spmv_format=spmv_format, basis_mode=basis_mode, backend=backend,
        preconditioner=prec,
    ).solve(problem.b, problem.target_rrn)
    tracer = Tracer()

    # the operator and the preconditioner are shared across the traced
    # solve and several untraced companions; these toggles keep their
    # spans/counters scoped to the traced solve only
    def _untrace() -> None:
        problem.a.tracer = NULL_TRACER
        if prec is not None:
            prec.tracer = NULL_TRACER

    def _retrace() -> None:
        problem.a.tracer = tracer
        if prec is not None:
            prec.tracer = tracer

    _retrace()
    solver = CbGmres(
        problem.a, storage, m=m, max_iter=max_iter,
        spmv_format=spmv_format, basis_mode=basis_mode, tracer=tracer,
        backend=backend, preconditioner=prec,
    )
    t0 = time.perf_counter()
    result = solver.solve(problem.b, problem.target_rrn)
    wall_total = time.perf_counter() - t0

    # observed wall seconds per phase; orthogonalize/update report time
    # *exclusive* of the basis reads nested inside them, and the
    # preconditioner applies sit outside the other phase spans, so the
    # seven phases partition the solve without double counting
    wall = {
        "spmv": tracer.total_seconds("spmv"),
        "preconditioner": tracer.total_seconds("prec.apply"),
        "basis_read": tracer.total_seconds("basis_read"),
        "basis_write": tracer.total_seconds("basis_write"),
        "orthogonalize": tracer.total_seconds("orthogonalize")
        - tracer.total_seconds("basis_read", under="orthogonalize"),
        "update": tracer.total_seconds("update")
        - tracer.total_seconds("basis_read", under="update"),
    }
    wall["other"] = max(wall_total - sum(wall.values()), 0.0)

    modeled = GmresTimingModel(device).phase_times(
        result.stats, storage,
        prec_info=prec.cost_info() if prec is not None else None,
    )

    # measured SpMV speedup over the CSR kernel: time the engine's
    # matvec and the raw CSR matvec back to back with tracing disabled
    # (spans would perturb both sides).  When the resolved format *is*
    # CSR the two operators are the same object, so the speedup is
    # exactly 1.0 by construction rather than timing noise.
    engine = solver.a
    resolved = getattr(engine, "resolved_format", "csr")
    padding_ratio = float(getattr(engine, "padding_ratio", 1.0))
    _untrace()
    try:
        if engine is problem.a or getattr(engine, "impl", None) is problem.a:
            spmv_wall = csr_wall = _spmv_wall_seconds(problem.a, problem.b)
            speedup = 1.0
        else:
            spmv_wall = _spmv_wall_seconds(engine, problem.b)
            csr_wall = _spmv_wall_seconds(problem.a, problem.b)
            speedup = csr_wall / spmv_wall if spmv_wall > 0 else 1.0
    finally:
        _retrace()
    tracer.counters["spmv.padding_ratio"] = padding_ratio

    # per-mode comparison: run both basis modes untraced (spans would
    # perturb the wall clocks) on the same operator, record wall time
    # and peak float64 working set, and check the modes' outputs for
    # exact equality — the determinism contract of the fused kernels
    mode_blocks: Dict[str, dict] = {}
    mode_results: Dict[str, object] = {}
    _untrace()
    try:
        for mode in BENCH_BASIS_MODES:
            mode_solver = CbGmres(
                engine, storage, m=m, max_iter=max_iter, basis_mode=mode,
                backend=backend, preconditioner=prec,
            )
            mt0 = time.perf_counter()
            mode_result = mode_solver.solve(problem.b, problem.target_rrn)
            mode_blocks[mode] = {
                "wall_seconds": float(time.perf_counter() - mt0),
                "peak_float64_bytes": int(
                    mode_result.stats.basis_peak_float64_bytes
                ),
            }
            mode_results[mode] = mode_result
    finally:
        _retrace()
    rc, rs = mode_results["cached"], mode_results["streaming"]
    bit_identical = bool(
        rc.iterations == rs.iterations
        and np.array_equal(rc.x, rs.x)
        and [s.rrn for s in rc.history] == [s.rrn for s in rs.history]
    )

    # adaptive entries report the controller's decisions and their
    # payoff against an untraced fixed-storage companion solve on the
    # same operator: modeled stored-basis bytes saved and the
    # iteration-count delta — the acceptance criteria of the adaptive
    # controller, kept per commit in the trajectory file
    precision_block: Optional[dict] = None
    if storage == ADAPTIVE_STORAGE:
        model = GmresTimingModel(device)
        _untrace()
        try:
            fixed = CbGmres(
                engine, PRECISION_BASELINE_STORAGE, m=m, max_iter=max_iter,
                basis_mode=basis_mode, backend=backend, preconditioner=prec,
            ).solve(problem.b, problem.target_rrn)
        finally:
            _retrace()
        adaptive_bytes = model.basis_bytes_moved(result.stats, storage)
        fixed_bytes = model.basis_bytes_moved(
            fixed.stats, PRECISION_BASELINE_STORAGE
        )
        precision_block = {
            "baseline_storage": PRECISION_BASELINE_STORAGE,
            "trace": [str(s) for s in result.stats.storage_trace],
            "decisions": [
                {
                    "restart": int(d.restart),
                    "storage": str(d.storage),
                    "rrn": float(d.rrn),
                    "needed_gain": float(d.needed_gain),
                    "reason": str(d.reason),
                }
                for d in result.precision_trace
            ],
            "upshifts": int(result.stats.precision_upshifts),
            "downshifts": int(result.stats.precision_downshifts),
            "reads_by_storage": {
                str(f): int(c)
                for f, c in sorted(result.stats.reads_by_storage.items())
            },
            "writes_by_storage": {
                str(f): int(c)
                for f, c in sorted(result.stats.writes_by_storage.items())
            },
            "adaptive_basis_bytes": float(adaptive_bytes),
            "baseline_basis_bytes": float(fixed_bytes),
            "bytes_saved_fraction": float(
                1.0 - adaptive_bytes / fixed_bytes if fixed_bytes else 0.0
            ),
            "baseline_iterations": int(fixed.iterations),
            "iterations_delta_fraction": float(
                (result.iterations - fixed.iterations) / fixed.iterations
                if fixed.iterations
                else 0.0
            ),
            "baseline_converged": bool(fixed.converged),
        }

    # preconditioned entries measure their payoff against an untraced
    # *unpreconditioned* companion on the same operator: the iteration
    # ratio (the convergence win) and the wall speedup (whether the win
    # survives the per-iteration apply cost).  Runs before the backend
    # gate below, which flips the shared engine's kernels to numpy.
    prec_block: Optional[dict] = None
    if prec is not None:
        _untrace()
        try:
            bt0 = time.perf_counter()
            base = CbGmres(
                engine, storage, m=m, max_iter=max_iter,
                basis_mode=basis_mode, backend=backend,
            ).solve(problem.b, problem.target_rrn)
            baseline_wall = time.perf_counter() - bt0
        finally:
            _retrace()
        info = prec.cost_info()
        prec_block = {
            "name": str(preconditioner),
            "storage": str(prec_storage),
            "setup_seconds": float(prec_setup_seconds),
            "applies": int(result.stats.preconditioner_applies),
            "stored_bytes": int(info["stored_bytes"]),
            "float64_bytes": int(info["float64_bytes"]),
            "bytes_saved_fraction": float(
                1.0 - info["stored_bytes"] / info["float64_bytes"]
                if info["float64_bytes"]
                else 0.0
            ),
            "baseline_iterations": int(base.iterations),
            "baseline_converged": bool(base.converged),
            "iteration_ratio": float(
                result.iterations / base.iterations
                if base.iterations
                else 0.0
            ),
            "wall_speedup": float(
                baseline_wall / wall_total if wall_total > 0 else 1.0
            ),
        }

    # backend block (schema v5).  jit entries re-run the full solve on
    # the numpy reference backend and must match bit for bit — a
    # diverging jit kernel refuses to emit rather than record timings
    # for a different computation.  This gate runs last because it
    # flips the shared engine's kernels to numpy in place.  The
    # reference solve rebuilds the preconditioner on the numpy backend
    # so the gate covers the triangular-solve/block-apply kernels too.
    bit_identical_numpy = True
    if backend == "jit":
        ref_prec = None
        if preconditioner != "none":
            ref_prec = make_preconditioner(
                preconditioner, problem.a, storage=prec_storage,
                backend="numpy",
            )
        _untrace()
        try:
            ref = CbGmres(
                engine, storage, m=m, max_iter=max_iter,
                basis_mode=basis_mode, backend="numpy",
                preconditioner=ref_prec,
            ).solve(problem.b, problem.target_rrn)
        finally:
            _retrace()
        bit_identical_numpy = bool(
            ref.iterations == result.iterations
            and np.array_equal(ref.x, result.x)
            and [s.rrn for s in ref.history] == [s.rrn for s in result.history]
        )
        if not bit_identical_numpy:
            raise ValueError(
                f"jit backend diverged from numpy on {matrix}/{storage}: "
                "refusing to emit a bench entry for a different computation"
            )
    codec_wall = numpy_codec_wall = speedup_vs_numpy = None
    if storage.startswith("frsz2_"):
        bit_length = int(storage.split("_", 1)[1])
        numpy_codec_wall = _codec_cycle_seconds(
            int(result.stats.n), bit_length, "numpy"
        )
        if backend == "jit":
            codec_wall = _codec_cycle_seconds(
                int(result.stats.n), bit_length, "jit"
            )
        else:
            codec_wall = numpy_codec_wall
        speedup_vs_numpy = (
            numpy_codec_wall / codec_wall if codec_wall > 0 else 1.0
        )
    backend_block = {
        "requested": requested_backend,
        "resolved": str(backend),
        "engine": engine_name,
        "bit_identical_numpy": bit_identical_numpy,
        "codec_wall_seconds": codec_wall,
        "numpy_codec_wall_seconds": numpy_codec_wall,
        "speedup_vs_numpy": speedup_vs_numpy,
    }

    return {
        "matrix": matrix,
        "storage": storage,
        "n": int(result.stats.n),
        "nnz": int(result.stats.nnz),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "restarts": int(result.stats.restarts),
        "reorthogonalizations": int(result.stats.reorthogonalizations),
        "final_rrn": float(result.final_rrn),
        "target_rrn": float(result.target_rrn),
        "bits_per_value": float(result.stats.bits_per_value),
        "wall_seconds": float(wall_total),
        "modeled_seconds": float(sum(modeled.values())),
        "backend": backend_block,
        "spmv": {
            "requested": str(spmv_format),
            "format": str(resolved),
            "padding_ratio": padding_ratio,
            "padded_entries": int(getattr(engine, "padded_entries", problem.a.nnz)),
            "wall_seconds": float(spmv_wall),
            "csr_wall_seconds": float(csr_wall),
            "speedup_vs_csr": float(speedup),
        },
        "basis": {
            "mode": str(basis_mode),
            "tile_elems": int(result.stats.basis_tile_elems),
            "peak_float64_bytes": int(result.stats.basis_peak_float64_bytes),
            "stored_bytes_per_vector": int(
                round(result.stats.bits_per_value * result.stats.n / 8)
            ),
            "modeled_fused_seconds": float(
                GmresTimingModel(device).fused_kernel_seconds(
                    result.stats, storage
                )
            ),
            "bit_identical_modes": bit_identical,
            "modes": mode_blocks,
        },
        "phases": {
            phase: {
                "wall_seconds": float(wall[phase]),
                "modeled_seconds": float(modeled[phase]),
            }
            for phase in BENCH_PHASES
        },
        "counters": {
            str(k): (float(v) if isinstance(v, float) else int(v))
            for k, v in sorted(tracer.counters.items())
        },
        **({"precision": precision_block} if precision_block else {}),
        **({"preconditioner": prec_block} if prec_block else {}),
    }


def run_bench(
    matrices: Optional[Sequence[str]] = None,
    storages: Optional[Sequence[str]] = None,
    scale: Optional[str] = "smoke",
    m: int = 50,
    max_iter: int = 2000,
    target_rrn: Optional[float] = None,
    device: DeviceSpec = H100_PCIE,
    jobs: int = 1,
    spmv_format: str = "auto",
    basis_mode: str = "cached",
    backend: str = "numpy",
    preconditioner: str = "none",
    prec_storage: str = "float64",
) -> dict:
    """Run the full grid and return the schema-versioned bench document.

    Parameters
    ----------
    matrices, storages : sequence of str, optional
        Grid axes; defaults are the acceptance-floor grid.
    scale : str, optional
        Problem scale (``smoke`` / ``default`` / ``paper``).
    m, max_iter : int
        Restart length and iteration cap passed to every solve.
    target_rrn : float, optional
        Override the per-matrix calibrated targets.
    device : DeviceSpec
        Device model used for the ``modeled_seconds`` attribution.
    jobs : int, default 1
        Worker processes for the grid (:mod:`repro.parallel`).  Every
        cell is an independent deterministic solve, so any ``jobs``
        value produces identical deterministic metrics (iterations,
        modeled seconds, counters); only ``wall_seconds`` varies.
        ``1`` keeps the historical serial path.
    spmv_format : str, default "auto"
        SpMV engine format applied to every cell (``--spmv-format``);
        ``auto`` selections are deterministic per matrix, so the grid's
        resolved formats are part of the reproducible trajectory.
    basis_mode : str, default "cached"
        Basis kernel structure of every cell's primary traced solve
        (``--basis-mode``); each entry's ``basis.modes`` block always
        times *both* modes regardless.
    backend : str, default "numpy"
        Kernel backend (``--backend``) applied to every cell.  The
        document's top-level ``backend`` block records the requested
        and resolved backend plus the geometric-mean codec
        ``speedup_vs_numpy`` over the grid's codec-bound (frsz2_*)
        entries; any jit-vs-numpy bit divergence in a cell raises
        before a document is produced.
    preconditioner, prec_storage : str
        Right preconditioner (``--preconditioner``) and its factor
        storage rung (``--prec-storage``) applied to every cell.  When
        the matrix grid is the default *and* no preconditioner is
        requested, the document additionally appends the
        ``DEFAULT_PREC_TIER`` cells — the preconditioned trajectory —
        so the acceptance-floor file always tracks both regimes.
    """
    if spmv_format not in SPMV_FORMATS:
        raise ValueError(
            f"unknown SpMV format {spmv_format!r}; expected one of {SPMV_FORMATS}"
        )
    if basis_mode not in BASIS_MODES:
        raise ValueError(
            f"unknown basis_mode {basis_mode!r}; expected one of {BASIS_MODES}"
        )
    if backend not in _dispatch.BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; "
            f"expected one of {_dispatch.BACKENDS}"
        )
    if preconditioner not in PRECONDITIONERS:
        raise ValueError(
            f"unknown preconditioner {preconditioner!r}; "
            f"expected one of {PRECONDITIONERS}"
        )
    if prec_storage not in PREC_STORAGES:
        raise ValueError(
            f"unknown prec_storage {prec_storage!r}; "
            f"expected one of {PREC_STORAGES}"
        )
    scale = resolve_scale(scale)
    default_grid = matrices is None
    matrices = list(matrices) if matrices else list(DEFAULT_BENCH_MATRICES)
    storages = list(storages) if storages else list(DEFAULT_BENCH_STORAGES)
    unknown = [name for name in matrices if name not in suite_names()]
    if unknown:
        raise KeyError(
            f"unknown matrices {unknown}; suite: {', '.join(suite_names())}"
        )
    grid = [(matrix, storage) for matrix in matrices for storage in storages]
    kwargs = [
        dict(matrix=matrix, storage=storage, scale=scale, m=m,
             max_iter=max_iter, target_rrn=target_rrn, device=device,
             spmv_format=spmv_format, basis_mode=basis_mode,
             backend=backend, preconditioner=preconditioner,
             prec_storage=prec_storage)
        for matrix, storage in grid
    ]
    labels = [f"bench[{matrix}/{storage}]" for matrix, storage in grid]
    # schema v6: the acceptance-floor document always carries the
    # preconditioned tier alongside the unpreconditioned grid; explicit
    # matrix selections or an explicit preconditioner opt out
    if default_grid and preconditioner == "none":
        for mx, st, pname, pstorage in DEFAULT_PREC_TIER:
            kwargs.append(
                dict(matrix=mx, storage=st, scale=scale, m=m,
                     max_iter=max_iter, target_rrn=target_rrn, device=device,
                     spmv_format=spmv_format, basis_mode=basis_mode,
                     backend=backend, preconditioner=pname,
                     prec_storage=pstorage)
            )
            labels.append(f"bench[{mx}/{st}+{pname}]")
    entries = run_grid(run_bench_entry, kwargs, jobs=jobs, labels=labels)
    # grid-wide backend summary: every cell resolved identically (the
    # same process/worker environment), so the first entry's resolution
    # speaks for the grid; the geomean covers codec-bound entries only
    speedups = [
        e["backend"]["speedup_vs_numpy"]
        for e in entries
        if e["backend"]["speedup_vs_numpy"] is not None
    ]
    geomean = (
        float(np.exp(np.mean(np.log(speedups)))) if speedups else None
    )
    backend_block = {
        "requested": str(backend),
        "resolved": entries[0]["backend"]["resolved"] if entries else str(backend),
        "engine": entries[0]["backend"]["engine"] if entries else None,
        "codec_speedup_geomean": geomean,
    }
    return {
        "schema": BENCH_SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "device": device.name,
        "scale": scale,
        "restart": int(m),
        "max_iter": int(max_iter),
        "spmv_format": str(spmv_format),
        "basis_mode": str(basis_mode),
        "preconditioner": str(preconditioner),
        "prec_storage": str(prec_storage),
        "backend": backend_block,
        "matrices": matrices,
        "storages": storages,
        "entries": entries,
    }


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------


def _expect(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ValueError(f"bench schema violation at {where}: {message}")


def _expect_number(value: object, where: str) -> None:
    _expect(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        where,
        f"expected a number, got {type(value).__name__}",
    )
    _expect(value == value and value not in (float("inf"), float("-inf")),
            where, "number must be finite")


def validate_bench(doc: dict) -> None:
    """Validate a bench document; raises ``ValueError`` naming the field."""
    _expect(isinstance(doc, dict), "$", "document must be an object")
    _expect(doc.get("schema") == BENCH_SCHEMA, "$.schema",
            f"expected {BENCH_SCHEMA!r}, got {doc.get('schema')!r}")
    _expect(doc.get("schema_version") == BENCH_SCHEMA_VERSION,
            "$.schema_version",
            f"expected {BENCH_SCHEMA_VERSION}, got {doc.get('schema_version')!r}")
    for key in ("created", "device", "scale", "spmv_format", "basis_mode"):
        _expect(isinstance(doc.get(key), str), f"$.{key}", "expected a string")
    _expect(doc["spmv_format"] in ("auto", "csr", "ell", "sell"),
            "$.spmv_format",
            f"expected one of auto/csr/ell/sell, got {doc['spmv_format']!r}")
    _expect(doc["basis_mode"] in BENCH_BASIS_MODES,
            "$.basis_mode",
            f"expected one of {'/'.join(BENCH_BASIS_MODES)}, "
            f"got {doc['basis_mode']!r}")
    _expect(doc.get("preconditioner") in PRECONDITIONERS,
            "$.preconditioner",
            f"expected one of {'/'.join(PRECONDITIONERS)} (schema v6), "
            f"got {doc.get('preconditioner')!r}")
    _expect(doc.get("prec_storage") in PREC_STORAGES,
            "$.prec_storage",
            f"expected one of {'/'.join(PREC_STORAGES)} (schema v6), "
            f"got {doc.get('prec_storage')!r}")
    for key in ("restart", "max_iter"):
        _expect(isinstance(doc.get(key), int) and doc[key] > 0,
                f"$.{key}", "expected a positive integer")
    top_backend = doc.get("backend")
    _expect(isinstance(top_backend, dict), "$.backend",
            "expected a backend block (schema v5)")
    _expect(
        set(top_backend) == {"requested", "resolved", "engine",
                             "codec_speedup_geomean"},
        "$.backend",
        f"unexpected backend block keys {sorted(top_backend)}",
    )
    for key in ("requested", "resolved"):
        _expect(top_backend[key] in _dispatch.BACKENDS, f"$.backend.{key}",
                f"expected one of {'/'.join(_dispatch.BACKENDS)}, "
                f"got {top_backend[key]!r}")
    _expect(
        top_backend["engine"] is None or isinstance(top_backend["engine"], str),
        "$.backend.engine", "expected a string or null",
    )
    if top_backend["codec_speedup_geomean"] is not None:
        _expect_number(top_backend["codec_speedup_geomean"],
                       "$.backend.codec_speedup_geomean")
    for key in ("matrices", "storages"):
        _expect(
            isinstance(doc.get(key), list) and doc[key]
            and all(isinstance(v, str) for v in doc[key]),
            f"$.{key}", "expected a non-empty list of strings",
        )
    entries = doc.get("entries")
    _expect(isinstance(entries, list) and entries, "$.entries",
            "expected a non-empty list")
    for i, entry in enumerate(entries):
        where = f"$.entries[{i}]"
        _expect(isinstance(entry, dict), where, "expected an object")
        for key, typ in _ENTRY_SCALARS.items():
            _expect(key in entry, f"{where}.{key}", "missing required field")
            if typ is float:
                _expect_number(entry[key], f"{where}.{key}")
            elif typ is int:
                _expect(
                    isinstance(entry[key], int)
                    and not isinstance(entry[key], bool),
                    f"{where}.{key}", "expected an integer",
                )
            elif typ is bool:
                _expect(isinstance(entry[key], bool), f"{where}.{key}",
                        "expected a boolean")
            else:
                _expect(isinstance(entry[key], str), f"{where}.{key}",
                        "expected a string")
        eb = entry.get("backend")
        _expect(isinstance(eb, dict), f"{where}.backend",
                "expected a backend block (schema v5)")
        _expect(
            set(eb) == {"requested", "resolved", "engine",
                        "bit_identical_numpy", "codec_wall_seconds",
                        "numpy_codec_wall_seconds", "speedup_vs_numpy"},
            f"{where}.backend",
            f"unexpected backend block keys {sorted(eb)}",
        )
        for key in ("requested", "resolved"):
            _expect(eb[key] in _dispatch.BACKENDS, f"{where}.backend.{key}",
                    f"expected one of {'/'.join(_dispatch.BACKENDS)}, "
                    f"got {eb[key]!r}")
        _expect(eb["engine"] is None or isinstance(eb["engine"], str),
                f"{where}.backend.engine", "expected a string or null")
        _expect(isinstance(eb["bit_identical_numpy"], bool),
                f"{where}.backend.bit_identical_numpy", "expected a boolean")
        _expect(eb["bit_identical_numpy"] is True,
                f"{where}.backend.bit_identical_numpy",
                "a diverging backend must never be emitted")
        codec_keys = ("codec_wall_seconds", "numpy_codec_wall_seconds",
                      "speedup_vs_numpy")
        if entry.get("storage", "").startswith("frsz2_"):
            for key in codec_keys:
                _expect_number(eb[key], f"{where}.backend.{key}")
        else:
            for key in codec_keys:
                _expect(eb[key] is None, f"{where}.backend.{key}",
                        "codec microbench applies to frsz2_* entries only")
        spmv = entry.get("spmv")
        _expect(isinstance(spmv, dict), f"{where}.spmv", "expected an object")
        _expect(
            set(spmv) == {"requested", "format", "padding_ratio",
                          "padded_entries", "wall_seconds",
                          "csr_wall_seconds", "speedup_vs_csr"},
            f"{where}.spmv",
            f"unexpected spmv block keys {sorted(spmv)}",
        )
        for key in ("requested", "format"):
            _expect(isinstance(spmv[key], str), f"{where}.spmv.{key}",
                    "expected a string")
        _expect(spmv["format"] in ("csr", "ell", "sell"),
                f"{where}.spmv.format",
                f"expected a resolved format, got {spmv['format']!r}")
        _expect(
            isinstance(spmv["padded_entries"], int)
            and not isinstance(spmv["padded_entries"], bool),
            f"{where}.spmv.padded_entries", "expected an integer",
        )
        for key in ("padding_ratio", "wall_seconds", "csr_wall_seconds",
                    "speedup_vs_csr"):
            _expect_number(spmv[key], f"{where}.spmv.{key}")
        basis = entry.get("basis")
        _expect(isinstance(basis, dict), f"{where}.basis", "expected an object")
        _expect(
            set(basis) == {"mode", "tile_elems", "peak_float64_bytes",
                           "stored_bytes_per_vector", "modeled_fused_seconds",
                           "bit_identical_modes", "modes"},
            f"{where}.basis",
            f"unexpected basis block keys {sorted(basis)}",
        )
        _expect(basis["mode"] in BENCH_BASIS_MODES, f"{where}.basis.mode",
                f"expected one of {'/'.join(BENCH_BASIS_MODES)}, "
                f"got {basis['mode']!r}")
        for key in ("tile_elems", "peak_float64_bytes",
                    "stored_bytes_per_vector"):
            _expect(
                isinstance(basis[key], int) and not isinstance(basis[key], bool),
                f"{where}.basis.{key}", "expected an integer",
            )
        _expect_number(basis["modeled_fused_seconds"],
                       f"{where}.basis.modeled_fused_seconds")
        _expect(isinstance(basis["bit_identical_modes"], bool),
                f"{where}.basis.bit_identical_modes", "expected a boolean")
        _expect(basis["bit_identical_modes"] is True,
                f"{where}.basis.bit_identical_modes",
                "cached and streaming basis modes diverged")
        modes = basis["modes"]
        _expect(isinstance(modes, dict), f"{where}.basis.modes",
                "expected an object")
        _expect(set(modes) == set(BENCH_BASIS_MODES), f"{where}.basis.modes",
                f"expected exactly the modes {sorted(BENCH_BASIS_MODES)}, "
                f"got {sorted(modes)}")
        for mode, cell in modes.items():
            mwhere = f"{where}.basis.modes.{mode}"
            _expect(isinstance(cell, dict), mwhere, "expected an object")
            _expect(set(cell) == {"wall_seconds", "peak_float64_bytes"},
                    mwhere, "expected wall_seconds and peak_float64_bytes")
            _expect_number(cell["wall_seconds"], f"{mwhere}.wall_seconds")
            _expect(
                isinstance(cell["peak_float64_bytes"], int)
                and not isinstance(cell["peak_float64_bytes"], bool),
                f"{mwhere}.peak_float64_bytes", "expected an integer",
            )
        phases = entry.get("phases")
        _expect(isinstance(phases, dict), f"{where}.phases",
                "expected an object")
        _expect(set(phases) == set(BENCH_PHASES), f"{where}.phases",
                f"expected exactly the phases {sorted(BENCH_PHASES)}, "
                f"got {sorted(phases)}")
        for phase, cell in phases.items():
            pwhere = f"{where}.phases.{phase}"
            _expect(isinstance(cell, dict), pwhere, "expected an object")
            _expect(set(cell) == {"wall_seconds", "modeled_seconds"}, pwhere,
                    "expected wall_seconds and modeled_seconds")
            _expect_number(cell["wall_seconds"], f"{pwhere}.wall_seconds")
            _expect_number(cell["modeled_seconds"], f"{pwhere}.modeled_seconds")
        counters = entry.get("counters")
        _expect(isinstance(counters, dict), f"{where}.counters",
                "expected an object")
        for name, value in counters.items():
            _expect_number(value, f"{where}.counters.{name}")
        if entry["storage"] == ADAPTIVE_STORAGE:
            _validate_precision_block(entry.get("precision"), f"{where}.precision")
        else:
            _expect("precision" not in entry, f"{where}.precision",
                    "only adaptive entries carry a precision block")
        if "preconditioner" in entry:
            _validate_preconditioner_block(
                entry["preconditioner"], f"{where}.preconditioner"
            )


def _validate_precision_block(precision: object, where: str) -> None:
    """Validate one adaptive entry's ``precision`` block (schema v4)."""
    _expect(isinstance(precision, dict), where,
            "adaptive entries must carry a precision block")
    expected = {
        "baseline_storage", "trace", "decisions", "upshifts", "downshifts",
        "reads_by_storage", "writes_by_storage", "adaptive_basis_bytes",
        "baseline_basis_bytes", "bytes_saved_fraction", "baseline_iterations",
        "iterations_delta_fraction", "baseline_converged",
    }
    _expect(set(precision) == expected, where,
            f"unexpected precision block keys {sorted(precision)}")
    _expect(isinstance(precision["baseline_storage"], str),
            f"{where}.baseline_storage", "expected a string")
    _expect(
        isinstance(precision["trace"], list) and precision["trace"]
        and all(isinstance(s, str) for s in precision["trace"]),
        f"{where}.trace", "expected a non-empty list of storage names",
    )
    decisions = precision["decisions"]
    _expect(isinstance(decisions, list) and len(decisions) == len(precision["trace"]),
            f"{where}.decisions", "expected one decision per trace entry")
    for j, dec in enumerate(decisions):
        dwhere = f"{where}.decisions[{j}]"
        _expect(isinstance(dec, dict), dwhere, "expected an object")
        _expect(set(dec) == {"restart", "storage", "rrn", "needed_gain",
                             "reason"},
                dwhere, f"unexpected decision keys {sorted(dec)}")
        for key in ("restart",):
            _expect(isinstance(dec[key], int) and not isinstance(dec[key], bool),
                    f"{dwhere}.{key}", "expected an integer")
        for key in ("storage", "reason"):
            _expect(isinstance(dec[key], str), f"{dwhere}.{key}",
                    "expected a string")
        for key in ("rrn", "needed_gain"):
            _expect_number(dec[key], f"{dwhere}.{key}")
    for key in ("upshifts", "downshifts", "baseline_iterations"):
        _expect(
            isinstance(precision[key], int) and not isinstance(precision[key], bool),
            f"{where}.{key}", "expected an integer",
        )
    for key in ("reads_by_storage", "writes_by_storage"):
        buckets = precision[key]
        _expect(
            isinstance(buckets, dict) and buckets
            and all(
                isinstance(f, str)
                and isinstance(c, int)
                and not isinstance(c, bool)
                for f, c in buckets.items()
            ),
            f"{where}.{key}",
            "expected a non-empty {storage: count} object",
        )
    for key in ("adaptive_basis_bytes", "baseline_basis_bytes",
                "bytes_saved_fraction", "iterations_delta_fraction"):
        _expect_number(precision[key], f"{where}.{key}")
    _expect(isinstance(precision["baseline_converged"], bool),
            f"{where}.baseline_converged", "expected a boolean")


def _validate_preconditioner_block(prec: object, where: str) -> None:
    """Validate one preconditioned entry's ``preconditioner`` block (v6)."""
    _expect(isinstance(prec, dict), where, "expected an object")
    expected = {
        "name", "storage", "setup_seconds", "applies", "stored_bytes",
        "float64_bytes", "bytes_saved_fraction", "baseline_iterations",
        "baseline_converged", "iteration_ratio", "wall_speedup",
    }
    _expect(set(prec) == expected, where,
            f"unexpected preconditioner block keys {sorted(prec)}")
    _expect(
        prec["name"] in PRECONDITIONERS and prec["name"] != "none",
        f"{where}.name",
        "unpreconditioned entries must not carry a preconditioner block",
    )
    _expect(prec["storage"] in PREC_STORAGES, f"{where}.storage",
            f"expected one of {'/'.join(PREC_STORAGES)}, "
            f"got {prec['storage']!r}")
    for key in ("applies", "stored_bytes", "float64_bytes",
                "baseline_iterations"):
        _expect(
            isinstance(prec[key], int) and not isinstance(prec[key], bool),
            f"{where}.{key}", "expected an integer",
        )
    for key in ("setup_seconds", "bytes_saved_fraction", "iteration_ratio",
                "wall_speedup"):
        _expect_number(prec[key], f"{where}.{key}")
    _expect(isinstance(prec["baseline_converged"], bool),
            f"{where}.baseline_converged", "expected a boolean")


# ----------------------------------------------------------------------
# persistence + comparison
# ----------------------------------------------------------------------


def write_bench(doc: dict, path: str) -> None:
    """Validate then write a bench document as pretty-printed JSON."""
    validate_bench(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_bench(path: str) -> dict:
    """Read and validate a bench document."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    validate_bench(doc)
    return doc


@dataclass(frozen=True)
class Regression:
    """One flagged difference between two bench files."""

    matrix: str
    storage: str
    metric: str
    base: float
    new: float

    def __str__(self) -> str:
        return (
            f"{self.matrix}/{self.storage}: {self.metric} regressed "
            f"{self.base:.6g} -> {self.new:.6g}"
        )


def compare_bench(
    base: dict, new: dict, tolerance: float = 0.05
) -> List[Regression]:
    """Diff two bench documents; return the regressions beyond tolerance.

    Only deterministic metrics are compared: lost convergence, iteration
    count and modeled seconds growing by more than ``tolerance``
    (relative), and grid entries that disappeared.  Host-dependent
    wall-clock numbers are deliberately ignored.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    validate_bench(base)
    validate_bench(new)

    def _key(e: dict) -> tuple:
        # preconditioned and unpreconditioned entries for the same
        # matrix/storage cell are distinct trajectory points (v6)
        prec = e.get("preconditioner") or {}
        return (e["matrix"], e["storage"], prec.get("name", "none"))

    new_by_key: Dict[tuple, dict] = {_key(e): e for e in new["entries"]}
    regressions: List[Regression] = []
    for old in base["entries"]:
        key = _key(old)
        slabel = key[1] if key[2] == "none" else f"{key[1]}+{key[2]}"
        entry = new_by_key.get(key)
        if entry is None:
            regressions.append(
                Regression(key[0], slabel, "coverage (entry missing)", 1.0, 0.0)
            )
            continue
        if old["converged"] and not entry["converged"]:
            regressions.append(
                Regression(key[0], slabel, "converged", 1.0, 0.0)
            )
        for metric in ("iterations", "modeled_seconds"):
            before, after = float(old[metric]), float(entry[metric])
            if after > before * (1.0 + tolerance):
                regressions.append(
                    Regression(key[0], slabel, metric, before, after)
                )
    return regressions
