"""Solver-wide model bench: ``python -m repro bench``.

Replays a fixed matrix × storage-format grid through the traced
CB-GMRES solver and records, for every solve, only what a machine can
reproduce byte for byte: iteration / restart / re-orthogonalisation
counts, the final RRN, the stored bits per value, the tracer's counter
snapshot, and the GPU timing model's predicted seconds
(:func:`repro.gpu.timing.solve_phases`, the quantity the paper's
Fig. 11 argues about) per phase ``spmv`` / ``preconditioner`` /
``orthogonalize`` / ``basis_read`` / ``basis_write`` / ``update`` /
``other``, which sum to the entry's ``modeled_seconds``.

Nothing here reads a clock.  Host durations are the business of
``benchmarks/perf`` (``BENCHMARK.json``), the repository's one
wall-clock instrument; this module is the model axis and the identity
gates (cached ≡ streaming, jit ≡ numpy) that ride on the same solves.

The grid is emitted as a schema-versioned ``BENCH_gmres.json`` that
records the SHA-256 of the ``repro`` sources that produced it
(:func:`source_fingerprint`), so a committed file cannot outlive the
code it describes: :func:`check_bench` refuses a document whose
fingerprint is not the checkout's.  ``compare_bench`` diffs two such
files across commits and flags regressions beyond a tolerance
(convergence lost, iteration-count or modeled-time growth).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..gpu.device import DeviceSpec, H100_PCIE
from ..gpu.timing import PHASES, solve_phases
from ..jit import dispatch as _dispatch
from ..observe import NULL_TRACER, Tracer
from ..parallel import run_grid
from ..solvers.adaptive import ADAPTIVE_STORAGE, LADDER
from ..solvers.basis import BASIS_MODES
from ..solvers.gmres import CbGmres
from ..solvers.options import SolveOptions
from ..solvers.preconditioner import PRECONDITIONERS, PREC_STORAGES
from ..solvers.problems import make_problem
from ..sparse.engine import SPMV_FORMATS, SpmvEngine
from ..sparse.suite import resolve_scale, suite_names

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "BENCH_PHASES",
    "DEFAULT_BENCH_STORAGES",
    "DEFAULT_BENCH_MATRICES",
    "DEFAULT_PREC_TIER",
    "PRECISION_BASELINE_STORAGE",
    "Regression",
    "source_fingerprint",
    "run_bench_entry",
    "run_bench",
    "validate_bench",
    "write_bench",
    "load_bench",
    "check_bench",
    "compare_bench",
]

#: schema identifier embedded in every bench file
BENCH_SCHEMA = "repro.bench.gmres"
#: bump on any incompatible change to the document layout (v8: one
#: model prices an entry — ``basis.modeled_fused_seconds`` is gone and the
#: ``precision`` block compares modeled basis seconds)
BENCH_SCHEMA_VERSION = 8
#: per-phase attribution keys (observe span names + the remainder)
BENCH_PHASES = PHASES
#: the storage grid the perf trajectory tracks (acceptance floor)
DEFAULT_BENCH_STORAGES = ("float64", "float32", "frsz2_32", "adaptive")
#: fixed-storage companion every adaptive entry's ``precision`` block
#: measures its modeled basis seconds and iteration delta against
PRECISION_BASELINE_STORAGE = "frsz2_32"
#: small-but-varied default matrix grid (fast at smoke scale)
DEFAULT_BENCH_MATRICES = ("atmosmodd", "cfd2", "lung2")
#: (matrix, storage, preconditioner, prec_storage) cells appended to the
#: default grid: ILU(0) on the two scenario stencils where
#: unpreconditioned CB-GMRES stalls at the iteration cap, plus
#: compressed block-Jacobi storage on a Table I matrix — together the
#: preconditioned trajectory the committed artifact tracks
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
    "modeled_seconds": float,
}


def source_fingerprint() -> str:
    """SHA-256 over the ``repro`` package's Python sources.

    Every ``*.py`` under the package directory, in sorted order of its
    ``/``-separated relative path, contributes that path and its bytes
    (each NUL-terminated) — so the digest moves when any source file is
    edited, added, removed or renamed, and only then.
    """
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for rel, path in sorted(
        (p.relative_to(root).as_posix(), p) for p in root.rglob("*.py")
    ):
        digest.update(rel.encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _same_solve(a, b) -> bool:
    """Exact equality of two solves: iterations, solution bits, history."""
    return bool(
        a.iterations == b.iterations
        and np.array_equal(a.x, b.x)
        and [s.rrn for s in a.history] == [s.rrn for s in b.history]
    )


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
    scale : str, default "smoke"
        Problem scale; controls the analog matrix dimension.
    target_rrn : float, optional
        Override the matrix's calibrated target.
    device : DeviceSpec
        Device model for the ``modeled_seconds`` attribution.
    storage, m, max_iter, spmv_format, basis_mode, backend,
    preconditioner, prec_storage
        The fields of :class:`~repro.solvers.options.SolveOptions`
        (accepted values there), with this module's defaults.  What
        each adds to the entry: the ``spmv`` block records the requested
        and resolved format plus the padding it costs; the basis mode
        that is *not* the primary one runs once untraced for the
        ``basis.modes`` peak-memory comparison and the
        ``bit_identical_modes`` check; a ``jit`` entry re-runs the full
        solve on numpy and raises ``ValueError`` on any bit divergence
        (a diverging grid refuses to emit a document); a preconditioned
        entry runs an untraced *unpreconditioned* companion and carries
        a ``preconditioner`` block — apply count, stored bytes vs
        float64, iteration ratio against that companion.

    Returns
    -------
    dict
        One ``entries[]`` element of the bench schema: deterministic
        solve metrics, per-phase modeled seconds, the ``spmv``
        format/padding block, the ``basis`` fused-kernel block, and the
        tracer's counter snapshot.  Top-level callable for the
        ``--jobs`` worker pool (must stay picklable).
    """
    requested_backend = str(backend)
    # resolved here so the companion solves below do not warn again
    opts = SolveOptions(
        storage=storage, m=m, max_iter=max_iter, spmv_format=spmv_format,
        basis_mode=basis_mode, backend=backend,
        preconditioner=preconditioner, prec_storage=prec_storage,
    ).resolved()
    backend = opts.backend
    problem = make_problem(matrix, scale, target_rrn=target_rrn)
    tracer = Tracer()
    engine = SpmvEngine(problem.a, format=spmv_format, backend=backend)
    engine.tracer = tracer
    solver = opts.build(engine, tracer=tracer, solver=CbGmres)
    engine_name = _dispatch.jit_engine_name() if backend == "jit" else None
    # the preconditioner is factored once from the raw CSR operator and
    # shared by every solve in the entry
    prec = solver.preconditioner if preconditioner != "none" else None
    result = solver.solve(problem.b, problem.target_rrn)
    # the operator and the preconditioner are shared with the untraced
    # companion solves below; detaching them here keeps the counter
    # snapshot scoped to the traced solve
    engine.tracer = NULL_TRACER
    if prec is not None:
        prec.tracer = NULL_TRACER

    def companion(factors=prec, **changes):
        """An untraced solve on the shared engine, ``changes`` apart;
        ``factors=None`` leaves the preconditioner to the options."""
        shared = {} if factors is None else {"preconditioner": factors}
        return replace(opts, **changes).build(
            engine, solver=CbGmres, **shared
        ).solve(problem.b, problem.target_rrn)

    modeled = solve_phases(
        result.stats, device,
        prec_info=prec.cost_info() if prec is not None else None,
    )

    padding_ratio = float(engine.padding_ratio)
    tracer.counters["spmv.padding_ratio"] = padding_ratio

    # per-mode comparison: the primary solve is its own mode's row; the
    # other basis mode runs once untraced on the same operator for its
    # peak float64 working set, and the two outputs are checked for
    # exact equality — the determinism contract of the fused kernels
    (other_mode,) = (mode for mode in BASIS_MODES if mode != basis_mode)
    other = companion(basis_mode=other_mode)
    mode_stats = {basis_mode: result.stats, other_mode: other.stats}
    bit_identical = _same_solve(result, other)

    # adaptive entries report the controller's decisions and their
    # payoff against an untraced fixed-storage companion solve on the
    # same operator: modeled basis seconds (the basis_read and
    # basis_write phases) saved and the iteration-count delta — the
    # acceptance criteria of the adaptive controller, kept per commit in
    # the trajectory file
    precision_block: Optional[dict] = None
    if storage == ADAPTIVE_STORAGE:
        fixed = companion(storage=PRECISION_BASELINE_STORAGE)
        fixed_phases = solve_phases(fixed.stats, device)
        adaptive_s, fixed_s = (
            p["basis_read"] + p["basis_write"] for p in (modeled, fixed_phases)
        )
        cycles = result.stats.cycles
        shifts = [
            LADDER.index(cur.storage) - LADDER.index(prev.storage)
            for prev, cur in zip(cycles, cycles[1:])
        ]
        precision_block = {
            "baseline_storage": PRECISION_BASELINE_STORAGE,
            "trace": [str(c.storage) for c in cycles],
            "decisions": [
                {
                    "restart": k,
                    "storage": str(c.storage),
                    "rrn": float(c.start_rrn),
                    "needed_gain": float(c.needed_gain),
                    "reason": str(c.reason),
                }
                for k, c in enumerate(cycles)
            ],
            "upshifts": sum(s > 0 for s in shifts),
            "downshifts": sum(s < 0 for s in shifts),
            "adaptive_basis_seconds": float(adaptive_s),
            "baseline_basis_seconds": float(fixed_s),
            "seconds_saved_fraction": float(
                1.0 - adaptive_s / fixed_s if fixed_s else 0.0
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
    # ratio (the convergence win).  Runs before the backend gate below,
    # which flips the shared engine's kernels to numpy.
    prec_block: Optional[dict] = None
    if prec is not None:
        base = companion(factors=None, preconditioner="none")
        info = prec.cost_info()
        prec_block = {
            "name": str(preconditioner),
            "storage": str(prec_storage),
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
        }

    # backend block.  jit entries re-run the full solve on the numpy
    # reference backend and must match bit for bit — a diverging jit
    # kernel refuses to emit rather than record the metrics of a
    # different computation.  This gate runs last because it flips the
    # shared engine's kernels to numpy in place.  The reference solve
    # rebuilds the preconditioner on the numpy backend so the gate
    # covers the triangular-solve/block-apply kernels too.
    bit_identical_numpy = True
    if backend == "jit":
        ref = companion(factors=None, backend="numpy")
        bit_identical_numpy = _same_solve(ref, result)
        if not bit_identical_numpy:
            raise ValueError(
                f"jit backend diverged from numpy on {matrix}/{storage}: "
                "refusing to emit a bench entry for a different computation"
            )
    backend_block = {
        "requested": requested_backend,
        "resolved": str(backend),
        "engine": engine_name,
        "bit_identical_numpy": bit_identical_numpy,
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
        "modeled_seconds": float(sum(modeled.values())),
        "backend": backend_block,
        "spmv": {
            "requested": str(spmv_format),
            "format": str(engine.resolved_format),
            "padding_ratio": padding_ratio,
            "padded_entries": int(engine.padded_entries),
        },
        "basis": {
            "mode": str(basis_mode),
            "tile_elems": int(result.stats.basis_tile_elems),
            "peak_float64_bytes": int(result.stats.basis_peak_float64_bytes),
            "stored_bytes_per_vector": int(
                round(result.stats.bits_per_value * result.stats.n / 8)
            ),
            "bit_identical_modes": bit_identical,
            "modes": {
                mode: {"peak_float64_bytes": int(
                    mode_stats[mode].basis_peak_float64_bytes
                )}
                for mode in BASIS_MODES
            },
        },
        "phases": {
            phase: {"modeled_seconds": float(modeled[phase])}
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
    target_rrn : float, optional
        Override the per-matrix calibrated targets.
    device : DeviceSpec
        Device model used for the ``modeled_seconds`` attribution.
    jobs : int, default 1
        Worker processes for the grid (:mod:`repro.parallel`).  Every
        cell is an independent deterministic solve, so any ``jobs``
        value produces the identical document.  ``1`` keeps the
        historical serial path.
    m, max_iter, spmv_format, basis_mode, backend, preconditioner,
    prec_storage
        :class:`~repro.solvers.options.SolveOptions` fields applied to
        every cell (see :func:`run_bench_entry`); a refused value raises
        before any cell runs.  ``auto`` SpMV selections are
        deterministic per matrix, so the resolved formats are part of
        the reproducible trajectory.  When the matrix grid is the
        default *and* no preconditioner is requested, the document
        additionally appends the ``DEFAULT_PREC_TIER`` cells — the
        preconditioned trajectory — so the acceptance-floor file always
        tracks both regimes.
    """
    scale = resolve_scale(scale)
    default_grid = matrices is None
    matrices = list(matrices) if matrices else list(DEFAULT_BENCH_MATRICES)
    storages = list(storages) if storages else list(DEFAULT_BENCH_STORAGES)
    unknown = [name for name in matrices if name not in suite_names()]
    if unknown:
        raise KeyError(
            f"unknown matrices {unknown}; suite: {', '.join(suite_names())}"
        )
    base = SolveOptions(
        m=m, max_iter=max_iter, spmv_format=spmv_format,
        basis_mode=basis_mode, backend=backend,
        preconditioner=preconditioner, prec_storage=prec_storage,
    )
    cells = [
        (matrix, replace(base, storage=storage))
        for matrix in matrices for storage in storages
    ]
    # the acceptance-floor document always carries the preconditioned
    # tier alongside the unpreconditioned grid; explicit matrix
    # selections or an explicit preconditioner opt out
    if default_grid and preconditioner == "none":
        cells += [
            (mx, replace(base, storage=st, preconditioner=pname,
                         prec_storage=pstorage))
            for mx, st, pname, pstorage in DEFAULT_PREC_TIER
        ]
    kwargs = [
        dict(matrix=matrix, scale=scale, target_rrn=target_rrn,
             device=device, **opts.to_dict())
        for matrix, opts in cells
    ]
    labels = [
        f"bench[{matrix}/{opts.storage}"
        + (f"+{opts.preconditioner}]" if opts.preconditioner != "none" else "]")
        for matrix, opts in cells
    ]
    entries = run_grid(run_bench_entry, kwargs, jobs=jobs, labels=labels)
    # grid-wide backend summary: every cell resolved identically (the
    # same process/worker environment), so the first entry's resolution
    # speaks for the grid
    backend_block = {
        "requested": str(backend),
        "resolved": entries[0]["backend"]["resolved"] if entries else str(backend),
        "engine": entries[0]["backend"]["engine"] if entries else None,
    }
    return {
        "schema": BENCH_SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION,
        "source_sha256": source_fingerprint(),
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


def _expect_int(value: object, where: str) -> None:
    _expect(isinstance(value, int) and not isinstance(value, bool),
            where, "expected an integer")


def _expect_choice(value: object, allowed: Sequence[str], where: str) -> None:
    _expect(value in allowed, where,
            f"expected one of {'/'.join(allowed)}, got {value!r}")


def validate_bench(doc: dict) -> None:
    """Validate a bench document; raises ``ValueError`` naming the field."""
    _expect(isinstance(doc, dict), "$", "document must be an object")
    _expect(doc.get("schema") == BENCH_SCHEMA, "$.schema",
            f"expected {BENCH_SCHEMA!r}, got {doc.get('schema')!r}")
    _expect(doc.get("schema_version") == BENCH_SCHEMA_VERSION,
            "$.schema_version",
            f"expected {BENCH_SCHEMA_VERSION}, got {doc.get('schema_version')!r}")
    for key in ("source_sha256", "device", "scale", "spmv_format",
                "basis_mode"):
        _expect(isinstance(doc.get(key), str), f"$.{key}", "expected a string")
    _expect(
        len(doc["source_sha256"]) == 64
        and set(doc["source_sha256"]) <= set("0123456789abcdef"),
        "$.source_sha256", "expected 64 lowercase hex digits",
    )
    _expect_choice(doc["spmv_format"], SPMV_FORMATS, "$.spmv_format")
    _expect_choice(doc["basis_mode"], BASIS_MODES, "$.basis_mode")
    _expect_choice(doc.get("preconditioner"), PRECONDITIONERS, "$.preconditioner")
    _expect_choice(doc.get("prec_storage"), PREC_STORAGES, "$.prec_storage")
    for key in ("restart", "max_iter"):
        _expect(isinstance(doc.get(key), int) and doc[key] > 0,
                f"$.{key}", "expected a positive integer")
    top_backend = doc.get("backend")
    _expect(isinstance(top_backend, dict), "$.backend",
            "expected a backend block")
    _expect(
        set(top_backend) == {"requested", "resolved", "engine"},
        "$.backend",
        f"unexpected backend block keys {sorted(top_backend)}",
    )
    for key in ("requested", "resolved"):
        _expect_choice(top_backend[key], _dispatch.BACKENDS, f"$.backend.{key}")
    _expect(
        top_backend["engine"] is None or isinstance(top_backend["engine"], str),
        "$.backend.engine", "expected a string or null",
    )
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
                _expect_int(entry[key], f"{where}.{key}")
            elif typ is bool:
                _expect(isinstance(entry[key], bool), f"{where}.{key}",
                        "expected a boolean")
            else:
                _expect(isinstance(entry[key], str), f"{where}.{key}",
                        "expected a string")
        eb = entry.get("backend")
        _expect(isinstance(eb, dict), f"{where}.backend",
                "expected a backend block")
        _expect(
            set(eb) == {"requested", "resolved", "engine",
                        "bit_identical_numpy"},
            f"{where}.backend",
            f"unexpected backend block keys {sorted(eb)}",
        )
        for key in ("requested", "resolved"):
            _expect_choice(eb[key], _dispatch.BACKENDS, f"{where}.backend.{key}")
        _expect(eb["engine"] is None or isinstance(eb["engine"], str),
                f"{where}.backend.engine", "expected a string or null")
        _expect(isinstance(eb["bit_identical_numpy"], bool),
                f"{where}.backend.bit_identical_numpy", "expected a boolean")
        _expect(eb["bit_identical_numpy"] is True,
                f"{where}.backend.bit_identical_numpy",
                "a diverging backend must never be emitted")
        spmv = entry.get("spmv")
        _expect(isinstance(spmv, dict), f"{where}.spmv", "expected an object")
        _expect(
            set(spmv) == {"requested", "format", "padding_ratio",
                          "padded_entries"},
            f"{where}.spmv",
            f"unexpected spmv block keys {sorted(spmv)}",
        )
        for key in ("requested", "format"):
            _expect(isinstance(spmv[key], str), f"{where}.spmv.{key}",
                    "expected a string")
        _expect_choice(  # a resolved format: never ``auto``
            spmv["format"], [f for f in SPMV_FORMATS if f != "auto"],
            f"{where}.spmv.format",
        )
        _expect_int(spmv["padded_entries"], f"{where}.spmv.padded_entries")
        _expect_number(spmv["padding_ratio"], f"{where}.spmv.padding_ratio")
        basis = entry.get("basis")
        _expect(isinstance(basis, dict), f"{where}.basis", "expected an object")
        _expect(
            set(basis) == {"mode", "tile_elems", "peak_float64_bytes",
                           "stored_bytes_per_vector", "bit_identical_modes",
                           "modes"},
            f"{where}.basis",
            f"unexpected basis block keys {sorted(basis)}",
        )
        _expect_choice(basis["mode"], BASIS_MODES, f"{where}.basis.mode")
        for key in ("tile_elems", "peak_float64_bytes",
                    "stored_bytes_per_vector"):
            _expect_int(basis[key], f"{where}.basis.{key}")
        _expect(isinstance(basis["bit_identical_modes"], bool),
                f"{where}.basis.bit_identical_modes", "expected a boolean")
        _expect(basis["bit_identical_modes"] is True,
                f"{where}.basis.bit_identical_modes",
                "cached and streaming basis modes diverged")
        modes = basis["modes"]
        _expect(isinstance(modes, dict), f"{where}.basis.modes",
                "expected an object")
        _expect(set(modes) == set(BASIS_MODES), f"{where}.basis.modes",
                f"expected exactly the modes {sorted(BASIS_MODES)}, "
                f"got {sorted(modes)}")
        for mode, cell in modes.items():
            mwhere = f"{where}.basis.modes.{mode}"
            _expect(isinstance(cell, dict), mwhere, "expected an object")
            _expect(set(cell) == {"peak_float64_bytes"},
                    mwhere, "expected exactly peak_float64_bytes")
            _expect_int(cell["peak_float64_bytes"], f"{mwhere}.peak_float64_bytes")
        phases = entry.get("phases")
        _expect(isinstance(phases, dict), f"{where}.phases",
                "expected an object")
        _expect(set(phases) == set(BENCH_PHASES), f"{where}.phases",
                f"expected exactly the phases {sorted(BENCH_PHASES)}, "
                f"got {sorted(phases)}")
        for phase, cell in phases.items():
            pwhere = f"{where}.phases.{phase}"
            _expect(isinstance(cell, dict), pwhere, "expected an object")
            _expect(set(cell) == {"modeled_seconds"}, pwhere,
                    "expected exactly modeled_seconds")
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
    """Validate one adaptive entry's ``precision`` block."""
    _expect(isinstance(precision, dict), where,
            "adaptive entries must carry a precision block")
    expected = {
        "baseline_storage", "trace", "decisions", "upshifts", "downshifts",
        "adaptive_basis_seconds", "baseline_basis_seconds",
        "seconds_saved_fraction", "baseline_iterations",
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
        _expect_int(dec["restart"], f"{dwhere}.restart")
        for key in ("storage", "reason"):
            _expect(isinstance(dec[key], str), f"{dwhere}.{key}",
                    "expected a string")
        for key in ("rrn", "needed_gain"):
            _expect_number(dec[key], f"{dwhere}.{key}")
    for key in ("upshifts", "downshifts", "baseline_iterations"):
        _expect_int(precision[key], f"{where}.{key}")
    for key in ("adaptive_basis_seconds", "baseline_basis_seconds",
                "seconds_saved_fraction", "iterations_delta_fraction"):
        _expect_number(precision[key], f"{where}.{key}")
    _expect(isinstance(precision["baseline_converged"], bool),
            f"{where}.baseline_converged", "expected a boolean")


def _validate_preconditioner_block(prec: object, where: str) -> None:
    """Validate one preconditioned entry's ``preconditioner`` block."""
    _expect(isinstance(prec, dict), where, "expected an object")
    expected = {
        "name", "storage", "applies", "stored_bytes", "float64_bytes",
        "bytes_saved_fraction", "baseline_iterations", "baseline_converged",
        "iteration_ratio",
    }
    _expect(set(prec) == expected, where,
            f"unexpected preconditioner block keys {sorted(prec)}")
    _expect(
        prec["name"] in PRECONDITIONERS and prec["name"] != "none",
        f"{where}.name",
        "unpreconditioned entries must not carry a preconditioner block",
    )
    _expect_choice(prec["storage"], PREC_STORAGES, f"{where}.storage")
    for key in ("applies", "stored_bytes", "float64_bytes",
                "baseline_iterations"):
        _expect_int(prec[key], f"{where}.{key}")
    for key in ("bytes_saved_fraction", "iteration_ratio"):
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


def check_bench(path: str) -> dict:
    """:func:`load_bench`, then refuse a document of some other source.

    Raises ``ValueError`` naming both digests when the document's
    ``source_sha256`` is not this checkout's :func:`source_fingerprint`:
    the file describes code that is no longer (or not yet) here, and
    must be regenerated with ``python -m repro bench``.
    """
    doc = load_bench(path)
    here = source_fingerprint()
    if doc["source_sha256"] != here:
        raise ValueError(
            f"{path} is stale: it records source_sha256 "
            f"{doc['source_sha256']} but this checkout's repro sources "
            f"hash to {here}; regenerate it with `python -m repro bench`"
        )
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
    (relative), and grid entries that disappeared.  The documents'
    ``source_sha256`` is not looked at: comparing across commits is
    the point.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    validate_bench(base)
    validate_bench(new)

    def _key(e: dict) -> tuple:
        # preconditioned and unpreconditioned entries for the same
        # matrix/storage cell are distinct trajectory points
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
