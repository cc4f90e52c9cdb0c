"""The traced pass: per-layer numbers measured from outside the program.

Each number times one public call of one package at the shapes the
workload uses (its own ``n``, ``j = 25`` stored vectors, the default tile
size).  Bandwidths are *computed* bytes (array sizes), not measured
traffic.  Every call sits in a span of the benchmark's recorder; the
solver's phase breakdown comes from one solve run with a
``repro.observe.Tracer`` passed through the public ``tracer=`` argument.
End-to-end metrics are never taken from this pass.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List

import numpy as np

from repro.accessor import make_accessor
from repro.core import FRSZ2
from repro.fused import (
    DEFAULT_TILE_ELEMS,
    BatchTileReader,
    CachedTileReader,
    StreamingTileReader,
    axpy_fused,
    dot_basis_batch,
    dot_basis_fused,
)
from repro.observe import Tracer
from repro.parallel import SupervisedPool
from repro.solvers import GivensLeastSquares, KrylovBasis, cgs_orthogonalize, make_preconditioner
from repro.sparse import SUITE, SpmvEngine

import hostinfo
from hostinfo import time_call
from spanrec import SpanRecorder
from workloads import (
    BACKEND,
    SMOKE,
    Outcome,
    SPMV_FORMAT,
    ServeSpec,
    SoloProblem,
    SoloSpec,
    run_serve,
)

#: stored basis vectors every layer call works on (half a restart cycle)
J = 25
BATCH = 4
#: the solver's span names whose self times should cover the solve wall;
#: "restart" and "arnoldi" are the loops themselves (cycle set-up and the
#: zeroing of the cached view; Givens, norms, bookkeeping)
PHASES = {
    "spmv": "spmv", "prec.apply": "prec_apply", "orthogonalize": "orthogonalize",
    "basis_read": "basis_read", "basis_write": "basis_write", "update": "update",
    "restart": "restart", "arnoldi": "arnoldi",
}


def layer_problem_spec(spec: Any) -> SoloSpec:
    """The in-process system the layer calls are sized by.

    For the serve workload that is its first job configuration (cfd2,
    frsz2_32) solved in-process, exactly what a worker executes.
    """
    if isinstance(spec, SoloSpec):
        return spec
    matrix, storage = spec.groups[0]
    entry = SUITE[matrix]
    dims = dict(entry.dims[spec.scale])
    grid = (dims.pop("nx"), dims.pop("ny"), dims.pop("nz"))
    return SoloSpec(entry.builder.__name__, grid, dims, storage, "cached", spec.m,
                    spec.max_iter, entry.target_for(spec.scale), None, 1, 5)


def _pool_roundtrip(pool: SupervisedPool) -> float:
    t0 = time.perf_counter()
    task = pool.submit(os.getpid, {})
    while not task.terminal:
        pool.poll(timeout=1.0)
    if task.state != "done":
        raise RuntimeError(f"no-op pool task ended {task.state}")
    return time.perf_counter() - t0


def run_layers(workload: str, spec: Any, seed: int, seconds: float,
               calibrate: hostinfo.Calibrator, jit_load_s: float,
               rec: SpanRecorder) -> Dict[str, Any]:
    budget = seconds / 50.0
    outcome = Outcome()
    out: Dict[str, float] = {}
    notes: Dict[str, Any] = {}

    def timed(name: str, fn: Callable[[], Any], **kw: Any) -> float:
        """Median wall of ``fn`` inside a benchmark span."""
        with rec.span(name):
            return statistics.median(time_call(fn, budget, **kw))

    with rec.span("workload", workload=workload, seed=seed):
        solo = layer_problem_spec(spec)
        with rec.span("workload.setup"):
            problem = SoloProblem(solo, seed)
        a, n, m = problem.a, problem.a.shape[0], solo.m
        j = min(J, m)
        tile = DEFAULT_TILE_ELEMS
        rng = np.random.default_rng(abs(seed))
        vectors = rng.standard_normal((n, j))
        vectors /= np.linalg.norm(vectors, axis=0)
        w = problem.b / np.linalg.norm(problem.b)
        coeff = rng.standard_normal(j)
        vec_bytes = 8 * n

        # -- host ---------------------------------------------------------
        with rec.span("host.calibrate"):
            mark = len(calibrate.samples)
            for _ in range(5):
                calibrate()
            calib_s = calibrate.median_since(mark)
            triad_s = statistics.median(calibrate.triad_samples[mark:])
        llc = hostinfo.llc_bytes()
        array_bytes = 3 * hostinfo.CALIB_ARRAY_BYTES
        out["host.calib_s"] = calib_s
        out["host.triad_gbps"] = hostinfo.triad_gbps(triad_s)
        out["host.llc_bytes"] = llc
        out["host.calib_array_bytes"] = array_bytes
        out["host.calib_over_llc"] = array_bytes / llc if llc else 0.0
        notes["triad_is_dram_bandwidth"] = bool(llc) and array_bytes >= 4 * llc
        cache = np.zeros((n, m + 1), order="F")
        cache[:, :j] = vectors
        gemv_s = timed("host.gemv", lambda: cache[:, :j].T @ w)
        out["host.gemv_gbps"] = j * vec_bytes / gemv_s / 1e9

        # -- core ---------------------------------------------------------
        codec = FRSZ2(32, backend=BACKEND)
        comps = [codec.compress(vectors[:, k]) for k in range(j)]
        buf = np.empty(n)
        tile_blocks = range(min(tile, n) // codec.block_size)
        tile_values = len(tile_blocks) * codec.block_size
        out["core.encode_gbps"] = vec_bytes / timed(
            "core.compress", lambda: codec.compress(w)) / 1e9
        decode_s = timed("core.decompress", lambda: codec.decompress(comps[0], out=buf))
        out["core.decode_gbps"] = vec_bytes / decode_s / 1e9
        out["core.decode_tiles_gbps"] = 8 * j * tile_values / timed(
            "core.decompress_blocks_batch",
            lambda: codec.decompress_blocks_batch(comps, tile_blocks)) / 1e9
        out["core.encode_batch_gbps"] = BATCH * vec_bytes / timed(
            "core.compress_batch", lambda: codec.compress_batch([w] * BATCH)) / 1e9

        # -- accessor -----------------------------------------------------
        accessors = [make_accessor("frsz2_32", n, backend=BACKEND) for _ in range(j)]
        for k, acc in enumerate(accessors):
            acc.write(vectors[:, k])
        out["accessor.write_s"] = timed("accessor.write", lambda: accessors[0].write(vectors[:, 0]))
        out["accessor.read_tile_s"] = timed(
            "accessor.read_tile", lambda: accessors[0].read_tile(0, min(tile, n)))
        out["accessor.bits_per_value"] = accessors[0].bits_per_value
        out["accessor.stored_bytes_per_vector"] = accessors[0].stored_nbytes()

        # -- fused --------------------------------------------------------
        cached = CachedTileReader(cache, j)
        streaming = StreamingTileReader(accessors, j)
        scratch = w.copy()
        basis_bytes = j * vec_bytes
        dot_cached_s = timed("fused.dot_basis_fused[cached]",
                             lambda: dot_basis_fused(cached, w, tile))
        out["fused.dot_cached_gbps"] = basis_bytes / dot_cached_s / 1e9
        out["fused.dot_cached_over_gemv"] = dot_cached_s / gemv_s
        out["fused.axpy_cached_gbps"] = basis_bytes / timed(
            "fused.axpy_fused[cached]", lambda: axpy_fused(cached, coeff, scratch, tile)) / 1e9
        out["fused.dot_streaming_gbps"] = basis_bytes / timed(
            "fused.dot_basis_fused[streaming]",
            lambda: dot_basis_fused(streaming, w, tile)) / 1e9
        out["fused.axpy_streaming_gbps"] = basis_bytes / timed(
            "fused.axpy_fused[streaming]",
            lambda: axpy_fused(streaming, coeff, scratch, tile)) / 1e9
        block = np.asfortranarray(np.tile(w[:, None], (1, BATCH)))
        batch_reader = BatchTileReader([cached] * BATCH)
        out["fused.batch_dot_gbps"] = BATCH * basis_bytes / timed(
            "fused.dot_basis_batch",
            lambda: dot_basis_batch(batch_reader, block, range(BATCH), tile)) / 1e9

        # -- sparse -------------------------------------------------------
        out["sparse.convert_s"] = timed(
            "sparse.SpmvEngine", lambda: SpmvEngine(a, format=SPMV_FORMAT, backend=BACKEND),
            min_reps=1, warm=False)
        engine = problem.engine
        spmv_s = timed("sparse.matvec", lambda: engine.matvec(w, out=buf))
        out["sparse.spmv_gflops"] = 2 * a.nnz / spmv_s / 1e9
        out["sparse.spmv_over_triad"] = spmv_s / triad_s
        out["sparse.padding_ratio"] = engine.padding_ratio
        out["sparse.matmat_gflops"] = 2 * a.nnz * BATCH / timed(
            "sparse.matmat", lambda: engine.matmat(block)) / 1e9
        notes["spmv_format"] = engine.resolved_format

        # -- solvers: preconditioner, orthogonalisation, Givens -------------
        with rec.span("solvers.make_preconditioner"):
            t0 = time.perf_counter()
            prec = make_preconditioner("ilu0", a, storage="frsz2_32", backend=BACKEND)
            out["solvers.prec_setup_s"] = time.perf_counter() - t0
        apply_s = timed("solvers.prec.apply", lambda: prec.apply(w))
        out["solvers.prec_apply_s"] = apply_s
        out["solvers.prec_apply_gbps"] = (prec.cost_info()["stored_bytes"] + 16 * n) / apply_s / 1e9
        del prec
        basis = KrylovBasis(n, m, solo.storage, basis_mode=solo.basis_mode, backend=BACKEND)
        for k in range(j):
            basis.write_vector(k, vectors[:, k])
        out["solvers.orthogonalize_s"] = timed(
            "solvers.cgs_orthogonalize", lambda: cgs_orthogonalize(basis, j, w))
        del basis
        columns = [rng.standard_normal(k + 1) for k in range(j)]
        givens_s: List[float] = []
        with rec.span("solvers.GivensLeastSquares.append_column"):
            for _ in range(25):
                ls = GivensLeastSquares(m, 1.0)
                for col in columns[:-1]:
                    ls.append_column(col, 1.0)
                t0 = time.perf_counter()
                ls.append_column(columns[-1], 1.0)
                givens_s.append(time.perf_counter() - t0)
        out["solvers.givens_update_us"] = statistics.median(givens_s) * 1e6
        del cache, accessors, comps, vectors

        # -- solvers: whole solves, untraced then traced --------------------
        def solves(label: str, solver, count: int) -> List[Any]:
            done = []
            for _ in range(count):
                with rec.span(label) as span:
                    done.append(problem.timed_solve(solver))
                    span.args["wall_s"] = done[-1][0]
                outcome.check_solve(label, problem.check, problem.b, done[-1][1].x,
                                    done[-1][1].converged, solo.target_rrn)
            return done

        runs = solves("solvers.solve", problem.solver, 4)
        solve_s = statistics.median(wall for wall, _ in runs[1:])
        stats = runs[0][1].stats
        out["solvers.solve_s"] = solve_s
        out["solvers.first_solve_extra_s"] = runs[0][0] - solve_s
        out["solvers.restarts"] = stats.restarts
        out["solvers.reorthogonalizations"] = stats.reorthogonalizations
        out["fused.tile_visits"] = stats.fused_tiles
        f64_runs = solves("solvers.solve[float64]", problem.baseline(), 3)
        out["fig11.compressed_over_f64"] = solve_s / statistics.median(
            wall for wall, _ in f64_runs[1:])

        # three traced solves, medians per phase: one solve's restart self
        # time alone swings between 0.02 and 0.6 s on prec_ilu0
        tracer = Tracer()
        traced_solver = problem.make_solver(solo.storage, solo.basis_mode, tracer=tracer)
        traced_walls: List[float] = []
        phase_s: Dict[str, List[float]] = {key: [] for key in PHASES.values()}
        uncovered: List[float] = []
        for _ in range(3):
            with rec.span("solvers.solve[traced]") as traced_span:
                traced_s, traced = problem.timed_solve(traced_solver)
            outcome.check_solve("traced solve", problem.check, problem.b, traced.x,
                                traced.converged, solo.target_rrn)
            rec.graft(traced_span, tracer.spans)
            tracer.reset()
            self_s = rec.self_seconds(under=traced_span)
            for span_name, key in PHASES.items():
                phase_s[key].append(self_s.get(span_name, 0.0))
            traced_walls.append(traced_s)
            uncovered.append(max(traced_s - sum(self_s.get(name, 0.0) for name in PHASES), 0.0))
        for key, samples in phase_s.items():
            out[f"solvers.phase.{key}_s"] = statistics.median(samples)
        out["solvers.phase.other_s"] = statistics.median(uncovered)
        out["solvers.phase.coverage"] = statistics.median(
            1 - lost / wall for lost, wall in zip(uncovered, traced_walls))
        out["observe.trace_overhead"] = statistics.median(traced_walls) / solve_s
        notes["iterations"] = runs[0][1].iterations

        # -- jit ------------------------------------------------------------
        out["jit.load_s"] = jit_load_s
        cold_cache = hostinfo.BUILD_DIR / f"jit_cold_{os.getpid()}"
        try:
            with rec.span("jit.load_engine[cold]"):
                out["jit.cold_build_s"] = hostinfo.probe_import(
                    {"REPRO_JIT_CACHE": str(cold_cache)})[1]
        finally:
            shutil.rmtree(cold_cache, ignore_errors=True)
        reference = FRSZ2(32, backend="numpy")
        comp = codec.compress(w)
        out["jit.decode_speedup"] = timed(
            "core.decompress[numpy]", lambda: reference.decompress(comp, out=buf)
        ) / timed("core.decompress[jit]", lambda: codec.decompress(comp, out=buf))

        # -- serve / parallel -------------------------------------------------
        with rec.span("parallel.SupervisedPool"):
            t0 = time.perf_counter()
            with SupervisedPool(2) as pool:
                _pool_roundtrip(pool)
                out["parallel.spawn_s"] = time.perf_counter() - t0
                out["parallel.roundtrip_ms"] = 1e3 * statistics.median(
                    _pool_roundtrip(pool) for _ in range(25))
        # the serve workload traces its own mix; the others probe the
        # engine with the smallest mix so the column is never empty
        serve_spec = spec if isinstance(spec, ServeSpec) else SMOKE["serve_multirhs"]
        with rec.span("serve.closed_loop"):
            served = run_serve(serve_spec, seed, seconds / 3.0, calibrate, traced=True)
        out.update(served["layers"])
        outcome.merge(served["outcome"])
        notes["serve_probe"] = {"scale": serve_spec.scale, **served["notes"]}

    return {"metrics": out, "notes": notes, "outcome": outcome}
