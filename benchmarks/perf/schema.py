"""Names, units, directions and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repo root is the contract the driver reads; this
module is the same information in the form the harness uses, plus what the
contract has no key for: which end-to-end metric, on which workload, each
layer metric is expected to move (written down before measuring — see
README, "Layer -> end-to-end").  ``test_harness.py`` holds the two equal.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: workload name -> one-line reason it exists
WORKLOADS: Dict[str, str] = {
    "basis_large": (
        "orthogonalisation-dominated atmosmodd n=110592: cached fused tile "
        "kernels and FRSZ2 encode lead; the float64 twin bypasses the codec"
    ),
    "stream_lowmem": (
        "streaming basis n=13824: every tile is decoded from compressed "
        "payloads, basis_read nearly all of wall; cached tile slicing is bypassed"
    ),
    "prec_ilu0": (
        "aniso_jump n=262144 with compressed ILU(0): 18 iterations, the "
        "sequential trisolve leads and set-up is three times one solve"
    ),
    "serve_multirhs": (
        "closed loop of 2 clients sending 4-RHS groups to a 2-worker engine: "
        "small cache-resident solves, so queueing, batching and per-call "
        "overhead lead and the fused kernels do little"
    ),
}


class EndToEnd(NamedTuple):
    unit: str
    better: str
    bound: float
    definition: str


END_TO_END: Dict[str, EndToEnd] = {
    "solve_rel": EndToEnd(
        "calib", "lower", 0.25,
        "median host-normalised wall of one request served by the "
        "compressed-storage solver (one solve; serve: one 4-RHS group)",
    ),
    "solve_f64_rel": EndToEnd(
        "calib", "lower", 0.25,
        "same for the float64 baseline on the same A and b",
    ),
    "throughput_rel": EndToEnd(
        "1/calib", "higher", 0.25,
        "solves completed per calibration unit of measured wall, both "
        "solvers (serve: 32 jobs per round, median over kept rounds)",
    ),
    "setup_s": EndToEnd(
        "s", "lower", 0.25,
        "import + warm jit-engine load (median of 3 fresh interpreters) + "
        "median in-process rebuild of everything needed before the first "
        "solve, host-normalised and scaled to a 40 ms calibration",
    ),
    "iterations": EndToEnd(
        "count", "lower", 0.02,
        "iterations to target of the compressed-storage solver "
        "(serve: mean per kept job)",
    ),
    "peak_rss_mb": EndToEnd(
        "MiB", "lower", 0.10,
        "ru_maxrss of the workload process (serve: largest of client and workers)",
    ),
}


class Layer(NamedTuple):
    unit: str
    better: str
    #: (end-to-end metric, workload) pairs this number should move; on
    #: every other workload the prediction is "no change"
    moves: Tuple[Tuple[str, str], ...]
    definition: str


_ALL = tuple(WORKLOADS)
_SOLO = ("basis_large", "stream_lowmem", "prec_ilu0")


def _on(metric: str, *workloads: str) -> Tuple[Tuple[str, str], ...]:
    return tuple((metric, w) for w in workloads)


PER_LAYER: Dict[str, Layer] = {
    # -- host: benchmark-owned calibration, moves nothing in the program
    "host.calib_s": Layer("s", "lower", (), "median wall of one calibration burst (4 triad passes + 3300 tile products)"),
    "host.triad_gbps": Layer("GB/s", "higher", (), "computed triad bytes / wall of the triad half of the calibration"),
    "host.gemv_gbps": Layer("GB/s", "higher", (), "computed bytes of V[:j] @ w through BLAS at the workload's n"),
    "host.llc_bytes": Layer("B", "higher", (), "last-level cache size from sysfs"),
    "host.calib_array_bytes": Layer("B", "higher", (), "bytes of the three calibration arrays together"),
    "host.calib_over_llc": Layer("ratio", "higher", (), "calibration bytes / LLC bytes; below 4 the triad figure is not DRAM bandwidth"),
    # -- core: the FRSZ2 codec
    "core.encode_gbps": Layer("GB/s", "higher", _on("solve_rel", "basis_large"), "FRSZ2.compress, l=32, float64 bytes in / wall"),
    "core.decode_gbps": Layer("GB/s", "higher", _on("solve_rel", "basis_large"), "FRSZ2.decompress (mirror refresh after each write)"),
    "core.decode_tiles_gbps": Layer("GB/s", "higher", _on("solve_rel", "stream_lowmem"), "decompress_blocks_batch, j vectors x one tile, float64 bytes out / wall"),
    "core.encode_batch_gbps": Layer("GB/s", "higher", _on("throughput_rel", "serve_multirhs"), "compress_batch, B=4"),
    # -- accessor
    "accessor.write_s": Layer("s", "lower", _on("solve_rel", "basis_large"), "Frsz2Accessor.write of one vector"),
    "accessor.read_tile_s": Layer("s", "lower", _on("solve_rel", "stream_lowmem"), "Frsz2Accessor.read_tile of one tile"),
    "accessor.bits_per_value": Layer("bit", "lower", _on("peak_rss_mb", "stream_lowmem"), "stored bits per basis value"),
    "accessor.stored_bytes_per_vector": Layer("B", "lower", _on("peak_rss_mb", "stream_lowmem"), "stored bytes of one basis vector"),
    # -- fused tile kernels
    "fused.dot_cached_gbps": Layer("GB/s", "higher", _on("solve_rel", "basis_large", "prec_ilu0") + _on("solve_f64_rel", "basis_large"), "dot_basis_fused over CachedTileReader, j x n float64 bytes / wall"),
    "fused.axpy_cached_gbps": Layer("GB/s", "higher", _on("solve_rel", "basis_large", "prec_ilu0") + _on("solve_f64_rel", "basis_large"), "axpy_fused over CachedTileReader"),
    "fused.dot_cached_over_gemv": Layer("ratio", "lower", _on("solve_rel", "basis_large"), "fused cached dot wall / one BLAS GEMV on the same data: what the tile loop costs"),
    "fused.dot_streaming_gbps": Layer("GB/s", "higher", _on("solve_rel", "stream_lowmem"), "dot_basis_fused over StreamingTileReader, decoded float64 bytes / wall"),
    "fused.axpy_streaming_gbps": Layer("GB/s", "higher", _on("solve_rel", "stream_lowmem"), "axpy_fused over StreamingTileReader"),
    "fused.batch_dot_gbps": Layer("GB/s", "higher", _on("throughput_rel", "serve_multirhs"), "dot_basis_batch, B=4 cached readers"),
    "fused.tile_visits": Layer("count", "lower", _on("solve_rel", "basis_large", "stream_lowmem"), "SolveStats.fused_tiles of one solve"),
    # -- sparse
    "sparse.spmv_gflops": Layer("GFLOP/s", "higher", _on("solve_rel", "prec_ilu0", "basis_large"), "2 nnz / wall of SpmvEngine.matvec in the resolved format"),
    "sparse.spmv_over_triad": Layer("ratio", "lower", _on("solve_rel", "prec_ilu0", "basis_large"), "one SpMV wall / wall of the 4 triad passes"),
    "sparse.padding_ratio": Layer("ratio", "lower", _on("solve_rel", "prec_ilu0"), "stored slots per nonzero of the resolved format"),
    "sparse.convert_s": Layer("s", "lower", _on("setup_s", *_ALL), "SpmvEngine(A, format='auto') construction"),
    "sparse.matmat_gflops": Layer("GFLOP/s", "higher", _on("throughput_rel", "serve_multirhs"), "2 nnz B / wall of matmat, B=4"),
    # -- solvers
    "solvers.prec_setup_s": Layer("s", "lower", _on("setup_s", "prec_ilu0"), "ILU(0) factorisation, frsz2_32 factor storage"),
    "solvers.prec_apply_s": Layer("s", "lower", _on("solve_rel", "prec_ilu0"), "one ILU(0) apply (two triangular sweeps)"),
    "solvers.prec_apply_gbps": Layer("GB/s", "higher", _on("solve_rel", "prec_ilu0"), "(stored factor bytes + 16 n) / apply wall"),
    "solvers.orthogonalize_s": Layer("s", "lower", _on("solve_rel", "basis_large"), "cgs_orthogonalize through a KrylovBasis at depth j"),
    "solvers.givens_update_us": Layer("us", "lower", _on("solve_rel", "serve_multirhs"), "GivensLeastSquares.append_column at column j"),
    "solvers.restarts": Layer("count", "lower", _on("iterations", *_SOLO), "restart cycles of one solve"),
    "solvers.reorthogonalizations": Layer("count", "lower", _on("iterations", *_SOLO), "second Gram-Schmidt passes of one solve"),
    "solvers.solve_s": Layer("s", "lower", _on("solve_rel", *_SOLO), "raw median wall of the untraced solve in this pass"),
    "solvers.first_solve_extra_s": Layer("s", "lower", _on("setup_s", *_SOLO), "first solve wall - median: lazy set-up hiding in the first call"),
    "solvers.phase.spmv_s": Layer("s", "lower", _on("solve_rel", "prec_ilu0", "basis_large"), "self time of spmv spans in one traced solve"),
    "solvers.phase.prec_apply_s": Layer("s", "lower", _on("solve_rel", "prec_ilu0"), "self time of prec.apply spans"),
    "solvers.phase.orthogonalize_s": Layer("s", "lower", _on("solve_rel", "basis_large"), "self time of orthogonalize spans (basis reads excluded)"),
    "solvers.phase.basis_read_s": Layer("s", "lower", _on("solve_rel", "basis_large", "stream_lowmem"), "self time of basis_read spans"),
    "solvers.phase.basis_write_s": Layer("s", "lower", _on("solve_rel", "basis_large"), "self time of basis_write spans"),
    "solvers.phase.update_s": Layer("s", "lower", _on("solve_rel", *_SOLO), "self time of update spans"),
    "solvers.phase.restart_s": Layer("s", "lower", _on("solve_rel", "prec_ilu0", "basis_large"), "self time of restart spans: cycle set-up, zeroing the cached view"),
    "solvers.phase.arnoldi_s": Layer("s", "lower", _on("solve_rel", "serve_multirhs"), "self time of arnoldi spans: Givens, norms, bookkeeping"),
    "solvers.phase.other_s": Layer("s", "lower", _on("solve_rel", *_SOLO), "traced solve wall not covered by the eight named phases"),
    "solvers.phase.coverage": Layer("ratio", "higher", (), "share of the traced solve wall the eight named phases cover"),
    # -- jit
    "jit.load_s": Layer("s", "lower", _on("setup_s", *_ALL), "engine load + self-test from a warm cache, fresh interpreter"),
    "jit.cold_build_s": Layer("s", "lower", (), "engine load with an empty REPRO_JIT_CACHE (compiles the C kernels)"),
    "jit.decode_speedup": Layer("ratio", "higher", _on("solve_rel", "stream_lowmem"), "numpy decode wall / jit decode wall of one vector"),
    # -- serve / parallel
    "serve.queue_wait_p50_s": Layer("s", "lower", _on("solve_rel", "serve_multirhs"), "admission -> first dispatch, median"),
    "serve.queue_wait_p90_s": Layer("s", "lower", _on("solve_rel", "serve_multirhs"), "same, p90"),
    "serve.overhead_p50_s": Layer("s", "lower", _on("solve_rel", "serve_multirhs"), "job latency - the worker payload's wall_seconds, median"),
    "serve.jobs_per_s": Layer("1/s", "higher", _on("throughput_rel", "serve_multirhs"), "32 jobs / round wall, raw, median over kept rounds"),
    "serve.job_latency_p50_s": Layer("s", "lower", _on("solve_rel", "serve_multirhs"), "job finished - submitted, raw median"),
    "serve.job_latency_p90_s": Layer("s", "lower", _on("solve_rel", "serve_multirhs"), "job finished - submitted, p90"),
    "serve.batch_fill": Layer("ratio", "higher", _on("throughput_rel", "serve_multirhs"), "batched_jobs / batches_dispatched"),
    "serve.worker_busy_ratio": Layer("ratio", "higher", _on("throughput_rel", "serve_multirhs"), "summed attempt seconds / (workers x loop wall)"),
    "serve.rejected": Layer("count", "lower", _on("throughput_rel", "serve_multirhs"), "submissions refused by admission"),
    "serve.retries": Layer("count", "lower", _on("solve_rel", "serve_multirhs"), "attempts beyond the first"),
    "parallel.roundtrip_ms": Layer("ms", "lower", _on("solve_rel", "serve_multirhs"), "no-op SupervisedPool task, submit -> done"),
    "parallel.spawn_s": Layer("s", "lower", _on("setup_s", "serve_multirhs"), "SupervisedPool(2) construction -> first no-op done"),
    # -- observe
    "observe.trace_overhead": Layer("ratio", "lower", (), "traced / untraced solve wall"),
    # -- derived (a ratio is not gated: speeding both solvers equally would raise it)
    "fig11.compressed_over_f64": Layer("ratio", "lower", (), "compressed-storage solve wall / float64 baseline wall, same run"),
}


def contract() -> Dict[str, List[Dict[str, object]]]:
    """The three metric/workload lists exactly as BENCHMARK.json holds them."""
    return {
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": m.unit, "better": m.better, "bound": m.bound}
            for n, m in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": m.unit, "better": m.better}
            for n, m in PER_LAYER.items()
        ],
    }
