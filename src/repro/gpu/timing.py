"""End-to-end CB-GMRES timing model (paper Fig. 11).

Combines the *measured* iteration structure of a solve (the
:class:`~repro.solvers.gmres.SolveStats` work log: how many SpMVs,
basis-vector reads/writes and dense vector operations actually happened)
with the *modeled* per-kernel costs on a GPU (:mod:`repro.gpu.kernels`)
to predict the wall-clock a CUDA implementation would take — the
quantity Fig. 11 reports as speedup over float64 storage.

This split mirrors the paper's own reasoning: convergence (iterations)
comes from the numerics, runtime per iteration comes from bytes moved,
and the Krylov-basis traffic is the only term the storage format
changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence

from .device import DeviceSpec, H100_PCIE
from .kernels import (
    KernelCost,
    format_cost,
    fused_axpy_cost,
    fused_dot_cost,
    spmv_kernel_cost,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (solvers uses gpu)
    from ..solvers.gmres import GmresResult, SolveStats

__all__ = ["GmresTimingModel", "SolveTiming", "speedup_table"]


@dataclass(frozen=True)
class SolveTiming:
    """Predicted device runtime of one solve, broken down by kernel."""

    storage: str
    spmv_seconds: float
    basis_read_seconds: float
    basis_write_seconds: float
    vector_ops_seconds: float

    @property
    def total_seconds(self) -> float:
        return (
            self.spmv_seconds
            + self.basis_read_seconds
            + self.basis_write_seconds
            + self.vector_ops_seconds
        )


class GmresTimingModel:
    """Predict CB-GMRES runtime from a solve's work log."""

    def __init__(self, device: DeviceSpec = H100_PCIE) -> None:
        self.device = device

    # -- kernel building blocks ---------------------------------------

    def spmv_cost(
        self,
        n: int,
        nnz: int,
        fmt: str = "csr",
        padded_entries: "int | None" = None,
    ) -> KernelCost:
        """SpMV in the given storage format (padded layouts charge
        their padding as traffic; see
        :func:`repro.gpu.kernels.spmv_kernel_cost`)."""
        return spmv_kernel_cost(n, nnz, fmt, padded_entries)

    def basis_read_cost(self, n: int, storage: str) -> KernelCost:
        """Read one stored basis vector (dot-product side: 2 flops/value)."""
        fmt = format_cost(storage)
        return KernelCost(
            bytes_moved=n * fmt.stored_bits / 8.0,
            fp64_flops=2 * n,
            int_ops=n * fmt.decompress_ops,
            aligned=fmt.aligned,
            bw_derate=fmt.bandwidth_derate,
        )

    def basis_write_cost(self, n: int, storage: str) -> KernelCost:
        """Compress + store one basis vector (reads it in double first)."""
        fmt = format_cost(storage)
        return KernelCost(
            bytes_moved=n * 8 + n * fmt.stored_bits / 8.0,
            fp64_flops=n,
            int_ops=n * fmt.compress_ops,
            aligned=fmt.aligned,
            bw_derate=fmt.bandwidth_derate,
        )

    def dense_vector_cost(self, n: int) -> KernelCost:
        """One float64 streaming vector op (axpy/norm/copy)."""
        return KernelCost(bytes_moved=3 * n * 8, fp64_flops=2 * n, int_ops=0)

    def prec_apply_cost(self, n: int, info: Dict) -> KernelCost:
        """One ``M^-1 v`` apply from a preconditioner's ``cost_info()``.

        Streams the stored factor/block values at their *stored* width
        (``stored_bytes`` — the term the compression ladder shrinks),
        plus the float64 read of ``v`` and write of the result; each
        stored entry costs a multiply-add and, for compressed storages,
        its decode integer ops.  Triangular solves are sequential along
        rows on a GPU, but level-scheduled implementations stay
        memory-bound, so the roofline over these terms is the right
        first-order price.
        """
        fmt = format_cost(info.get("storage", "float64"))
        entries = int(info.get("entries", 0))
        return KernelCost(
            bytes_moved=float(info.get("stored_bytes", 8 * entries)) + 16.0 * n,
            fp64_flops=2 * entries,
            int_ops=entries * fmt.decompress_ops + entries,
            aligned=fmt.aligned,
            bw_derate=fmt.bandwidth_derate,
        )

    # -- end-to-end -----------------------------------------------------

    def time_stats(self, stats: "SolveStats", storage: str) -> SolveTiming:
        """Predicted runtime for a recorded work log.

        Adaptive-precision solves split their traffic by format
        (``SolveStats.reads_by_storage`` / ``writes_by_storage``): each
        format's share is priced at its own width and the scalar
        ``storage`` label (``"adaptive"``) is only cosmetic — this is
        how the bytes-moved savings of mixed-storage bases reach the
        model instead of being flattened to one width.
        """
        n = stats.n
        d = self.device
        reads_by, writes_by = self._traffic_by_storage(stats, storage)
        basis_read_s = sum(
            count * self.basis_read_cost(n, self._model_storage_name(f)).time_on(d)
            for f, count in reads_by.items()
        )
        basis_write_s = sum(
            count * self.basis_write_cost(n, self._model_storage_name(f)).time_on(d)
            for f, count in writes_by.items()
        )
        # FGMRES-style solvers stream an uncompressed V basis as well
        uncompressed = getattr(stats, "uncompressed_basis_reads", 0)
        if uncompressed:
            basis_read_s += uncompressed * self.basis_read_cost(n, "float64").time_on(d)
        spmv_fmt = getattr(stats, "spmv_format", "csr")
        spmv_padded = getattr(stats, "spmv_padded_entries", 0) or stats.nnz
        return SolveTiming(
            storage=storage,
            spmv_seconds=stats.spmv_calls
            * self.spmv_cost(n, stats.nnz, spmv_fmt, spmv_padded).time_on(d),
            basis_read_seconds=basis_read_s,
            basis_write_seconds=basis_write_s,
            vector_ops_seconds=stats.dense_vector_ops * self.dense_vector_cost(n).time_on(d),
        )

    def basis_bytes_moved(self, stats: "SolveStats", storage: str) -> float:
        """Modeled stored-basis bytes a GPU would move for this work log.

        Sums ``reads + writes`` at each format's stored width (write
        traffic includes the float64 source read, matching
        :meth:`basis_write_cost`).  Adaptive solves price each
        per-storage bucket at its own width — the quantity the bench
        ``precision`` block reports savings on.
        """
        n = stats.n
        reads_by, writes_by = self._traffic_by_storage(stats, storage)
        total = 0.0
        for f, count in reads_by.items():
            total += count * self.basis_read_cost(
                n, self._model_storage_name(f)
            ).bytes_moved
        for f, count in writes_by.items():
            total += count * self.basis_write_cost(
                n, self._model_storage_name(f)
            ).bytes_moved
        return total

    @staticmethod
    def _traffic_by_storage(stats: "SolveStats", storage: str):
        """Stored-basis ``(reads, writes)`` by format: an adaptive solve's
        split, else all of it at ``storage``."""
        return (
            stats.reads_by_storage or {storage: stats.basis_reads},
            stats.writes_by_storage or {storage: stats.basis_writes},
        )

    def phase_times(
        self,
        stats: "SolveStats",
        storage: str,
        prec_info: "Dict | None" = None,
    ) -> Dict[str, float]:
        """Predicted seconds per solver phase, keyed by the observe-layer
        span names (``spmv`` / ``orthogonalize`` / ``basis_read`` /
        ``basis_write`` / ``update`` / ``preconditioner`` / ``other``).

        The dense-vector-op budget of :meth:`time_stats` is apportioned
        by where the work log accrued it: 4 ops per Arnoldi step belong
        to the orthogonalization, 1 per restart to the solution update,
        and the remainder (the explicit-residual recomputations) to
        ``other``.  ``prec_info`` (a preconditioner's ``cost_info()``)
        prices the logged ``preconditioner_applies``; without it the
        ``preconditioner`` phase is 0, keeping the key set uniform.
        """
        t = self.time_stats(stats, self._model_storage_name(storage))
        vec = self.dense_vector_cost(stats.n).time_on(self.device)
        ortho_vec = 4 * stats.iterations * vec
        update_vec = stats.restarts * vec
        residual_vec = max(
            t.vector_ops_seconds - ortho_vec - update_vec, 0.0
        )
        prec_s = 0.0
        applies = getattr(stats, "preconditioner_applies", 0)
        if prec_info and applies:
            prec_s = applies * self.prec_apply_cost(
                stats.n, prec_info
            ).time_on(self.device)
        return {
            "spmv": t.spmv_seconds,
            "orthogonalize": ortho_vec,
            "basis_read": t.basis_read_seconds,
            "basis_write": t.basis_write_seconds,
            "update": update_vec,
            "preconditioner": prec_s,
            "other": residual_vec,
        }

    def fused_kernel_seconds(self, stats: "SolveStats", storage: str) -> float:
        """Predicted seconds of the *fused* basis kernels of a solve.

        Prices the logged fused-kernel work (``SolveStats.fused_*``)
        with :func:`~repro.gpu.kernels.fused_dot_cost` /
        :func:`~repro.gpu.kernels.fused_axpy_cost`, i.e. reading the
        basis at its compressed width instead of the float64 width the
        materialized structure streams.  Each kind is modeled as
        ``calls`` launches of an average-width (``vectors / calls``)
        kernel — the roofline is near-linear in the vector count, so the
        average-width launch is an accurate stand-in for the exact
        per-``j`` sequence.

        Adaptive solves carry per-format read buckets
        (``SolveStats.reads_by_storage``): the fused time is then the
        read-share-weighted mix of the per-format predictions, since
        every fused kernel's traffic is dominated by the stored-basis
        reads the buckets count.
        """
        reads_by = stats.reads_by_storage
        if reads_by:
            total_reads = sum(reads_by.values())
            if not total_reads:
                return 0.0
            return sum(
                count / total_reads * self._fused_seconds_at(stats, f)
                for f, count in reads_by.items()
            )
        return self._fused_seconds_at(stats, storage)

    def _fused_seconds_at(self, stats: "SolveStats", storage: str) -> float:
        """Fused-kernel prediction with the whole log priced at one format."""
        fmt = format_cost(self._model_storage_name(storage))
        n = stats.n
        d = self.device
        total = 0.0
        dot_calls = getattr(stats, "fused_dot_calls", 0)
        if dot_calls:
            avg_j = getattr(stats, "fused_dot_vectors", 0) / dot_calls
            total += dot_calls * fused_dot_cost(fmt, n, avg_j).time_on(d)
        axpy_calls = getattr(stats, "fused_axpy_calls", 0) + getattr(
            stats, "fused_combine_calls", 0
        )
        if axpy_calls:
            axpy_vectors = getattr(stats, "fused_axpy_vectors", 0) + getattr(
                stats, "fused_combine_vectors", 0
            )
            total += axpy_calls * fused_axpy_cost(
                fmt, n, axpy_vectors / axpy_calls
            ).time_on(d)
        return total

    def time_result(self, result: "GmresResult") -> SolveTiming:
        """Predicted runtime for a finished :class:`GmresResult`."""
        storage = self._model_storage_name(result.storage)
        return self.time_stats(result.stats, storage)

    @staticmethod
    def _model_storage_name(storage: str) -> str:
        """Map solver storage names onto modeled format profiles.

        Round-trip comparator formats (sz3_08, zfp_fr_32, ...) have no
        GPU implementation — the paper injects their error through
        LibPressio precisely to avoid one — so their *hypothetical*
        timing uses the stored-size-equivalent dense profile (float32
        bits as a stand-in is wrong; we charge full float64 traffic,
        matching the paper's practice of not reporting their runtime).
        """
        try:
            format_cost(storage)
            return storage
        except KeyError:
            return "float64"


def speedup_table(
    results: "Sequence[GmresResult]", device: DeviceSpec = H100_PCIE
) -> Dict[str, float]:
    """Fig. 11: speedup of each storage format over float64.

    ``results`` must contain a float64 run (the baseline); formats that
    did not converge are omitted, matching the removed bars of Fig. 11.
    """
    model = GmresTimingModel(device)
    baseline = next((r for r in results if r.storage == "float64"), None)
    if baseline is None:
        raise ValueError("speedup_table needs a float64 baseline result")
    if not baseline.converged:
        raise ValueError("the float64 baseline did not converge")
    base_t = model.time_result(baseline).total_seconds
    out: Dict[str, float] = {}
    for r in results:
        if not r.converged:
            continue
        out[r.storage] = base_t / model.time_result(r).total_seconds
    return out
