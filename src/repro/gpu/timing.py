"""End-to-end CB-GMRES timing model (paper Fig. 11): one price per solve.

:func:`solve_phases` combines the *measured* work of a solve — the
:class:`~repro.solvers.gmres.SolveStats` log and, per restart cycle, the
walks its Arnoldi steps and its update made over the basis and the
vectors it wrote (:class:`~repro.solvers.adaptive.CycleRecord`) — with
the *modeled* per-kernel costs on a GPU (:mod:`repro.gpu.kernels`), phase
by phase under the tracer's span names.  A solve's modeled time is the
sum of its phases, so no part is priced above the whole, and
:func:`speedup_table` — the quantity Fig. 11 reports — divides two such
sums.

This split mirrors the paper's own reasoning, shared with CB-GMRES
(Aliaga et al.): convergence (iterations) comes from the numerics,
runtime per iteration from bytes moved, and the Krylov-basis traffic is
the only term the storage format changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence

from .device import DeviceSpec, H100_PCIE
from .kernels import FormatCost, KernelCost, format_cost, spmv_kernel_cost, walk_cost

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (solvers uses gpu)
    from ..solvers.gmres import GmresResult, SolveStats

__all__ = ["PHASES", "solve_phases", "speedup_table"]

#: the priced phases: the observe layer's span names plus the remainder
PHASES = (
    "spmv",
    "preconditioner",
    "orthogonalize",
    "basis_read",
    "basis_write",
    "update",
    "other",
)


def _format(storage: str, formats: Optional[Mapping[str, FormatCost]]) -> FormatCost:
    """The cost profile a storage name is priced at.

    Round-trip comparator formats (sz3_08, zfp_fr_32, ...) have no GPU
    implementation — the paper injects their error through LibPressio
    precisely to avoid one — so they are charged full float64 traffic,
    matching the paper's practice of not reporting their runtime.
    """
    if formats and storage in formats:
        return formats[storage]
    try:
        return format_cost(storage)
    except KeyError:
        return format_cost("float64")


def solve_phases(
    stats: "SolveStats",
    device: DeviceSpec = H100_PCIE,
    prec_info: Optional[Dict] = None,
    formats: Optional[Mapping[str, FormatCost]] = None,
) -> Dict[str, float]:
    """Predicted device seconds of one solve, per phase of :data:`PHASES`.

    * ``basis_read``: the walks each cycle record counts — its Arnoldi
      steps' (two per step over ``k`` stored vectors, ``k`` vectors each,
      and two for the close of its last column) at the storage the steps
      walk, and its update's
      one walk and its one-vector direction reads at the cycle's
      storage — as one :func:`walk_cost` launch per storage;
    * ``basis_write``: each record's writes, compressed from float64 at
      the cycle's storage, and its step writes at the storage the steps
      walk;
    * ``spmv``: every logged product in the engine's layout;
    * ``preconditioner``: the logged applies, priced from ``prec_info``
      (a preconditioner's ``cost_info()``; without it the phase is 0);
    * ``orthogonalize`` / ``update`` / ``other``: the float64 vector
      operations around the walks — four per Arnoldi step (the copy, the
      norms, the normalisation), one per solution update, the rest (the
      explicit residuals).

    ``formats`` replaces the catalog's cost profile of the storage names
    it holds (an ablation's codec parameters).
    """
    n = stats.n
    walked: Dict[str, list] = {}
    written: Dict[str, int] = {}
    for c in stats.cycles:
        stepped = c.step_storage or c.storage
        steps = walked.setdefault(stepped, [0, 0])
        steps[0] += c.step_walks
        steps[1] += c.step_vectors
        if c.update_vectors or c.direction_reads:
            stored = walked.setdefault(c.storage, [0, 0])
            stored[0] += (c.update_vectors > 0) + c.direction_reads
            stored[1] += c.update_vectors + c.direction_reads
        written[c.storage] = written.get(c.storage, 0) + c.basis_writes
        if c.step_writes:
            written[stepped] = written.get(stepped, 0) + c.step_writes

    def seconds(cost: KernelCost) -> float:
        return cost.time_on(device)

    def write_cost(fmt: FormatCost) -> KernelCost:
        # reads the float64 vector, stores it compressed
        return KernelCost(
            bytes_moved=n * 8 + n * fmt.stored_bits / 8.0,
            fp64_flops=n,
            int_ops=n * fmt.compress_ops,
            aligned=fmt.aligned,
            bw_derate=fmt.bandwidth_derate,
        )

    # one float64 streaming vector op (copy / norm / axpy)
    vec = seconds(KernelCost(bytes_moved=3 * n * 8, fp64_flops=2 * n, int_ops=0))
    ortho = 4 * stats.iterations * vec
    update = stats.restarts * vec
    prec = 0.0
    if prec_info and stats.preconditioner_applies:
        # the stored factor values at their stored width, plus the float64
        # operand in and the result out; a multiply-add and the decode per
        # entry (level-scheduled triangular solves stay memory-bound)
        fmt = format_cost(prec_info.get("storage", "float64"))
        entries = int(prec_info.get("entries", 0))
        prec = stats.preconditioner_applies * seconds(KernelCost(
            bytes_moved=float(prec_info.get("stored_bytes", 8 * entries)) + 16.0 * n,
            fp64_flops=2 * entries,
            int_ops=entries * fmt.decompress_ops + entries,
            aligned=fmt.aligned,
            bw_derate=fmt.bandwidth_derate,
        ))
    return {
        "spmv": stats.spmv_calls * seconds(spmv_kernel_cost(
            n, stats.nnz, stats.spmv_format, stats.spmv_padded_entries or stats.nnz
        )),
        "preconditioner": prec,
        "orthogonalize": ortho,
        "basis_read": sum(
            seconds(walk_cost(_format(f, formats), n, vectors, walks))
            for f, (walks, vectors) in walked.items()
        ),
        "basis_write": sum(
            count * seconds(write_cost(_format(f, formats)))
            for f, count in written.items()
        ),
        "update": update,
        "other": max(stats.dense_vector_ops * vec - ortho - update, 0.0),
    }


def speedup_table(
    results: "Sequence[GmresResult]", device: DeviceSpec = H100_PCIE
) -> Dict[str, float]:
    """Fig. 11: modeled speedup of each result's solve over the float64
    one, keyed by its ``storage`` label; each solve's time is the sum of
    its :func:`solve_phases`.

    ``results`` must contain a converged float64 run (the baseline);
    formats that did not converge are omitted, matching the removed bars
    of Fig. 11.
    """
    baseline = next((r for r in results if r.storage == "float64"), None)
    if baseline is None:
        raise ValueError("speedup_table needs a float64 baseline result")
    if not baseline.converged:
        raise ValueError("the float64 baseline did not converge")

    def total(r: "GmresResult") -> float:
        return sum(solve_phases(r.stats, device).values())

    base_t = total(baseline)
    return {r.storage: base_t / total(r) for r in results if r.converged}
