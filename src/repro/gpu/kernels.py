"""Kernel cost models: bytes, flops and instructions per GPU kernel.

Each storage format is summarized by what its load/store path costs
(paper Section IV-C): stored bits per value, decompression instructions
per value (measured on the SIMT warp executor, plus a surcharge for the
straddling-layout bit gymnastics of non-power-of-two ``l``), and the
alignment class that determines achievable bandwidth.

The GMRES kernels (SpMV, basis walks and writes, vector updates) are
composed from the same primitives by :mod:`repro.gpu.timing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict

from .device import DeviceSpec

__all__ = [
    "FormatCost",
    "format_cost",
    "KernelCost",
    "read_kernel_cost",
    "spmv_kernel_cost",
    "walk_cost",
    "FORMATS",
]

#: extra per-value instructions for fields straddling 32-bit words
#: (two-word read, double shift, merge — Section IV-C optimization 3)
_UNALIGNED_SURCHARGE = 18
#: instructions per value for precision converts (cvt.f64.f32 etc.)
_CONVERT_OPS = 1


@lru_cache(maxsize=None)
def _warp_counts(bit_length: int) -> "tuple[int, int]":
    from .warp import measured_instruction_counts

    return measured_instruction_counts(bit_length)


@dataclass(frozen=True)
class FormatCost:
    """Per-value cost profile of a storage format's load/store path."""

    name: str
    stored_bits: float
    decompress_ops: float
    compress_ops: float
    aligned: bool
    #: True when reads/writes bypass the Accessor (plain float64)
    native: bool = False
    #: residual bandwidth derate: FRSZ2 streams values and block
    #: exponents from two locations (Section IV-C optimization 5), which
    #: costs a sliver of streaming efficiency — the paper measures
    #: 1991/2000 GB/s = 99.6% for frsz2_32
    bandwidth_derate: float = 1.0


def _frsz2_cost(bit_length: int, block_size: int = 32) -> FormatCost:
    comp_ops, dec_ops = _warp_counts(bit_length)
    aligned = bit_length in (8, 16, 32, 64)
    if not aligned:
        comp_ops += _UNALIGNED_SURCHARGE
        dec_ops += _UNALIGNED_SURCHARGE
    stored = (block_size * bit_length + 32) / block_size  # Eq. 3, incl. exponent
    return FormatCost(
        name=f"frsz2_{bit_length}",
        stored_bits=stored,
        decompress_ops=dec_ops,
        compress_ops=comp_ops,
        aligned=aligned,
        bandwidth_derate=0.996,
    )


def _precision_cost(name: str, bits: int, native: bool = False) -> FormatCost:
    ops = 0 if bits == 64 else _CONVERT_OPS
    return FormatCost(
        name=name,
        stored_bits=bits,
        decompress_ops=ops,
        compress_ops=ops,
        aligned=True,
        native=native,
    )


FORMATS: Dict[str, FormatCost] = {
    "float64": _precision_cost("float64", 64, native=True),
    "float32": _precision_cost("float32", 32, native=True),
    "float16": _precision_cost("float16", 16),
    "Acc<float64>": _precision_cost("Acc<float64>", 64),
    "Acc<float32>": _precision_cost("Acc<float32>", 32),
    "Acc<float16>": _precision_cost("Acc<float16>", 16),
}


def format_cost(name: str) -> FormatCost:
    """Cost profile for a storage-format name (frsz2_* computed lazily)."""
    if name in FORMATS:
        return FORMATS[name]
    if name.startswith("Acc<frsz2_") and name.endswith(">"):
        return _frsz2_cost(int(name[len("Acc<frsz2_") : -1]))
    if name.startswith("frsz2_"):
        return _frsz2_cost(int(name.split("_")[1]))
    raise KeyError(f"unknown storage format {name!r}")


@dataclass(frozen=True)
class KernelCost:
    """Resource demand of one kernel launch."""

    bytes_moved: float
    fp64_flops: float
    int_ops: float
    aligned: bool = True
    bw_derate: float = 1.0

    def time_on(self, device: DeviceSpec) -> float:
        """Predicted runtime: the roofline maximum over the three pipes.

        Memory, FP64 and INT32 pipes overlap on modern GPUs, so the
        kernel finishes when the busiest pipe drains.
        """
        eff = (
            device.streaming_efficiency
            if self.aligned
            else device.unaligned_efficiency
        ) * self.bw_derate
        mem_t = self.bytes_moved / (device.mem_bandwidth * eff)
        flop_t = self.fp64_flops / device.fp64_flops
        int_t = self.int_ops / device.int_ops
        return max(mem_t, flop_t, int_t)


def read_kernel_cost(fmt: FormatCost, n: int, arithmetic_intensity: float) -> KernelCost:
    """The Fig. 4 synthetic benchmark: stream ``n`` stored values and run
    ``arithmetic_intensity`` double-precision operations on each."""
    return KernelCost(
        bytes_moved=n * fmt.stored_bits / 8.0,
        fp64_flops=n * arithmetic_intensity,
        int_ops=n * fmt.decompress_ops,
        aligned=fmt.aligned,
        bw_derate=fmt.bandwidth_derate,
    )


def walk_cost(fmt: FormatCost, n: int, vectors: float, walks: float = 1) -> KernelCost:
    """``walks`` fused walks of a stored basis that read ``vectors``
    stored vectors of ``n`` values between them: the decompress-in-register
    walks of the Arnoldi step (two of width two) and the update's combine.

    The paper's Fig. 4 argument made concrete: every stored vector
    streams at its *compressed* width (and its coefficient as one
    double), runs 2 flops per decoded value, and pays the format's decode
    instructions in the INT pipe — where they hide under the memory
    latency ("46 spare instructions").  Each walk also streams its
    float64 operand in and out once (``2 n`` doubles: the dot only reads
    it and the combine only writes it, a vector per walk the model does
    not resolve).  The walks are priced as one launch, the roofline of
    their summed demand: every value of one format costs the same bytes,
    flops and decode instructions, so the sum is bound by the pipe that
    binds the walks, up to the operand of the shortest ones.
    """
    return KernelCost(
        bytes_moved=vectors * (n * fmt.stored_bits / 8.0 + 8) + walks * 16.0 * n,
        fp64_flops=2 * vectors * n,
        int_ops=vectors * n * fmt.decompress_ops,
        aligned=fmt.aligned,
        bw_derate=fmt.bandwidth_derate,
    )


def spmv_kernel_cost(
    n: int,
    nnz: int,
    fmt: str = "csr",
    padded_entries: "int | None" = None,
) -> KernelCost:
    """SpMV launch cost per storage format: the one SpMV traffic model.

    :class:`~repro.sparse.engine.SpmvEngine` prices its ``spmv.*``
    tracer counters with it, once per matrix, and the timing model its
    ``spmv`` phase.

    * ``csr`` streams values + column indices + row pointers and gathers
      ``x`` once per nonzero;
    * ``ell`` executes the full padded rectangle (``padded_entries``
      slots): values + indices + gather per slot, no row pointers.

    Padding shows up as real traffic and real flops — the reason the
    autotuner's rule table bounds the padding ratio before switching a
    matrix off CSR.
    """
    if fmt == "csr":
        return KernelCost(
            bytes_moved=nnz * (8 + 4) + (n + 1) * 4 + nnz * 8 + n * 8,
            fp64_flops=2 * nnz,
            int_ops=nnz,  # index arithmetic
        )
    p = int(padded_entries) if padded_entries is not None else nnz
    if fmt == "ell":
        return KernelCost(
            bytes_moved=p * (8 + 4) + p * 8 + n * 8,
            fp64_flops=2 * p,
            int_ops=p,
        )
    raise KeyError(f"unknown SpMV format {fmt!r}")
