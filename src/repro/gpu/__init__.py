"""H100 performance-model substrate.

Replaces the hardware the paper measures on (repro substitution, see
DESIGN.md): a device catalog with published H100/A100 envelopes, a
warp-level SIMT executor that runs the FRSZ2 kernels with instruction
accounting, roofline kernel models (Fig. 4) and the end-to-end CB-GMRES
timing model (Fig. 11).
"""

from .device import A100_SXM, DEVICES, H100_PCIE, DeviceSpec
from .kernels import (
    FORMATS,
    FormatCost,
    KernelCost,
    format_cost,
    read_kernel_cost,
    spmv_kernel_cost,
    walk_cost,
)
from .roofline import (
    DEFAULT_FORMATS,
    DEFAULT_INTENSITIES,
    RooflinePoint,
    SpmvRooflinePoint,
    achieved_bandwidth,
    bandwidth_efficiency,
    cuszp2_bandwidth_range,
    frsz2_vs_cuszp2_speedup,
    roofline_series,
    spmv_roofline,
)
from .timing import PHASES, solve_phases, speedup_table
from .warp import Warp, WarpKernelReport, warp_compress_block, warp_decompress_block

__all__ = [
    "DeviceSpec",
    "H100_PCIE",
    "A100_SXM",
    "DEVICES",
    "FormatCost",
    "KernelCost",
    "FORMATS",
    "format_cost",
    "read_kernel_cost",
    "spmv_kernel_cost",
    "walk_cost",
    "RooflinePoint",
    "SpmvRooflinePoint",
    "DEFAULT_FORMATS",
    "DEFAULT_INTENSITIES",
    "roofline_series",
    "spmv_roofline",
    "achieved_bandwidth",
    "bandwidth_efficiency",
    "cuszp2_bandwidth_range",
    "frsz2_vs_cuszp2_speedup",
    "PHASES",
    "solve_phases",
    "speedup_table",
    "Warp",
    "WarpKernelReport",
    "warp_compress_block",
    "warp_decompress_block",
]
