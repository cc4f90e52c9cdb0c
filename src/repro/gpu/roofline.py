"""Roofline study of the storage formats (paper Fig. 4).

Reproduces the synthetic benchmark of Section IV-C: a kernel reads 2^28
consecutive stored values and executes a configurable number of
double-precision operations per value; 27 arithmetic-intensity settings
sweep the kernel from bandwidth-bound to compute-bound.  The paper's
observations this model reproduces:

* the Accessor is a zero-cost abstraction (``Acc<float64>`` == native
  ``float64`` while memory-bound);
* ``frsz2_16`` is fastest per value but not 2x float32 and loses its
  edge as intensity grows;
* ``frsz2_32`` sits just below ``Acc<float32>`` (33 vs 32 stored
  bits/value) and reaches ~99.6% of achievable bandwidth;
* ``frsz2_21`` matches ``frsz2_32`` despite 33% less data — the
  straddling-access and index-computation overhead eats the savings.

A cuSZp2 model entry carries the paper's published throughputs (Section
III-B: 1241 GB/s best case, ~500 GB/s typical on an A100) scaled to the
target device, supporting the paper's claim 4 (1.2-3.1x slower than
FRSZ2 at the roofline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .device import A100_SXM, DeviceSpec, H100_PCIE
from .kernels import FormatCost, format_cost, read_kernel_cost, spmv_kernel_cost

__all__ = [
    "DEFAULT_FORMATS",
    "DEFAULT_INTENSITIES",
    "RooflinePoint",
    "SpmvRooflinePoint",
    "roofline_series",
    "spmv_roofline",
    "achieved_bandwidth",
    "bandwidth_efficiency",
    "cuszp2_bandwidth_range",
    "frsz2_vs_cuszp2_speedup",
]

#: the formats Fig. 4 plots
DEFAULT_FORMATS = (
    "float64",
    "float32",
    "Acc<float64>",
    "Acc<float32>",
    "Acc<frsz2_16>",
    "Acc<frsz2_21>",
    "Acc<frsz2_32>",
)

#: 27 arithmetic-intensity settings (paper Section IV-C)
DEFAULT_INTENSITIES = tuple(float(v) for v in np.unique(np.round(np.logspace(0, 3, 27))))

#: paper Section IV-C array size: 2^28 elements
DEFAULT_N = 2**28


@dataclass(frozen=True)
class RooflinePoint:
    """One (format, intensity) sample of the Fig. 4 study."""

    storage: str
    arithmetic_intensity: float
    gflops: float
    values_per_second: float
    seconds: float


def roofline_series(
    device: DeviceSpec = H100_PCIE,
    formats: Sequence[str] = DEFAULT_FORMATS,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    n: int = DEFAULT_N,
) -> Dict[str, List[RooflinePoint]]:
    """Predicted Fig. 4 performance curves."""
    out: Dict[str, List[RooflinePoint]] = {}
    for name in formats:
        fmt = format_cost(name)
        series = []
        for k in intensities:
            t = read_kernel_cost(fmt, n, k).time_on(device)
            series.append(
                RooflinePoint(
                    storage=name,
                    arithmetic_intensity=k,
                    gflops=n * k / t / 1e9,
                    values_per_second=n / t,
                    seconds=t,
                )
            )
        out[name] = series
    return out


@dataclass(frozen=True)
class SpmvRooflinePoint:
    """Modeled per-matvec cost of one SpMV storage format on a matrix."""

    format: str
    bytes_moved: float
    flops: float
    padded_entries: int
    padding_ratio: float
    seconds: float
    effective_gbps: float


def spmv_roofline(a, device: DeviceSpec = H100_PCIE) -> Dict[str, SpmvRooflinePoint]:
    """Per-format SpMV roofline for a concrete matrix.

    Models one matvec of ``a`` (a :class:`~repro.sparse.csr.CSRMatrix`)
    in each of the engine's storage formats, charging padded layouts
    their padding traffic — the quantity the autotuner's rule table
    trades against the padded kernels' regular access pattern.  The
    ``auto`` entry duplicates whichever format
    :func:`~repro.sparse.engine.choose_format` selects.
    """
    from ..sparse.engine import choose_format

    n, nnz = a.shape[0], a.nnz
    padded = {"csr": nnz, "ell": n * int(np.diff(a.indptr).max(initial=0))}
    out: Dict[str, SpmvRooflinePoint] = {}
    for fmt, p in padded.items():
        cost = spmv_kernel_cost(n, nnz, fmt, p)
        t = cost.time_on(device)
        out[fmt] = SpmvRooflinePoint(
            format=fmt,
            bytes_moved=cost.bytes_moved,
            flops=cost.fp64_flops,
            padded_entries=p,
            padding_ratio=p / nnz if nnz else 1.0,
            seconds=t,
            effective_gbps=cost.bytes_moved / t / 1e9 if t else 0.0,
        )
    out["auto"] = out[choose_format(a)]
    return out


def achieved_bandwidth(storage: str, device: DeviceSpec = H100_PCIE, n: int = DEFAULT_N) -> float:
    """Stored-payload bandwidth (bytes/s) at minimal arithmetic intensity."""
    fmt = format_cost(storage)
    t = read_kernel_cost(fmt, n, 1.0).time_on(device)
    return n * fmt.stored_bits / 8.0 / t


def bandwidth_efficiency(storage: str, device: DeviceSpec = H100_PCIE) -> float:
    """Fraction of the *reachable* streaming bandwidth the format attains.

    The paper reports 99.6% for frsz2_32 (1991 of ~2000 GB/s reachable).
    """
    reachable = device.mem_bandwidth * device.streaming_efficiency
    return achieved_bandwidth(storage, device) / reachable


def cuszp2_bandwidth_range(device: DeviceSpec = H100_PCIE) -> "tuple[float, float]":
    """cuSZp2 decompression bandwidth (typical, best) scaled to ``device``.

    The paper quotes 1241 GB/s best-case and ~500 GB/s typical on an
    A100 (Section III-B); we scale by peak-bandwidth ratio.
    """
    scale = device.mem_bandwidth / A100_SXM.mem_bandwidth
    return 500e9 * scale, 1241e9 * scale


def frsz2_vs_cuszp2_speedup(device: DeviceSpec = H100_PCIE) -> "tuple[float, float]":
    """(best-case, worst-case for cuSZp2) FRSZ2 throughput advantage.

    Supports the paper's claim of being 1.2~3.1x faster than the next
    fastest compressor at the roofline.
    """
    frsz2 = achieved_bandwidth("Acc<frsz2_32>", device)
    typical, best = cuszp2_bandwidth_range(device)
    return frsz2 / best, frsz2 / typical
