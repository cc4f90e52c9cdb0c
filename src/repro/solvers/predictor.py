"""Storage-format prediction — the paper's future-work feature (§VIII).

"We need an accurate, robust, and fast method to predict when an
application will benefit from FRSZ2 compared to mixed-precision
methods... features such as the condition number, value distribution,
exponent distribution, and even autotuned methods that detect and
observe the convergence per unit time of several candidate methods."

This module implements both ingredients the paper sketches:

* **static features** of the initial residual and matrix — the
  per-block exponent spread (FRSZ2's failure mode: blocks whose shared
  e_max wipes out small members) and the dynamic range relative to
  float16's representable window;
* **speculative probing** — run one short restart cycle per candidate
  format, divide the observed residual reduction by the *modeled* cycle
  time on the target device, and pick the best convergence per second,
  "applied just before the first restart".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.ieee754 import effective_biased_exponent, significand53, to_bits
from ..fused import norm2
from ..gpu.device import DeviceSpec, H100_PCIE
from ..gpu.timing import GmresTimingModel
from ..sparse.csr import CSRMatrix
from .gmres import CbGmres

__all__ = [
    "BasisRiskFeatures",
    "FormatRecommendation",
    "exponent_spread_features",
    "predict_format",
]

#: candidate formats ranked by the predictor, best storage first
DEFAULT_CANDIDATES = ("frsz2_32", "float32", "float16", "float64")

#: block exponent spread (binades) beyond which an frsz2_32 field loses
#: every significand bit (l - 2 = 30)
_FRSZ2_KILL_SPREAD = 30
#: relative magnitude below which float16 cannot represent a value next
#: to O(1) neighbours (subnormal floor ~ 2^-24)
_FLOAT16_FLOOR = 2.0 ** -24


@dataclass(frozen=True)
class BasisRiskFeatures:
    """Static features of a prospective Krylov vector."""

    #: fraction of BS-blocks whose exponent spread zeroes frsz2 members
    frsz2_kill_fraction: float
    #: fraction of values float16 flushes to (near) zero after scaling
    float16_loss_fraction: float
    #: number of distinct exponents covering 90% of the values
    exponent_concentration: int


def exponent_spread_features(v: np.ndarray, block_size: int = 32) -> BasisRiskFeatures:
    """Compute the exponent-distribution features of one vector."""
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    if n == 0:
        return BasisRiskFeatures(0.0, 0.0, 0)
    bits = to_bits(np.abs(v))
    e = effective_biased_exponent(bits).astype(np.int64)
    nonzero = significand53(bits) != 0
    nb = -(-n // block_size)
    pad_e = np.full(nb * block_size, np.iinfo(np.int64).min)
    pad_e[:n] = np.where(nonzero, e, np.iinfo(np.int64).min)
    eb = pad_e.reshape(nb, block_size)
    emax = eb.max(axis=1)
    # a block member is killed when emax - e > l-2
    killed = (emax[:, None] - eb > _FRSZ2_KILL_SPREAD) & (eb > np.iinfo(np.int64).min)
    kill_frac = float(killed.any(axis=1).mean())
    scale = np.abs(v).max()
    if scale > 0:
        f16_loss = float(np.mean((np.abs(v) < scale * _FLOAT16_FLOOR) & (v != 0)))
    else:
        f16_loss = 0.0
    vals, counts = np.unique(e[nonzero], return_counts=True)
    order = np.argsort(counts)[::-1]
    cum = np.cumsum(counts[order]) / max(counts.sum(), 1)
    concentration = int(np.searchsorted(cum, 0.9) + 1) if vals.size else 0
    return BasisRiskFeatures(
        frsz2_kill_fraction=kill_frac,
        float16_loss_fraction=f16_loss,
        exponent_concentration=concentration,
    )


@dataclass
class FormatRecommendation:
    """Outcome of the prediction."""

    storage: str
    features: BasisRiskFeatures
    #: convergence-per-modeled-second score per probed candidate
    probe_scores: Dict[str, float] = field(default_factory=dict)
    #: candidates rejected by the static features, with reasons
    rejected: Dict[str, str] = field(default_factory=dict)


def predict_format(
    a: CSRMatrix,
    b: np.ndarray,
    candidates: Sequence[str] = DEFAULT_CANDIDATES,
    device: DeviceSpec = H100_PCIE,
    probe_iterations: int = 30,
    target_rrn: float = 0.0,
    kill_threshold: float = 0.05,
    f16_threshold: float = 0.01,
) -> FormatRecommendation:
    """Recommend a Krylov-basis storage format for ``A x = b``.

    Static screening first: formats whose failure signature appears in
    the initial residual are dropped.  The survivors are probed with one
    short cycle each (``probe_iterations``), and the winner maximizes
    observed residual reduction per modeled device second — the paper's
    "convergence per unit time of several candidate methods".
    """
    b = np.ascontiguousarray(b, dtype=np.float64)
    bnorm = norm2(b)
    if bnorm == 0.0:
        feats = exponent_spread_features(b)
        return FormatRecommendation(storage="float64", features=feats)
    v0 = b / bnorm
    feats = exponent_spread_features(v0)

    rejected: Dict[str, str] = {}
    survivors = []
    for fmt in candidates:
        if fmt.startswith("frsz2") and feats.frsz2_kill_fraction > kill_threshold:
            rejected[fmt] = (
                f"{feats.frsz2_kill_fraction:.0%} of blocks mix exponents "
                f"beyond {_FRSZ2_KILL_SPREAD} binades"
            )
        elif fmt == "float16" and feats.float16_loss_fraction > f16_threshold:
            rejected[fmt] = (
                f"{feats.float16_loss_fraction:.0%} of values fall below "
                "float16's relative range"
            )
        else:
            survivors.append(fmt)
    if not survivors:
        survivors = ["float64"]

    model = GmresTimingModel(device)
    scores: Dict[str, float] = {}
    for fmt in survivors:
        solver = CbGmres(
            a, fmt, m=probe_iterations, max_iter=probe_iterations, stall_restarts=None
        )
        res = solver.solve(b, target_rrn=target_rrn, record_history=False)
        reduction = -math.log10(max(res.final_rrn, 1e-300))
        seconds = model.time_result(res).total_seconds
        scores[fmt] = reduction / seconds if seconds > 0 else 0.0

    best = max(scores, key=scores.get)
    return FormatRecommendation(
        storage=best, features=feats, probe_scores=scores, rejected=rejected
    )
