"""Fault tolerance for CB-GMRES: injection, recovery, and fallback.

The compressed-basis argument of the paper is an accuracy/robustness
trade; this subsystem makes the robustness side measurable and then
closes it:

faults
    Seeded, deterministic injectors — FRSZ2 payload/exponent bit flips,
    accessor round-trip corruption, NaN/Inf in SpMV outputs, serialized
    container bit flips and truncation.
fallback
    :class:`RobustCbGmres`: the requested storage escalated on stall or
    recovery exhaustion along :func:`repro.solvers.adaptive.escalation`,
    with uncompressed float64 as the correctness-guaranteeing terminal.
campaign
    A survival-rate sweep over fault kind × storage format × rate,
    rendered with :mod:`repro.bench.report`.
chaos
    Seeded *process-level* failure plans (worker crash / hang /
    slowdown / in-process error) plus delegation to the data-level
    injectors — the fault model of the :mod:`repro.serve` job engine
    and its soak harness.

Solver-side breakdown *detection* (non-finite Arnoldi quantities, loss
of orthogonality) lives in :mod:`repro.solvers`; this package builds the
injection and escalation machinery on top of it.
"""

from .chaos import (
    CHAOS_KINDS,
    PROCESS_CHAOS_KINDS,
    ChaosError,
    ChaosSpec,
    chaos_monitor,
)
from .campaign import (
    DEFAULT_FAULTS,
    DEFAULT_RATES,
    DEFAULT_STORAGES,
    SURVIVING_OUTCOMES,
    CampaignCell,
    CampaignResult,
    run_campaign,
)
from .fallback import RobustCbGmres, RobustResult
from .faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultyAccessor,
    FaultySpmvMatrix,
    fault_hooks,
    flip_array_bit,
    flip_container_bit,
    flip_exponent_bit,
    flip_payload_bit,
    truncate_container,
)

__all__ = [
    "CHAOS_KINDS",
    "PROCESS_CHAOS_KINDS",
    "ChaosError",
    "ChaosSpec",
    "chaos_monitor",
    "DEFAULT_FAULTS",
    "DEFAULT_RATES",
    "DEFAULT_STORAGES",
    "SURVIVING_OUTCOMES",
    "CampaignCell",
    "CampaignResult",
    "run_campaign",
    "RobustCbGmres",
    "RobustResult",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultyAccessor",
    "FaultySpmvMatrix",
    "fault_hooks",
    "flip_array_bit",
    "flip_container_bit",
    "flip_exponent_bit",
    "flip_payload_bit",
    "truncate_container",
]
