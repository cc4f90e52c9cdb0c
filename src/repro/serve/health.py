"""Serve health block: how the job engine behaved under load.

The bench reports track solver quality (iterations, storage traffic,
convergence); this module adds the *service* dimension: jobs accepted
vs rejected (and why), how many retried / degraded / crashed / hung,
and the p50/p95 queue wait that quantifies backpressure.  The block is
its own small schema-versioned document (``repro.serve.health`` v1)
printed by ``python -m repro serve`` and written into the soak
harness's report — a run output that depends on the host, so it is
validated (:func:`validate_serve_health`) rather than committed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional

__all__ = [
    "SERVE_HEALTH_SCHEMA",
    "SERVE_HEALTH_VERSION",
    "build_serve_health",
    "validate_serve_health",
    "write_serve_report",
]

SERVE_HEALTH_SCHEMA = "repro.serve.health"
SERVE_HEALTH_VERSION = 1

_TERMINAL_KEYS = ("done", "failed", "cancelled", "timed_out")
_REJECT_KEYS = ("queue_full", "draining", "closed")


def build_serve_health(engine) -> Dict[str, Any]:
    """Snapshot a :class:`~repro.serve.engine.SolveEngine`'s health.

    Safe to call at any point; the canonical moment is after
    :meth:`~repro.serve.engine.SolveEngine.drain`.
    """
    jobs = engine.jobs()
    states = {key: 0 for key in _TERMINAL_KEYS}
    for job in jobs:
        if job.state in states:
            states[job.state] += 1
    admission = engine.admission
    return {
        "schema": SERVE_HEALTH_SCHEMA,
        "schema_version": SERVE_HEALTH_VERSION,
        "config": {
            "workers": engine.config.workers,
            "max_queue": engine.config.max_queue,
            "max_retries": engine.config.max_retries,
            "heartbeat_timeout_s": engine.config.heartbeat_timeout_s,
        },
        "jobs": {
            "accepted": admission.accepted,
            "rejected": dict(admission.rejected),
            "rejected_total": admission.rejected_total,
            **states,
            "retried": sum(1 for j in jobs if j.retries > 0),
            "retries_total": sum(j.retries for j in jobs),
            "degraded": sum(1 for j in jobs if j.degradations > 0),
            "degradations_total": sum(j.degradations for j in jobs),
        },
        "incidents": {
            "worker_crashes": engine.crashes_observed,
            "hangs_detected": engine.hangs_detected,
            "deadline_timeouts": engine.timeouts_enforced,
        },
        "queue_wait_s": admission.wait_percentiles(),
        "bus": {
            "events_published": engine.bus.published,
            "poisoned_subscribers": engine.bus.poisoned_subscribers,
        },
    }


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(f"invalid serve health block: {message}")


def validate_serve_health(doc: Dict[str, Any]) -> None:
    """Raise :class:`ValueError` if ``doc`` is not a well-formed v1
    serve health block (same spirit as the bench schema validator)."""
    _expect(isinstance(doc, dict), "not a mapping")
    _expect(doc.get("schema") == SERVE_HEALTH_SCHEMA,
            f"schema must be {SERVE_HEALTH_SCHEMA!r}")
    _expect(doc.get("schema_version") == SERVE_HEALTH_VERSION,
            f"schema_version must be {SERVE_HEALTH_VERSION}")
    jobs = doc.get("jobs")
    _expect(isinstance(jobs, dict), "missing 'jobs' section")
    for key in ("accepted", "rejected_total", "retried", "retries_total",
                "degraded", "degradations_total", *_TERMINAL_KEYS):
        _expect(isinstance(jobs.get(key), int) and jobs[key] >= 0,
                f"jobs.{key} must be a non-negative int")
    rejected = jobs.get("rejected")
    _expect(isinstance(rejected, dict), "jobs.rejected must be a mapping")
    for key in _REJECT_KEYS:
        _expect(isinstance(rejected.get(key), int) and rejected[key] >= 0,
                f"jobs.rejected.{key} must be a non-negative int")
    _expect(sum(rejected.values()) == jobs["rejected_total"],
            "rejected_total must equal the sum of rejected reasons")
    terminal = sum(jobs[key] for key in _TERMINAL_KEYS)
    _expect(terminal == jobs["accepted"],
            f"terminal states ({terminal}) must account for every "
            f"accepted job ({jobs['accepted']})")
    incidents = doc.get("incidents")
    _expect(isinstance(incidents, dict), "missing 'incidents' section")
    for key in ("worker_crashes", "hangs_detected", "deadline_timeouts"):
        _expect(isinstance(incidents.get(key), int) and incidents[key] >= 0,
                f"incidents.{key} must be a non-negative int")
    wait = doc.get("queue_wait_s")
    _expect(isinstance(wait, dict), "missing 'queue_wait_s' section")
    for key in ("p50", "p95", "max"):
        value = wait.get(key, "absent")
        _expect(value is None or (isinstance(value, (int, float))
                                  and value >= 0),
                f"queue_wait_s.{key} must be null or a non-negative number")


def write_serve_report(
    path: str,
    health: Dict[str, Any],
    soak: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Validate ``health``, wrap it (optionally with the soak summary)
    and write JSON to ``path``; returns the written document."""
    validate_serve_health(health)
    doc: Dict[str, Any] = {"serve": health}
    if soak is not None:
        doc["soak"] = soak
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc
