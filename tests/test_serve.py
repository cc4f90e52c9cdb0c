"""Tests for the solver-as-a-service job engine (`repro.serve`).

The robustness contract under test: bounded admission with explicit
reject-with-reason, validated lifecycle transitions, per-job deadlines
and heartbeat hang detection that *reclaim the worker*, bounded retry
with backoff and storage degradation, cooperative cancellation, drain
semantics, per-job state isolation, and — throughout — that a served
job's numbers are bit-identical to a direct in-process solve.
"""

import threading
import time

import numpy as np
import pytest

from repro.observe import ScopedTracer, Tracer
from repro.robust.chaos import CHAOS_EXIT_CODE, ChaosError, ChaosSpec, chaos_monitor
from repro.serve import (
    ClosedError,
    DrainingError,
    IllegalTransition,
    IsolationError,
    JobRecord,
    JobSpec,
    JobState,
    ProgressBus,
    QueueFullError,
    ServeConfig,
    SolveEngine,
    build_serve_health,
    run_solve_job,
    validate_serve_health,
)
from repro.serve.queue import AdmissionController
from repro.serve.worker import _leak_state_for_tests

MATRIX = "cfd2"

#: a chaos plan that keeps a worker busy "forever" (hang at iteration 2)
HANG = ChaosSpec("worker_hang", at_iteration=2).to_dict()


def _spec(**kw):
    kw.setdefault("matrix", MATRIX)
    kw.setdefault("storage", "frsz2_32")
    kw.setdefault("progress_every", 5)
    return JobSpec(**kw)


def _config(**kw):
    kw.setdefault("workers", 2)
    kw.setdefault("backoff_base_s", 0.02)
    kw.setdefault("backoff_cap_s", 0.2)
    kw.setdefault("heartbeat_timeout_s", 10.0)
    return ServeConfig(**kw)


# -- state machine ------------------------------------------------------


class TestJobStateMachine:
    def test_happy_path(self):
        job = JobRecord(job_id="j", spec=_spec())
        job.transition(JobState.RUNNING)
        job.transition(JobState.RETRY_WAIT)
        job.transition(JobState.QUEUED)
        job.transition(JobState.RUNNING)
        job.transition(JobState.DONE)
        assert job.terminal and job.finished.is_set()

    def test_illegal_transitions_raise(self):
        job = JobRecord(job_id="j", spec=_spec())
        with pytest.raises(IllegalTransition):
            job.transition(JobState.DONE)  # QUEUED -> DONE skips RUNNING
        job.transition(JobState.CANCELLED)
        for state in JobState.ALL:
            with pytest.raises(IllegalTransition):
                job.transition(state)  # terminal states are absorbing

    def test_spec_roundtrip(self):
        spec = _spec(deadline_s=1.5, chaos=HANG, rhs_seed=7)
        assert JobSpec.from_dict(spec.to_dict()) == spec


# -- admission / backpressure ------------------------------------------


class TestAdmission:
    def test_reject_reasons_counted(self):
        adm = AdmissionController(max_queue=1)
        adm.admit(0, False, False)
        with pytest.raises(QueueFullError):
            adm.admit(1, False, False)
        with pytest.raises(DrainingError):
            adm.admit(0, True, False)
        with pytest.raises(ClosedError):
            adm.admit(0, True, True)  # closed wins over draining
        assert adm.accepted == 1
        assert adm.rejected == {"queue_full": 1, "draining": 1, "closed": 1}
        assert adm.rejected_total == 3

    def test_wait_percentiles_empty(self):
        adm = AdmissionController(max_queue=4)
        assert adm.wait_percentiles() == {"p50": None, "p95": None, "max": None}
        adm.record_queue_wait(0.1)
        adm.record_queue_wait(0.3)
        waits = adm.wait_percentiles()
        assert waits["p50"] == pytest.approx(0.2)
        assert waits["max"] == pytest.approx(0.3)


# -- progress bus -------------------------------------------------------


class TestProgressBus:
    def test_filtered_delivery_and_replay(self):
        bus = ProgressBus()
        all_events, one_job = [], []
        bus.subscribe(all_events.append)
        bus.subscribe(one_job.append, job_id="a")
        bus.publish("a", "state", {"state": "queued"})
        bus.publish("b", "state", {"state": "queued"})
        assert [e.job_id for e in all_events] == ["a", "b"]
        assert [e.job_id for e in one_job] == ["a"]
        assert [e.kind for e in bus.events("a")] == ["state"]
        assert all_events[0].seq < all_events[1].seq

    def test_poisoned_subscriber_detached(self):
        bus = ProgressBus()
        good = []

        def bad(_event):
            raise RuntimeError("subscriber bug")

        bus.subscribe(bad)
        bus.subscribe(good.append)
        bus.publish("a", "state")
        bus.publish("a", "state")
        assert len(good) == 2
        assert bus.poisoned_subscribers == 1
        assert bus.subscriber_count == 1

    def test_flush_closes_streams(self):
        bus = ProgressBus()
        events = []
        bus.subscribe(events.append)
        bus.publish("a", "progress")
        bus.flush(["a"])
        bus.flush(["a"])  # idempotent
        kinds = [(e.job_id, e.kind) for e in events]
        assert kinds == [("a", "progress"), ("a", "stream_closed"),
                         (None, "stream_closed")]
        assert bus.closed


# -- scoped tracer ------------------------------------------------------


class TestScopedTracer:
    def test_prefixed_counts_and_spans(self):
        base = Tracer()
        scope = ScopedTracer(base, "serve").scope("job.j1")
        scope.count("retries")
        with scope.span("solve"):
            pass
        assert base.counters["serve.job.j1.retries"] == 1
        assert scope.counters == {"retries": 1}
        assert base.total_seconds("serve.job.j1.solve") >= 0.0


# -- worker isolation ---------------------------------------------------


class TestWorkerIsolation:
    def test_leaked_state_detected(self):
        _leak_state_for_tests("ghost-job")
        try:
            with pytest.raises(IsolationError):
                run_solve_job(_spec().to_dict(), "next-job", 1, "frsz2_32")
        finally:
            from repro.serve import worker
            worker._ACTIVE_JOB = None

    def test_sequential_jobs_leave_no_state(self):
        first = run_solve_job(_spec().to_dict(), "j1", 1, "frsz2_32")
        second = run_solve_job(_spec().to_dict(), "j2", 1, "frsz2_32")
        assert np.array_equal(first["x"], second["x"])
        assert first["iterations"] == second["iterations"]


# -- engine lifecycle ---------------------------------------------------


class TestEngine:
    def test_clean_jobs_bit_identical_to_direct_solve(self):
        with SolveEngine(_config()) as engine:
            jobs = [engine.submit(_spec(rhs_seed=i)) for i in range(3)]
            assert engine.drain(timeout=60)
        direct = [
            run_solve_job(_spec(rhs_seed=i).to_dict(), "ref", 1, "frsz2_32")
            for i in range(3)
        ]
        for job, ref in zip(jobs, direct):
            assert job.state == JobState.DONE
            assert np.array_equal(job.result["x"], ref["x"])
            assert job.result["iterations"] == ref["iterations"]
            assert job.result["final_rrn"] == ref["final_rrn"]

    def test_backpressure_rejects_with_reason(self):
        config = _config(workers=1, max_queue=1)
        with SolveEngine(config) as engine:
            running = engine.submit(_spec(chaos=HANG, max_retries=0))
            time.sleep(0.3)  # let it start so it occupies the worker
            queued = engine.submit(_spec())
            with pytest.raises(QueueFullError) as excinfo:
                engine.submit(_spec())
            assert excinfo.value.reason == "queue_full"
            assert engine.cancel(queued.job_id)
            assert engine.cancel(running.job_id)
        assert engine.admission.rejected["queue_full"] == 1

    def test_submit_after_close_rejected(self):
        engine = SolveEngine(_config())
        engine.close()
        with pytest.raises(ClosedError):
            engine.submit(_spec())

    def test_crash_retried_with_backoff_and_degradation(self):
        crash = ChaosSpec("worker_crash", at_iteration=3).to_dict()
        states = []
        with SolveEngine(_config()) as engine:
            engine.subscribe(
                lambda e: states.append(e.payload) if e.kind == "state" else None
            )
            chaotic = engine.submit(_spec(storage="frsz2_16", chaos=crash))
            clean = engine.submit(_spec())
            assert engine.drain(timeout=60)
        assert chaotic.state == JobState.DONE
        assert chaotic.retries == 1
        assert [a.outcome for a in chaotic.attempts] == ["crashed", "done"]
        assert [a.storage for a in chaotic.attempts] == ["frsz2_16", "frsz2_32"]
        assert chaotic.degradations == 1
        assert f"exit code {CHAOS_EXIT_CODE}" in chaotic.attempts[0].error
        retry_states = [s for s in states if s.get("state") == JobState.RETRY_WAIT]
        assert retry_states and retry_states[0]["retry_in_s"] > 0
        # the crash never touched the unrelated job
        assert clean.state == JobState.DONE and clean.retries == 0
        assert engine.crashes_observed == 1

    def test_solve_error_retried(self):
        error = ChaosSpec("solve_error", at_iteration=3).to_dict()
        with SolveEngine(_config()) as engine:
            job = engine.submit(_spec(chaos=error))
            assert engine.drain(timeout=60)
        assert job.state == JobState.DONE
        assert [a.outcome for a in job.attempts] == ["error", "done"]
        assert "ChaosError" in job.attempts[0].error

    def test_retry_budget_exhausted_fails(self):
        # only_attempt=None = persistent fault: every attempt errors
        persistent = ChaosSpec(
            "solve_error", at_iteration=3, only_attempt=None
        ).to_dict()
        with SolveEngine(_config(max_retries=1)) as engine:
            job = engine.submit(_spec(chaos=persistent))
            assert engine.drain(timeout=60)
        assert job.state == JobState.FAILED
        assert len(job.attempts) == 2
        assert "retry budget 1 exhausted" in job.reason

    def test_hang_detected_and_worker_reclaimed(self):
        config = _config(workers=1, heartbeat_timeout_s=0.5)
        with SolveEngine(config) as engine:
            hung = engine.submit(_spec(chaos=HANG))
            assert engine.drain(timeout=60)
            assert engine.hangs_detected == 1
        assert hung.state == JobState.DONE  # retry (unarmed) succeeded
        assert [a.outcome for a in hung.attempts] == ["hung", "done"]

    def test_deadline_times_out_then_worker_serves_cleanly(self):
        # heartbeat generous, deadline tight: the hang must be ended by
        # the deadline, and the reclaimed worker must serve the next
        # job with bit-identical results
        config = _config(workers=1, heartbeat_timeout_s=30.0)
        with SolveEngine(config) as engine:
            hung = engine.submit(_spec(chaos=HANG, deadline_s=0.5))
            assert hung.wait(timeout=30)
            follow_up = engine.submit(_spec())
            assert engine.drain(timeout=60)
            assert engine.timeouts_enforced == 1
        assert hung.state == JobState.TIMED_OUT
        assert "deadline" in hung.reason
        assert follow_up.state == JobState.DONE
        reference = run_solve_job(_spec().to_dict(), "ref", 1, "frsz2_32")
        assert np.array_equal(follow_up.result["x"], reference["x"])

    def test_cancel_queued_job_immediate(self):
        config = _config(workers=1)
        with SolveEngine(config) as engine:
            engine.submit(_spec(chaos=HANG, max_retries=0, deadline_s=5.0))
            queued = engine.submit(_spec())
            assert engine.cancel(queued.job_id)
            assert queued.state == JobState.CANCELLED
            assert not engine.cancel(queued.job_id)  # already terminal
            engine.close(force=True)

    def test_cancel_running_hang_killed_after_grace(self):
        # a worker stuck in a syscall never reaches the cooperative
        # cancellation point, so the grace timeout must kill it
        config = _config(workers=1, heartbeat_timeout_s=30.0,
                         cancel_grace_s=0.3)
        with SolveEngine(config) as engine:
            hung = engine.submit(_spec(chaos=HANG))
            time.sleep(0.5)  # let it start and hang
            assert engine.cancel(hung.job_id)
            assert hung.wait(timeout=30)
            assert hung.state == JobState.CANCELLED
            # the worker slot is usable again
            follow_up = engine.submit(_spec())
            assert engine.drain(timeout=60)
        assert follow_up.state == JobState.DONE

    def test_drain_timeout_then_draining_rejects(self):
        config = _config(workers=1, heartbeat_timeout_s=30.0)
        with SolveEngine(config) as engine:
            engine.submit(_spec(chaos=HANG, deadline_s=10.0))
            time.sleep(0.2)
            assert not engine.drain(timeout=0.3)  # hang outlives timeout
            with pytest.raises(DrainingError):
                engine.submit(_spec())
            engine.close(force=True)

    def test_drain_flushes_streams(self):
        events = []
        with SolveEngine(_config()) as engine:
            engine.subscribe(events.append)
            job = engine.submit(_spec())
            assert engine.drain(timeout=60)
        closed = [e for e in events if e.kind == "stream_closed"]
        assert {e.job_id for e in closed} == {job.job_id, None}
        assert engine.bus.closed

    def test_close_force_cancels_everything(self):
        config = _config(workers=1, heartbeat_timeout_s=30.0)
        engine = SolveEngine(config)
        running = engine.submit(_spec(chaos=HANG))
        queued = engine.submit(_spec())
        time.sleep(0.3)
        engine.close(force=True)
        assert running.state == JobState.CANCELLED
        assert queued.state == JobState.CANCELLED
        assert "engine closed" in running.reason

    def test_progress_events_stream_residuals(self):
        progress = []
        with SolveEngine(_config()) as engine:
            engine.subscribe(
                lambda e: progress.append(e.payload) if e.kind == "progress" else None
            )
            job = engine.submit(_spec(progress_every=5))
            assert engine.drain(timeout=60)
        assert job.result["progress_events"] == len(progress) > 0
        for payload in progress:
            assert payload["implicit_rrn"] >= 0
            assert "spmv" in payload["phase_seconds"]

    def test_health_block_validates(self):
        with SolveEngine(_config()) as engine:
            engine.submit(_spec())
            assert engine.drain(timeout=60)
            health = build_serve_health(engine)
        validate_serve_health(health)
        assert health["jobs"]["accepted"] == health["jobs"]["done"] == 1
        broken = dict(health, schema_version=99)
        with pytest.raises(ValueError):
            validate_serve_health(broken)


# -- batch coalescing ---------------------------------------------------


class TestCoalescing:
    """Opt-in multi-RHS coalescing (``ServeConfig(coalesce=True)``)."""

    @staticmethod
    def _occupy_and_queue(engine, nrhs, **spec):
        """Fill the single worker with a hang, queue ``nrhs`` batchable
        jobs behind it, then cancel the hang so the freed dispatch slot
        gathers the queued peers into one batch."""
        hang = engine.submit(_spec(chaos=HANG, max_retries=0))
        time.sleep(0.4)  # let the hang start and occupy the worker
        jobs = [engine.submit(_spec(rhs_seed=i, **spec)) for i in range(nrhs)]
        assert all(j.state == JobState.QUEUED for j in jobs)
        engine.cancel(hang.job_id)
        return jobs

    def test_coalesced_jobs_bit_identical_to_solo(self):
        self._check_coalesced_bit_identical("frsz2_32")

    def test_adaptive_jobs_coalesce_bit_identical_to_solo(self):
        """Every member's solve owns a precision controller, so adaptive
        jobs coalesce like any other storage."""
        self._check_coalesced_bit_identical("adaptive")

    def _check_coalesced_bit_identical(self, storage):
        tracer = Tracer()
        attempts = []
        config = _config(workers=1, coalesce=True, cancel_grace_s=0.2,
                         heartbeat_timeout_s=30.0)
        with SolveEngine(config, tracer=tracer) as engine:
            engine.subscribe(
                lambda e: attempts.append(e) if e.kind == "attempt" else None
            )
            jobs = self._occupy_and_queue(engine, 3, storage=storage)
            assert engine.drain(timeout=60)
        for job in jobs:
            assert job.state == JobState.DONE
            assert job.result["batch_columns"] == 3
        # one batched dispatch, announced on every member's event stream
        assert tracer.counters["serve.batches_dispatched"] == 1
        assert tracer.counters["serve.batched_jobs"] == 3
        batched_events = {
            e.job_id: e.payload["batched_with"]
            for e in attempts
            if "batched_with" in e.payload
        }
        assert batched_events == {j.job_id: 3 for j in jobs}
        # the coalesced members are bit-identical to solo attempts
        for i, job in enumerate(jobs):
            ref = run_solve_job(
                _spec(rhs_seed=i, storage=storage).to_dict(), "ref", 1, storage
            )
            assert np.array_equal(job.result["x"], ref["x"])
            assert job.result["iterations"] == ref["iterations"]
            assert job.result["final_rrn"] == ref["final_rrn"]

    def test_max_batch_caps_gather(self):
        config = _config(workers=1, coalesce=True, max_batch=2,
                         cancel_grace_s=0.2, heartbeat_timeout_s=30.0)
        with SolveEngine(config) as engine:
            jobs = self._occupy_and_queue(engine, 3)
            assert engine.drain(timeout=60)
        widths = sorted(j.result.get("batch_columns", 1) for j in jobs)
        assert widths == [1, 2, 2]

    def test_ineligible_jobs_never_coalesce(self):
        """Deadline jobs and retry attempts run solo even when peers
        queue alongside them."""
        tracer = Tracer()
        config = _config(workers=1, coalesce=True, cancel_grace_s=0.2,
                         heartbeat_timeout_s=30.0)
        with SolveEngine(config, tracer=tracer) as engine:
            hang = engine.submit(_spec(chaos=HANG, max_retries=0))
            time.sleep(0.4)
            deadlined = [
                engine.submit(_spec(rhs_seed=i, deadline_s=120.0))
                for i in range(2)
            ]
            engine.cancel(hang.job_id)
            assert engine.drain(timeout=60)
        for job in deadlined:
            assert job.state == JobState.DONE
            assert "batch_columns" not in job.result
        assert tracer.counters.get("serve.batches_dispatched", 0) == 0

    def test_retry_after_crash_runs_solo_while_peers_batch(self):
        attempts = []
        crash = ChaosSpec("worker_crash", at_iteration=3).to_dict()
        config = _config(workers=1, coalesce=True)
        with SolveEngine(config) as engine:
            engine.subscribe(
                lambda e: attempts.append(e) if e.kind == "attempt" else None
            )
            crashy = engine.submit(_spec(chaos=crash))
            peers = [engine.submit(_spec(rhs_seed=i)) for i in range(2)]
            assert engine.drain(timeout=60)
        assert crashy.state == JobState.DONE
        assert crashy.retries == 1
        # neither of the crashy job's attempts was ever batched ...
        crashy_events = [e for e in attempts if e.job_id == crashy.job_id]
        assert crashy_events
        assert all("batched_with" not in e.payload for e in crashy_events)
        # ... while the peers queued behind it coalesced with each other
        for peer in peers:
            assert peer.state == JobState.DONE
            assert peer.result["batch_columns"] == 2

    def test_member_cancel_leaves_peers_running(self):
        # slow target: the batch must still be computing when the cancel
        # lands, and finish afterwards for the surviving members
        config = _config(workers=1, coalesce=True, cancel_grace_s=0.2,
                         heartbeat_timeout_s=30.0)
        with SolveEngine(config) as engine:
            hang = engine.submit(_spec(chaos=HANG, max_retries=0))
            time.sleep(0.4)
            jobs = [
                engine.submit(_spec(rhs_seed=i, target_rrn=1e-13,
                                    max_iter=3000))
                for i in range(3)
            ]
            engine.cancel(hang.job_id)
            deadline = time.monotonic() + 30
            while (any(j.state != JobState.RUNNING for j in jobs)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert engine.cancel(jobs[1].job_id)
            assert jobs[1].wait(timeout=30)
            assert engine.drain(timeout=120)
        assert jobs[1].state == JobState.CANCELLED
        assert "peers continue" in jobs[1].reason
        for peer in (jobs[0], jobs[2]):
            assert peer.state == JobState.DONE
            assert peer.result["batch_columns"] == 3

    def test_worker_entry_matches_solo_jobs(self):
        self._check_worker_entry("frsz2_32")

    def test_worker_entry_matches_solo_jobs_adaptive(self):
        self._check_worker_entry("adaptive")

    def _check_worker_entry(self, storage):
        from repro.serve.worker import run_coalesced_job

        specs = [_spec(rhs_seed=i, storage=storage).to_dict() for i in range(3)]
        out = run_coalesced_job(
            specs, ["a", "b", "c"], attempt=1, storage=storage
        )
        assert out["batch_columns"] == 3
        for i, job_id in enumerate(["a", "b", "c"]):
            ref = run_solve_job(specs[i], "ref", 1, storage)
            got = out["results"][job_id]
            assert np.array_equal(got["x"], ref["x"])
            assert got["iterations"] == ref["iterations"]
            assert got["final_rrn"] == ref["final_rrn"]
            assert got["converged"] == ref["converged"]
            # the payload shape is shared by both entry points
            assert set(got) == set(ref) | {"batch_columns"}
            assert got["counters"] and ref["counters"]

    def test_worker_entry_tags_progress_by_member(self):
        """Each member's solve reports under its own job id, at its own
        spec's ``progress_every``, in member order."""
        from repro.serve.worker import run_coalesced_job

        specs = [_spec(rhs_seed=i, progress_every=every).to_dict()
                 for i, every in enumerate((5, 7))]
        events = []
        out = run_coalesced_job(
            specs, ["a", "b"], attempt=1, storage="frsz2_32", emit=events.append
        )
        tags = [e["job_id"] for e in events]
        assert tags == sorted(tags)  # the members run one after another
        for job_id, every in (("a", 5), ("b", 7)):
            steps = [e["iteration"] for e in events if e["job_id"] == job_id]
            iterations = out["results"][job_id]["iterations"]
            assert steps == list(range(every, iterations + 1, every))

    def test_worker_entry_validates_lengths(self):
        from repro.serve.worker import run_coalesced_job

        with pytest.raises(ValueError):
            run_coalesced_job(
                [_spec().to_dict()], ["a", "b"], attempt=1, storage="frsz2_32"
            )
        with pytest.raises(ValueError):
            run_coalesced_job([], [], attempt=1, storage="frsz2_32")


# -- chaos monitor unit -------------------------------------------------


class TestChaosMonitor:
    def test_solve_error_fires_at_iteration(self):
        tick = chaos_monitor(ChaosSpec("solve_error", at_iteration=2))
        tick(0, 0, None, 1.0)
        tick(1, 1, None, 1.0)
        with pytest.raises(ChaosError):
            tick(2, 2, None, 1.0)

    def test_armed_attempt_scoping(self):
        spec = ChaosSpec("worker_crash", only_attempt=1)
        assert spec.armed(1) and not spec.armed(2)
        persistent = ChaosSpec("worker_crash", only_attempt=None)
        assert persistent.armed(1) and persistent.armed(7)


# -- one description of a solve (SolveOptions) ---------------------------


class TestMalformedJobsNeverReachAWorker:
    """A typo is not a fault: a malformed spec raises a ``ValueError``
    naming its field at construction, so retry and storage degradation
    stay reserved for attempts that actually ran."""

    BAD = [
        ("basis_mode", dict(basis_mode="nope")),
        ("m", dict(m=0)),
        ("preconditioner", dict(preconditioner="lu9")),
        ("matrix", dict(matrix="nope")),
        ("scale", dict(scale="huge")),
        ("storage", dict(storage="frsz2_99")),
        ("chaos kind", dict(chaos={"kind": "meteor"})),
        ("when", dict(chaos={"kind": "worker_crash", "when": 3})),
    ]

    @pytest.mark.parametrize("field, bad", BAD, ids=[f for f, _ in BAD])
    def test_constructor_and_from_dict_name_the_field(self, field, bad):
        with pytest.raises(ValueError, match=field):
            _spec(**bad)
        with pytest.raises(ValueError, match=field):
            JobSpec.from_dict({**_spec().to_dict(), **bad})

    def test_chaos_spec_from_dict_names_an_unknown_key(self):
        with pytest.raises(ValueError, match="after_iteration"):
            ChaosSpec.from_dict({"kind": "solve_error", "after_iteration": 2})

    def test_nothing_is_admitted_and_a_valid_job_still_completes(self):
        with SolveEngine(_config()) as engine:
            for _, bad in self.BAD[:4]:  # the four specs of the issue
                with pytest.raises(ValueError):
                    engine.submit(_spec(**bad))
            assert engine.admission.accepted == 0
            good = engine.submit(_spec())
            assert engine.drain(timeout=60)
        assert engine.admission.accepted == 1
        assert good.state == JobState.DONE
        assert [a.outcome for a in good.attempts] == ["done"]
        assert good.retries == 0 and good.degradations == 0


class TestChaosGoesAroundTheEngine:
    """Build order: the SpMV injector wraps the *engine*, so a chaos job
    with ``spmv_format != "csr"`` solves (it used to die on every
    attempt with "requires a CSRMatrix ... got FaultySpmvMatrix")."""

    @pytest.mark.parametrize("spmv_format", ["auto", "sell"])
    def test_spmv_chaos_job_matches_the_hand_built_plan(self, spmv_format):
        from repro.robust import FaultInjector, FaultySpmvMatrix, run_campaign
        from repro.solvers import CbGmres, make_problem
        from repro.sparse import SpmvEngine

        plan = ChaosSpec("spmv_nan", rate=0.0, seed=7)
        spec = _spec(spmv_format=spmv_format, chaos=plan.to_dict())
        out = run_solve_job(spec.to_dict(), "j", 1, spec.storage)
        assert out["converged"]

        p = make_problem(MATRIX, spec.scale)
        faulty = FaultySpmvMatrix(
            SpmvEngine(p.a, format=spmv_format),
            FaultInjector(plan.rate, plan.seed), plan.kind,
        )
        ref = CbGmres(faulty, spec.storage, m=spec.m, max_iter=spec.max_iter)
        ref = ref.solve(p.b, p.target_rrn)
        assert out["x"].tobytes() == ref.x.tobytes()
        # ... and the campaign's cell for the same plan agrees
        (cell,) = run_campaign(
            matrix=MATRIX, scale=spec.scale, faults=(plan.kind,),
            storages=(spec.storage,), rates=(plan.rate,), m=spec.m,
            max_iter=spec.max_iter, spmv_format=spmv_format,
        ).cells
        assert (cell.iterations, cell.final_rrn) == (
            out["iterations"], out["final_rrn"])

    def test_a_firing_plan_survives_through_the_engine(self):
        plan = ChaosSpec("spmv_nan", rate=0.05, seed=3, only_attempt=None)
        with SolveEngine(_config()) as engine:
            job = engine.submit(_spec(spmv_format="auto", chaos=plan.to_dict()))
            assert engine.drain(timeout=60)
        assert job.state == JobState.DONE and job.result["converged"]
        assert len(job.attempts) == 1 and job.result["recoveries"] > 0
