"""Tests for the deterministic parallel grid runner (`repro.parallel`).

The contract under test: any ``jobs`` value yields results identical to
the serial path on every deterministic field, in submission order, and
a broken worker surfaces as a named :class:`WorkerCrashError` — never a
hang, never a scrambled result list.
"""

import os
import time

import pytest

from repro.bench.perf import run_bench
from repro.parallel import WorkerCrashError, resolve_jobs, run_grid
from repro.robust.campaign import run_campaign

# -- module-level workers (must be picklable for the process pool) -----


def _square(x):
    return x * x


def _sleep_inverse(i, total):
    """Finish in reverse submission order to stress result ordering."""
    time.sleep(0.02 * (total - i))
    return i


def _boom(x):
    raise ValueError(f"boom on {x}")


def _die(x):
    os._exit(13)  # simulate a segfault / OOM-killed worker


def _boom_on_even(x):
    if x % 2 == 0:
        raise ValueError(f"boom on {x}")
    return x * 10


def _sleep_for(seconds):
    time.sleep(seconds)
    return seconds


class TestRunGrid:
    def test_serial_results(self):
        assert run_grid(_square, [dict(x=i) for i in range(5)]) == [0, 1, 4, 9, 16]

    def test_parallel_matches_serial(self):
        tasks = [dict(x=i) for i in range(6)]
        assert run_grid(_square, tasks, jobs=3) == run_grid(_square, tasks, jobs=1)

    def test_submission_order_beats_completion_order(self):
        tasks = [dict(i=i, total=4) for i in range(4)]
        assert run_grid(_sleep_inverse, tasks, jobs=4) == [0, 1, 2, 3]

    def test_empty_grid(self):
        assert run_grid(_square, [], jobs=4) == []

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            run_grid(_square, [dict(x=1)], labels=["a", "b"])

    def test_worker_exception_is_named(self):
        tasks = [dict(x=1), dict(x=2)]
        with pytest.raises(WorkerCrashError) as exc:
            run_grid(_boom, tasks, jobs=2, labels=["cell[1]", "cell[2]"])
        assert exc.value.label == "cell[1]"
        assert isinstance(exc.value.cause, ValueError)
        assert "cell[1]" in str(exc.value)

    def test_worker_death_is_named_not_a_hang(self):
        tasks = [dict(x=1), dict(x=2)]
        start = time.monotonic()
        with pytest.raises(WorkerCrashError) as exc:
            run_grid(_die, tasks, jobs=2, labels=["cell[1]", "cell[2]"])
        assert time.monotonic() - start < 60
        assert exc.value.label == "cell[1]"
        assert exc.value.cause is None
        assert "died" in str(exc.value)

    def test_serial_mode_propagates_raw_exception(self):
        with pytest.raises(ValueError):
            run_grid(_boom, [dict(x=1)], jobs=1)

    def test_unknown_on_error_mode_rejected(self):
        with pytest.raises(ValueError):
            run_grid(_square, [dict(x=1)], on_error="explode")

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-2) >= 1


class TestCollectMode:
    """on_error="collect": partial results with per-task error records."""

    def test_serial_collect_keeps_partial_results(self):
        tasks = [dict(x=i) for i in range(4)]
        results = run_grid(_boom_on_even, tasks, jobs=1, on_error="collect",
                           labels=[f"t{i}" for i in range(4)])
        assert results[1] == 10 and results[3] == 30
        for index in (0, 2):
            error = results[index]
            assert isinstance(error, WorkerCrashError)
            assert error.label == f"t{index}"
            assert error.kind == "error"
            assert isinstance(error.cause, ValueError)

    def test_parallel_collect_matches_serial_shape(self):
        tasks = [dict(x=i) for i in range(4)]
        serial = run_grid(_boom_on_even, tasks, jobs=1, on_error="collect")
        fanned = run_grid(_boom_on_even, tasks, jobs=2, on_error="collect")
        assert [type(r) for r in serial] == [type(r) for r in fanned]
        assert [r for r in serial if not isinstance(r, WorkerCrashError)] == \
               [r for r in fanned if not isinstance(r, WorkerCrashError)]

    def test_collect_survives_worker_death(self):
        tasks = [dict(x=1), dict(x=2), dict(x=3)]
        results = run_grid(_die, tasks[:1], jobs=2, on_error="collect") + \
            run_grid(_square, tasks[1:], jobs=2, on_error="collect")
        assert isinstance(results[0], WorkerCrashError)
        assert results[0].kind == "crash"
        assert results[1:] == [4, 9]

    def test_mixed_deaths_and_results_one_grid(self):
        tasks = [dict(x=0), dict(x=1), dict(x=2), dict(x=3)]
        outcomes = run_grid(_boom_on_even, tasks, jobs=3, on_error="collect")
        kinds = ["err" if isinstance(o, WorkerCrashError) else o
                 for o in outcomes]
        assert kinds == ["err", 10, "err", 30]


class TestPerTaskTimeout:
    """timeout= is a per-task wall deadline measured from task start."""

    def test_timed_out_task_collected_others_survive(self):
        tasks = [dict(seconds=5.0), dict(seconds=0.01)]
        start = time.monotonic()
        results = run_grid(_sleep_for, tasks, jobs=2, timeout=0.5,
                           on_error="collect", labels=["slow", "fast"])
        assert time.monotonic() - start < 5.0
        assert isinstance(results[0], WorkerCrashError)
        assert results[0].kind == "timeout"
        assert isinstance(results[0].cause, TimeoutError)
        assert results[1] == 0.01

    def test_timeout_counts_from_task_start_not_submission(self):
        # 6 tasks on 2 workers: each takes 0.3s, timeout 0.5s per task.
        # The last pair starts ~0.6s after submission, so a wall-clock
        # measured from *submission* would kill it; a true per-task
        # deadline lets every task finish.
        tasks = [dict(seconds=0.3)] * 6
        results = run_grid(_sleep_for, tasks, jobs=2, timeout=0.5,
                           on_error="collect")
        assert results == [0.3] * 6

    def test_timeout_raises_in_raise_mode(self):
        with pytest.raises(WorkerCrashError) as exc:
            run_grid(_sleep_for, [dict(seconds=5.0)], jobs=2, timeout=0.4)
        assert exc.value.kind == "timeout"


class TestParallelBench:
    def test_jobs2_bench_matches_serial_field_for_field(self):
        kwargs = dict(
            matrices=["lung2"],
            storages=["float64", "frsz2_32"],
            scale="smoke",
            m=30,
            max_iter=400,
        )
        serial = run_bench(jobs=1, **kwargs)
        fanned = run_bench(jobs=2, **kwargs)
        assert serial == fanned


class TestParallelCampaign:
    def test_jobs2_campaign_matches_serial(self):
        kwargs = dict(
            matrix="lung2",
            scale="smoke",
            faults=("payload_bitflip", "readout_nan"),
            storages=("frsz2_32",),
            rates=(0.02,),
            seed=7,
            m=30,
            max_iter=300,
        )
        serial = run_campaign(jobs=1, **kwargs)
        fanned = run_campaign(jobs=2, **kwargs)
        assert serial.cells == fanned.cells
        assert serial.matrix == fanned.matrix
        assert serial.seed == fanned.seed
