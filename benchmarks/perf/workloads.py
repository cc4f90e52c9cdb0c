"""The four workloads: inputs, the untraced end-to-end pass, verification.

The program is driven only through public calls (``CbGmres.solve``,
``SolveEngine.submit``) and sees nothing but ``A``, ``b`` and solver
arguments.  Every solve's answer is checked with the benchmark's own
matrix-vector product, never with the solver's claim.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.observe import Tracer
from repro.serve import JobSpec, JobState, ServeConfig, SolveEngine, build_serve_health
from repro.solvers import CbGmres, make_preconditioner, make_problem
from repro.sparse import CSRMatrix, SpmvEngine, generators

from hostinfo import Calibrator, peak_rss_mb, percentile

BACKEND = "jit"
SPMV_FORMAT = "auto"
#: a residual this much above the target still counts as reaching it
#: (the solver's explicit residual and ours differ in summation order)
RESIDUAL_SLACK = 1.05


class SoloSpec(NamedTuple):
    """One in-process workload: a generated system and how it is solved."""

    generator: str
    dims: Tuple[int, int, int]
    kwargs: Dict[str, Any]
    storage: str
    basis_mode: str
    m: int
    max_iter: int
    target_rrn: float
    preconditioner: Optional[str]
    #: in-process rebuilds whose median is the rebuild part of setup_s
    setup_repeats: int
    #: fewest timed (compressed, float64) pairs behind a reported median;
    #: never below 5, more where one pair is short and its wall noisier
    min_timed: int


class ServeSpec(NamedTuple):
    scale: str
    m: int
    max_iter: int
    #: (matrix, storage) of the 4-RHS groups, cycled by both clients
    groups: Tuple[Tuple[str, str], ...]
    clients: int
    group_size: int
    min_rounds: int
    setup_repeats: int


_ATMOSMODD = dict(peclet=(0.45, 0.25, 0.10), shift=0.02, name="atmosmodd")
_ANISO = dict(contrast=1e6, aniso=(1.0, 0.02, 0.02), name="aniso_jump")
_SERVE_GROUPS = (
    ("cfd2", "frsz2_32"), ("cfd2", "frsz2_16"), ("lung2", "frsz2_32"), ("cfd2", "float64"),
)

FULL: Dict[str, Any] = {
    "basis_large": SoloSpec("convection_diffusion_3d", (48, 48, 48), _ATMOSMODD,
                            "frsz2_32", "cached", 50, 2000, 1e-12, None, 5, 5),
    "stream_lowmem": SoloSpec("convection_diffusion_3d", (24, 24, 24), _ATMOSMODD,
                              "frsz2_32", "streaming", 50, 2000, 1e-12, None, 5, 7),
    "prec_ilu0": SoloSpec("aniso_jump_3d", (64, 64, 64), _ANISO,
                          "frsz2_32", "cached", 50, 2000, 1e-7, "ilu0", 3, 7),
    "serve_multirhs": ServeSpec("default", 30, 400, _SERVE_GROUPS, 2, 4, 6, 3),
}
#: shrunken sizes that only self-test the harness; never compared
SMOKE: Dict[str, Any] = {
    "basis_large": FULL["basis_large"]._replace(dims=(12, 12, 12), setup_repeats=2),
    "stream_lowmem": FULL["stream_lowmem"]._replace(dims=(8, 8, 8), setup_repeats=2),
    "prec_ilu0": FULL["prec_ilu0"]._replace(dims=(12, 12, 12), setup_repeats=2),
    "serve_multirhs": FULL["serve_multirhs"]._replace(
        scale="smoke", min_rounds=3, setup_repeats=1),
}
def specs(smoke: bool) -> Dict[str, Any]:
    return SMOKE if smoke else FULL


# ----------------------------------------------------------------------
# inputs and verification (benchmark-owned)
# ----------------------------------------------------------------------


class Checker:
    """``||b - A x|| / ||b||`` with a bincount product over A's triplets."""

    def __init__(self, a: CSRMatrix) -> None:
        self.n = a.shape[0]
        self.rows = np.repeat(np.arange(self.n), np.diff(a.indptr))
        self.cols = a.indices
        self.data = a.data

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.data * x[self.cols], minlength=self.n)

    def rrn(self, b: np.ndarray, x: np.ndarray) -> float:
        return float(np.linalg.norm(b - self.matvec(x)) / np.linalg.norm(b))


def seeded_system(a: CSRMatrix, seed: int) -> Tuple[CSRMatrix, np.ndarray, Checker]:
    """The paper's system under a seeded sign similarity ``D A D, D b``.

    ``x_sol[i] = sin(i)/||.||`` and ``b = A x_sol`` are the paper's
    Section V-B recipe; ``D = diag(+-1)`` is drawn from ``seed`` (seed 0:
    the identity, i.e. the paper's system exactly).  ``D`` is orthogonal
    and sign flips are exact in floating point, so every seed needs the
    same iterations and does the same work while every value the program
    sees differs in sign pattern.  (A seeded phase ``sin(i + S)`` or a
    random ``x_sol`` moved the iteration count by up to 30 % between
    seeds — see README — which would drown any bound worth having.)
    """
    n = a.shape[0]
    if seed == 0:
        d = np.ones(n)
    else:
        d = np.random.default_rng(abs(seed)).choice([-1.0, 1.0], size=n)
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    flipped = CSRMatrix(a.shape, a.indptr, a.indices, a.data * d[rows] * d[a.indices])
    s = np.sin(np.arange(n, dtype=np.float64))
    check = Checker(flipped)
    return flipped, check.matvec(d * s / np.linalg.norm(s)), check


class Outcome:
    """Attempted/failed tally of verified operations, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons)

    def check_solve(self, label: str, check: Checker, b: np.ndarray, x: np.ndarray,
                    converged: bool, target: float) -> None:
        rrn = check.rrn(b, x) if np.all(np.isfinite(x)) else float("inf")
        ok = bool(converged) and rrn <= RESIDUAL_SLACK * target
        self.record(ok, f"{label}: converged={converged} rrn={rrn:.3e} target={target:.1e}")


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------


class SoloProblem:
    """Everything one in-process workload needs before its first solve."""

    def __init__(self, spec: SoloSpec, seed: int) -> None:
        self.spec = spec
        t0 = time.perf_counter()
        raw = getattr(generators, spec.generator)(*spec.dims, **spec.kwargs)
        self.generate_s = time.perf_counter() - t0
        # input generation on the benchmark's side: not part of set-up
        self.a, self.b, self.check = seeded_system(raw, seed)
        t0 = time.perf_counter()
        self.engine = SpmvEngine(self.a, format=SPMV_FORMAT, backend=BACKEND)
        self.convert_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        self.solver = self.make_solver(spec.storage, spec.basis_mode)
        self.build_s = time.perf_counter() - t0

    @property
    def setup_s(self) -> float:
        return self.generate_s + self.convert_s + self.build_s

    def make_solver(self, storage: str, basis_mode: str, tracer=None) -> CbGmres:
        spec = self.spec
        prec = None
        if spec.preconditioner is not None:
            prec = make_preconditioner(
                spec.preconditioner, self.a, storage=storage, backend=BACKEND)
        return CbGmres(
            self.engine, storage=storage, m=spec.m, max_iter=spec.max_iter,
            basis_mode=basis_mode, preconditioner=prec, spmv_format=SPMV_FORMAT,
            backend=BACKEND, tracer=tracer,
        )

    def baseline(self) -> CbGmres:
        """The float64 cached twin: same A and b, no codec anywhere."""
        return self.make_solver("float64", "cached")

    def timed_solve(self, solver: CbGmres):
        t0 = time.perf_counter()
        result = solver.solve(self.b, self.spec.target_rrn)
        return time.perf_counter() - t0, result


def run_solo(spec: SoloSpec, seed: int, seconds: float,
             calibrate: Calibrator) -> Dict[str, Any]:
    """Untraced end-to-end pass of one in-process workload."""
    outcome = Outcome()
    rebuilds: List[float] = []
    problem = None
    for _ in range(spec.setup_repeats):
        del problem  # one system alive at a time keeps peak RSS honest
        problem = SoloProblem(spec, seed)
        rebuilds.append(problem.setup_s)
        calibrate()
    setup_calib = calibrate.median_since(0)

    def solve(label: str, solver: CbGmres):
        wall, result = problem.timed_solve(solver)
        outcome.check_solve(label, problem.check, problem.b, result.x,
                            result.converged, spec.target_rrn)
        return wall, result

    first_wall, first = solve("compressed warm-up", problem.solver)
    # taken before the float64 twin exists: set-up plus one whole
    # compressed-storage solve, which later solves repeat exactly
    rss = peak_rss_mb()
    baseline = problem.baseline()
    _, first_f64 = solve("float64 warm-up", baseline)

    walls, walls_f64 = [], []
    began = time.perf_counter()
    mark = len(calibrate.samples)
    calibrate()
    while len(walls) < spec.min_timed or time.perf_counter() - began < seconds:
        wall, result = solve("compressed", problem.solver)
        calibrate()
        wall_f64, result_f64 = solve("float64", baseline)
        calibrate()
        outcome.record(
            result.iterations == first.iterations
            and result_f64.iterations == first_f64.iterations,
            f"iterations changed between repeats: {result.iterations} vs "
            f"{first.iterations}, float64 {result_f64.iterations} vs {first_f64.iterations}",
        )
        walls.append(wall)
        walls_f64.append(wall_f64)
    calib = calibrate.median_since(mark)

    return {
        "outcome": outcome,
        "metrics": {
            "solve_rel": statistics.median(walls) / calib,
            "solve_f64_rel": statistics.median(walls_f64) / calib,
            "throughput_rel": calib * statistics.median(
                2 / (c + f) for c, f in zip(walls, walls_f64)),
            "iterations": first.iterations,
            "peak_rss_mb": rss,
        },
        "rebuild_s": rebuilds,
        "setup_calib_s": setup_calib,
        "samples": {"solve_s": walls, "solve_f64_s": walls_f64,
                    "calib_s": calibrate.samples[mark:]},
        "notes": {
            "n": problem.a.shape[0], "nnz": int(problem.a.nnz),
            "spmv_format": problem.engine.resolved_format,
            "iterations_f64": first_f64.iterations,
            "first_solve_s": first_wall,
            "timed_pairs": len(walls),
        },
    }


# ----------------------------------------------------------------------
# serve workload
# ----------------------------------------------------------------------


class ServeInputs:
    """Recomputes each job's right-hand side to verify its answer.

    ``rhs_seed`` is documented on ``JobSpec`` as a seeded random unit-norm
    ``x`` with ``b = A x``; the recipe is repeated here so a job's ``x`` is
    checked against a ``b`` the worker never reported.
    """

    def __init__(self, spec: ServeSpec) -> None:
        self.spec = spec
        self._problems: Dict[str, Tuple[Checker, float]] = {}

    def job(self, matrix: str, storage: str, rhs_seed: int) -> JobSpec:
        return JobSpec(
            matrix=matrix, storage=storage, scale=self.spec.scale, m=self.spec.m,
            max_iter=self.spec.max_iter, rhs_seed=rhs_seed,
            spmv_format=SPMV_FORMAT, backend=BACKEND,
        )

    def verify(self, outcome: Outcome, record) -> None:
        spec = record.spec
        if record.state != JobState.DONE or record.result is None:
            outcome.record(False, f"{record.job_id}: ended {record.state} ({record.reason})")
            return
        if spec.matrix not in self._problems:
            problem = make_problem(spec.matrix, spec.scale)
            self._problems[spec.matrix] = (Checker(problem.a), problem.target_rrn)
        check, target = self._problems[spec.matrix]
        x = np.random.default_rng(spec.rhs_seed).standard_normal(check.n)
        b = check.matvec(x / np.linalg.norm(x))
        outcome.check_solve(record.job_id, check, b, np.asarray(record.result["x"]),
                            record.result["converged"], target)


def _start_engine(spec: ServeSpec, inputs: ServeInputs, outcome: Outcome,
                  tracer=None) -> Tuple[SolveEngine, float]:
    """Engine start -> every worker has finished one warm job."""
    config = ServeConfig(workers=spec.clients, max_queue=64, coalesce=True,
                         max_batch=spec.group_size)
    t0 = time.perf_counter()
    engine = SolveEngine(config, tracer=tracer)
    # distinct storages cannot coalesce, so each lands on its own worker
    warm = [engine.submit(inputs.job("cfd2", storage, rhs_seed=i))
            for i, storage in enumerate(("frsz2_32", "float64")[: spec.clients])]
    for record in warm:
        record.wait(timeout=120)
    started = time.perf_counter() - t0
    for record in warm:
        inputs.verify(outcome, record)
    return engine, started


def run_serve(spec: ServeSpec, seed: int, seconds: float,
              calibrate: Calibrator, traced: bool = False) -> Dict[str, Any]:
    """Closed loop: each client sends a 4-RHS group, waits for all of it,
    then sends the next.  One round = every client through every group
    configuration once; the first round is discarded as warm-up."""
    outcome = Outcome()
    inputs = ServeInputs(spec)
    starts: List[float] = []
    engine = None
    tracer = Tracer() if traced else None
    for _ in range(spec.setup_repeats):
        if engine is not None:
            engine.close()
        engine, started = _start_engine(spec, inputs, outcome, tracer)
        starts.append(started)
        calibrate()
    setup_calib = calibrate.median_since(0)

    n_groups = len(spec.groups)
    per_round = spec.clients * n_groups * spec.group_size
    #: per round: wall and every client's (config, group wall, records)
    rounds: List[Dict[str, Any]] = []

    def client(index: int, round_no: int, log: List[Any]) -> None:
        for k in range(n_groups):
            # clients start half a cycle apart so they never send the
            # same configuration at once
            matrix, storage = spec.groups[(k + index * n_groups // spec.clients) % n_groups]
            base = ((round_no * spec.clients + index) * n_groups + k) * spec.group_size
            t0 = time.perf_counter()
            records = [
                engine.submit(inputs.job(matrix, storage, 100_000 * abs(seed) + base + i))
                for i in range(spec.group_size)
            ]
            for record in records:
                record.wait(timeout=120)
            log.append(((matrix, storage), time.perf_counter() - t0, records))

    try:
        began = time.perf_counter()
        mark = len(calibrate.samples)
        while len(rounds) < spec.min_rounds or time.perf_counter() - began < seconds:
            logs: List[List[Any]] = [[] for _ in range(spec.clients)]
            threads = [
                threading.Thread(target=client, args=(i, len(rounds), logs[i]))
                for i in range(spec.clients)
            ]
            t0 = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            rounds.append({"wall": time.perf_counter() - t0,
                           "groups": [g for log in logs for g in log]})
            calibrate()
        loop_wall = time.perf_counter() - began
        health = build_serve_health(engine)
    finally:
        engine.close()

    for rnd in rounds:
        for _, _, records in rnd["groups"]:
            for record in records:
                inputs.verify(outcome, record)

    kept = rounds[1:]
    jobs = [r for rnd in kept for _, _, records in rnd["groups"] for r in records
            if r.state == JobState.DONE and r.result is not None]
    if not jobs:
        raise RuntimeError("no serve job finished: " + "; ".join(outcome.reasons))
    latency = [r.finished_at - r.submitted_at for r in jobs]

    def group_walls(config: Tuple[str, str]) -> List[float]:
        return [wall for rnd in kept for cfg, wall, _ in rnd["groups"] if cfg == config]

    # the compressed-storage request and its float64 twin on the same matrix
    compressed = spec.groups[0]
    walls, walls_f64 = group_walls(compressed), group_walls((compressed[0], "float64"))
    calib = calibrate.median_since(mark)
    rate = statistics.median(per_round / rnd["wall"] for rnd in kept)
    # batch members share one attempt interval; count each interval once
    attempts = {(a.started_at, a.ended_at) for r in jobs for a in r.attempts
                if a.ended_at is not None}
    kept_wall = sum(rnd["wall"] for rnd in kept)
    counters = tracer.counters if tracer is not None else {}
    queue_wait = [r.queue_wait_s for r in jobs]
    return {
        "outcome": outcome,
        "metrics": {
            "solve_rel": statistics.median(walls) / calib,
            "solve_f64_rel": statistics.median(walls_f64) / calib,
            "throughput_rel": rate * calib,
            "iterations": statistics.fmean(r.result["iterations"] for r in jobs),
            "peak_rss_mb": peak_rss_mb(include_children=True),
        },
        "rebuild_s": starts,
        "setup_calib_s": setup_calib,
        "layers": {
            "serve.jobs_per_s": rate,
            "serve.job_latency_p50_s": statistics.median(latency),
            "serve.queue_wait_p50_s": statistics.median(queue_wait),
            "serve.queue_wait_p90_s": percentile(queue_wait, 90),
            "serve.overhead_p50_s": statistics.median(
                lat - r.result["wall_seconds"] for lat, r in zip(latency, jobs)),
            "serve.job_latency_p90_s": percentile(latency, 90),
            "serve.batch_fill": (counters.get("serve.batched_jobs", 0)
                                 / max(counters.get("serve.batches_dispatched", 0), 1)),
            "serve.worker_busy_ratio": (sum(e - s for s, e in attempts)
                                        / (spec.clients * kept_wall)),
            "serve.rejected": health["jobs"]["rejected_total"],
            "serve.retries": health["jobs"]["retries_total"],
        },
        "samples": {"round_s": [rnd["wall"] for rnd in rounds], "group_s": walls,
                    "group_f64_s": walls_f64, "calib_s": calibrate.samples[mark:]},
        "notes": {"rounds": len(rounds), "kept_jobs": len(jobs),
                  "loop_wall_s": loop_wall, "jobs_per_round": per_round},
    }
