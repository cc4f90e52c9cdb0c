"""The compiled kernels' thread pool, and the host's BLAS threads.

Three groups.  ``TestThreadCountMovesNoBit``: every split kernel — the
three fused walks over float64 rows and FRSZ2 containers, the SpMV
kernels of both layouts — gives the same raw bits on one thread,
two, three and the pool's size, and so do whole solves; a reduction
that adds partials in the order threads claim them does not load.
``TestBlasThreadsMoveNoBit``: a solve long enough for OpenBLAS to thread
its ``ddot`` gives the same bits under one and two BLAS threads, because
no norm of a solve goes to BLAS.
``TestPoolLife``: the pool survives what a process does around it — a
fork after a pooled walk, two Python threads walking at once, an
affinity mask of one CPU, a serve worker process.
"""

import multiprocessing as mp
import os
import pathlib
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.core.frsz2 import FRSZ2
from repro.fused import DEFAULT_TILE_ELEMS
from repro.jit import cbackend, dispatch
from repro.serve import JobSpec, JobState, ServeConfig, SolveEngine
from repro.serve.soak import direct_solve
from repro.solvers import CbGmres, make_preconditioner, make_problem
from repro.solvers.preconditioner import _stored_values
from repro.sparse import CSRMatrix, SpmvEngine, generators

from .backends import requires_jit

pytestmark = requires_jit

#: the benchmark's stream_lowmem system (seed 0: the paper's right-hand side)
_ATMOSMODD = dict(peclet=(0.45, 0.25, 0.10), shift=0.02, name="atmosmodd")


@pytest.fixture
def counts():
    """Thread counts to compare: one, two, more than the host's two, and
    the pool's own size — restored afterwards."""
    engine = dispatch.load_engine()
    pool = engine.threads
    try:
        yield sorted({1, 2, 3, pool})
    finally:
        engine.set_threads(pool)


def _words(arrays) -> np.ndarray:
    """The raw 64-bit words of float64 / int64 arrays, end to end."""
    return np.concatenate(
        [np.ascontiguousarray(a).view(np.uint64).ravel() for a in arrays])


def _at_each(counts, run):
    """``run()``'s arrays as raw words, once per thread count."""
    engine = dispatch.load_engine()
    outs = []
    for count in counts:
        engine.set_threads(count)
        outs.append(_words(run()))
    return outs


def _assert_same(counts, outs, what):
    for count, got in zip(counts[1:], outs[1:]):
        assert np.array_equal(outs[0], got), f"{what}: T={count} vs T={counts[0]}"


def _rows(engine, source, rows):
    """``rows`` as the engine's source of kind ``source``."""
    if source == "float64":
        return engine.dense_rows(rows)
    bit_length, block_size = (int(f.split("=")[1]) for f in source.split())
    comps = FRSZ2(bit_length, block_size, backend="jit").compress_batch(list(rows))
    return engine.row_table([engine.row_pointers(c) for c in comps])


def _walks(src, j, n, tile, y, w):
    """The walks of ``src`` — the dot and the axpy, at width one and two —
    from the same operands."""
    h = np.zeros(j)
    src.fused_dot(j, n, tile, w, h)
    x, hw, hx = w[::-1].copy(), np.zeros(j), np.zeros(j)
    src.fused_dot2(j, n, tile, w, x, hw, hx)
    updated = w.copy()
    src.fused_axpy(j, n, tile, y, updated)
    a, b = w.copy(), x.copy()
    src.fused_axpy2(j, n, tile, y, a, y[::-1].copy(), b)
    return h, hw, hx, updated, a, b


def _irregular(rng, m):
    """A CSR matrix whose rows hold 1..12 entries at random columns."""
    lengths = rng.integers(1, 13, m)
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    cols = rng.integers(0, m, indptr[-1])
    return CSRMatrix((m, m), indptr, cols, rng.standard_normal(indptr[-1]))


def _solve_words(a, b, target, storage, mode, backend, m=30, max_iter=400):
    r = CbGmres(a, storage, m=m, max_iter=max_iter, basis_mode=mode,
                backend=backend).solve(b, target, record_history=True)
    return (r.x, np.array([s.rrn for s in r.history]),
            np.array([r.iterations], dtype=np.int64))


def _sweep_repeats_alone(counts, sweep, args, rhs, what):
    """``sweep(*args, b)`` at every thread count gives its one-thread
    bits, for two right-hand sides in turn: a result vector that reuses
    the memory of the call before holds the other one's answer, so a row
    read before it is final shows."""
    engine = dispatch.load_engine()
    engine.set_threads(1)
    refs = [_words([sweep(*args, b)]) for b in rhs]
    for count in counts:
        engine.set_threads(count)
        for _ in range(5):
            for b, ref in zip(rhs, refs):
                assert np.array_equal(ref, _words([sweep(*args, b)])), \
                    f"{what} T={count}"


class TestThreadCountMovesNoBit:
    """ROADMAP 6(d): the thread count is a metamorphic invariant."""

    @pytest.mark.parametrize("n", [203, 2 * DEFAULT_TILE_ELEMS + 77, 13824])
    @pytest.mark.parametrize("source", ["float64"] + [
        f"l={l} bs={bs}" for l in (16, 21, 32) for bs in (32, 5)])
    def test_the_three_walks(self, counts, source, n):
        """n below one tile, n with a tail inside a piece, and the
        stream_lowmem length — at the default tile and at a tile that
        makes more tiles than one round of partials holds."""
        engine = dispatch.load_engine()
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((51, n)) * np.exp2(
            rng.integers(-30, 30, (51, 1)).astype(float))
        src = _rows(engine, source, rows)
        w, y = rng.standard_normal(n), rng.standard_normal(51)
        for j in (1, 4, 6, 51):
            for tile in (DEFAULT_TILE_ELEMS, 96):
                outs = _at_each(counts, lambda: _walks(src, j, n, tile, y, w))
                _assert_same(counts, outs, f"{source} n={n} j={j} tile={tile}")

    @pytest.mark.parametrize("fmt", ["ell", "csr"])
    def test_spmv_rows(self, counts, fmt):
        rng = np.random.default_rng(5)
        for a in (generators.convection_diffusion_3d(24, 24, 24, **_ATMOSMODD),
                  _irregular(rng, 20000)):
            x = rng.standard_normal(a.shape[1])
            ref = SpmvEngine(a, format=fmt, backend="numpy").matvec(x)
            spmv = SpmvEngine(a, format=fmt, backend="jit")
            assert spmv.resolved_format == fmt
            for count, got in zip(counts, _at_each(counts, lambda: (spmv.matvec(x),))):
                assert np.array_equal(ref.view(np.uint64), got), f"{fmt} T={count}"

    @pytest.mark.parametrize("matrix", ["atmosmodd", "cfd2", "lung2"])
    def test_the_48_cell_table(self, counts, matrix):
        """x, the residual history and the iteration count of every cell
        (storage x basis mode x backend) on one, two and the pool's
        threads — the jit cells equal to the numpy cell."""
        p = make_problem(matrix, "smoke")
        for storage in ("float64", "frsz2_16", "frsz2_21", "frsz2_32"):
            for mode in ("cached", "streaming"):
                ref = _words(_solve_words(p.a, p.b, p.target_rrn, storage,
                                          mode, "numpy"))
                outs = _at_each(counts, lambda: _solve_words(
                    p.a, p.b, p.target_rrn, storage, mode, "jit"))
                for count, got in zip(counts, outs):
                    assert np.array_equal(ref, got), \
                        f"{matrix} {storage} {mode} T={count}"

    def test_the_stream_lowmem_system(self, counts):
        """The benchmark's streaming system and its float64 twin, whose
        walks and SpMV split: the same solve on every thread count."""
        a = generators.convection_diffusion_3d(24, 24, 24, **_ATMOSMODD)
        s = np.sin(np.arange(a.shape[0], dtype=np.float64))
        b = a.matvec(s / np.linalg.norm(s))
        spmv = SpmvEngine(a, backend="jit")
        for storage, mode in (("frsz2_32", "streaming"), ("float64", "cached")):
            outs = _at_each(counts, lambda: _solve_words(
                spmv, b, 1e-12, storage, mode, "jit", m=50, max_iter=2000))
            _assert_same(counts, outs, f"stream_lowmem {storage}")

    def test_the_two_sweeps(self, counts):
        """The ILU(0) sweeps, whose groups the threads claim in level
        order: aniso_jump 32^3 (each triangle above the pool's minimum)
        with float64 and frsz2_32 factors, then a chain (one chunk a
        level) and one level of 64 lock-step groups, each both ways over
        float64 and FRSZ2 values — every thread count gives y's bits."""
        engine = dispatch.load_engine()
        a = generators.aniso_jump_3d(32, 32, 32, contrast=1e6)
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal((2, a.shape[0]))
        for storage in ("float64", "frsz2_32"):
            p = make_preconditioner("ilu0", a, storage=storage, backend="jit")
            assert min(p._l_indices.size, p._u_indices.size) > engine.pool_min_work
            values = [_stored_values(acc) for acc in (p._l_acc, p._u_acc, p._d_acc)]
            _sweep_repeats_alone(counts, p._lower, values[:1], rhs,
                                 f"aniso_jump 32^3 {storage} lower")
            _sweep_repeats_alone(counts, p._upper, values[1:], rhs,
                                 f"aniso_jump 32^3 {storage} upper")

        # long enough that a helper woken late still runs some groups
        rows, chunks = engine.sweep_rows, 256
        n = chunks * rows
        i = np.arange(n)[:, None]
        j = i - np.arange(5, 0, -1)  # the five rows before, ascending
        rhs = rng.standard_normal((2, n))
        for name, keep, levels in (
                ("chain", j >= 0, [1] * chunks),
                ("wide", (j >= 0) & (j // rows == i // rows), [chunks])):
            ip = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
            cols = j[keep].astype(np.int32)
            data = 0.2 * rng.standard_normal(cols.size)
            udiag = 2.0 + rng.random(n)
            # reversed, rows and columns, the pattern is strictly upper
            lower = engine.lower_unit_trisolve(ip, cols)
            upper = engine.upper_trisolve(ip[-1] - ip[::-1], n - 1 - cols[::-1])
            for sweep in (lower, upper):
                assert np.diff(sweep.level_ptr).tolist() == levels
            compressed = "l=32 bs=32"
            for source, (values, diagonal) in (
                    ("float64", (data, udiag)),
                    (compressed, [_rows(engine, compressed, x[None])
                                  for x in (data, udiag)])):
                for sweep, args in ((lower, (values,)), (upper, (values, diagonal))):
                    _sweep_repeats_alone(counts, sweep, args, rhs,
                                         f"{name} {source} upper={sweep.upper}")

    def test_partials_added_in_claim_order_refuse_to_load(
            self, monkeypatch, tmp_path):
        """A walk that adds its tile partials in the order its threads
        claim tiles — on one thread: last tile first — must not load."""
        tile_order = ("        for (int64_t t = 0; t < units; t++)\n"
                      "            for (int64_t r = 0; r < j; r++)\n"
                      "                acc[r] += k->part[t * per + r];")
        assert cbackend.C_SOURCE.count(tile_order) == 1
        planted = cbackend.C_SOURCE.replace(
            tile_order, tile_order.replace(
                "t = 0; t < units; t++", "t = units - 1; t >= 0; t--"))
        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
        monkeypatch.setattr(cbackend, "C_SOURCE", planted)
        monkeypatch.setattr(cbackend, "_CDEF", cbackend._declarations(planted))
        dispatch._reset_engine_cache()
        try:
            assert dispatch.load_engine() is None
            assert "fused.dot_basis" in dispatch.jit_unavailable_reason()
        finally:
            monkeypatch.undo()
            dispatch._reset_engine_cache()
        assert dispatch.jit_unavailable_reason() is None


class TestBlasThreadsMoveNoBit:
    """OpenBLAS threads ``ddot`` above n = 10 000, in an order that depends
    on ``OPENBLAS_NUM_THREADS``; every norm of a solve is ``fused.norm2``,
    so the thread setting of the host's BLAS moves no bit."""

    #: atmosmodd at default scale (n = 13 824); the numpy streaming cell —
    #: the tile-by-tile reference route, ≈ 15 s for the whole solve — stops
    #: at 30 iterations, where a BLAS norm has already moved x
    CODE = textwrap.dedent("""
        import hashlib
        from repro.solvers import CbGmres, make_problem
        p = make_problem("atmosmodd", "default")
        for backend, storage, mode, cap in (
                ("jit", "frsz2_32", "streaming", 1000),
                ("jit", "float64", "cached", 1000),
                ("numpy", "frsz2_32", "streaming", 30),
                ("numpy", "float64", "cached", 1000)):
            r = CbGmres(p.a, storage, basis_mode=mode, backend=backend,
                        max_iter=cap).solve(p.b, p.target_rrn)
            print(backend, storage, mode, r.iterations,
                  hashlib.sha256(r.x.tobytes()).hexdigest())
    """)

    def test_one_and_two_blas_threads_give_the_same_bits(self):
        src = str(pathlib.Path(cbackend.__file__).resolve().parents[2])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, (
                           src, os.environ.get("PYTHONPATH")))))
            outs.append(subprocess.run(
                [sys.executable, "-c", self.CODE], env=env, check=True,
                capture_output=True, text=True, timeout=600).stdout)
        assert len(outs[0].splitlines()) == 4
        assert outs[0] == outs[1]


def _big_source(engine, compressed=False, n=24576, j=6, seed=0):
    """Rows enough for the pool to split a walk over them, an operand,
    and the walk's one-thread bits."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((j, n))
    src = _rows(engine, "l=32 bs=32" if compressed else "float64", rows)
    w, y = rng.standard_normal(n), rng.standard_normal(j)
    pool = engine.threads
    engine.set_threads(1)
    try:
        ref = _words(_walks(src, j, n, DEFAULT_TILE_ELEMS, y, w))
    finally:
        engine.set_threads(pool)
    return (lambda: _words(_walks(src, j, n, DEFAULT_TILE_ELEMS, y, w))), ref


def _tasks() -> int:
    return len(os.listdir("/proc/self/task"))


def _walk_in_child(conn, walk):
    conn.send((walk().tobytes(), _tasks()))
    conn.close()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads through /proc")
class TestPoolLife:
    """The pool through forks, concurrent callers, affinity and serve."""

    def test_a_forked_child_walks_with_its_own_pool(self, counts):
        """After a pooled walk — and while another thread is inside one —
        a forked child starts its own helper and finishes its walk, with
        the same bytes, well inside 10 s."""
        engine = dispatch.load_engine()
        engine.set_threads(2)
        walk, ref = _big_source(engine)
        assert np.array_equal(walk(), ref)  # pooled: the helper runs now
        busy, stop = _big_source(engine, compressed=True, seed=1), threading.Event()

        def keep_walking():
            while not stop.is_set():
                busy[0]()

        walker = threading.Thread(target=keep_walking)
        walker.start()
        ctx = mp.get_context("fork")
        try:
            for _ in range(4):
                receive, send = ctx.Pipe(duplex=False)
                child = ctx.Process(target=_walk_in_child, args=(send, walk),
                                    daemon=True)
                child.start()
                send.close()
                try:
                    assert receive.poll(10), "the forked child's walk hung"
                    got, tasks = receive.recv()
                    child.join(10)
                    assert not child.is_alive() and child.exitcode == 0
                finally:
                    if child.is_alive():
                        child.kill()
                        child.join(10)
                assert got == ref.tobytes()
                assert tasks == 2  # the child's one thread and its helper
        finally:
            stop.set()
            walker.join(30)
        assert not walker.is_alive()

    def test_python_threads_walk_sources_of_one_engine_at_once(self, counts):
        """Three Python threads (more than the host's cores), each
        walking its own source: one at a time gets the pool, the others
        run alone, and every walk gives its one-thread bits."""
        engine = dispatch.load_engine()
        engine.set_threads(2)
        sources = [_big_source(engine, compressed=k % 2 == 1, seed=k)
                   for k in range(3)]
        wrong = []

        def hammer(walk, ref):
            for _ in range(40):
                if not np.array_equal(walk(), ref):
                    wrong.append(ref)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=s) for s in sources]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_the_affinity_mask_sizes_the_pool(self, cpus):
        """A process allowed one CPU gets a pool of one thread and starts
        no helper; allowed two, one helper joins its split walks."""
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no affinity call on this platform")
        allowed = sorted(os.sched_getaffinity(0))
        if len(allowed) < cpus:
            pytest.skip(f"needs {cpus} CPUs")
        code = textwrap.dedent(f"""
            import os
            os.sched_setaffinity(0, {set(allowed[:cpus])!r})
            import numpy as np
            before = len(os.listdir("/proc/self/task"))
            from repro.jit import load_engine
            engine = load_engine()
            rows = engine.dense_rows(np.ones((8, 65536)))
            rows.fused_dot(8, 65536, 2048, np.ones(65536), np.zeros(8))
            print(engine.threads, len(os.listdir("/proc/self/task")) - before)
        """)
        src = str(pathlib.Path(cbackend.__file__).resolve().parents[2])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        assert out.stdout.split() == [str(cpus), str(cpus - 1)]

    def test_a_four_rhs_serve_job_finishes_through_the_worker_pool(self):
        """Four right-hand sides through a one-worker serve engine — a
        process forked from this one, whose pool has run — finish with
        the bits of direct solves."""
        engine = dispatch.load_engine()
        walk, ref = _big_source(engine)
        assert np.array_equal(walk(), ref)
        specs = [JobSpec(matrix="cfd2", scale="default", backend="jit",
                         rhs_seed=seed) for seed in range(4)]
        with SolveEngine(ServeConfig(workers=1, coalesce=True, max_batch=4,
                                     heartbeat_timeout_s=60.0)) as serve:
            jobs = [serve.submit(spec) for spec in specs]
            assert serve.drain(timeout=300)
        for spec, job in zip(specs, jobs):
            assert job.state == JobState.DONE, job.reason
            direct = direct_solve(spec)
            assert np.array_equal(job.result["x"], direct.x)
            assert job.result["iterations"] == direct.iterations
