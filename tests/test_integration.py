"""Cross-module integration tests: full pipelines through the library."""

import numpy as np
import pytest

from repro.accessor import Frsz2Accessor
from repro.bench import figure7_rows, figure8_rows, FIG7_FORMATS
from repro.core import FRSZ2
from repro.gpu import solve_phases, speedup_table
from repro.gpu.warp import warp_compress_block, warp_decompress_block
from repro.solvers import (
    CbGmres,
    JacobiPreconditioner,
    calibrate_target,
    make_problem,
)
from repro.sparse import (
    build_matrix,
    magnitude_ordering,
    permute_system,
    read_matrix_market,
    write_matrix_market,
)
from repro.solvers.problems import make_rhs


class TestFileRoundTripPipeline:
    def test_generate_write_read_solve(self, tmp_path):
        """Matrix generation -> MatrixMarket -> reload -> solve."""
        a = build_matrix("lung2", "smoke")
        path = tmp_path / "lung2.mtx"
        write_matrix_market(path, a)
        a2 = read_matrix_market(path)
        b, x_sol = make_rhs(a2)
        res = CbGmres(a2, "frsz2_32").solve(b, 1e-8)
        assert res.converged
        assert np.linalg.norm(res.x - x_sol) < 1e-5

    def test_reload_preserves_solver_behaviour(self, tmp_path):
        a = build_matrix("atmosmodd", "smoke")
        path = tmp_path / "a.mtx"
        write_matrix_market(path, a)
        a2 = read_matrix_market(path)
        b, _ = make_rhs(a)
        r1 = CbGmres(a, "float32").solve(b, 1e-10)
        r2 = CbGmres(a2, "float32").solve(b, 1e-10)
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.x, r2.x)


class TestCombinedFeatures:
    def test_reordering_plus_preconditioner_plus_compression(self):
        """All optional machinery at once on FRSZ2's worst case."""
        p = make_problem("PR02R", "smoke")
        perm = magnitude_ordering(np.abs(p.b))
        a2, b2 = permute_system(p.a, p.b, perm)
        solver = CbGmres(
            a2,
            "frsz2_32",
            preconditioner=JacobiPreconditioner(a2),
        )
        res = solver.solve(b2, p.target_rrn)
        assert res.converged
        x = np.empty_like(res.x)
        x[perm.perm] = res.x
        rrn = np.linalg.norm(p.b - p.a.matvec(x)) / np.linalg.norm(p.b)
        assert rrn <= p.target_rrn * (1 + 1e-9)

    def test_calibrate_then_sweep(self):
        """Section V-C calibration feeding a storage-format sweep."""
        p = make_problem("cfd2", "smoke")
        cal = calibrate_target(p.a, p.b, max_iter=300, name="cfd2")
        results = [
            CbGmres(p.a, fmt).solve(p.b, cal.target_rrn)
            for fmt in ("float64", "float32", "frsz2_32")
        ]
        assert all(r.converged for r in results)
        table = speedup_table(results)
        assert set(table) == {"float64", "float32", "frsz2_32"}


class TestWarpAccessorConsistency:
    def test_accessor_blocks_match_warp_kernels(self):
        """The Accessor path and the SIMT warp kernels must agree on
        every block of a real Krylov-sized vector."""
        rng = np.random.default_rng(42)
        v = rng.standard_normal(32 * 8)
        v /= np.linalg.norm(v)
        acc = Frsz2Accessor(v.size, bit_length=32)
        acc.write(v)
        codec = FRSZ2(32)
        comp = acc.compressed
        for blk in range(comp.layout.num_blocks):
            block_vals = v[blk * 32 : (blk + 1) * 32]
            wrep = warp_compress_block(block_vals, 32)
            assert wrep.e_max == comp.exponents[blk]
            drep = warp_decompress_block(wrep.e_max, wrep.output, 32)
            assert np.array_equal(drep.output, acc.read_block(blk))


class TestFigureDriverConsistency:
    def test_fig7_and_fig8_agree_on_failures(self):
        """A nan final RRN in Fig. 7 must be a zero ratio in Fig. 8."""
        import math

        f7 = {r[0]: r for r in figure7_rows("smoke")}
        f8 = {r[0]: r for r in figure8_rows("smoke")}
        for name in f7:
            for k, fmt in enumerate(FIG7_FORMATS):
                failed7 = math.isnan(f7[name][2 + k])
                failed8 = f8[name][2 + k] == 0.0
                assert failed7 == failed8, (name, fmt)

    def test_speedup_table_matches_timing_model(self):
        p = make_problem("lung2", "smoke")
        r64 = CbGmres(p.a, "float64").solve(p.b, p.target_rrn)
        r32 = CbGmres(p.a, "float32").solve(p.b, p.target_rrn)
        expected = (
            sum(solve_phases(r64.stats).values())
            / sum(solve_phases(r32.stats).values())
        )
        assert speedup_table([r64, r32])["float32"] == pytest.approx(expected)


class TestDeterminism:
    """Everything in the pipeline must be bit-reproducible."""

    def test_full_solve_deterministic(self):
        p1 = make_problem("StocF-1465", "smoke")
        p2 = make_problem("StocF-1465", "smoke")
        r1 = CbGmres(p1.a, "frsz2_32").solve(p1.b, p1.target_rrn)
        r2 = CbGmres(p2.a, "frsz2_32").solve(p2.b, p2.target_rrn)
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.x, r2.x)
        assert [s.rrn for s in r1.history] == [s.rrn for s in r2.history]

    def test_compressor_roundtrips_deterministic(self):
        from repro.compressors import list_compressors, make_compressor

        rng = np.random.default_rng(0)
        x = rng.standard_normal(2000)
        x /= np.linalg.norm(x)
        for name in list_compressors():
            a = make_compressor(name).roundtrip(x)
            b = make_compressor(name).roundtrip(x)
            assert np.array_equal(a, b), name
