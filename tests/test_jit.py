"""Cross-backend bit-identity suite for the jit kernel backend.

The ``backend={numpy,jit}`` switch is only sound because every jit
kernel replays the numpy reference's arithmetic exactly — same
accumulation order, same rounding, no FMA contraction.  This suite
pins that contract at every layer: stored containers, codec
round-trips, SpMV formats, fused cached/streaming solves and full
``CbGmres.solve`` runs must all be *byte*-equal across backends.
When the jit engine is unavailable (no cffi, no C compiler) the jit
half skips with the engine's own failure reason.
"""

import warnings

import numpy as np
import pytest

from repro.accessor import make_accessor
from repro.core.frsz2 import FRSZ2
from repro.jit import cbackend, dispatch
from repro.solvers import CbGmres, make_problem
from repro.sparse import build_matrix
from repro.sparse.engine import SPMV_FORMATS, SpmvEngine

from .backends import BACKENDS, requires_jit


# ----------------------------------------------------------------------
# dispatch registry / resolution
# ----------------------------------------------------------------------


class TestDispatch:
    def test_resolve_none_is_numpy(self):
        assert dispatch.resolve_backend(None) == "numpy"
        assert dispatch.resolve_backend("numpy") == "numpy"

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            dispatch.resolve_backend("cuda")

    def test_unknown_kernel_name_raises(self):
        with pytest.raises(KeyError, match="no kernel"):
            dispatch.get_kernel("no.such.kernel", "numpy")

    def test_register_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            dispatch.register_kernel("x", "cuda", lambda: None)

    #: every registered name: one way into a container (``frsz2.encode``)
    #: and two out, the SpMV formats, the preconditioner's four
    KERNELS = sorted([
        "frsz2.encode", "frsz2.decode_tile", "frsz2.decode_gather",
        "spmv.csr_matvec", "spmv.ell_matvec", "spmv.sell_group_matvec",
        "prec.ilu0_factor",
        "prec.lower_trisolve", "prec.upper_trisolve",
        "prec.block_diag_apply",
    ])

    def test_numpy_registry_covers_hot_kernels(self):
        assert dispatch.registered_kernels("numpy") == self.KERNELS

    def test_every_registered_kernel_and_c_function_has_a_caller(self):
        """No dead registration can come back: each registered name is
        resolved by a ``get_kernel("<name>"`` call in the package proper
        (the self-test does not count) or is the ``kernel_name`` of an
        SpMV layout, which ``SpmvEngine.set_backend`` resolves; and each
        function the C source exports is called as ``_lib.<name>`` by
        some wrapper."""
        import pathlib
        import re

        package = pathlib.Path(cbackend.__file__).resolve().parents[1]
        sources = {
            path: path.read_text() for path in package.rglob("*.py")
            if path.name != "selftest.py"
        }
        for name in self.KERNELS:
            call = re.compile(r'(get_kernel\(\s*|kernel_name = )"%s"'
                              % re.escape(name))
            assert any(call.search(text) for text in sources.values()), name
        wrappers = sources[pathlib.Path(cbackend.__file__).resolve()]
        wrappers = wrappers.replace(cbackend.C_SOURCE, "")
        exported = re.findall(r"(\w+)\(", cbackend._CDEF)
        assert len(exported) == 17 and "engine_set_threads" in exported
        for name in exported:
            assert re.search(r"\b_?lib\.%s\b" % name, wrappers), name

    def test_unavailable_jit_degrades_with_named_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_DISABLE", "1")
        dispatch._reset_engine_cache()
        try:
            with pytest.warns(dispatch.JitUnavailableWarning,
                              match="REPRO_JIT_DISABLE"):
                assert dispatch.resolve_backend("jit") == "numpy"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert dispatch.resolve_backend("jit", warn=False) == "numpy"
            with pytest.raises(dispatch.JitUnavailableError):
                dispatch.get_kernel("frsz2.encode", "jit")
        finally:
            monkeypatch.delenv("REPRO_JIT_DISABLE")
            dispatch._reset_engine_cache()

    @requires_jit
    def test_jit_registry_mirrors_numpy(self):
        dispatch.get_kernel("frsz2.encode", "jit")  # force load
        assert dispatch.registered_kernels("jit") == \
            dispatch.registered_kernels("numpy") == self.KERNELS
        assert dispatch.jit_engine_name() == "cffi"
        assert dispatch.jit_unavailable_reason() is None

    @requires_jit
    def test_engine_pin_variable_is_inert(self, monkeypatch):
        """There is one engine: the retired ``REPRO_JIT_ENGINE`` pin
        neither selects nor disables anything."""
        monkeypatch.setenv("REPRO_JIT_ENGINE", "numba")
        dispatch._reset_engine_cache()
        try:
            assert dispatch.jit_engine_name() == "cffi"
            assert dispatch.resolve_backend("jit") == "jit"
        finally:
            dispatch._reset_engine_cache()

    @requires_jit
    def test_selftest_rejects_an_engine_that_flips_one_bit(self, monkeypatch):
        """The self-test is the only gate before compiled code runs: an
        engine off by a single bit in one kernel must never load."""

        class OneBitOff(cbackend.CEngine):
            def decode_tile(self, comps):
                table = super().decode_tile(comps)

                def kernel(i0, i1, out):
                    table(i0, i1, out)
                    out.view(np.uint64)[0, 0] ^= np.uint64(1)

                return kernel

        monkeypatch.setattr(cbackend, "CEngine", OneBitOff)
        dispatch._reset_engine_cache()
        try:
            assert dispatch.load_engine() is None
            assert "frsz2.decode_tile" in dispatch.jit_unavailable_reason()
            with pytest.warns(dispatch.JitUnavailableWarning,
                              match="frsz2.decode_tile"):
                assert dispatch.resolve_backend("jit") == "numpy"
        finally:
            monkeypatch.undo()
            dispatch._reset_engine_cache()

    @requires_jit
    def test_selftest_gates_the_tile_decoder(self, monkeypatch):
        """A tile decoder wrong in the last value of the last row only —
        the whole-container decode stays right — must not load either."""

        class LastValueOff(cbackend.CEngine):
            def decode_tile(self, comps):
                table = super().decode_tile(comps)

                def kernel(i0, i1, out):
                    table(i0, i1, out)
                    out.view(np.uint64)[-1, i1 - i0 - 1] ^= np.uint64(1)

                return kernel

        monkeypatch.setattr(cbackend, "CEngine", LastValueOff)
        dispatch._reset_engine_cache()
        try:
            assert dispatch.load_engine() is None
            assert "frsz2.decode_tile" in dispatch.jit_unavailable_reason()
        finally:
            monkeypatch.undo()
            dispatch._reset_engine_cache()

    @requires_jit
    def test_selftest_gates_the_fused_reductions(self, monkeypatch):
        """A dot whose lanes are summed in another tree order — right to
        the last bit but one on most inputs — must not load."""

        real = cbackend._Rows.fused_dot

        def pairwise_late(self, j, n, tile, w, h):
            # two half-tiles instead of one tile: same values, same
            # lanes, another association of the partial sums
            return real(self, j, n, tile // 2 if tile >= 16 else tile, w, h)

        # the walk every source of the engine inherits: the one a solve takes
        monkeypatch.setattr(cbackend._Rows, "fused_dot", pairwise_late)
        dispatch._reset_engine_cache()
        try:
            assert dispatch.load_engine() is None
            assert "fused.dot_basis" in dispatch.jit_unavailable_reason()
        finally:
            monkeypatch.undo()
            dispatch._reset_engine_cache()

    @requires_jit
    def test_selftest_crosses_a_piece_boundary(self, monkeypatch):
        """The sweep's lanes live across the pieces of a tile.  An engine
        that starts them afresh at every piece is right for any tile of
        one piece — every operand the self-test had before the sweep —
        and must not load."""

        real = cbackend._Rows.fused_axpy_dot

        def lanes_per_piece(self, j, n, tile, y, w, u):
            return real(self, j, n, min(tile, self._engine.fused_piece), y, w, u)

        monkeypatch.setattr(cbackend._Rows, "fused_axpy_dot", lanes_per_piece)
        dispatch._reset_engine_cache()
        try:
            assert dispatch.load_engine() is None
            reason = dispatch.jit_unavailable_reason()
            assert "fused.axpy_dot" in reason and "n=589" in reason
        finally:
            monkeypatch.undo()
            dispatch._reset_engine_cache()

    @requires_jit
    def test_declarations_are_read_off_the_c_source(self):
        """cffi's ABI mode checks no prototype against the library, so
        there is one spelling of each: what cffi is told is derived from
        ``C_SOURCE``, and names exactly what the built library exports."""
        import re
        import shutil
        import subprocess

        declared = {  # the name before a prototype's "(" or a constant's ";"
            re.search(r"(\w+)\s*(?:\(|$)", declaration.strip()).group(1)
            for declaration in cbackend._CDEF.split(";") if declaration.strip()
        }
        assert len(declared) == 22 == cbackend._CDEF.count(";")
        assert "SOURCE" not in cbackend._CDEF  # every macro expanded
        assert cbackend._CDEF == cbackend._declarations(cbackend.C_SOURCE)
        assert dispatch.jit_unavailable_reason() is None
        engine = dispatch.load_engine()
        for name in declared:  # each resolves in the library that loaded
            getattr(engine._lib, name)
        if shutil.which("nm"):
            symbols = subprocess.run(
                ["nm", "-D", "--defined-only", cbackend._build_library()],
                check=True, capture_output=True, text=True).stdout
            # ISA clones export ``name.default`` etc. beside ``name``
            exported = {line.split()[-1] for line in symbols.splitlines()}
            assert {s for s in exported if re.fullmatch(r"[a-z]\w*", s)} == declared

    @requires_jit
    def test_rejected_clones_fall_back_to_the_plain_build(
            self, monkeypatch, tmp_path):
        """A compiler that rejects the ISA-clone attribute still yields
        an engine — the plain build of the same source, self-test green —
        and the engine says why it has no clones, on every later load."""
        from repro.jit import selftest

        host = dispatch.load_engine()
        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
        monkeypatch.setattr(
            cbackend, "C_SOURCE",
            cbackend.C_SOURCE.replace('"arch=x86-64-v4"', '"arch=no-such-isa"'))
        assert "no-such-isa" in cbackend.C_SOURCE
        for _ in range(2):  # a fresh build, then the cached library
            engine = cbackend.CEngine()
            selftest.run(engine)
            assert engine.isa == "baseline"
            if host.isa == "baseline":  # no clones to reject on this platform
                assert engine.clone_fallback is None
            else:
                assert "rejected the cloned build" in engine.clone_fallback
                assert "no-such-isa" in engine.clone_fallback
        assert len(list(tmp_path.glob("*.so"))) == 1
        assert host.isa in ("baseline", "default", "x86-64-v4")

    @requires_jit
    def test_selftest_gates_the_scheduled_sweeps(self, monkeypatch):
        """A sweep that walks its levels in another order — every row
        still computed once, by the same operations — reads entries
        before they are solved and must not load; nor may a
        factorisation off by one bit in one multiplier."""

        class LevelsReversed(cbackend.CEngine):
            def lower_unit_trisolve(self, indptr, indices):
                sweep = super().lower_unit_trisolve(indptr, indices)
                sweep.order[:] = sweep.order[::-1].copy()
                return sweep

        class OneMultiplierOff(cbackend.CEngine):
            def ilu0_factor(self, indptr, cols, vals):
                lu, diag_pos, row = super().ilu0_factor(indptr, cols, vals)
                lu.view(np.uint64)[indptr[1]] ^= np.uint64(1)
                return lu, diag_pos, row

        for broken, family in ((LevelsReversed, "prec.lower_trisolve"),
                               (OneMultiplierOff, "prec.ilu0_factor")):
            monkeypatch.setattr(cbackend, "CEngine", broken)
            dispatch._reset_engine_cache()
            try:
                assert dispatch.load_engine() is None
                assert family in dispatch.jit_unavailable_reason()
            finally:
                monkeypatch.undo()
                dispatch._reset_engine_cache()

    @requires_jit
    def test_selftest_is_small_and_quick(self):
        """Every process that asks for ``backend="jit"`` pays the
        self-test once, in wall and in resident memory: its operands
        stay a few hundred values — but for one case per family that the
        pool splits, which holds the pool's minimum of values (half a MiB
        per float64 array) — and the fused family a few ms."""
        import time
        import tracemalloc

        from repro.jit import selftest

        engine = dispatch.load_engine()
        tracemalloc.start()
        try:
            selftest.run(engine)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        walls = []
        for _ in range(5):
            t0 = time.perf_counter()
            selftest._check_fused(engine, np.random.default_rng(0))
            walls.append(time.perf_counter() - t0)
        # the family is what this engine's self-test adds to the parent's
        assert min(walls) < 0.020
        # so is the prec.* family: its references are Python loops over
        # seven chunks of rows, every one a few ms at engine load
        walls = []
        for _ in range(5):
            t0 = time.perf_counter()
            selftest._check_prec(engine, np.random.default_rng(0))
            walls.append(time.perf_counter() - t0)
        assert min(walls) < 0.010

    @requires_jit
    def test_selftest_covers_both_decoder_branches(self):
        """Self-test inputs must put blocks on both sides of the
        exact-scale split for every bit length it runs."""
        from repro.jit import selftest

        rng = np.random.default_rng(0)
        small = selftest._sample_small(rng, 203)
        large = selftest._sample_values(rng, 203)
        for l in (16, 21, 32, 51):
            e_small = FRSZ2(l).compress(small).exponents
            assert (e_small >= l - 1).any() and (e_small < l - 1).any()
            assert (FRSZ2(l).compress(large).exponents[:-1] == 2046).all()


# ----------------------------------------------------------------------
# codec round-trips
# ----------------------------------------------------------------------


def _sample(n=1537, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * np.exp(rng.uniform(-40, 40, n))
    x[:5] = [0.0, -0.0, 1.0, -1.0, 2.0 ** -300]
    return x


@pytest.mark.parametrize("backend", BACKENDS)
class TestCodecBitIdentity:
    # 16/32/64 exercise the aligned layouts, 21/13 the straddling
    # word-stream path, 52 a straddling width with a >32-bit field
    @pytest.mark.parametrize("bit_length", [13, 16, 21, 32, 52, 64])
    @pytest.mark.parametrize("rounding", [False, True])
    def test_roundtrip_matches_numpy(self, backend, bit_length, rounding):
        x = _sample()
        ref = FRSZ2(bit_length=bit_length, rounding=rounding)
        alt = FRSZ2(bit_length=bit_length, rounding=rounding, backend=backend)
        assert alt.backend == backend
        c_ref, c_alt = ref.compress(x), alt.compress(x)
        np.testing.assert_array_equal(c_ref.exponents, c_alt.exponents)
        np.testing.assert_array_equal(c_ref.payload, c_alt.payload)
        np.testing.assert_array_equal(
            ref.decompress(c_ref), alt.decompress(c_alt)
        )

    def test_gather_and_block_paths_match_numpy(self, backend):
        x = _sample(1000, seed=9)
        ref = FRSZ2(bit_length=21)
        alt = FRSZ2(bit_length=21, backend=backend)
        c_ref, c_alt = ref.compress(x), alt.compress(x)
        idx = np.array([0, 7, 999, 511, 7])
        np.testing.assert_array_equal(ref.get(c_ref, idx), alt.get(c_alt, idx))
        blocks = [0, 3, c_ref.layout.num_blocks - 1, 3]
        for a, b in zip(ref.decompress_blocks(c_ref, blocks),
                        alt.decompress_blocks(c_alt, blocks)):
            np.testing.assert_array_equal(a, b)
        comps_ref = [ref.compress(_sample(1000, seed=s)) for s in (1, 2, 3)]
        comps_alt = [alt.compress(_sample(1000, seed=s)) for s in (1, 2, 3)]
        for a, b in zip(ref.decompress_blocks_batch(comps_ref, blocks),
                        alt.decompress_blocks_batch(comps_alt, blocks)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bit_length", [8, 16, 21, 32, 52, 64])
    @pytest.mark.parametrize("block_size", [32, 5])
    def test_tile_windows_match_numpy(self, backend, bit_length, block_size):
        ref = FRSZ2(bit_length=bit_length, block_size=block_size)
        alt = FRSZ2(bit_length=bit_length, block_size=block_size,
                    backend=backend)
        n = 203
        xs = [_sample(n, seed=s) for s in (1, 2, 3)]
        xs[1] *= 2.0 ** -1000  # tiny blocks: flush-to-zero decode
        comps_ref = [ref.compress(x) for x in xs]
        comps_alt = [alt.compress(x) for x in xs]
        # a stored exponent a fault injector flipped out of range
        for comps in (comps_ref, comps_alt):
            comps[2].exponents[0] = 3000
            comps[2].exponents[1] = -7
        full = np.array([ref.decompress(c) for c in comps_ref])
        for j in (1, 3):
            decode = alt.tile_decoder(comps_alt[:j])
            for i0, i1 in [(0, n), (0, 64), (37, 101), (190, n), (66, 69), (9, 9)]:
                out = np.full((j, i1 - i0 + 3), np.nan)
                decode(i0, i1, out)
                np.testing.assert_array_equal(
                    out[:, :i1 - i0].view(np.uint64),
                    full[:j, i0:i1].view(np.uint64),
                )
                assert np.isnan(out[:, i1 - i0:]).all()

    def test_tile_decoder_reads_the_arrays_in_place(self, backend):
        codec = FRSZ2(bit_length=32, backend=backend)
        comps = [codec.compress(_sample(100, seed=s)) for s in (1, 2)]
        decode = codec.tile_decoder(comps)
        out = np.empty((2, 100))
        decode(0, 100, out)
        before = out.copy()
        comps[1].payload[40] ^= np.uint32(1 << 29)
        decode(0, 100, out)
        assert out[1, 40] != before[1, 40]
        np.testing.assert_array_equal(out[0], before[0])
        np.testing.assert_array_equal(out[1], codec.decompress(comps[1]))

    def test_tile_decoder_serves_read_only_containers(self, backend):
        from repro.core.serialize import dump_bytes, load_bytes

        codec = FRSZ2(bit_length=21, backend=backend)
        comp = load_bytes(dump_bytes(codec.compress(_sample(100))))
        out = np.empty((1, 100))
        codec.decode_tile([comp], 0, 100, out)
        np.testing.assert_array_equal(out[0], codec.decompress(comp))

    def test_tile_decoder_rejects_what_it_cannot_walk(self, backend):
        from repro.core.frsz2 import Frsz2Compressed

        codec = FRSZ2(bit_length=32, backend=backend)
        comp = codec.compress(_sample(100))
        with pytest.raises(ValueError, match="at least one"):
            codec.tile_decoder([])
        with pytest.raises(ValueError, match="same-layout"):
            codec.tile_decoder([comp, codec.compress(_sample(99))])
        decode = codec.tile_decoder([comp])
        with pytest.raises(IndexError):
            decode(0, 101, np.empty((1, 101)))
        with pytest.raises(IndexError):
            decode(5, 4, np.empty((1, 8)))
        for bad in (
            np.empty((2, 100)),                # one row per container
            np.empty((1, 63)),                 # narrower than the window
            np.empty((1, 100), dtype=np.float32),
            np.empty((1, 200))[:, ::2],        # not C-contiguous
            np.empty(100),
        ):
            with pytest.raises(ValueError, match="out must be"):
                decode(0, 64, bad)
        # a container whose arrays disagree with its layout would send
        # the C loop out of bounds
        short = Frsz2Compressed(comp.layout, comp.exponents, comp.payload[:64])
        with pytest.raises(ValueError, match="do not match"):
            codec.tile_decoder([short])

    def test_accessor_write_read_matches_numpy(self, backend):
        x = _sample(777, seed=5)
        ref = make_accessor("frsz2_21", 777)
        alt = make_accessor("frsz2_21", 777, backend=backend)
        ref.write(x)
        alt.write(x)
        np.testing.assert_array_equal(ref.read(), alt.read())


@pytest.mark.parametrize("backend", BACKENDS)
class TestHostileContainers:
    """A container enters the codec through one check of its arrays
    against its layout: anything else is the same named ``ValueError``
    from every decode on both backends — never an unnamed ``IndexError``
    (numpy), heap garbage or a segfault (C indexing by the layout)."""

    MALFORMED = "container arrays do not match their block layout"

    @staticmethod
    def _malformed(comp):
        from repro.core.frsz2 import Frsz2Compressed

        e, p = comp.exponents, comp.payload
        wide = np.uint64 if p.dtype != np.uint64 else np.uint32
        return {
            # the issue's repro: 1e241-sized values under the parent's jit
            "both truncated": Frsz2Compressed(comp.layout, e[:2].copy(), p[:40].copy()),
            "payload short": Frsz2Compressed(comp.layout, e, p[:-1].copy()),
            "payload long": Frsz2Compressed(comp.layout, e, np.append(p, p[:1])),
            "payload dtype": Frsz2Compressed(comp.layout, e, p.astype(wide)),
            "payload signed": Frsz2Compressed(comp.layout, e, p.view(p.dtype.str.replace("u", "i"))),
            "payload 2-D": Frsz2Compressed(comp.layout, e, p.reshape(1, -1)),
            "exponents short": Frsz2Compressed(comp.layout, e[:-1].copy(), p),
            "exponents float": Frsz2Compressed(comp.layout, e.astype(np.float64), p),
        }

    @pytest.mark.parametrize("bit_length", [32, 21])
    def test_every_decode_names_a_malformed_container(self, backend, bit_length):
        n = 4096
        codec = FRSZ2(bit_length=bit_length, backend=backend)
        assert codec.backend == backend
        comp = codec.compress(_sample(n, seed=11))
        for what, bad in self._malformed(comp).items():
            acc = make_accessor(f"frsz2_{bit_length}", n, backend=backend)
            decodes = {
                "decompress": lambda: codec.decompress(bad),
                "get": lambda: codec.get(bad, 5),
                "decompress_block": lambda: codec.decompress_block(bad, 3),
                "decompress_blocks": lambda: codec.decompress_blocks(bad, [0, 3]),
                "decompress_blocks_batch (window)":
                    lambda: codec.decompress_blocks_batch([comp, bad], [0, 1]),
                "decompress_blocks_batch (gather)":
                    lambda: codec.decompress_blocks_batch([comp, bad], [3, 0]),
                "tile_decoder": lambda: codec.tile_decoder([comp, bad]),
                "decode_tile": lambda: codec.decode_tile(
                    [bad], 0, 64, np.empty((1, 64))),
                # stored (jit checks there) or read (numpy decodes there)
                "read": lambda: (acc._store(bad), acc.read()),
                "read_into": lambda: (acc._store(bad), acc.read_into(np.empty(n))),
                "read_tile": lambda: (acc._store(bad), acc.read_tile(0, 64)),
                "read_block": lambda: (acc._store(bad), acc.read_block(1)),
            }
            for name, decode in decodes.items():
                with pytest.raises(ValueError, match=self.MALFORMED):
                    decode()
                    pytest.fail(f"{name} decoded a container with {what}")

    def test_a_refused_container_leaves_the_accessor_as_it_was(self, backend):
        n = 300
        x = _sample(n, seed=4)
        acc = make_accessor("frsz2_32", n, backend=backend)
        acc.write(x)
        before = acc.read()
        bad = self._malformed(acc.compressed)["both truncated"]
        if backend == "jit":
            with pytest.raises(ValueError, match=self.MALFORMED):
                acc._store(bad)
            assert acc.compressed is not bad
        np.testing.assert_array_equal(acc.read_into(np.empty(n)), before)

    def test_the_gather_kernel_checks_its_indices(self, backend):
        gather = dispatch.get_kernel("frsz2.decode_gather", backend)
        for bit_length in (32, 21):
            codec = FRSZ2(bit_length=bit_length, backend=backend)
            comp = codec.compress(_sample(100))
            for idx in ([0, 100], [-1], [3, 1 << 40], [99, -(1 << 40)]):
                with pytest.raises(IndexError, match="out of range"):
                    gather(comp, np.array(idx))
                with pytest.raises(IndexError, match="out of range"):
                    codec.get(comp, idx)
            np.testing.assert_array_equal(
                gather(comp, np.array([99, 0])), codec.decompress(comp)[[99, 0]]
            )
            assert gather(comp, np.zeros(0, dtype=np.int64)).shape == (0,)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.int16])
    def test_any_integer_exponent_stream_decodes_to_the_same_bits(
            self, backend, dtype):
        """A hand-built container need not carry ``int32`` exponents: it
        decodes through a converted copy made for the call, and no
        pointer into such a copy is ever kept."""
        from repro.core.frsz2 import Frsz2Compressed

        n = 203
        for bit_length in (32, 21):
            codec = FRSZ2(bit_length=bit_length, backend=backend)
            comp = codec.compress(_sample(n, seed=2))
            hand = Frsz2Compressed(
                comp.layout, comp.exponents.astype(dtype), comp.payload)
            want = codec.decompress(comp).view(np.uint64)
            assert codec.row_pointers(hand) is None
            np.testing.assert_array_equal(
                codec.decompress(hand).view(np.uint64), want)
            idx = np.array([0, 77, n - 1])
            np.testing.assert_array_equal(
                codec.get(hand, idx).view(np.uint64), want[idx])
            out = np.empty((2, 40))
            codec.decode_tile([comp, hand], 37, 77, out)
            np.testing.assert_array_equal(out[1].view(np.uint64), want[37:77])
            acc = make_accessor(f"frsz2_{bit_length}", n, backend=backend)
            acc._store(hand)
            assert acc._pointers is None and acc._table is None
            np.testing.assert_array_equal(acc.read().view(np.uint64), want)
            # read afresh: the next decode sees an in-place change
            hand.exponents[0] += 1
            assert acc.read()[:32].tobytes() != want[:32].tobytes()


@requires_jit
@pytest.mark.parametrize("bit_length", [16, 21, 32])
def test_a_write_allocates_what_it_stores(bit_length):
    """The C encode stores each field at its stored width: one compress
    peaks at the container it returns (plus slack for small objects),
    not at an ``n``-long ``uint64`` field array — 2–4x the container —
    beside it."""
    import tracemalloc

    n = 110_592
    codec = FRSZ2(bit_length=bit_length, backend="jit")
    x = _sample(n, seed=6)
    codec.compress(x)  # the layout, the interpreter's caches
    tracemalloc.start()
    try:
        comp = codec.compress(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * comp.nbytes + (16 << 10), (peak, comp.nbytes)


# ----------------------------------------------------------------------
# SpMV formats
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fmt", sorted(SPMV_FORMATS))
class TestSpmvBitIdentity:
    def test_matvec_and_matmat_match_numpy(self, backend, fmt):
        a = build_matrix("atmosmodd", "smoke")
        rng = np.random.default_rng(0)
        x = rng.standard_normal(a.shape[1])
        X = rng.standard_normal((a.shape[1], 3))
        ref = SpmvEngine(a, format=fmt, backend="numpy")
        alt = SpmvEngine(a, format=fmt, backend=backend)
        np.testing.assert_array_equal(ref.matvec(x), alt.matvec(x))
        np.testing.assert_array_equal(ref.matmat(X), alt.matmat(X))


#: ``out`` buffers a compiled kernel must never write through: a wrong
#: dtype or length overran the heap, a strided or aliased one gave a
#: wrong ``y`` without a word
HOSTILE_OUT = {
    "float32": lambda x, m: np.empty(m, dtype=np.float32),
    "short": lambda x, m: np.empty(m // 2),
    "long": lambda x, m: np.empty(m + 1000),
    "strided": lambda x, m: np.empty(2 * m)[::2],
    "aliased": lambda x, m: x,
    "readonly": lambda x, m: np.frombuffer(bytes(8 * m)),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fmt", sorted(SPMV_FORMATS))
class TestSpmvHostileOut:
    @pytest.mark.parametrize("case", sorted(HOSTILE_OUT))
    def test_out_is_a_named_error(self, backend, fmt, case):
        a = build_matrix("atmosmodd", "smoke")
        engine = SpmvEngine(a, format=fmt, backend=backend)
        x = np.random.default_rng(0).standard_normal(a.shape[1])
        before = x.copy()
        with pytest.raises(ValueError, match="out"):
            engine.matvec(x, out=HOSTILE_OUT[case](x, a.shape[0]))
        np.testing.assert_array_equal(x, before)
        np.testing.assert_array_equal(engine.matvec(x), a.matvec(x))


# ----------------------------------------------------------------------
# fused modes and full solves
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def problem():
    return make_problem("lung2", "smoke")


@pytest.mark.parametrize("backend", BACKENDS)
class TestSolveBitIdentity:
    @pytest.mark.parametrize("basis_mode", ["cached", "streaming"])
    def test_fused_solve_matches_numpy(self, problem, backend, basis_mode):
        def run(b):
            return CbGmres(
                problem.a, "frsz2_21", m=30, max_iter=300,
                spmv_format="sell", basis_mode=basis_mode, backend=b,
            ).solve(problem.b, problem.target_rrn)

        ref, alt = run("numpy"), run(backend)
        assert np.array_equal(ref.x, alt.x)
        assert ref.iterations == alt.iterations
        assert [(s.iteration, s.rrn) for s in ref.history] == \
            [(s.iteration, s.rrn) for s in alt.history]

    @pytest.mark.parametrize("storage", ["float64", "frsz2_32", "adaptive"])
    def test_storages_match_numpy(self, problem, backend, storage):
        def run(b):
            return CbGmres(
                problem.a, storage, m=30, max_iter=400, backend=b
            ).solve(problem.b, problem.target_rrn)

        ref, alt = run("numpy"), run(backend)
        assert np.array_equal(ref.x, alt.x)
        assert ref.iterations == alt.iterations
        assert ref.final_rrn == alt.final_rrn

    @pytest.mark.parametrize("prec_name,prec_storage", [
        ("jacobi", "float64"),
        ("block_jacobi", "frsz2_16"),
        ("ilu0", "float64"),
        ("ilu0", "frsz2_32"),
    ])
    @pytest.mark.parametrize("basis_mode", ["cached", "streaming"])
    def test_preconditioned_solve_matches_numpy(
        self, problem, backend, prec_name, prec_storage, basis_mode
    ):
        from repro.solvers import make_preconditioner

        def run(b):
            prec = make_preconditioner(
                prec_name, problem.a, storage=prec_storage, backend=b
            )
            return CbGmres(
                problem.a, "frsz2_32", m=30, max_iter=300,
                basis_mode=basis_mode, backend=b, preconditioner=prec,
            ).solve(problem.b, problem.target_rrn)

        ref, alt = run("numpy"), run(backend)
        assert np.array_equal(ref.x, alt.x)
        assert ref.iterations == alt.iterations
        assert [(s.iteration, s.rrn) for s in ref.history] == \
            [(s.iteration, s.rrn) for s in alt.history]


@requires_jit
def test_trisolve_kernels_match_numpy_bitwise():
    """The triangular-solve bit-identity suite: the jit engine's
    scheduled sweeps must give what the pure-Python reference
    recurrence gives in natural order (multiply-then-subtract
    rounding order), here on rows that reach anywhere before them.
    ``tests/test_preconditioner.py`` holds the storage x pattern grid."""
    rng = np.random.default_rng(42)
    n = 211
    rows = [
        np.unique(rng.integers(0, i, min(5, i)))
        if i else np.empty(0, np.int64)
        for i in range(n)
    ]
    ip = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([r.size for r in rows], out=ip[1:])
    cols = np.concatenate(rows).astype(np.int64)
    vals = rng.standard_normal(cols.size) * np.exp2(
        rng.integers(-40, 40, cols.size).astype(float)
    )
    b = rng.standard_normal(n)
    lower_np = dispatch.get_kernel("prec.lower_trisolve", "numpy")(ip, cols)
    lower_jit = dispatch.get_kernel("prec.lower_trisolve", "jit")(ip, cols)
    np.testing.assert_array_equal(
        np.asarray(lower_np(vals, b)).view(np.uint64),
        np.asarray(lower_jit(vals, b)).view(np.uint64),
    )
    udiag = rng.standard_normal(n) + 2.0 * np.sign(
        rng.standard_normal(n)
    )
    urows = [
        np.unique(rng.integers(i + 1, n, min(5, n - 1 - i)))
        if i < n - 1 else np.empty(0, np.int64)
        for i in range(n)
    ]
    uip = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([r.size for r in urows], out=uip[1:])
    ucols = np.concatenate(urows).astype(np.int64)
    uvals = rng.standard_normal(ucols.size)
    upper_np = dispatch.get_kernel("prec.upper_trisolve", "numpy")(uip, ucols)
    upper_jit = dispatch.get_kernel("prec.upper_trisolve", "jit")(uip, ucols)
    np.testing.assert_array_equal(
        np.asarray(upper_np(uvals, udiag, b)).view(np.uint64),
        np.asarray(upper_jit(uvals, udiag, b)).view(np.uint64),
    )
    for bs in (8, 5):
        nb = -(-n // bs)
        blocks = rng.standard_normal(nb * bs * bs)
        bd_np = dispatch.get_kernel("prec.block_diag_apply", "numpy")
        bd_jit = dispatch.get_kernel("prec.block_diag_apply", "jit")
        np.testing.assert_array_equal(
            np.asarray(bd_np(blocks, b, bs, n)).view(np.uint64),
            np.asarray(bd_jit(blocks, b, bs, n)).view(np.uint64),
        )
