"""Bit-identity self-test the JIT engine must pass before acceptance.

:func:`repro.jit.dispatch.load_engine` runs :func:`run` on the engine;
any mismatch (or crash) rejects it and ``backend='jit'`` degrades to
the numpy backend.  It is the only gate between a freshly compiled
library and the solvers, and the first line of the byte-equality contract — the parametrized
backend suite in ``tests/test_jit.py`` is the second.

The inputs deliberately cover the codec's edge geometry: straddling and
aligned bit lengths, partial trailing blocks, rounding carries, signed
zeros, subnormals, huge dynamic range within one block — and both sides
of the decoder's exact-scale/bit-assembly split: blocks whose
``e_max`` is the largest double's, ordinary-magnitude blocks, tiny
blocks whose low values fall below the normal range, and all-subnormal
blocks.
"""

from __future__ import annotations

from functools import partial

import numpy as np

__all__ = ["run"]


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(f"jit self-test mismatch: {what}")


def _sample_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Finite float64 values exercising every codec branch."""
    x = rng.standard_normal(n) * np.exp2(rng.integers(-320, 300, n).astype(float))
    x[:: 7] = 0.0
    x[1:: 11] = -0.0
    x[2:: 13] = 5e-324  # subnormal
    x[3:: 17] = -1.7976931348623157e308  # e_max = 2046 in every full block
    return x


def _sample_small(rng: np.random.Generator, n: int) -> np.ndarray:
    """Blocks the largest double does not dominate.

    Thirds of the vector: ordinary magnitudes (every value normal after
    decode: the exact-scale branch for ``l <= 54``), values near the
    bottom of the normal range (``e_max < l - 1`` for wide ``l``: bit
    assembly with flush-to-zero), and subnormals only (``e_max = 1``).
    """
    x = rng.standard_normal(n)
    x[::9] = 0.0
    x[1::10] = -0.0
    third = n // 3
    x[third:2 * third] *= 2.0 ** -1010
    x[2 * third:] = rng.integers(-(1 << 40), 1 << 40, n - 2 * third) * 5e-324
    return x


def _same_bits(ref: np.ndarray, got: np.ndarray) -> bool:
    """Same dtype, shape and bytes."""
    return (ref.dtype == got.dtype and ref.shape == got.shape
            and ref.tobytes() == got.tobytes())


def _check_codec(engine, rng: np.random.Generator) -> None:
    """The three codec kernels against the numpy codec: the encode as the
    stored container's bytes, the one-row whole-vector window a
    ``decompress`` is, and the gather."""
    from ..core.frsz2 import FRSZ2

    x = _sample_values(rng, 203)  # partial trailing block for bs in {32, 5}
    for bit_length in (16, 21, 32, 51, 64):
        for rounding in (False, True):
            for block_size in (32, 5):
                codec = FRSZ2(
                    bit_length=bit_length,
                    block_size=block_size,
                    rounding=rounding,
                )
                tag = f"l={bit_length} bs={block_size} rounding={rounding}"
                comp = codec.compress(x)
                payload, exponents = engine.encode(x, comp.layout, rounding)
                _expect(
                    _same_bits(comp.payload, payload)
                    and _same_bits(comp.exponents, exponents),
                    f"frsz2.encode ({tag})",
                )
                got_full = np.empty((1, x.size))
                engine.decode_tile([comp])(0, x.size, got_full)
                _expect(
                    _same_bits(codec.decompress(comp), got_full[0]),
                    f"frsz2.decode_tile (whole container, {tag})",
                )
                idx = rng.integers(0, x.size, 97)
                _expect(
                    _same_bits(codec.get(comp, idx),
                               engine.decode_gather(comp, idx)),
                    f"frsz2.decode_gather ({tag})",
                )


def _check_decode_tile(engine, rng: np.random.Generator) -> None:
    """The block decoder against the reference pass, as raw bits."""
    from ..core.frsz2 import FRSZ2, decode_tile_numpy

    n = 203  # partial trailing block for bs in {32, 5}
    vectors = [_sample_small(rng, n), _sample_values(rng, n),
               _sample_small(rng, n)]
    # every slot width of the C decoder (uint16, uint32, uint64, packed
    # <= 32 bits, packed > 32 bits), then short blocks
    for bit_length, block_size in (
        (16, 32), (21, 32), (32, 32), (51, 32), (64, 32), (21, 5), (32, 5)
    ):
        codec = FRSZ2(bit_length=bit_length, block_size=block_size)
        comps = [codec.compress(x) for x in vectors]
        ref = np.empty((3, n))
        decode_tile_numpy(comps)(0, n, ref)
        ref = ref.view(np.uint64)
        # whole vector; mid-block start to the partial trailing block;
        # inside one block — into rows wider than the window
        for j in (1, 3):
            table = engine.decode_tile(comps[:j])
            for i0, i1 in ((0, n), (37, n), (66, 69)):
                got = np.zeros((j, n + 3))
                table(i0, i1, got)
                got = got.view(np.uint64)
                _expect(
                    np.array_equal(got[:, :i1 - i0], ref[:j, i0:i1])
                    and not got[:, i1 - i0:].any(),
                    f"frsz2.decode_tile (l={bit_length} bs={block_size} "
                    f"j={j} [{i0}, {i1}))",
                )


def _check_fused(engine, rng: np.random.Generator) -> None:
    """The fused reductions against the written order's numpy spelling.

    The walks are those of the engine's own row sources
    (``engine.dense_rows`` / ``engine.row_table``): the route a solve takes.
    Float64 rows read in place and FRSZ2 rows decoded in the kernel must
    both reproduce ``dot_rows_numpy`` / ``axpy_rows_numpy`` — and the
    sweep the one after the other, which is its definition — over the
    decoded rows bit for bit: tiles with and without a
    ``len mod 8`` tail, a tile not aligned to the block size, signed
    zeros, subnormals and terms 600 orders of magnitude apart.  The short
    sources cover every slot width; a long one crosses the axpy's piece
    boundary, where a group of four rows continues into the next piece
    and the sweep's lanes must persist from one piece to the next; its
    dot spans more tiles than one round of partials holds.  A call that
    runs alone takes its tiles last first, so partials added in any order
    but the tiles' fail here already.  Last, rows the pool splits: on two
    threads and on the pool's, each walk must repeat its one-thread bits.
    """
    from ..core.blocks import BlockLayout
    from ..core.frsz2 import FRSZ2, Frsz2Compressed, decode_tile_numpy
    from ..fused.kernels import axpy_rows_numpy, dot_rows_numpy

    def sample(n):
        # ordinary rows next to each other, so that any reassociation of
        # a sum rounds differently somewhere; a reversed sample puts
        # ordinary magnitudes in the ``len mod 8`` tail
        vectors = [_sample_small(rng, n), rng.standard_normal(n),
                   rng.standard_normal(n), _sample_small(rng, n)[::-1].copy(),
                   rng.standard_normal(n), rng.standard_normal(n)]
        # an ordinary operand, whose sums feel every reassociation, for
        # all sources; a hostile one (its 1e300 terms absorb their
        # neighbours) for the float64 rows only — the lane code is shared
        plain = rng.standard_normal(n) * np.exp2(
            rng.integers(-8, 8, n).astype(float))
        hostile = plain.copy()
        hostile[::5] = -0.0
        hostile[3::31] = 1e300
        return vectors, plain, hostile

    def compressed(vectors, bit_length, block_size):
        comps = FRSZ2(bit_length, block_size).compress_batch(vectors)
        decoded = np.empty((len(comps), vectors[0].size))
        decode_tile_numpy(comps)(0, vectors[0].size, decoded)
        table = engine.row_table([engine.row_pointers(c) for c in comps])
        return f"l={bit_length} bs={block_size}", table, decoded

    def float64(vectors):
        dense = np.array(vectors)
        return "float64", engine.dense_rows(dense), dense

    piece = engine.fused_piece
    cases = []
    n = 203
    vectors, plain, hostile = sample(n)
    sources = [(*float64(vectors), (plain, hostile))]
    for bit_length, block_size in ((16, 32), (21, 32), (32, 32), (32, 5)):
        sources.append((*compressed(vectors, bit_length, block_size), (plain,)))
    # the sweep's tile walk is one piece here: a tile that ends inside a
    # block and leaves a ``mod 8`` tail, and n, do
    cases.append((n, (32, 40, n), (104, n), sources))
    # more than two pieces; tiles of one piece plus a tail that is not a
    # multiple of 8, of one piece plus one whole lane group, and of n; a
    # dot over more tiles than one round of partials holds
    n = 2 * piece + 77
    vectors, plain, _ = sample(n)
    sources = [(*float64(vectors), (plain,)),
               (*compressed(vectors, 32, 32), (plain,))]
    tiles = (piece + 13, piece + 8, n)
    cases.append((n, (*tiles, 8), tiles, sources))

    y = np.array([0.5, 3.0, -0.25, 7.0, -1.75, 1.5])

    for n, tiles, sweep_tiles, sources in cases:
        for tag, rows, dense, operands in sources:
            tag = f"{tag} n={n}"
            for w in operands:
                for tile in tiles:
                    # a dot's rows are independent: one reference for any j
                    ref = np.zeros(y.size)
                    dot_rows_numpy(dense, y.size, n, tile, w, ref)
                    for j in (1, 6):
                        _expect(_same_bits(ref[:j], _dot(rows, j, n, tile, w)),
                                f"fused.dot_basis ({tag} j={j} tile={tile})")
                for j in (1, 6):  # axpy: the first row alone; a group of four + one
                    combined = w.copy()
                    axpy_rows_numpy(dense, j, n, y, combined, True)
                    _expect(_same_bits(combined, _axpy(rows, j, n, y, w, True)),
                            f"fused.combine ({tag} j={j})")
                    # element for element, the axpy is w minus the combine
                    updated = w - combined
                    _expect(_same_bits(updated, _axpy(rows, j, n, y, w, False)),
                            f"fused.axpy ({tag} j={j})")
                    # the sweep is the axpy, then the dot of what it left;
                    # the ordinary operand does, the lane code is shared
                    for tile in sweep_tiles if w is operands[0] else ():
                        ref = np.zeros(j)
                        dot_rows_numpy(dense, j, n, tile, updated, ref)
                        _expect(_same_bits(np.concatenate((ref, updated)),
                                           _sweep(rows, j, n, tile, y, w)),
                                f"fused.axpy_dot ({tag} j={j} tile={tile})")

    # rows the pool splits — more values than its minimum, more tiles than
    # a round of partials holds: on two threads and on the pool's, every
    # walk repeats the bits it has on one, which the cases above hold to
    # the numpy spelling
    n_tiles = engine.fused_round + 7  # one round of tiles and then some
    n = max(-(-engine.pool_min_work // y.size), 8 * n_tiles)
    dense, plain = rng.standard_normal((y.size, n)), rng.standard_normal(n)
    layout = BlockLayout(n, 32, 32)
    comps = []
    for v in dense:  # the codec is held to numpy above
        payload, exponents = engine.encode(v, layout, False)
        comps.append(Frsz2Compressed(layout, exponents, payload))
    walks = []
    for tag, rows in (
            ("float64", engine.dense_rows(dense)),
            ("l=32 bs=32", engine.row_table(map(engine.row_pointers, comps)))):
        for tile in (n // n_tiles, n):
            walks += [
                (f"fused.dot_basis ({tag} tile={tile}",
                 partial(_dot, rows, y.size, n, tile, plain)),
                (f"fused.axpy_dot ({tag} tile={tile}",
                 partial(_sweep, rows, y.size, n, tile, y, plain))]
        walks.append((f"fused.axpy ({tag}",
                      partial(_axpy, rows, y.size, n, y, plain, False)))
    pool = engine.threads
    try:
        engine.set_threads(1)
        alone = [walk() for _, walk in walks]
        for count in sorted({2, pool}):
            engine.set_threads(count)
            # thrice: a helper that woke late for a call did no tile of it
            for (what, walk), ref in 3 * list(zip(walks, alone)):
                _expect(_same_bits(ref, walk()),
                        f"{what} n={n} T={count} against T=1)")
    finally:
        engine.set_threads(pool)


def _dot(rows, j, n, tile, w):
    h = np.zeros(j)
    rows.fused_dot(j, n, tile, w, h)
    return h


def _axpy(rows, j, n, y, w, store):
    out = w.copy()
    rows.fused_axpy(j, n, n, y, out, store)
    return out


def _sweep(rows, j, n, tile, y, w):
    u, out = np.zeros(j), w.copy()
    rows.fused_axpy_dot(j, n, tile, y, out, u)
    return np.concatenate((u, out))


def _csr_arrays(mask: np.ndarray, values: np.ndarray):
    """``(indptr, cols, values[mask])`` of the entries ``mask`` keeps."""
    indptr = np.zeros(mask.shape[0] + 1, dtype=np.int64)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    return indptr, np.nonzero(mask)[1].astype(np.int64), values[mask]


def _check_spmv(engine, rng: np.random.Generator) -> None:
    from ..sparse.csr import CSRMatrix
    from ..sparse.ell import ELLMatrix, ell_matvec_numpy
    from ..sparse.sell import SELLMatrix

    def product(kernel, *args, m):
        y = np.zeros(m)
        kernel(*args, y)
        return y.view(np.uint64)

    m = 70
    density = 0.15
    mask = rng.random((m, m)) < density
    np.fill_diagonal(mask, True)
    dense = np.where(mask, rng.standard_normal((m, m)), 0.0)
    a = CSRMatrix((m, m), *_csr_arrays(mask, dense))
    x = rng.standard_normal(m)

    ref = a.matvec(x).view(np.uint64)
    got = product(engine.csr_matvec, a._rows, a.indices, a.data, x, m=m)
    _expect(np.array_equal(ref, got), "spmv.csr_matvec")

    ell = ELLMatrix.from_csr(a)
    got = product(engine.ell_matvec, ell.cols_t, ell.vals_t, x, None, m=m)
    _expect(np.array_equal(ref, got), "spmv.ell_matvec")

    sell = SELLMatrix.from_csr(a, slice_size=8, sigma=16)
    y = np.zeros(m)
    for rows, cols_t, vals_t, _ in sell._groups:
        engine.sell_group_matvec(rows, cols_t, vals_t, x, None, y)
    _expect(np.array_equal(ref, y.view(np.uint64)), "spmv.sell_group_matvec")

    # rows of five entries, as many as the pool splits, on one thread, two
    # and the pool's: one matrix as an ELL rectangle, as a SELL width group
    # that stores row r at y[m - 1 - r], then as CSR triplets in row order
    width = 5
    m = -(-engine.pool_min_work // width)
    cols_t = (np.arange(m) + np.array([[0], [1], [-3], [97], [-m // 2]])) % m
    vals_t = rng.standard_normal((width, m))
    x = rng.standard_normal(m)
    ref = product(ell_matvec_numpy, cols_t, vals_t, x, None, m=m)
    reverse = np.arange(m)[::-1].copy()
    counts = sorted({1, 2, engine.threads})
    pool = engine.threads
    try:
        for count in counts:
            engine.set_threads(count)
            got = product(engine.ell_matvec, cols_t, vals_t, x, None, m=m)
            _expect(np.array_equal(ref, got),
                    f"spmv.ell_matvec (m={m} T={count})")
            got = product(engine.sell_group_matvec, reverse, cols_t, vals_t,
                          x, None, m=m)
            _expect(np.array_equal(ref, got[::-1]),
                    f"spmv.sell_group_matvec (m={m} T={count})")
        triplets = (np.repeat(np.arange(m), width), cols_t.T.copy(),
                    vals_t.T.copy())
        del cols_t, vals_t
        for count in counts:
            engine.set_threads(count)
            got = product(engine.csr_matvec, *triplets, x, m=m)
            _expect(np.array_equal(ref, got),
                    f"spmv.csr_matvec (m={m} T={count})")
    finally:
        engine.set_threads(pool)


def _banded_csr(rng: np.random.Generator, n: int, zero_pivot_row=None):
    """A diagonally dominant band matrix as column-sorted CSR arrays.

    ``zero_pivot_row = r`` empties rows ``r - 1`` and ``r`` down to a
    2 x 2 block of ones on the diagonal, so row ``r`` eliminates to
    ``u_rr = 1 - 1 * 1``: an exactly-zero pivot.
    """
    i, j = np.indices((n, n))
    mask = np.isin(j - i, (-9, -2, -1, 0, 1, 3, 7))
    dense = np.where(mask, rng.standard_normal((n, n)), 0.0) + 6.0 * np.eye(n)
    if zero_pivot_row is not None:
        r = zero_pivot_row
        dense[r - 1:r + 1] = 0.0
        dense[r - 1:r + 1, r - 1:r + 1] = 1.0
    return _csr_arrays(mask, dense)


def _chunked_pattern(n: int, rows: int, upper: bool):
    """A strictly-triangular pattern whose chunks of ``rows`` rows mostly
    keep to themselves — so one level holds more chunks than a lock-step
    group — while the chunks at the far end of the sweep reach five
    chunks back and into their neighbour, which makes two more levels.
    """
    i = np.arange(n)[:, None]
    step = np.array([5 * rows - 3, rows, 5, 1])
    late = (n - 1 - i if upper else i) >= 5 * rows
    j = i + step if upper else i - step
    keep = (j >= 0) & (j < n) & ((j // rows == i // rows) | (late & (step > 5)))
    if upper:
        j, keep = j[:, ::-1], keep[:, ::-1]  # ascending columns
    indptr, _, cols = _csr_arrays(keep, j)
    return indptr, cols.astype(np.int64)


def _check_prec(engine, rng: np.random.Generator) -> None:
    from ..core.frsz2 import FRSZ2
    from ..solvers import prec_kernels

    # the factorisation: every stored value, every diagonal position and
    # the row a zero pivot is reported at
    for zero_pivot_row in (None, 5):
        ip, cols, vals = _banded_csr(rng, 48, zero_pivot_row)
        ref_lu, ref_diag, ref_row = prec_kernels.ilu0_factor_numpy(ip, cols, vals)
        lu, diag, row = engine.ilu0_factor(ip, cols, vals)
        done = slice(None) if zero_pivot_row is None else slice(0, zero_pivot_row)
        _expect(
            row == ref_row == (-1 if zero_pivot_row is None else zero_pivot_row)
            and np.array_equal(ref_lu.view(np.uint64), lu.view(np.uint64))
            and np.array_equal(ref_diag[done], diag[done]),
            f"prec.ilu0_factor (zero pivot row: {zero_pivot_row})",
        )

    # the scheduled sweeps: seven chunks, the last one short, five of
    # them in one level; float64 values read in place and FRSZ2 values
    # decoded a chunk at a time must both replay the natural-order
    # recurrence over the same (decoded) values
    rows = engine.sweep_rows
    n = 6 * rows + 37
    b = rng.standard_normal(n) * np.exp2(rng.integers(-30, 30, n).astype(float))
    codec = FRSZ2(bit_length=21, block_size=32)
    for upper, name in ((False, "prec.lower_trisolve"), (True, "prec.upper_trisolve")):
        ip, cols = _chunked_pattern(n, rows, upper)
        comps = [codec.compress(rng.standard_normal(cols.size))]
        if upper:
            diag = rng.standard_normal(n)
            comps.append(codec.compress(diag + 2.0 * np.sign(diag)))
        dense = [codec.decompress(c) for c in comps]
        tables = [engine.row_table([engine.row_pointers(c)]) for c in comps]
        reference = (prec_kernels.upper_trisolve_numpy if upper
                     else prec_kernels.lower_unit_trisolve_numpy)
        ref = reference(ip, cols)(*dense, b).view(np.uint64)
        sweep = (engine.upper_trisolve if upper else engine.lower_unit_trisolve)(ip, cols)
        for tag, values in (("float64", dense), ("l=21 bs=32", tables)):
            _expect(np.array_equal(ref, sweep(*values, b).view(np.uint64)),
                    f"{name} ({tag})")

    n = 83
    for bs in (8, 7):  # aligned and partial trailing block
        nb = -(-n // bs)
        blocks = rng.standard_normal(nb * bs * bs)
        ref = prec_kernels.block_diag_apply_numpy(blocks, b[:n], bs, n)
        got = engine.block_diag_apply(blocks, b[:n], bs, n)
        _expect(np.array_equal(ref.view(np.uint64), got.view(np.uint64)),
                f"prec.block_diag_apply (bs={bs})")


def run(engine) -> None:
    """Raise unless ``engine`` reproduces the numpy kernels bit-for-bit."""
    rng = np.random.default_rng(0xF25F2)
    _check_codec(engine, rng)
    _check_decode_tile(engine, rng)
    _check_fused(engine, rng)
    _check_spmv(engine, rng)
    _check_prec(engine, rng)
