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
    walks of width two each operand's own walk, which is their definition
    (the dot of width two at every tile but a case's first) — over the
    decoded rows bit for bit: tiles with and without a
    ``len mod 8`` tail, a tile not aligned to the block size, signed
    zeros, subnormals and terms 600 orders of magnitude apart.  The short
    sources cover every slot width; a long one crosses the axpy's piece
    boundary, where a group of four rows continues into the next piece,
    with its four ordinary rows first, so that a dot pass (of four rows,
    or of two at width two) and an axpy group decode whole blocks in
    registers; its dot spans more tiles than one round of partials
    holds.  A call that runs alone takes its tiles last first, so partials
    added in any order but the tiles' fail here already.  Last, rows the
    pool splits: on two threads and on the pool's, each walk must repeat
    its one-thread bits.
    """
    from ..core.blocks import BlockLayout
    from ..core.frsz2 import Frsz2Compressed
    from ..fused.kernels import axpy_rows_numpy

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
        # the engine's encode and decode: the codec families before this
        # one hold both to numpy, which would cost this family half its time
        layout = BlockLayout(vectors[0].size, block_size, bit_length)
        comps = [Frsz2Compressed(layout, *engine.encode(v, layout, False)[::-1])
                 for v in vectors]
        table = engine.row_table(map(engine.row_pointers, comps))
        decoded = np.empty((len(vectors), layout.n))
        table(0, layout.n, decoded)
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
    # a tile that ends inside a block and leaves a ``mod 8`` tail, and n
    cases.append((n, (32, 40, n), sources))
    # more than two pieces; tiles of one piece plus a tail that is not a
    # multiple of 8, of one piece plus one whole lane group, and of n; a
    # dot over more tiles than one round of partials holds
    n = 2 * piece + 77
    vectors, plain, _ = sample(n)
    # the four ordinary rows first: every whole block of a dot pass of four
    # rows, and of an axpy group, is decoded in registers
    ordinary_first = [vectors[i] for i in (1, 2, 4, 5, 0, 3)]
    sources = [(*float64(vectors), (plain,)),
               (*compressed(ordinary_first, 32, 32), (plain,))]
    cases.append((n, (piece + 13, piece + 8, n, 8), sources))

    y = np.array([0.5, 3.0, -0.25, 7.0, -1.75, 1.5])
    y2 = y[::-1] * 0.375

    for n, tiles, sources in cases:
        # the references are numpy dots; each is gathered as its products
        # and all of a tile are summed in one call (see _numpy_dots); a
        # second operand's only serve the walks of width two
        dots, seconds, pairs = [], [], []
        for tag, rows, dense, operands in sources:
            tag = f"{tag} n={n}"
            # width two: the ordinary operand with a second one; the lane
            # code is shared, so the hostile operand need not pair
            other = operands[0][::-1] * 0.5
            pairs.append((tag, rows, operands[0], other, len(dots), len(seconds)))
            # a dot's rows are independent: one reference for any j
            dots += [(tag, rows, w, dense * w) for w in operands]
            seconds.append((tag, rows, other, dense * other))
            for w in operands:
                for j in (1, 6):  # axpy: the first row alone; a group of four + one
                    combined = w.copy()
                    axpy_rows_numpy(dense, j, n, y, combined, True)
                    _expect(_same_bits(combined, _axpy(rows, j, n, y, w, True)),
                            f"fused.combine ({tag} j={j})")
                    # element for element, the axpy is w minus the combine
                    _expect(_same_bits(w - combined, _axpy(rows, j, n, y, w, False)),
                            f"fused.axpy ({tag} j={j})")
            # five rows: the first alone and a group of four (the axpy), two
            # passes of two and one row alone (the dot)
            x, o = operands[0].copy(), other.copy()
            axpy_rows_numpy(dense, 5, n, y, x)
            axpy_rows_numpy(dense, 5, n, y2, o)
            _expect(_same_bits(np.concatenate((x, o)),
                               _axpy2(rows, 5, n, y, operands[0], y2, other)),
                    f"fused.axpy2 ({tag} j=5)")
        for tile in tiles:
            refs = _numpy_dots(dots + seconds * (tile != tiles[0]), n, tile)
            for (tag, rows, w, _), ref in zip(dots, refs):
                for j in (1, 6):
                    _expect(_same_bits(ref[:j], _dot(rows, j, n, tile, w)),
                            f"fused.dot_basis ({tag} j={j} tile={tile})")
            for tag, rows, w, other, at, second in pairs * (tile != tiles[0]):
                _expect(_same_bits(
                    np.concatenate((refs[at][:5], refs[len(dots) + second][:5])),
                    _dot2(rows, 5, n, tile, w, other)),
                    f"fused.dot2 ({tag} j=5 tile={tile})")

    # rows the pool splits — more values than its minimum, more tiles than
    # a round of partials holds: on two threads and on the pool's, every
    # walk repeats the bits it has on one, which the cases above hold to
    # the numpy spelling
    n_tiles = engine.fused_round + 7  # one round of tiles and then some
    n = max(-(-engine.pool_min_work // y.size), 8 * n_tiles)
    # uniform draws: as many normal ones cost this family a millisecond
    dense = rng.random((y.size + 2, n)) - 0.5
    dense, plain, other = dense[:-2], dense[-2], dense[-1]
    layout = BlockLayout(n, 32, 32)
    comps = []
    for v in dense:  # the codec is held to numpy above
        payload, exponents = engine.encode(v, layout, False)
        comps.append(Frsz2Compressed(layout, exponents, payload))
    walks = []
    for tag, rows in (
            ("float64", engine.dense_rows(dense)),
            ("l=32 bs=32", engine.row_table(map(engine.row_pointers, comps)))):
        tile = n // n_tiles
        walks += [(f"fused.dot_basis ({tag} tile={tile} n={n}",
                   partial(_dot, rows, y.size, n, tile, plain)),
                  (f"fused.dot2 ({tag} tile={tile} n={n}",
                   partial(_dot2, rows, y.size, n, tile, plain, other)),
                  (f"fused.axpy ({tag} n={n}",
                   partial(_axpy, rows, y.size, n, y, plain, False)),
                  (f"fused.axpy2 ({tag} n={n}",
                   partial(_axpy2, rows, y.size, n, y, plain, y2, other))]
    _split_repeats_alone(engine, walks, rounds=3)
    _check_norm2_and_step(engine, rng)


def _split_repeats_alone(engine, runs, rounds: int) -> None:
    """Each ``(what, run)`` of a split kernel gives its one-thread bits on
    two threads and on the pool's, ``rounds`` times: a helper that woke
    late for a call did no unit of it."""
    pool = engine.threads
    try:
        engine.set_threads(1)
        alone = [run() for _, run in runs]
        for count in sorted({2, pool}):
            engine.set_threads(count)
            for (what, run), ref in rounds * list(zip(runs, alone)):
                _expect(_same_bits(ref, run()),
                        f"{what} T={count} against T=1)")
    finally:
        engine.set_threads(pool)


def _check_norm2_and_step(engine, rng: np.random.Generator) -> None:
    """``norm2`` on the codec's edge vectors (subnormals, signed zeros,
    squares that overflow) and ``step`` against its Python body
    (``step_rows``) over the same float64 rows, with a least-squares state
    whose column ``k - 1`` is tentative: a cycle's first step (``k = 0``),
    an exact breakdown (``w`` in the span), a loss of orthogonality (``t``
    mostly along a stored row), the breakdown of the tentative column
    (``t`` along a stored row but for a rounding), an ordinary step over
    FRSZ2 rows, one without the correction (``flexible``) over float64
    rows, the close of a cycle (no product) and a non-finite ``w`` —
    each checked to be the case it claims, then held to the body's
    flags, ``q``, next tentative vector, coefficients, ``out`` words and
    state, bit for bit."""
    from ..core.blocks import BlockLayout
    from ..core.frsz2 import Frsz2Compressed
    from ..fused.kernels import (STEP_BREAKDOWN, STEP_LOSS, STEP_NONFINITE,
                                 _NumpyRows, givens_column, givens_state,
                                 givens_views, norm2_numpy)

    n, tile, m = 203, 64, 7
    for x, t in ((_sample_values(rng, n), 40), (_sample_small(rng, n), tile)):
        _expect(_same_bits(np.float64(norm2_numpy(x, t)),
                           np.float64(engine.norm2(x, t))),
                f"fused.norm2 (tile={t})")

    e0, e1 = np.zeros(n), np.zeros(n)
    e0[0] = e1[1] = 1.0
    orthonormal = rng.standard_normal((7, n))
    for r, v in enumerate(orthonormal):  # Gram-Schmidt, twice: no LAPACK
        for _ in range(2):
            for q in orthonormal[:r]:
                v -= (v * q).sum() * q
        v /= np.sqrt((v * v).sum())
    # the tentative vector: orthogonalized once, with a rounding's worth
    # of the stored span left in it
    tentative, orthonormal = orthonormal[6] + 1e-9 * orthonormal[0], orthonormal[:6]
    tentative /= np.sqrt((tentative * tentative).sum())
    layout = BlockLayout(n, 32, 32)
    comps = [Frsz2Compressed(layout, *engine.encode(v, layout, False)[::-1])
             for v in orthonormal]
    decoded = np.empty_like(orthonormal)
    engine.decode_tile(comps)(0, n, decoded)
    table = engine.row_table(map(engine.row_pointers, comps))
    # terms 2^16 apart in size: a sum of squares in any other lane order
    # rounds differently often enough to show through the square root
    plain = rng.standard_normal(n) * np.exp2(rng.integers(-8, 8, n).astype(float))
    poisoned = plain.copy()
    poisoned[77] = np.nan
    lost = (e0 + 0.1 * e1) / np.sqrt(1.01)
    # a rounding's worth left of a direction: column 0 breaks down
    vanished = e0 + 1e-17 * e1
    # least-squares states whose column k - 1 is tentative, the columns
    # before it absorbed: one per depth the cases take
    prepared = {}
    for k in (0, 1, 6):
        prepared[k] = givens_state(m)
        views = givens_views(prepared[k])
        views[2][0] = 1.5  # g_0 = beta
        hess = views[4]
        for c in range(k):
            hess[:c + 1, c] = rng.standard_normal(c + 1)
            hess[c + 1, c] = 0.75
            if c < k - 1:
                givens_column(views, c, hess[:c + 1, c], 0.75)
    for tag, rows, dense, k, t, w, flexible, want in (
            ("k=0", None, orthonormal, 0, tentative, plain, False, 0),
            ("breakdown", None, e0[None], 1, e1, 3.0 * e0 + 2.0 * e1, False,
             STEP_BREAKDOWN),
            ("loss", None, e0[None], 1, lost, plain, False, STEP_LOSS),
            ("late breakdown", None, e0[None], 1, vanished, plain, False,
             STEP_BREAKDOWN),
            ("ordinary, l=32", table, decoded, 6, tentative, plain, False, 0),
            ("flexible", None, orthonormal, 6, tentative, plain, True, 0),
            ("close", None, orthonormal, 6, tentative, None, False, 0),
            ("non-finite", None, orthonormal, 6, tentative, poisoned, False,
             STEP_NONFINITE)):
        results = []
        for compiled in (False, True):
            source = (rows or engine.dense_rows(dense)) if compiled else _NumpyRows(dense)
            live = prepared[k].copy()
            q, v, a, b, out = (np.empty(n), np.zeros(n), np.empty(k),
                               np.zeros(k + 1), np.zeros(6))
            flags = source.step(k, n, tile, t, w, 2.0 ** -0.5, live, q, v, a, b,
                                out)
            if not flags and w is not None:  # q stored as row k: the column
                if rows is None:
                    stored = np.vstack([dense, q])
                    after = engine.dense_rows(stored) if compiled else _NumpyRows(stored)
                else:
                    qcomp = Frsz2Compressed(layout, *engine.encode(q, layout, False)[::-1])
                    after = engine.row_table(map(engine.row_pointers, [*comps, qcomp]))
                    if not compiled:
                        stored = np.empty((k + 1, n))
                        after(0, n, stored)
                        after = _NumpyRows(stored)
                flags = after.column(k, n, tile, np.empty(n), v, w, k, 2.0 ** -0.5, flexible,
                                     live, a, b, out)
            results.append((flags, q, v, a, b, out[[0, 1, 2, 5]], live))
        (flags, *ref), (got_flags, *got) = results
        _expect(flags == want, f"fused.step ({tag}): the body's flags are {flags}")
        _expect(got_flags == flags and all(
            _same_bits(a, b) for a, b in zip(ref, got)), f"fused.step ({tag})")


def _numpy_dots(cases, n, tile):
    """``dot_rows_numpy`` of every case, in one call: the last item of a
    case is its products ``v_r[i] * w[i]`` as rows.  A row's sum is its
    own in the written order, and a product times ``1.0`` is itself, so
    the products' rows dotted with ones are the cases' dots bit for bit
    — at the cost of one call per tile instead of one per case."""
    from ..fused.kernels import dot_rows_numpy

    products = np.concatenate([case[-1] for case in cases])
    h = np.zeros(len(products))
    dot_rows_numpy(products, len(products), n, tile, np.ones(n), h)
    return np.split(h, np.cumsum([len(case[-1]) for case in cases])[:-1])


def _dot(rows, j, n, tile, w):
    h = np.zeros(j)
    rows.fused_dot(j, n, tile, w, h)
    return h


def _axpy(rows, j, n, y, w, store):
    out = w.copy()
    rows.fused_axpy(j, n, n, y, out, store)
    return out


def _dot2(rows, j, n, tile, x, y):
    hx, hy = np.zeros(j), np.zeros(j)
    rows.fused_dot2(j, n, tile, x, y, hx, hy)
    return np.concatenate((hx, hy))


def _axpy2(rows, j, n, a, x, b, y):
    x, y = x.copy(), y.copy()
    rows.fused_axpy2(j, n, n, a, x, b, y)
    return np.concatenate((x, y))


def _csr_arrays(mask: np.ndarray, values: np.ndarray):
    """``(indptr, cols, values[mask])`` of the entries ``mask`` keeps."""
    indptr = np.zeros(mask.shape[0] + 1, dtype=np.int64)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    return indptr, np.nonzero(mask)[1].astype(np.int64), values[mask]


def _check_spmv(engine, rng: np.random.Generator) -> None:
    from ..sparse.csr import CSRMatrix
    from ..sparse.ell import ELLMatrix, ell_matvec_numpy

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

    # rows of five entries, as many as the pool splits, on one thread, two
    # and the pool's: one matrix as an ELL rectangle, then as CSR triplets
    # in row order
    width = 5
    m = -(-engine.pool_min_work // width)
    cols_t = (np.arange(m) + np.array([[0], [1], [-3], [97], [-m // 2]])) % m
    vals_t = rng.standard_normal((width, m))
    x = rng.standard_normal(m)
    ref = product(ell_matvec_numpy, cols_t, vals_t, x, None, m=m)
    counts = sorted({1, 2, engine.threads})
    pool = engine.threads
    try:
        for count in counts:
            engine.set_threads(count)
            got = product(engine.ell_matvec, cols_t, vals_t, x, None, m=m)
            _expect(np.array_equal(ref, got),
                    f"spmv.ell_matvec (m={m} T={count})")
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


def _leveled_pattern(chunks: int, rows: int):
    """A strictly-upper pattern of ``chunks`` chunks of ``rows`` rows, in
    int32: a row reads the rows 1, 3 and 7 after it in its chunk and the
    row eight chunks after it — levels of eight chunks, two lock-step
    groups of four each.  Built from one chunk's rows, and cheaply: the
    self-test's budget."""
    q = np.arange(rows, dtype=np.int32)
    own = np.stack([q + 1, q + 3, q + 7, q + 8 * rows], axis=1)
    keep = own < rows
    keep[:, 3] = True
    near, last = own[keep], own[:, :3][keep[:, :3]]  # the last eight: no far row
    starts = rows * np.arange(chunks, dtype=np.int32)[:, None]
    cols = np.concatenate([(near + starts[:-8]).ravel(),
                           (last + starts[-8:]).ravel()])
    counts = keep.sum(axis=1)
    indptr = np.zeros(chunks * rows + 1, dtype=np.int64)
    np.cumsum(np.concatenate([np.tile(counts, chunks - 8),
                              np.tile(counts - 1, 8)]), out=indptr[1:])
    return indptr, cols


def _check_prec(engine, rng: np.random.Generator) -> None:
    """The ``prec.*`` kernels against their numpy references, as raw bits.

    The split-sweep case at the end checks the bits of the split route,
    not its waits: a 0.3 ms sweep on one right-hand side mostly finishes
    before a helper thread joins, so a sweep that does not wait for the
    levels below can still pass here.  The gate that catches one is
    ``tests/test_threads.py::TestThreadCountMovesNoBit::test_the_two_sweeps``
    and its CI step under ``taskset -c 0``.
    """
    from ..core.blocks import BlockLayout
    from ..core.frsz2 import Frsz2Compressed
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

    def stored(v, bit_length):
        """``v`` as a one-row FRSZ2 table, and what it decodes to: the
        engine's encode and decode, which the codec families hold to
        numpy (numpy's would cost this family half its time)."""
        layout = BlockLayout(v.size, 32, bit_length)
        comp = Frsz2Compressed(layout, *engine.encode(v, layout, False)[::-1])
        table = engine.row_table([engine.row_pointers(comp)])
        decoded = np.empty((1, v.size))
        table(0, v.size, decoded)
        return table, decoded[0]

    # the scheduled sweeps: seven chunks, the last one short, five of
    # them in one level; float64 values read in place and FRSZ2 values
    # decoded a chunk at a time must both replay the natural-order
    # recurrence over the same (decoded) values
    rows = engine.sweep_rows
    n = 6 * rows + 37
    b = rng.standard_normal(n) * np.exp2(rng.integers(-30, 30, n).astype(float))
    for upper, name in ((False, "prec.lower_trisolve"), (True, "prec.upper_trisolve")):
        ip, cols = _chunked_pattern(n, rows, upper)
        values = [rng.standard_normal(cols.size)]
        if upper:
            diag = rng.standard_normal(n)
            values.append(diag + 2.0 * np.sign(diag))
        tables, dense = zip(*(stored(v, 21) for v in values))
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

    # a sweep the pool splits — more entries than its minimum, levels of
    # two groups — over FRSZ2 values and diagonal, decoded into each
    # thread's slice of the work buffer: on two threads and on the pool's,
    # it repeats the bits it has on one, which the sweeps above hold to the
    # reference.  The values all differ (a slice of another thread's would
    # show) and cost nothing to draw; the lower sweep, which runs the same
    # claims, is left to tests/test_threads.py: the family's budget
    ip, cols = _leveled_pattern(68, rows)
    n = ip.size - 1
    tables = [stored(v, 32)[0] for v in (np.linspace(-0.2, 0.2, cols.size),
                                         np.linspace(2.0, 3.0, n))]
    sweep = partial(engine.upper_trisolve(ip, cols), *tables, rng.random(n) - 0.5)
    _split_repeats_alone(
        engine, [(f"prec.upper_trisolve (l=32 bs=32 n={n}", sweep)], rounds=1)


def run(engine) -> None:
    """Raise unless ``engine`` reproduces the numpy kernels bit-for-bit."""
    rng = np.random.default_rng(0xF25F2)
    _check_codec(engine, rng)
    _check_decode_tile(engine, rng)
    _check_fused(engine, rng)
    _check_spmv(engine, rng)
    _check_prec(engine, rng)
