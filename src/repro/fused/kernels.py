"""Fused compressed-basis kernels (paper Section IV, Fig. 1 steps 4/18).

The paper's central performance claim is *fusion*: FRSZ2 decompression
happens in-register inside the orthogonalization and solution-update
kernels, so the compressed Krylov basis is never materialized as float64
in main memory.  A solve reads its basis through exactly those two
kernels: the Arnoldi **step** (:func:`step_rows`: DCGS2's two walks of
width two, ``V^T t`` and ``V^T w`` in one, then ``t -= V a`` and
``w -= V b`` in one) and ``combine_fused`` (``V y``).  ``dot_basis_fused`` (``V^T w``) and
``axpy_fused`` (``w -= V y``) are single walks as public operations, for
timing and for tests.  All of them reduce the stored basis row by row over a fixed grid of *tiles*
(runs of ``tile_elems`` elements), reading every row where it is stored.
Under ``backend="jit"`` one C call per fused operation walks the whole
grid: the columns of the cached mirror are read in place, and a
streaming FRSZ2 basis is decoded one row-tile at a time and reduced at
once — on the aligned rungs (``l`` 16 and 32) an exact-scale block's
fields in the registers that take them, any other block into a
``tile``-double work buffer — and no ``(j, tile)`` rectangle exists.  A
walk of width two reads (decodes) each stored value once and uses it for
both of its operands: the paper's "decode once, use twice".  Rows C
cannot walk (wrapped, mixed-format
or unwritten slots, dense formats, numpy codecs) are loaded tile by tile
into a ``(j, tile)`` scratch and reduced by the same kernels.

One call, one layer of checks
-----------------------------
A fused operation validates its operands here, first — a named
``ValueError`` before anything is billed or written, the same on both
backends — and then makes one call: a walk of its reader's *row source*.
A source is anything with the walks ``fused_dot(j, n, tile, w, h)`` and
``fused_axpy(j, n, tile, y, w, store)``, their width-two forms
``fused_dot2(j, n, tile, x, y, hx, hy)`` and ``fused_axpy2(j, n, tile, a,
x, b, y)``, each returning the doubles of work it used, and the Arnoldi
``step`` made of the last two.  There are four:
:class:`_NumpyRows` (float64 rows under the numpy kernels below — the
reference), the engine's :class:`~repro.jit.cbackend.DenseRows` (the
same rows, handed to C), :class:`~repro.accessor.Frsz2Tiles` (bills its
leading ``j`` accessors, then walks the engine's row table over their
containers) and :class:`_LoadedRows`, the tile-by-tile route of
everything else.  The two compiled ones run ``step`` as one C call; the
other two run its Python body, :func:`step_rows`.  Which one a reader
carries is decided once, where the reader is built — for one call, or
kept by a :class:`~repro.solvers.basis.KrylovBasis` and extended with
every write (``docs/ARCHITECTURE.md``, "The life of a fused call").
Every operation and every step bills through one function,
:func:`bill_fused`, as the walks it made: one per operation, and
:func:`step_walks` — two — per step.

Determinism contract
--------------------
The accumulation order is written down here, not inherited from a BLAS
kernel, so it is the same on every host, compiler and backend:

**dot** — for each tile ``[t0, t1)`` in grid order, for each row ``r``
    in order: eight accumulators ``a[0..7] = +0.0``;
    ``a[(i - t0) mod 8] += v_r[i] * w[i]`` for ascending ``i`` (the
    product is rounded, then the sum is rounded — no FMA); the tile
    partial is ``((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))``; and
    ``h[r] += partial`` starting from ``h[r] = +0.0``.
**axpy / combine** — for each element ``i``: ``s = y[0] * v_0[i]``, then
    ``s += y[r] * v_r[i]`` for ``r = 1 .. j-1``, then ``w[i] -= s``
    (axpy) or ``out[i] = s`` (combine).  Independent of the grid.
**width two** — ``dot2`` is *defined* as the **dot** of ``x`` then the
    **dot** of ``y``, ``axpy2`` as the **axpy** of ``x`` with ``a`` then
    of ``y`` with ``b``: nothing new is specified, so each operand
    carries exactly the bytes of its own call.  What the compiled kernel
    changes is the walk: a row's value, read or decoded once, joins both
    operands' lanes (sums) while it is at hand, so the stored basis is
    read — a streaming basis decoded — once instead of twice.
**norm2** — ``||w||`` is the dot of ``w`` with itself as one row: the
    basis's tile grid, the eight lanes and the tree of **dot**, tile
    partials summed in tile order from ``+0.0``, then the correctly
    rounded square root.  No BLAS: its value depends on neither the
    pool's thread count nor ``OPENBLAS_NUM_THREADS``.
**step** — one Arnoldi step of DCGS2 (Świrydowicz et al.; Bielich et
    al.), *defined* as :func:`step_rows`.  The step before left a
    tentative vector ``t`` orthogonalized once and not stored;
    ``w = A M^-1 t``.  ``omega = norm2(w)``; ``a, b = dot2(t, w)``;
    ``axpy2`` (``q = t - V a``, ``w' = w - V b``); ``rho = norm2(q)``
    and ``q /= rho`` (the vector stored, once); :func:`step_column`,
    from ``q~``, ``q`` as stored: ``c`` = the dot of ``q~`` as one row
    with ``w`` — every coefficient of ``w`` from ``w`` itself, as
    classical Gram-Schmidt takes them — and ``w' -= c q~``;
    ``nu = norm2(w')``; the outcome flags; given the
    least-squares state, column ``k - 1`` made final (``h += sigma a``,
    subdiagonal ``sigma rho``) and absorbed (:func:`givens_column`), and
    column ``k`` opened — ``((b, c) - H a) / rho``, subdiagonal
    ``nu / rho`` — with the residual it would leave read
    (:func:`givens_peek`); and ``w /= nu``, the next tentative vector.
    The compiled step runs the same walks and the same scalar
    operations, in this order, in one call — so the bits are the
    body's.

The result depends on the values of the rows, the operand and the tile
size — *not* on where the rows came from.  A :class:`CachedTileReader`
and a :class:`StreamingTileReader` over the same stored basis, the numpy
and the compiled kernels, and a batch column and its solo call are
therefore bit-identical: the property ``basis_mode={cached,streaming}``
of :class:`~repro.solvers.basis.KrylovBasis` relies on.  The numpy
kernels below spell the order out with operations whose order numpy
defines (elementwise arithmetic and ``np.add.accumulate``); they are the
no-compiler engine and the oracle of the engine's self-test.  Nor does
it depend on the thread count: the compiled walks split the grid over
the engine's thread pool a tile (the axpy: a run of pieces) at a time
and add the per-tile partials in tile order after the join —
``tests/test_threads.py`` holds every walk to the same bits on one, two,
three and the pool's threads.

On a GPU each tile maps onto a thread block's registers: the paper's
"46 spare instructions" budget pays for the in-register decode while the
kernel stays bound by *compressed* memory traffic
(:func:`repro.gpu.kernels.walk_cost` models exactly that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter_ns
from typing import List, Optional, Sequence

import numpy as np

from ..accessor.frsz2_accessor import Frsz2Tiles
from ..jit import dispatch as _dispatch
from ..observe import NULL_TRACER

__all__ = [
    "DEFAULT_TILE_ELEMS",
    "STEP_NONFINITE",
    "STEP_BREAKDOWN",
    "STEP_LOSS",
    "FusedOpLog",
    "TileReader",
    "CachedTileReader",
    "StreamingTileReader",
    "tile_grid",
    "dot_basis_fused",
    "combine_fused",
    "axpy_fused",
    "bill_fused",
    "step_walks",
    "givens_column",
    "givens_state",
    "givens_views",
    "norm2",
    "step_rows",
]

#: default decoded-tile size in elements (64 FRSZ2 warp blocks); the
#: per-basis value is rounded up to the storage format's block size
DEFAULT_TILE_ELEMS = 2048

#: elements per pass of the numpy axpy (its order is grid-independent;
#: this only bounds the two temporaries)
_NUMPY_AXPY_PIECE = 8192

#: products per row the numpy dot lays out at once: its whole tiles go a
#: group of ``_NUMPY_DOT_GROUP // tile`` at a time (this only bounds the
#: temporaries)
_NUMPY_DOT_GROUP = 8192

#: the flags word of an Arnoldi step (:func:`step_rows`; the same values
#: in ``C_SOURCE``): a coefficient or a norm is not finite; breakdown —
#: the new direction's norm ``nu`` is zero or below ``eta eps omega``,
#: or a final column's subdiagonal below ``eta eps`` times its norm;
#: loss of orthogonality — ``rho < eta``: the tentative vector had lost
#: most of its length to the stored span, so one pass had not been enough
STEP_NONFINITE, STEP_BREAKDOWN, STEP_LOSS = 2, 4, 8

_EPS = float(np.finfo(np.float64).eps)


@dataclass
class FusedOpLog:
    """Work log of the fused kernels run against one basis.

    ``tiles`` is mirrored into ``SolveStats.fused_tiles``; what the GPU
    timing model prices is the walks each cycle's record counts
    (:func:`repro.gpu.timing.solve_phases`).
    """

    #: row-tiles the walks visited (``walks x ceil(n / tile)``)
    tiles: int = 0
    #: most float64 bytes any fused call used: a round of ``j`` tile
    #: partials per operand plus, per thread of the pool, the
    #: ``tile``-double decode buffer of a compressed source — or the
    #: ``(j, tile)`` scratch of a source loaded tile by tile
    peak_scratch_bytes: int = 0


def tile_grid(n: int, tile_elems: int) -> "List[tuple[int, int]]":
    """The fixed ``[t0, t1)`` tile ranges covering ``n`` elements.

    Both basis modes reduce over exactly this grid, which is what pins
    the accumulation order (and hence bit-identity) between them.
    """
    if tile_elems < 1:
        raise ValueError("tile_elems must be positive")
    return [(t0, min(t0 + tile_elems, n)) for t0 in range(0, n, tile_elems)]


class TileReader:
    """The leading ``j`` rows, of ``n`` values each, of a row ``source``
    (the module doc's protocol), reduced by ``backend``'s kernels."""

    def __init__(self, source, j: int, n: int, backend: str) -> None:
        self.source, self.j, self.n, self.backend = source, int(j), int(n), backend


class CachedTileReader(TileReader):
    """Rows read in place from a dense decompressed ``(n, m+1)`` cache.

    The columns of a Fortran-ordered cache are the rows of its
    transpose, so the kernels read them where they are, with no copy;
    any other layout is loaded tile by tile (:class:`_LoadedRows`).
    """

    def __init__(self, cache: np.ndarray, j: int, backend: Optional[str] = None) -> None:
        if cache.ndim != 2 or not 0 <= j <= cache.shape[1]:
            raise ValueError(
                f"cache must be an (n, >= j) array; got shape {cache.shape} for j={j}"
            )
        backend = _dispatch.resolve_backend(backend)
        rows = cache.T
        if rows.dtype == np.float64 and rows.flags.c_contiguous:
            source = _dense_source(rows, backend)
        else:
            def load(t0: int, t1: int, out: np.ndarray) -> None:
                out[:, : t1 - t0] = cache[t0:t1, : out.shape[0]].T

            source = _LoadedRows(load, backend)
        super().__init__(source, j, cache.shape[0], backend)


class StreamingTileReader(TileReader):
    """Rows decoded on the fly from the accessors' compressed payloads.

    The reader proves, once, whether the leading ``j`` accessors are
    plain FRSZ2 accessors with written payloads over one layout
    (:meth:`repro.accessor.frsz2_accessor.Frsz2Tiles.open`).  If so and
    the codecs are compiled, that :class:`~repro.accessor.Frsz2Tiles` is
    the source: one C call per fused operation decodes each row-tile
    into a work buffer and reduces it at once — the analog of the
    paper's warp-per-block fused decode.  Otherwise a scratch tile is
    loaded: one codec pass for eligible accessors under numpy codecs, one
    :meth:`~repro.accessor.base.VectorAccessor.read_tile` per vector for
    wrapped (fault-injecting), mixed-format, unwritten or dense-format
    slots — identical bits and identical traffic totals on every route.
    ``backend`` defaults to ``"jit"`` when every accessor's codec is
    compiled, else ``"numpy"``.
    """

    def __init__(self, accessors: Sequence, j: int, backend: Optional[str] = None) -> None:
        n = int(accessors[0].n) if accessors else 0
        accessors = list(accessors[:j])
        if backend is None and accessors and all(
            getattr(getattr(acc, "codec", None), "backend", None) == "jit"
            for acc in accessors
        ):
            backend = "jit"
        backend = _dispatch.resolve_backend(backend)
        source = Frsz2Tiles.open(accessors)
        if source is None:
            def load(t0: int, t1: int, out: np.ndarray) -> None:
                for row, acc in enumerate(accessors):
                    out[row, : t1 - t0] = acc.read_tile(t0, t1)

            source = _LoadedRows(load, backend)
        elif backend != "jit" or source.table is None:
            source = _LoadedRows(source.load, backend)
        super().__init__(source, j, n, backend)


# ----------------------------------------------------------------------
# the written order in numpy (reference kernels over float64 rows)
# ----------------------------------------------------------------------


def dot_rows_numpy(rows, j, n, tile, w, h) -> None:
    """``h[r] += v_r[:n] . w`` in the written lane order (see module doc).

    ``rows[r, i]`` is ``v_r[i]``.  A tile's products are laid out as
    lane-rows of eight under a leading lane-row of ``+0.0`` and zero
    padding after the ``len mod 8`` tail, so one ``np.add.accumulate``
    along the lane-row axis performs every lane's sequential sum
    (``+0.0`` added to a lane that never holds ``-0.0`` changes nothing).
    Whole tiles go a group at a time (``_NUMPY_DOT_GROUP`` products), the
    short last tile on its own; a group's tile partials join ``h`` in tile
    order through one more accumulate, with ``h`` in front.
    """
    size = min(tile, n)
    group = max(1, min(_NUMPY_DOT_GROUP // max(size, 1), n // tile))
    lane_rows = -(-size // 8) + 1
    products = np.zeros((j, group, lane_rows * 8))
    sums = np.empty((j, group, lane_rows, 8))
    partials = np.empty((j, group + 1))
    whole = n // tile * tile if tile <= n else 0
    for t0 in range(0, whole, group * tile):
        _dot_tiles(rows, j, t0, min(group, (whole - t0) // tile), tile, w,
                   products, sums, partials, h)
    if whole < n:
        _dot_tiles(rows, j, whole, 1, n - whole, w, products, sums, partials, h)


def _dot_tiles(rows, j, t0, tiles, length, w, products, sums, partials, h):
    """``tiles`` consecutive tiles of ``length`` from ``t0`` into ``h``."""
    used = -(-length // 8) + 1
    end = t0 + tiles * length
    lanes = products[:, :tiles, :8 * used]
    np.multiply(rows[:j, t0:end].reshape(j, tiles, length),
                w[t0:end].reshape(tiles, length), out=lanes[:, :, 8:8 + length])
    lanes[:, :, 8 + length:] = 0.0
    a = np.add.accumulate(lanes.reshape(j, tiles, used, 8), axis=2,
                          out=sums[:, :tiles, :used])[:, :, -1]
    # ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)), a tree level per addition
    pairs = a[..., 0::2] + a[..., 1::2]
    halves = pairs[..., 0::2] + pairs[..., 1::2]
    partials[:, 0] = h
    np.add(halves[..., 0], halves[..., 1], out=partials[:, 1:tiles + 1])
    h[:] = np.add.accumulate(partials[:, :tiles + 1], axis=1)[:, -1]


def axpy_rows_numpy(rows, j, n, y, w, store=False) -> None:
    """``w[:n] -= sum_r y[r] v_r[:n]`` (``store``: ``w = sum``), each
    element's sum running over the rows in order."""
    piece = min(n, _NUMPY_AXPY_PIECE)
    s, term = np.empty(piece), np.empty(piece)
    for i0 in range(0, n, piece):
        i1 = min(i0 + piece, n)
        si, ti = s[: i1 - i0], term[: i1 - i0]
        np.multiply(rows[0, i0:i1], y[0], out=si)
        for r in range(1, j):
            np.multiply(rows[r, i0:i1], y[r], out=ti)
            si += ti
        if store:
            w[i0:i1] = si
        else:
            w[i0:i1] -= si


def dot_numpy(x: np.ndarray, y: np.ndarray, tile: int) -> float:
    """``x . y`` in the written order: :func:`dot_rows_numpy` of ``x`` as
    one row."""
    acc = np.zeros(1)
    dot_rows_numpy(x.reshape(1, -1), 1, x.size, tile, y, acc)
    return float(acc[0])


def norm2_numpy(w: np.ndarray, tile: int) -> float:
    """``||w||`` in the written order (**norm2**): :func:`dot_numpy` of
    ``w`` with itself, then ``math.sqrt`` (correctly rounded).  A sum of
    squares that overflows is ``inf``, not a warning."""
    with np.errstate(over="ignore"):
        return math.sqrt(dot_numpy(w, w, tile))


def givens_state(m: int) -> np.ndarray:
    """The least-squares state of an ``m``-column Arnoldi cycle as one
    float64 array of ``2 m**2 + 5 m + 1`` values, :func:`givens_views`
    apart."""
    return np.zeros(2 * m * m + 5 * m + 1)


def givens_views(state: np.ndarray):
    """``(cs, sn, g, r, hess)`` of a :func:`givens_state`: the rotations
    (``m`` each), the rotated right-hand side (``m + 1``), ``R`` and the
    Hessenberg matrix ``H`` itself (``(m + 1) x m`` each, row-major,
    column ``c`` filled by column ``c``)."""
    m = (math.isqrt(8 * state.size + 17) - 5) // 4
    r0 = 3 * m + 1
    r1 = r0 + (m + 1) * m
    return (state[:m], state[m:2 * m], state[2 * m:r0],
            state[r0:r1].reshape(m + 1, m), state[r1:].reshape(m + 1, m))


def _rotated(views, c: int, h, h_next: float):
    """Column ``c``, ``(h, h_next)``, under the rotations so far: the list
    of its rotated values and the new rotation ``(rr, co, si)``."""
    cs, sn = views[0], views[1]
    col = h.tolist()
    col.append(float(h_next))
    col += [0.0] * (c + 2 - len(col))
    lo = col[0]
    for i, (co, si) in enumerate(zip(cs[:c].tolist(), sn[:c].tolist())):
        hi = col[i + 1]
        col[i] = co * lo + si * hi
        lo = -si * lo + co * hi
    a, b = lo, col[c + 1]
    rr = float(np.hypot(a, b))
    co, si = (1.0, 0.0) if rr == 0.0 else (a / rr, b / rr)
    return col, rr, co, si


def givens_column(views, c: int, h: np.ndarray, h_next: float) -> float:
    """Absorb Hessenberg column ``c``, ``(h, h_next)`` with ``h`` of at most
    ``c + 1`` values, into a least-squares state's :func:`givens_views`;
    returns the implicit residual ``|g_{c+1}|``.

    The rotations so far are applied to the column and a new one made
    (``np.hypot``, not ``math.hypot``: the two round differently) in
    machine floats — the same IEEE double operations, one rounding each,
    as the compiled step's — then the right-hand side is rotated.
    """
    cs, sn, g, r = views[:4]
    col, rr, co, si = _rotated(views, c, h, h_next)
    cs[c], sn[c] = co, si
    col[c], col[c + 1] = rr, 0.0
    gc = g.item(c)
    g[c], g[c + 1] = co * gc, -si * gc
    r[:len(col), c] = col
    return abs(-si * gc)


def givens_peek(views, c: int, h: np.ndarray, h_next: float) -> float:
    """The implicit residual :func:`givens_column` would return for the
    same column, with the state left as it is."""
    return abs(-_rotated(views, c, h, h_next)[3] * views[2].item(c))


# a fault-poisoned basis or operand makes a NaN or an Inf here on purpose:
# the flags report it, as the compiled step does; a warning would not, and
# under ``-W error`` it would turn the solver's recovery into a crash
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def step_rows(source, k, n, tile, t, w_in, eta, state, q, w, a, b, out) -> int:
    """The first half of an Arnoldi step over the leading ``k`` rows ``V``
    of ``source``, spelled with its two walks: the **step** of the module
    doc, the Python body every source that has no compiled step runs, and
    the reference of the compiled one.

    ``t`` is the tentative vector the last step left (unit norm, not yet
    orthogonal to ``V`` to working accuracy, not stored) and ``w_in`` its
    SpMV output ``A M^-1 t``.  ``q`` receives ``t`` orthogonalized and
    normalised — the vector to store in slot ``k`` — and ``w`` receives
    ``w_in`` orthogonalized once against ``V``; ``a`` (``k``) receives
    ``V^T t`` and ``b`` (``k + 1``) ``V^T w_in``.  With ``state`` (a
    :func:`givens_state` whose column ``k - 1`` is tentative) and a finite
    outcome, column ``k - 1`` is made final and absorbed
    (:func:`givens_column`).  ``out`` receives ``rho = ||t - V a||``, the
    residual the absorbed column leaves, the nanoseconds spent in basis
    walks, the doubles of work the largest walk used and ``||w_in||``
    (words 0, 2, 3, 4 and 5); returns the ``STEP_*`` flags.
    :func:`step_column` opens column ``k`` once ``q`` is stored.

    A final column whose subdiagonal ``sigma rho`` is zero or below ``eta
    eps`` times the column's norm (the sum of its squares in row order,
    then ``math.sqrt``; not when that norm overflows) is a *breakdown*
    of column ``k - 1``, found by its vector's second pass: the direction
    the step before left had vanished against the basis, and only a
    rounding's worth of it was left for that step's one pass to see.  The
    flag replaces the loss a vanished ``t`` would raise; ``q`` is not
    stored and the cycle ends on the absorbed column, as a breakdown
    found by :func:`step_column` ends it on the column it opens.

    Without ``w_in`` (``None``; ``w`` and ``b`` are not touched) the step
    *closes* a cycle: the walks have width one and no column opens.
    """
    q[:] = t
    close = w_in is None
    a[:k] = 0.0
    out[5] = 0.0
    if not close:
        w[:] = w_in
        out[5] = norm2_numpy(w, tile)  # w-tilde of Fig. 1 step 3
        b[:k] = 0.0
    used = walked = 0
    if k:
        started = perf_counter_ns()
        if close:
            used = source.fused_dot(k, n, tile, q, a)
            source.fused_axpy(k, n, tile, a, q)
        else:
            used = source.fused_dot2(k, n, tile, q, w, a, b[:k])
            used = max(used, source.fused_axpy2(k, n, tile, a, q, b, w))
        walked = perf_counter_ns() - started
    rho = np.float64(norm2_numpy(q, tile))  # 0.0 divides as IEEE does
    q /= rho
    finite = math.isfinite(rho) and bool(np.isfinite(a[:k]).all()) and (
        close or bool(np.isfinite(b[:k]).all()))
    flags = STEP_NONFINITE if not finite else STEP_LOSS if rho < eta else 0
    out[0], out[2], out[3], out[4] = rho, 0.0, walked, used
    if state is not None and finite:
        views = givens_views(state)
        hess = views[4]
        if k:
            sigma = hess[k, k - 1]
            hess[:k, k - 1] = hess[:k, k - 1] + sigma * a[:k]
            hess[k, k - 1] = sigma * rho
            col = hess[:k + 1, k - 1].tolist()
            sq = 0.0
            for x in col:
                sq += x * x
            norm = math.sqrt(sq)
            if col[k] == 0.0 or math.isfinite(norm) and col[k] < eta * _EPS * norm:
                flags = STEP_BREAKDOWN  # the breakdown of column k - 1
            out[2] = givens_column(views, k - 1, hess[:k, k - 1], col[k])
        else:
            views[2][0] = views[2].item(0) * rho
    return flags


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def step_column(v, n, tile, w, w_in, k, eta, flexible, state, a, b, out) -> int:
    """The second half of an Arnoldi step, once the vector :func:`step_rows`
    finished is stored: ``v`` holds what was stored.  ``c = v . w_in``
    (the dot of ``v`` as one row with the product the first half walked),
    ``w -= c v``, ``nu = ||w||``; the outcome
    flags (breakdown: ``nu`` zero or below ``eta eps ||w_in||``); given the
    least-squares state and a finite outcome, column ``k`` opens tentative
    in ``H`` — ``((b, c) - H a) / rho``, subdiagonal ``nu / rho``, or
    ``(b, c)`` and ``nu`` when ``flexible`` — and ``out[2]`` receives the
    residual it would leave (:func:`givens_peek`); unless a flag, ``w /=
    nu``: the next tentative vector.  ``out[1]`` receives the subdiagonal
    entry; returns the ``STEP_*`` flags."""
    rho = out[0]
    c = b[k] = dot_numpy(v, w_in, tile)
    w -= c * v
    nu = norm2_numpy(w, tile)
    flags = 0
    if not (math.isfinite(c) and math.isfinite(nu)):
        flags = STEP_NONFINITE
    elif nu == 0.0 or nu < eta * _EPS * out[5]:
        flags = STEP_BREAKDOWN
    sigma_new = nu if flexible else nu / rho
    out[1] = sigma_new
    if state is not None and not flags & STEP_NONFINITE:
        views = givens_views(state)
        hess = views[4]
        col = b[:k + 1].copy()
        if not flexible:
            p = np.zeros(k + 1)
            for l in range(k):
                p[:l + 2] += hess[:l + 2, l] * a[l]
            col = (col - p) / rho
        hess[:k + 1, k] = col
        hess[k + 1, k] = sigma_new
        out[2] = givens_peek(views, k, col, sigma_new)
    if not flags:
        w /= nu
    return flags


class _NumpyRows:
    """Float64 rows reduced by the numpy kernels above: the no-compiler
    spelling of the engine's row sources (:class:`repro.jit.cbackend.
    DenseRows`), with their walks.  It needs no work buffer."""

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows

    def fused_dot(self, j, n, tile, w, h) -> int:
        dot_rows_numpy(self.rows, j, n, tile, w, h)
        return 0

    def fused_dot2(self, j, n, tile, x, y, hx, hy) -> int:
        # width two, as it is defined: the dot of x, then the dot of y
        dot_rows_numpy(self.rows, j, n, tile, x, hx)
        dot_rows_numpy(self.rows, j, n, tile, y, hy)
        return 0

    def fused_axpy(self, j, n, tile, y, w, store=False) -> int:
        axpy_rows_numpy(self.rows, j, n, y, w, store)
        return 0

    def fused_axpy2(self, j, n, tile, a, x, b, y) -> int:
        axpy_rows_numpy(self.rows, j, n, a, x)
        axpy_rows_numpy(self.rows, j, n, b, y)
        return 0

    step = step_rows

    def column(self, r, n, tile, buf, w, w_in, k, eta, flexible, state, a, b,
               out) -> int:
        """:func:`step_column` with row ``r`` as the stored vector (``buf``,
        where a compiled column decodes a compressed row, is not needed)."""
        return step_column(self.rows[r, :n], n, tile, w, w_in, k, eta, flexible,
                           state, a, b, out)


def _dense_source(rows: np.ndarray, backend: str):
    """The source that walks C-contiguous float64 ``rows`` in place under
    ``backend``."""
    if backend == "jit":
        return _dispatch.load_engine().dense_rows(rows)
    return _NumpyRows(rows)


class _LoadedRows:
    """Rows that cannot be walked where they are stored — the tile-by-tile
    route: ``load(t0, t1, out)`` fills ``out[r, :t1 - t0]`` with
    ``v_r[t0:t1]`` for every row of one reused ``(j, tile)`` scratch, and
    ``backend``'s dense source walks the scratch — the same kernels, so
    the same bits."""

    __slots__ = ("load", "backend")

    def __init__(self, load, backend: str) -> None:
        self.load, self.backend = load, backend

    def _each_tile(self, j, n, tile, walk) -> int:
        """``walk(source, t0, t1)`` over every tile once it is loaded;
        the scratch's doubles plus what the last walk used."""
        scratch = np.empty((j, min(tile, n)))
        source = _dense_source(scratch, self.backend)
        used = 0
        for t0 in range(0, n, tile):
            t1 = min(t0 + tile, n)
            self.load(t0, t1, scratch)
            used = walk(source, t0, t1)
        return scratch.size + used

    def fused_dot(self, j, n, tile, w, h) -> int:
        return self._each_tile(j, n, tile, lambda rows, t0, t1: rows.fused_dot(
            j, t1 - t0, tile, w[t0:t1], h))

    def fused_axpy(self, j, n, tile, y, w, store=False) -> int:
        return self._each_tile(j, n, tile, lambda rows, t0, t1: rows.fused_axpy(
            j, t1 - t0, tile, y, w[t0:t1], store))

    def fused_dot2(self, j, n, tile, x, y, hx, hy) -> int:
        return self._each_tile(j, n, tile, lambda rows, t0, t1: rows.fused_dot2(
            j, t1 - t0, tile, x[t0:t1], y[t0:t1], hx, hy))

    def fused_axpy2(self, j, n, tile, a, x, b, y) -> int:
        return self._each_tile(j, n, tile, lambda rows, t0, t1: rows.fused_axpy2(
            j, t1 - t0, tile, a, x[t0:t1], b, y[t0:t1]))

    step = step_rows


# ----------------------------------------------------------------------
# the fused operations
# ----------------------------------------------------------------------
#
# Operands are validated here and nowhere below: the sources' walks trust
# what they are handed (under jit they pass it to C), so every fused
# operation checks its operands first — before anything is billed or
# written — and raises the same named ``ValueError`` on both backends.


def _reject(arr, name: str, wanted: str):
    raise ValueError(
        f"{name} must be {wanted}, got "
        f"{getattr(arr, 'dtype', type(arr).__name__)} {getattr(arr, 'shape', '')}"
    )


def _operand(arr, shape, name: str, order: str = "C", written: bool = False):
    """``arr`` as given, once it is what the kernels will index.

    The row kernels read raw memory (under jit, in C), so an operand is
    a float64 array of ``order`` contiguity and of ``shape`` (``None``:
    any extent), writable when ``written`` — or a named error, never a
    broadcast failure or an out-of-bounds access.
    """
    if (
        isinstance(arr, np.ndarray)
        and arr.dtype == np.float64
        and arr.ndim == len(shape)
        and (arr.flags.c_contiguous if order == "C" else arr.flags.f_contiguous)
        and (arr.shape == shape or None in shape and all(
            want in (None, have) for have, want in zip(arr.shape, shape)))
        and (arr.flags.writeable or not written)
    ):
        return arr
    _reject(arr, name, f"a {order}-contiguous{' writable' * written} float64 "
                       f"array of shape {shape} (None: any)")


def _coefficients(y, j: int) -> np.ndarray:
    """The float64 vector ``y``, once it holds ``j`` coefficients."""
    if not (isinstance(y, np.ndarray) and y.dtype == np.float64
            and y.ndim == 1 and y.flags.c_contiguous):
        _reject(y, "y", "a C-contiguous float64 vector")
    if y.shape[0] < j:
        raise ValueError(
            f"y must hold at least j={j} coefficients, got {y.shape[0]}"
        )
    return y


def step_walks(rows: int) -> int:
    """Walks of the basis an Arnoldi step over ``rows`` stored vectors
    makes: the width-two dot and the width-two axpy (:func:`step_rows`) —
    none before anything is stored."""
    return 2 if rows else 0


def bill_fused(j: int, n: int, tile_elems: int, scratch: int, tracer,
               log: Optional[FusedOpLog], walks: int = 1) -> None:
    """Bill ``walks`` walks over ``j`` rows of ``n`` values that used at
    most ``scratch`` doubles of buffers: one fused operation, or an
    Arnoldi step (:func:`step_walks`)."""
    tiles = walks * -(-n // tile_elems)
    if log is not None:
        log.tiles += tiles
        if 8 * scratch > log.peak_scratch_bytes:
            log.peak_scratch_bytes = 8 * scratch
    if tracer.enabled:
        tracer.count("basis.fused.walks", walks)
        tracer.count("basis.fused.tiles", tiles)
        tracer.count("basis.fused.values", walks * j * n)


def dot_basis_fused(
    reader: TileReader,
    w: np.ndarray,
    tile_elems: int = DEFAULT_TILE_ELEMS,
    tracer=NULL_TRACER,
    log: Optional[FusedOpLog] = None,
) -> np.ndarray:
    """``V_j^T w`` reduced tile-by-tile over the stored basis.

    Parameters
    ----------
    reader : TileReader
        Row source for the leading ``j`` basis vectors.
    w : ndarray, shape (n,), dtype float64, contiguous
        The vector being orthogonalized (Fig. 1 step 4).
    tile_elems : int
        Tile size in elements; part of the determinism contract — the
        same value must be used by both basis modes.
    tracer, log
        Optional observe-layer tracer and :class:`FusedOpLog`.

    Returns
    -------
    ndarray, shape (j,)
        The projection coefficients, in the written order.

    Raises
    ------
    ValueError
        If ``w`` is not a contiguous float64 vector of length ``n``.
    """
    j, n = reader.j, reader.n
    w = _operand(w, (n,), "w")
    if tile_elems < 1:
        raise ValueError("tile_elems must be positive")
    h = np.zeros(j)
    if j:
        used = reader.source.fused_dot(j, n, tile_elems, w, h)
        bill_fused(j, n, tile_elems, used, tracer, log)
    return h


def _axpy(reader, y, w, tile_elems, tracer, log, store: bool) -> np.ndarray:
    j, n = reader.j, reader.n
    if tile_elems < 1:
        raise ValueError("tile_elems must be positive")
    if j:
        used = reader.source.fused_axpy(
            j, n, tile_elems, _coefficients(y, j), w, store)
        bill_fused(j, n, tile_elems, used, tracer, log)
    return w


def combine_fused(
    reader: TileReader,
    y: np.ndarray,
    tile_elems: int = DEFAULT_TILE_ELEMS,
    tracer=NULL_TRACER,
    log: Optional[FusedOpLog] = None,
) -> np.ndarray:
    """``V_j y`` assembled element by element (Fig. 1 step 18).

    Every output element is one sum over the rows in order, so the
    result is independent of the tile grid and of the row source.
    """
    return _axpy(reader, y, np.zeros(reader.n), tile_elems, tracer, log, True)


def axpy_fused(
    reader: TileReader,
    y: np.ndarray,
    w: np.ndarray,
    tile_elems: int = DEFAULT_TILE_ELEMS,
    tracer=NULL_TRACER,
    log: Optional[FusedOpLog] = None,
) -> np.ndarray:
    """``w -= V_j y`` in place, fused with the basis decode.

    Element-for-element this computes the same update as
    ``w - combine_fused(reader, y)`` (each element is touched once), but
    never materializes the ``(n,)`` product vector: the subtraction
    happens while the partial sums are register- or stack-resident —
    the fused-update kernel of the paper's solution update.

    Raises
    ------
    ValueError
        If ``w`` is not a contiguous writable float64 vector of length
        ``n`` or ``y`` holds fewer than ``j`` float64 coefficients.
    """
    w = _operand(w, (reader.n,), "w", written=True)
    return _axpy(reader, y, w, tile_elems, tracer, log, False)


def norm2(w: np.ndarray, tile_elems: int = DEFAULT_TILE_ELEMS,
          backend: Optional[str] = None) -> float:
    """``||w||_2`` in the written order (**norm2**) over the grid of
    ``tile_elems``: the same bits on every backend, thread count and BLAS.

    Raises
    ------
    ValueError
        If ``w`` is not a C-contiguous float64 vector or ``tile_elems``
        is not positive.
    """
    w = _operand(w, (None,), "w")
    if tile_elems < 1:
        raise ValueError("tile_elems must be positive")
    if _dispatch.resolve_backend(backend) == "jit":
        return _dispatch.load_engine().norm2(w, tile_elems)
    return norm2_numpy(w, tile_elems)
