"""Preconditioners for CB-GMRES (the ``M^-1`` of the paper's Fig. 1).

The paper's experiments run unpreconditioned ("to not blur the numerical
impact", Section V-C), but the algorithm it implements is right-
preconditioned GMRES: ``w := A(M^-1 v)`` and ``x := x0 + M^-1 (V_m y)``.
This module provides that machinery as a first-class tier:

:class:`JacobiPreconditioner`
    Diagonal scaling.
:class:`BlockJacobiPreconditioner`
    Block-diagonal inverses held in a *storage ladder*
    (``float64 | float32 | float16 | frsz2_32 | frsz2_16``) through the
    same accessor machinery the Krylov basis uses — the reduced-precision
    block-Jacobi of the paper's ref [15] (Anzt et al., "Adaptive
    precision in block-Jacobi preconditioning"), extended from plain
    IEEE truncation to FRSZ2 block compression.  Stored values are
    decoded per apply; the arithmetic itself is always float64.
:class:`ILU0Preconditioner`
    CSR-native incomplete LU with no fill-in, applied through sparse
    unit-lower / upper triangular solves.  Factor values may sit on the
    same storage ladder.

Set-up and apply are dispatch-registry kernels — the ILU(0) numeric
factorisation, the two triangular sweeps and the batched
block-diagonal apply (``prec.ilu0_factor``, ``prec.lower_trisolve``,
``prec.upper_trisolve``, ``prec.block_diag_apply``; see
:mod:`repro.solvers.prec_kernels`) — with bit-identical ``numpy`` and
``jit`` implementations, so a preconditioned solve stays byte-equal
across backends.  The sequential Python loops there are the
*definition* of every result; the compiled sweeps visit independent
chunks of rows in another order and read the factor values where they
are stored (:func:`_stored_values`), which moves no bit.  Everything
around the kernels — canonicalisation, the L / D / U split, the checks
that turn a bad pivot into a named error — is vectorised numpy shared
by both backends.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional

import numpy as np

from ..accessor import Float64Accessor, Frsz2Tiles, make_accessor
from ..jit import dispatch as _dispatch
from ..observe import NULL_TRACER
from ..sparse.csr import CSRMatrix
from . import prec_kernels as _prec_kernels  # noqa: F401 - registers numpy kernels

__all__ = [
    "PRECONDITIONERS",
    "PREC_STORAGES",
    "PreconditionerError",
    "ZeroPivotError",
    "Preconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "BlockJacobiPreconditioner",
    "ILU0Preconditioner",
    "make_preconditioner",
]

#: accepted values for every ``preconditioner=`` knob
PRECONDITIONERS = ("none", "jacobi", "block_jacobi", "ilu0")

#: the storage ladder exposed on the CLI (``float16`` is additionally
#: accepted by the classes for ref-[15] compatibility)
PREC_STORAGES = ("float64", "float32", "frsz2_32", "frsz2_16")

_CLASS_STORAGES = PREC_STORAGES + ("float16",)

_DTYPE_TO_STORAGE = {
    np.dtype(np.float64): "float64",
    np.dtype(np.float32): "float32",
    np.dtype(np.float16): "float16",
}


class PreconditionerError(ValueError):
    """A preconditioner could not be built from the given configuration."""


class ZeroPivotError(PreconditionerError):
    """ILU(0) hit a structurally missing or exactly-zero pivot.

    ``storage`` names the factor storage when the pivot was nonzero in
    float64 and only the storage rounded it to zero.
    """

    def __init__(self, row: int, storage: Optional[str] = None) -> None:
        rounded = f" after rounding to {storage} storage" if storage else ""
        super().__init__(f"ILU(0) zero pivot at row {row}{rounded}")
        self.row = int(row)


def _storage_limit(storage: str) -> float:
    """Saturation bound for ``storage`` (finite-max of the IEEE carrier)."""
    if storage == "float32":
        return float(np.finfo(np.float32).max)
    if storage == "float16":
        return float(np.finfo(np.float16).max)
    return float(np.finfo(np.float64).max)


def _invert_blocks(blocks: np.ndarray, n: int) -> np.ndarray:
    """Inverses of the ``(nb, bs, bs)`` diagonal blocks of an order-``n`` matrix.

    One batched LAPACK call; the short trailing block (zero-padded to
    ``bs``) is inverted at its own size and padded again.  Only when
    some block is singular are they taken one by one, so that block
    alone falls back to the identity.
    """
    nb, bs, _ = blocks.shape
    full = n // bs
    m = n - full * bs
    inv = np.zeros_like(blocks)
    try:
        inv[:full] = np.linalg.inv(blocks[:full])
        if m:
            inv[full, :m, :m] = np.linalg.inv(blocks[full, :m, :m])
    except np.linalg.LinAlgError:
        for b in range(nb):
            k = bs if b < full else m
            try:
                inv[b, :k, :k] = np.linalg.inv(blocks[b, :k, :k])
            except np.linalg.LinAlgError:
                inv[b, :k, :k] = np.eye(k)
    return inv


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR ``indptr`` of rows holding ``counts`` entries each."""
    indptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _stored_values(acc):
    """The values ``acc`` stores, for a kernel that reads them in place.

    Read where they are stored when that is provably what ``read()``
    would decode: the array of an exact, written :class:`Float64Accessor`
    itself (not a copy — the kernels only read it) and, under a compiled codec,
    the engine's one-row table over a plain :class:`Frsz2Accessor`
    (:meth:`Frsz2Tiles.open`'s eligibility rule), which the sweeps decode
    a chunk at a time.  Anything else — narrower IEEE rungs, wrappers and
    subclasses, which may override ``read`` — is decoded by ``read()``
    into a float64 temporary.  Each route is billed as one read.
    """
    if acc is None:
        return np.empty(0, dtype=np.float64)
    if type(acc) is Float64Accessor and acc._data is not None:
        acc._record_read()
        return acc._data
    tiles = Frsz2Tiles.open([acc])
    if tiles is None or tiles.table is None:
        return acc.read()
    tiles.bill_pass(acc.n)
    return tiles.table


class Preconditioner(abc.ABC):
    """Right preconditioner: provides ``y = M^-1 v``."""

    tracer = NULL_TRACER

    @abc.abstractmethod
    def apply(self, v: np.ndarray) -> np.ndarray:
        """Return ``M^-1 v``."""

    #: whether ``apply`` returns its argument (callers then skip it)
    is_identity = False

    def attach_tracer(self, tracer) -> None:
        """Adopt the solver's tracer unless one was set at construction."""
        if tracer is not None and self.tracer is NULL_TRACER:
            self.tracer = tracer

    def cost_info(self) -> Optional[Dict[str, Any]]:
        """The ``prec_info`` of :func:`repro.gpu.timing.solve_phases`, which
        prices an apply from it (None = free)."""
        return None


class IdentityPreconditioner(Preconditioner):
    """No preconditioning (the paper's experimental configuration)."""

    def apply(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v, dtype=np.float64)

    is_identity = True


class JacobiPreconditioner(Preconditioner):
    """Diagonal scaling ``M = diag(A)``.

    Zero diagonal entries fall back to 1 (no scaling for that row).
    Always stored in float64 — at one value per row there is nothing
    worth compressing.
    """

    storage = "float64"

    def __init__(self, a: CSRMatrix, tracer=None) -> None:
        if a.shape[0] != a.shape[1]:
            raise ValueError("Jacobi preconditioner requires a square matrix")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.n = a.shape[0]
        with self.tracer.span("prec.setup", kind="jacobi", storage=self.storage):
            d = a.diagonal()
            safe = np.where(d != 0.0, d, 1.0)
            self._inv_diag = 1.0 / safe

    @property
    def stored_nbytes(self) -> int:
        return int(self._inv_diag.nbytes)

    @property
    def float64_nbytes(self) -> int:
        return int(self._inv_diag.nbytes)

    def cost_info(self) -> Dict[str, Any]:
        return {
            "kind": "jacobi",
            "storage": self.storage,
            "stored_bytes": self.stored_nbytes,
            "float64_bytes": self.float64_nbytes,
            "entries": self.n,
        }

    def apply(self, v: np.ndarray) -> np.ndarray:
        with self.tracer.span("prec.apply", kind="jacobi", storage=self.storage):
            out = np.asarray(v, dtype=np.float64) * self._inv_diag
        self.tracer.count("prec.applies", 1)
        self.tracer.count("prec.apply.bytes", self.stored_nbytes + 16 * self.n)
        return out


class BlockJacobiPreconditioner(Preconditioner):
    """Block-diagonal inverse with ladder (optionally FRSZ2) storage.

    ``M = blockdiag(A_11, A_22, ...)`` with contiguous blocks of
    ``block_size`` rows; each diagonal block is densified, inverted in
    float64, and the flattened (zero-padded to ``block_size``) blocks
    are written through a storage accessor — float64/float32/float16
    keep the plain reduced-precision scheme of paper ref [15], while
    ``frsz2_32``/``frsz2_16`` extend it to FRSZ2 block compression.
    Every apply decodes the stored blocks back to float64 and runs the
    ``prec.block_diag_apply`` dispatch kernel, so arithmetic is always
    double ("compressed storage, double arithmetic").

    Singular blocks fall back to the identity for their rows; values
    outside the storage carrier's finite range saturate to its maximum
    instead of poisoning applies with infinities.
    """

    def __init__(
        self,
        a: CSRMatrix,
        block_size: int = 8,
        storage_dtype=None,
        *,
        storage: Optional[str] = None,
        backend: Optional[str] = None,
        tracer=None,
    ) -> None:
        if a.shape[0] != a.shape[1]:
            raise ValueError("block-Jacobi requires a square matrix")
        if block_size < 1:
            raise ValueError("block_size must be positive")
        if storage is None:
            dt = np.dtype(storage_dtype if storage_dtype is not None else np.float64)
            if dt not in _DTYPE_TO_STORAGE:
                raise PreconditionerError(
                    "storage_dtype must be float64, float32 or float16"
                )
            storage = _DTYPE_TO_STORAGE[dt]
        elif storage_dtype is not None:
            raise PreconditionerError("pass either storage= or storage_dtype=, not both")
        if storage not in _CLASS_STORAGES:
            raise PreconditionerError(
                f"unknown prec storage {storage!r}; expected one of {_CLASS_STORAGES}"
            )
        n = a.shape[0]
        self.n = n
        self.block_size = int(block_size)
        self.storage = storage
        self.backend = _dispatch.resolve_backend(backend)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._kernel = _dispatch.get_kernel("prec.block_diag_apply", self.backend)
        bs = self.block_size
        nb = -(-n // bs)
        self.num_blocks = nb
        with self.tracer.span("prec.setup", kind="block_jacobi", storage=storage):
            # one pass: the entries inside a diagonal block, scattered in
            # stored order (a later duplicate overwrites an earlier one)
            rows, cols = a._rows, a.indices
            inside = rows // bs == cols // bs
            r, c = rows[inside], cols[inside]
            blocks = np.zeros((nb, bs, bs))
            blocks[r // bs, r % bs, c % bs] = a.data[inside]
            flat = _invert_blocks(blocks, n).ravel()
            # saturate before encoding so narrow carriers store +-max,
            # not inf (the pre-ladder semantics of this class)
            limit = _storage_limit(storage)
            flat = np.clip(flat, -limit, limit)
            self._acc = make_accessor(storage, nb * bs * bs, backend=self.backend)
            self._acc.write(flat)

    @property
    def stored_nbytes(self) -> int:
        """Bytes the block inverses occupy (the quantity [15] reduces)."""
        return int(self._acc.stored_nbytes())

    @property
    def float64_nbytes(self) -> int:
        return int(self.num_blocks * self.block_size * self.block_size * 8)

    def cost_info(self) -> Dict[str, Any]:
        return {
            "kind": "block_jacobi",
            "storage": self.storage,
            "stored_bytes": self.stored_nbytes,
            "float64_bytes": self.float64_nbytes,
            "entries": self.num_blocks * self.block_size * self.block_size,
        }

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}")
        with self.tracer.span("prec.apply", kind="block_jacobi", storage=self.storage):
            blocks = self._acc.read()
            out = self._kernel(blocks, v, self.block_size, self.n)
        self.tracer.count("prec.applies", 1)
        self.tracer.count("prec.apply.bytes", self.stored_nbytes + 16 * self.n)
        return out


class ILU0Preconditioner(Preconditioner):
    """Incomplete LU factorization with zero fill-in, ``M = L U``.

    The factorization keeps exactly the sparsity pattern of ``A`` (IKJ
    ordering with a scatter workspace: the ``prec.ilu0_factor`` dispatch
    kernel), splitting into a unit-lower factor ``L`` (strictly-lower
    multipliers, implicit unit diagonal) and an upper factor ``U``
    (strictly-upper entries plus a diagonal).  Applying ``M^-1`` is two
    sparse triangular sweeps through the ``prec.lower_trisolve`` /
    ``prec.upper_trisolve`` dispatch kernels, each prepared once for its
    pattern at set-up.

    Factor *values* may live on the reduced/compressed storage ladder
    (decoded per apply — under the compiled engine a chunk of rows at a
    time, inside the sweep); the integer pattern arrays, and what the
    sweeps prepare from them, are identical for every storage and
    excluded from the byte accounting.  A structurally missing or
    exactly-zero pivot raises :class:`ZeroPivotError` naming the row —
    ILU(0) existence is not guaranteed for indefinite matrices — and so
    does a pivot that only the storage rounds to zero, which the sweeps
    would otherwise divide by: ``float64`` (the default) is the robust
    choice.  A factor value that is not finite raises
    :class:`PreconditionerError` naming its row.
    """

    def __init__(
        self,
        a: CSRMatrix,
        storage: str = "float64",
        *,
        backend: Optional[str] = None,
        tracer=None,
    ) -> None:
        if a.shape[0] != a.shape[1]:
            raise ValueError("ILU(0) requires a square matrix")
        if a.shape[0] >= 2 ** 31:
            raise ValueError("ILU(0) keeps int32 column indices: n < 2**31")
        if storage not in _CLASS_STORAGES:
            raise PreconditionerError(
                f"unknown prec storage {storage!r}; expected one of {_CLASS_STORAGES}"
            )
        n = a.shape[0]
        self.n = n
        self.storage = storage
        self.backend = _dispatch.resolve_backend(backend)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        with self.tracer.span("prec.setup", kind="ilu0", storage=storage):
            self._factorize(a)

    def _factorize(self, a: CSRMatrix) -> None:
        backend = self.backend
        rows, cols, vals = a._rows, a.indices, a.data
        # canonicalize to column-sorted rows so "entries left of the
        # diagonal" is a prefix of each row; a matrix whose rows are
        # strictly sorted already (every generator's) is its own sort
        if np.any((rows[1:] == rows[:-1]) & (cols[1:] <= cols[:-1])):
            order = np.lexsort((cols, rows))
            cols, vals = cols[order], vals[order]
        factor = _dispatch.get_kernel("prec.ilu0_factor", backend)
        lu, diag_pos, bad_row = factor(a.indptr, cols, vals)
        if bad_row >= 0:
            raise ZeroPivotError(bad_row)
        finite = np.isfinite(lu)
        if not finite.all():
            raise PreconditionerError(
                f"ILU(0) factor is not finite at row {rows[np.argmin(finite)]}"
            )
        # strict-L / diagonal / strict-U: what each row stores before,
        # at and after its diagonal position
        past_diagonal = np.arange(lu.size, dtype=np.int64) - diag_pos[rows]
        lower, upper = past_diagonal < 0, past_diagonal > 0
        # the sweeps' column indices are int32 (their row pointers int64)
        self._l_indptr = _offsets(diag_pos - a.indptr[:-1])
        self._l_indices = cols[lower].astype(np.int32)
        self._u_indptr = _offsets(a.indptr[1:] - diag_pos - 1)
        self._u_indices = cols[upper].astype(np.int32)
        self._l_acc = self._store(lu[lower])
        self._u_acc = self._store(lu[upper])
        self._d_acc = self._store(lu[diag_pos])
        # the pivots the sweeps will divide by are the *stored* ones
        rounded = np.flatnonzero(self._read(self._d_acc) == 0.0)
        if rounded.size:
            raise ZeroPivotError(int(rounded[0]), self.storage)
        # each pattern prepared once for its sweeps (the engine's
        # visiting order lives there, beside the pattern arrays)
        self._lower = _dispatch.get_kernel("prec.lower_trisolve", backend)(
            self._l_indptr, self._l_indices
        )
        self._upper = _dispatch.get_kernel("prec.upper_trisolve", backend)(
            self._u_indptr, self._u_indices
        )

    def _store(self, values: np.ndarray):
        if values.size == 0:
            return None
        limit = _storage_limit(self.storage)
        acc = make_accessor(self.storage, values.size, backend=self.backend)
        acc.write(np.clip(values, -limit, limit))
        return acc

    @staticmethod
    def _read(acc) -> np.ndarray:
        return acc.read() if acc is not None else np.empty(0, dtype=np.float64)

    @property
    def nnz(self) -> int:
        """Stored factor values: strict-L + strict-U + the U diagonal."""
        return int(self._l_indices.size + self._u_indices.size + self.n)

    @property
    def stored_nbytes(self) -> int:
        """Bytes the factor values occupy (pattern arrays excluded)."""
        return int(
            sum(
                acc.stored_nbytes()
                for acc in (self._l_acc, self._u_acc, self._d_acc)
                if acc is not None
            )
        )

    @property
    def float64_nbytes(self) -> int:
        return 8 * self.nnz

    def cost_info(self) -> Dict[str, Any]:
        return {
            "kind": "ilu0",
            "storage": self.storage,
            "stored_bytes": self.stored_nbytes,
            "float64_bytes": self.float64_nbytes,
            "entries": self.nnz,
        }

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}")
        with self.tracer.span("prec.apply", kind="ilu0", storage=self.storage):
            y = self._lower(_stored_values(self._l_acc), v)
            out = self._upper(
                _stored_values(self._u_acc), _stored_values(self._d_acc), y
            )
        self.tracer.count("prec.applies", 1)
        self.tracer.count("prec.apply.bytes", self.stored_nbytes + 16 * self.n)
        return out


def make_preconditioner(
    name: str,
    a: CSRMatrix,
    storage: str = "float64",
    block_size: int = 8,
    backend: Optional[str] = None,
    tracer=None,
) -> Preconditioner:
    """Build a preconditioner by CLI name.

    ``name`` is one of :data:`PRECONDITIONERS`; ``storage`` (one of
    :data:`PREC_STORAGES`) selects the value-storage ladder and is
    ignored by ``none`` and ``jacobi`` (a diagonal is too small to be
    worth compressing).
    """
    if name not in PRECONDITIONERS:
        raise PreconditionerError(
            f"unknown preconditioner {name!r}; expected one of {PRECONDITIONERS}"
        )
    if storage not in PREC_STORAGES:
        raise PreconditionerError(
            f"unknown prec storage {storage!r}; expected one of {PREC_STORAGES}"
        )
    if name == "none":
        return IdentityPreconditioner()
    if name == "jacobi":
        return JacobiPreconditioner(a, tracer=tracer)
    if name == "block_jacobi":
        return BlockJacobiPreconditioner(
            a, block_size=block_size, storage=storage, backend=backend, tracer=tracer
        )
    return ILU0Preconditioner(a, storage=storage, backend=backend, tracer=tracer)
