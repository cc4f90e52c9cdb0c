"""Reduced-precision storage accessors: float64 / float32 / float16.

These reproduce the original CB-GMRES storage formats of [1]: values are
cast to the storage precision on write and promoted back to float64 on
read, while all arithmetic stays in double precision.  ``float64`` is the
identity format (the uncompressed baseline of every experiment).

A dense slot keeps its stored values in one array, ``_data``, and
clearing it allocates nothing: ``_data`` becomes ``None``, which every
read serves as zeros, as a GPU solver keeps its allocation across
restarts.  A ``float64`` slot copies each write into the one buffer it
allocated on its first (or was given: :meth:`Float64Accessor.keep_in`);
the narrower rungs cast into a new array, so a
refused write leaves the previous contents in place.  Kernels that read
a slot where it is stored (:func:`repro.solvers.preconditioner.
_stored_values`) and fault injectors that flip its bits
(:class:`repro.robust.FaultyAccessor`) reach the same ``_data``.
"""

from __future__ import annotations

import numpy as np

from .base import VectorAccessor

__all__ = ["PrecisionAccessor", "Float64Accessor", "Float32Accessor", "Float16Accessor"]


class PrecisionAccessor(VectorAccessor):
    """Store in ``storage_dtype``, read back as float64."""

    storage_dtype = np.float64

    def __init__(self, n: int) -> None:
        super().__init__(n)
        #: the stored values; ``None`` (never written, or cleared) reads as zeros
        self._data = None

    def write(self, values: np.ndarray) -> None:
        values = self._check_write(values)
        # NumPy casts with round-to-nearest-even, matching GPU converts.
        self._data = values.astype(self.storage_dtype)
        self._record_write()

    def read(self) -> np.ndarray:
        self._record_read()
        if self._data is None:
            return np.zeros(self.n)
        return self._data.astype(np.float64)

    def read_tile(self, i0: int, i1: int) -> np.ndarray:
        # dense storage seeks for free: decode only the requested range
        i0, i1 = self._check_tile(i0, i1)
        self._record_tile_read(i0, i1)
        if self._data is None:
            return np.zeros(i1 - i0)
        return self._data[i0:i1].astype(np.float64)

    def read_into(self, out: np.ndarray) -> np.ndarray:
        """Promote the stored values into ``out`` in one copy."""
        if out.shape != (self.n,) or out.dtype != np.float64:
            raise ValueError(
                f"out must be a float64 array of shape ({self.n},)"
            )
        self._record_read()
        out[:] = 0.0 if self._data is None else self._data
        return out

    def clear(self) -> None:
        self._data = None

    def stored_nbytes(self) -> int:
        return self.n * np.dtype(self.storage_dtype).itemsize


class Float64Accessor(PrecisionAccessor):
    """Uncompressed double-precision storage (the GMRES baseline)."""

    name = "float64"
    storage_dtype = np.float64

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self._buffer = None  # allocated by the first write, kept after

    def write(self, values: np.ndarray) -> None:
        values = self._check_write(values)
        if self._buffer is None:
            self._buffer = np.empty(self.n)
        self._buffer[:] = values
        self._data = self._buffer
        self._record_write()

    def keep_in(self, buffer: np.ndarray) -> None:
        """Store every later write in ``buffer``, a float64 array of ``n``
        values its owner keeps (a column of a basis's cached view), in
        place of a buffer of the slot's own."""
        if buffer.shape != (self.n,) or buffer.dtype != np.float64:
            raise ValueError(f"buffer must be a float64 array of shape ({self.n},)")
        self._buffer = buffer


class Float32Accessor(PrecisionAccessor):
    """IEEE single-precision storage (CB-GMRES float32 of [1]).

    Finite doubles beyond float32 range overflow to inf on cast; CB-GMRES
    never produces them (Krylov vectors are normalized), but we surface
    the event rather than silently propagating inf.
    """

    name = "float32"
    storage_dtype = np.float32

    def write(self, values: np.ndarray) -> None:
        values = self._check_write(values)
        with np.errstate(over="ignore"):
            data = values.astype(np.float32)
        if not np.all(np.isfinite(data[np.isfinite(values)])):
            raise OverflowError("value exceeds float32 range")
        self._data = data
        self._record_write()


class Float16Accessor(PrecisionAccessor):
    """IEEE half-precision storage (CB-GMRES float16 of [1]).

    Values beyond the ~6.5e4 half range saturate to the largest finite
    half instead of inf: this mirrors Ginkgo's saturating conversion and
    keeps the solver running (it then simply fails to converge, which is
    the behaviour Fig. 7 reports for PR02R and StocF-1465).
    """

    name = "float16"
    storage_dtype = np.float16

    def write(self, values: np.ndarray) -> None:
        values = self._check_write(values)
        with np.errstate(over="ignore"):
            data = values.astype(np.float16)
        over = np.isinf(data) & np.isfinite(values)
        if np.any(over):
            limit = np.float16(np.finfo(np.float16).max)
            data[over] = np.where(values[over] > 0, limit, -limit)
        self._data = data
        self._record_write()
