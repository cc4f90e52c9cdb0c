"""The Accessor interface: decouple storage format from arithmetic format.

Ginkgo's *Accessor* (paper refs [1], [9]) lets memory-bound kernels store
data in a reduced format while performing all arithmetic in IEEE double
precision.  Reads decompress to ``float64``; writes compress.  The paper
plugs FRSZ2 decompression into this interface unchanged ("the same
interface is used for reading and decompressing data in FRSZ2"), while
compression bypasses it because it needs the whole block at once
(Section IV-C).

We reproduce that split: :meth:`VectorAccessor.read` has per-element
random-access semantics, while :meth:`VectorAccessor.write` always takes
the full vector (the CB-GMRES access pattern — each Krylov vector is
produced once, whole).

Accessors bill the *stored* bytes that the corresponding GPU kernel
would move as ``accessor.*`` counters of the tracer attached with
:meth:`VectorAccessor.set_tracer`.
"""

from __future__ import annotations

import abc

import numpy as np

from ..observe import NULL_TRACER

__all__ = ["VectorAccessor"]


class VectorAccessor(abc.ABC):
    """A length-``n`` float64 vector held in a reduced storage format.

    Subclasses implement the storage behaviour; arithmetic users only see
    float64 arrays.  ``name`` is the storage-format label used throughout
    the paper's plots (``float64``, ``float32``, ``frsz2_32``, ...).
    """

    #: storage-format label; subclasses override
    name: str = "abstract"

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("vector length must be non-negative")
        self.n = int(n)
        self.tracer = NULL_TRACER

    # -- storage interface -------------------------------------------------

    @abc.abstractmethod
    def write(self, values: np.ndarray) -> None:
        """Store the full vector (compressing as needed)."""

    @abc.abstractmethod
    def read(self) -> np.ndarray:
        """Return the stored vector decompressed to float64."""

    @abc.abstractmethod
    def stored_nbytes(self) -> int:
        """Bytes this vector occupies in (simulated) device memory."""

    def clear(self) -> None:
        """Reset the stored content to the initial all-zero state.

        Unlike :meth:`write`, clearing is pure bookkeeping: it moves no
        simulated memory traffic (a GPU solver reuses the allocation
        across restarts without touching the old bits) and therefore
        bills nothing.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement clear()"
        )

    # -- tile interface (fused-kernel streaming) ----------------------------

    @property
    def tile_granularity(self) -> int:
        """Smallest element run the format can decode independently.

        Tile boundaries handed to :meth:`read_tile` should be multiples
        of this (FRSZ2 decodes whole blocks; dense formats any slice).
        """
        return 1

    def _check_tile(self, i0: int, i1: int) -> "tuple[int, int]":
        i0, i1 = int(i0), int(i1)
        if not 0 <= i0 <= i1 <= self.n:
            raise IndexError(
                f"tile [{i0}, {i1}) out of range for length-{self.n} vector"
            )
        return i0, i1

    def tile_stored_nbytes(self, i0: int, i1: int) -> int:
        """Stored bytes a ``[i0, i1)`` tile read moves (format-specific)."""
        i0, i1 = self._check_tile(i0, i1)
        if self.n == 0:
            return 0
        return (self.stored_nbytes() * (i1 - i0)) // self.n

    def _record_tile_read(self, i0: int, i1: int) -> None:
        if self.tracer.enabled:
            self.tracer.count("accessor.tile_reads")
            self.tracer.count("accessor.bytes_read", self.tile_stored_nbytes(i0, i1))

    def read_tile(self, i0: int, i1: int) -> np.ndarray:
        """Decode the element range ``[i0, i1)`` to float64.

        The generic fallback decodes the whole vector through
        :meth:`read` (and pays its full-read accounting — a format
        without random access cannot seek); formats with seekable
        storage override this with a partial decode billed via
        :meth:`_record_tile_read`.  Either way the returned values are
        bit-identical to ``self.read()[i0:i1]``.
        """
        i0, i1 = self._check_tile(i0, i1)
        return self.read()[i0:i1]

    def read_into(self, out: np.ndarray) -> np.ndarray:
        """Decode the full vector into a caller-owned buffer.

        Equivalent to ``out[:] = self.read()`` (and that is the generic
        fallback, so wrappers that intercept :meth:`read` — fault
        injection — keep working); formats with a bulk decode override
        this to skip the intermediate allocation and any decoded-block
        cache churn.
        """
        if out.shape != (self.n,) or out.dtype != np.float64:
            raise ValueError(
                f"out must be a float64 array of shape ({self.n},)"
            )
        out[:] = self.read()
        return out

    # -- derived helpers ----------------------------------------------------

    @property
    def bits_per_value(self) -> float:
        """Average stored bits per value (storage-format footprint)."""
        return self.stored_nbytes() * 8 / self.n if self.n else 0.0

    def _check_write(self, values: np.ndarray) -> np.ndarray:
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != (self.n,):
            raise ValueError(
                f"expected shape ({self.n},), got {values.shape}"
            )
        return values

    def set_tracer(self, tracer) -> None:
        """Attach an observe-layer tracer (subclasses forward as needed)."""
        self.tracer = tracer

    def _record_write(self) -> None:
        if self.tracer.enabled:
            self.tracer.count("accessor.writes")
            self.tracer.count("accessor.bytes_written", self.stored_nbytes())

    def _record_read(self) -> None:
        if self.tracer.enabled:
            self.tracer.count("accessor.reads")
            self.tracer.count("accessor.bytes_read", self.stored_nbytes())

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r} n={self.n}>"
