"""Seeded, deterministic fault injection for CB-GMRES robustness studies.

The paper's compressed-basis argument is an accuracy/robustness trade
(Aliaga et al.; Fox et al.'s ZFP stability analysis): a lossy Krylov
basis is *safe* as long as errors stay bounded.  This module stresses
that assumption with the fault classes a deployed solver actually sees:

* **storage bit flips** — a flipped bit in an FRSZ2 payload word
  perturbs one value; a flipped bit in the shared block exponent scales
  (or denormalizes to Inf) all ``BS`` values of the block at once;
* **readout corruption** — NaN/Inf appearing in a decompressed vector
  (in-register corruption on the accessor round trip);
* **SpMV corruption** — NaN/Inf injected into matvec outputs;
* **container damage** — bit flips and truncation of the serialized
  stream (detected by the v2 CRC32, see :mod:`repro.core.serialize`).

Every injector draws from its own ``numpy`` Generator seeded from an
explicit integer (or seed sequence), so campaigns replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from ..accessor import VectorAccessor, make_accessor
from ..accessor.frsz2_accessor import Frsz2Accessor
from ..core.frsz2 import Frsz2Compressed
from ..solvers.options import check_choice
from ..sparse import CSRMatrix, SpmvEngine

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultyAccessor",
    "FaultySpmvMatrix",
    "fault_hooks",
    "flip_array_bit",
    "flip_payload_bit",
    "flip_exponent_bit",
    "flip_container_bit",
    "truncate_container",
]

#: fault kinds understood by :class:`FaultyAccessor` / :class:`FaultySpmvMatrix`
FAULT_KINDS = (
    "payload_bitflip",
    "exponent_bitflip",
    "readout_nan",
    "readout_inf",
    "spmv_nan",
    "spmv_inf",
)

_ACCESSOR_KINDS = ("payload_bitflip", "exponent_bitflip", "readout_nan", "readout_inf")
_SPMV_KINDS = ("spmv_nan", "spmv_inf")

Seed = Union[int, Sequence[int]]


# ----------------------------------------------------------------------
# deterministic low-level mutators
# ----------------------------------------------------------------------

def flip_array_bit(arr: np.ndarray, bit: int) -> None:
    """Flip bit ``bit`` of ``arr``'s underlying bytes, in place."""
    if not 0 <= bit < arr.nbytes * 8:
        raise IndexError(f"bit {bit} out of range for {arr.nbytes}-byte array")
    view = arr.reshape(-1).view(np.uint8)
    view[bit // 8] ^= np.uint8(1 << (bit % 8))


def flip_payload_bit(comp: Frsz2Compressed, bit: int) -> None:
    """Flip one bit of the compressed-value stream, in place."""
    flip_array_bit(comp.payload, bit)


def flip_exponent_bit(comp: Frsz2Compressed, bit: int) -> None:
    """Flip one bit of the per-block exponent stream, in place."""
    flip_array_bit(comp.exponents, bit)


def flip_container_bit(data: bytes, bit: int) -> bytes:
    """A serialized container with bit ``bit`` flipped."""
    if not 0 <= bit < len(data) * 8:
        raise IndexError(f"bit {bit} out of range for {len(data)}-byte container")
    buf = bytearray(data)
    buf[bit // 8] ^= 1 << (bit % 8)
    return bytes(buf)


def truncate_container(data: bytes, length: int) -> bytes:
    """The first ``length`` bytes of a serialized container."""
    if not 0 <= length <= len(data):
        raise ValueError(f"length {length} out of range for {len(data)} bytes")
    return data[:length]


# ----------------------------------------------------------------------
# seeded fault source
# ----------------------------------------------------------------------

@dataclass
class FaultInjector:
    """Bernoulli fault source: fires with probability ``rate`` per trial.

    One injector is shared by all wrappers of a single solve so the
    global fault sequence is a pure function of ``(rate, seed)``.
    """

    rate: float
    seed: Seed = 0
    injected: int = field(default=0, init=False)
    trials: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        self.rng = np.random.default_rng(self.seed)

    def fire(self) -> bool:
        """Decide one trial (advances the stream deterministically)."""
        self.trials += 1
        hit = bool(self.rng.random() < self.rate)
        if hit:
            self.injected += 1
        return hit

    def choose(self, limit: int) -> int:
        """A uniform index in ``[0, limit)`` for placing a fired fault."""
        return int(self.rng.integers(limit))


# ----------------------------------------------------------------------
# accessor and matrix wrappers
# ----------------------------------------------------------------------

class FaultyAccessor(VectorAccessor):
    """Wrap a storage accessor and corrupt it at a seeded rate.

    ``kind`` selects the corruption site: ``payload_bitflip`` /
    ``exponent_bitflip`` mutate the *stored* representation right after
    each write (FRSZ2 streams when available, raw storage bytes
    otherwise), ``readout_nan`` / ``readout_inf`` poison one element of
    the decompressed vector on read.
    """

    def __init__(self, inner: VectorAccessor, injector: FaultInjector, kind: str) -> None:
        if kind not in _ACCESSOR_KINDS:
            raise ValueError(
                f"unknown accessor fault kind {kind!r}; expected one of {_ACCESSOR_KINDS}"
            )
        super().__init__(inner.n)
        self.inner = inner
        self.injector = injector
        self.kind = kind
        self.name = f"{inner.name}+{kind}"

    # -- corruption sites -------------------------------------------------

    def _stored_stream(self) -> Optional[np.ndarray]:
        """The array backing the stored representation, if reachable."""
        if isinstance(self.inner, Frsz2Accessor) and self.inner.compressed is not None:
            comp = self.inner.compressed
            return comp.exponents if self.kind == "exponent_bitflip" else comp.payload
        # precision / round-trip accessors keep a dense ``_data`` array
        return getattr(self.inner, "_data", None)

    def _corrupt_storage(self) -> None:
        arr = self._stored_stream()
        if arr is None or arr.nbytes == 0:
            return
        flip_array_bit(arr, self.injector.choose(arr.nbytes * 8))

    def write(self, values: np.ndarray) -> None:
        self.inner.write(values)
        if self.kind in ("payload_bitflip", "exponent_bitflip") and self.injector.fire():
            self._corrupt_storage()

    def read(self) -> np.ndarray:
        out = self.inner.read()
        if self.kind in ("readout_nan", "readout_inf") and self.injector.fire():
            out = np.array(out, dtype=np.float64)
            poison = np.nan if self.kind == "readout_nan" else np.inf
            if out.size:
                out[self.injector.choose(out.size)] = poison
        return out

    def stored_nbytes(self) -> int:
        return self.inner.stored_nbytes()

    def clear(self) -> None:
        # clearing is bookkeeping, not a storage access: no fault trial
        self.inner.clear()

    @property
    def tile_granularity(self) -> int:
        return self.inner.tile_granularity

    @property
    def traffic(self):  # delegate so accounting stays on the real format
        return self.inner.traffic

    @traffic.setter
    def traffic(self, value):  # the base __init__ assigns a fresh counter
        pass


class FaultySpmvMatrix:
    """Wrap a SpMV operator; inject NaN/Inf into matvec outputs.

    Presents the subset of the operator interface the solvers use
    (``shape``, ``nnz``, ``matvec``, ``resolved_format``,
    ``padded_entries``); each matvec is one injector trial, and a fired
    trial poisons one output element.  The inner operator is a
    :class:`~repro.sparse.engine.SpmvEngine` (the fault campaign wraps
    the engine so faults land on the *selected* format's output); a
    plain :class:`~repro.sparse.csr.CSRMatrix` is wrapped in a ``csr``
    one.
    """

    def __init__(self, inner, injector: FaultInjector, kind: str = "spmv_nan") -> None:
        if kind not in _SPMV_KINDS:
            raise ValueError(
                f"unknown SpMV fault kind {kind!r}; expected one of {_SPMV_KINDS}"
            )
        if isinstance(inner, CSRMatrix):
            inner = SpmvEngine(inner, format="csr")
        self.inner = inner
        self.injector = injector
        self.kind = kind

    @property
    def shape(self):
        return self.inner.shape

    @property
    def nnz(self):
        return self.inner.nnz

    @property
    def n(self):
        return self.inner.shape[0]

    @property
    def resolved_format(self) -> str:
        return self.inner.resolved_format

    @property
    def padded_entries(self) -> int:
        return self.inner.padded_entries

    def matvec(self, x: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
        y = self.inner.matvec(x, out=out)
        if self.injector.fire() and y.size:
            y[self.injector.choose(y.size)] = (
                np.nan if self.kind == "spmv_nan" else np.inf
            )
        return y

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<FaultySpmvMatrix {self.kind} rate={self.injector.rate} over {self.inner!r}>"


def fault_hooks(kind: str, injector: FaultInjector) -> dict:
    """The :meth:`repro.solvers.options.SolveOptions.build` keywords that
    subject a solve to one fault kind.

    An SpMV kind wraps the operator — ``build`` puts the wrapper around
    the engine, so the fault lands on the selected format's output.
    Every other kind wraps each accessor the basis builds, with the
    solve's resolved ``backend`` and across the adaptive controller's
    format switches.  The fault campaign's cells and a serve job's chaos
    plan both come through here.
    """
    check_choice("fault kind", kind, FAULT_KINDS)
    if kind in _SPMV_KINDS:
        return {"wrap_operator": lambda a: FaultySpmvMatrix(a, injector, kind)}
    return {
        "storage_factory": lambda storage, n, backend=None: FaultyAccessor(
            make_accessor(storage, n, backend=backend), injector, kind
        )
    }
