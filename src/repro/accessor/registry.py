"""Storage-format registry: name -> accessor factory.

Experiments refer to Krylov-basis storage formats by the labels used in
the paper's plots: ``float64``, ``float32``, ``float16``, ``frsz2_16``,
``frsz2_21``, ``frsz2_32`` (native Accessor formats), and any Table II
compressor name (``sz3_08``, ``zfp_fr_32``, ...) which is mapped onto a
:class:`~repro.accessor.roundtrip.RoundTripAccessor`.
"""

from __future__ import annotations

import re
from typing import Callable, List

from ..compressors.pressio import EXTRA_CONFIGS, TABLE_II, make_compressor
from .base import VectorAccessor
from .frsz2_accessor import Frsz2Accessor
from .precision import Float16Accessor, Float32Accessor, Float64Accessor
from .roundtrip import RoundTripAccessor

__all__ = ["make_accessor", "accessor_factory", "list_storage_formats"]

_PRECISION = {
    "float64": Float64Accessor,
    "float32": Float32Accessor,
    "float16": Float16Accessor,
}

_FRSZ2_RE = re.compile(r"^frsz2_(\d+)$")


def list_storage_formats() -> List[str]:
    """All storage-format names usable for the Krylov basis."""
    return (
        sorted(_PRECISION)
        + ["frsz2_16", "frsz2_21", "frsz2_32"]
        + sorted(TABLE_II)
        + sorted(EXTRA_CONFIGS)
    )


def make_accessor(
    name: str, n: int, backend: "str | None" = None, **kwargs
) -> VectorAccessor:
    """Build a vector accessor for storage format ``name``.

    ``kwargs`` are forwarded to FRSZ2 accessors (``block_size``,
    ``rounding``) for ablation studies.  ``backend`` selects the codec
    kernel backend for FRSZ2 formats (bit-identical across backends)
    and is ignored by formats with no codec kernels.
    """
    if name in _PRECISION:
        return _PRECISION[name](n)
    m = _FRSZ2_RE.match(name)
    if m:
        return Frsz2Accessor(
            n, bit_length=int(m.group(1)), backend=backend, **kwargs
        )
    if name in TABLE_II or name in EXTRA_CONFIGS:
        return RoundTripAccessor(n, make_compressor(name), name)
    raise KeyError(
        f"unknown storage format {name!r}; available: "
        + ", ".join(list_storage_formats())
    )


def accessor_factory(
    name: str, backend: "str | None" = None, **kwargs
) -> Callable[[str, int], VectorAccessor]:
    """Return a ``storage_factory``: ``(fmt, n) -> accessor``.

    The solvers' ``storage_factory=`` hook with ``backend`` and the
    FRSZ2 ``kwargs`` (``block_size``, ``rounding``) applied to every
    accessor it builds; ``name`` is the format they are validated
    against eagerly.
    """
    from ..jit import dispatch as _dispatch

    # resolve once so an unavailable-jit warning fires at factory build
    # time, not on every accessor the solver constructs
    backend = _dispatch.resolve_backend(backend)
    make_accessor(name, 0, backend=backend, **kwargs)  # fail fast on bad names
    return lambda fmt, n: make_accessor(fmt, n, backend=backend, **kwargs)
