"""JIT-compiled kernel backend (``backend={numpy,jit}``).

This package provides the compiled implementation of every hot kernel
in the reproduction, selected through the kernel-dispatch registry in
:mod:`repro.jit.dispatch`:

* :mod:`repro.jit.cbackend` — C kernels compiled at runtime with the
  system compiler through cffi (the ``[jit]`` optional extra),
* the numpy reference kernels, registered by the modules defining them.

The contract is byte-equality: a JIT kernel must reproduce the numpy
reference bit-for-bit (same accumulation order, same rounding, no FMA
contraction).  The engine is vetted by :mod:`repro.jit.selftest` before
acceptance, and ``backend='jit'`` *degrades* to ``numpy`` — with a
:class:`JitUnavailableWarning` naming the reason — when it cannot be
built or fails that test, so every caller can request ``jit``
unconditionally.
"""

from .dispatch import (
    BACKENDS,
    JitUnavailableError,
    JitUnavailableWarning,
    get_kernel,
    jit_available,
    jit_engine_name,
    jit_unavailable_reason,
    load_engine,
    register,
    register_kernel,
    registered_kernels,
    resolve_backend,
)

__all__ = [
    "BACKENDS",
    "JitUnavailableError",
    "JitUnavailableWarning",
    "get_kernel",
    "jit_available",
    "jit_engine_name",
    "jit_unavailable_reason",
    "load_engine",
    "register",
    "register_kernel",
    "registered_kernels",
    "resolve_backend",
]
