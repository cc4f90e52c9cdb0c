"""Kernel-dispatch registry and backend resolution.

Every kernel a component looks up by name — the FRSZ2 encode, window
decode and gather, the CSR/ELL SpMV kernels and the
preconditioner's ILU(0) factorisation, triangular sweeps and
block-diagonal apply — is registered here under a ``(name, backend)``
key.  Components (the codec, the sparse matrices, the solvers) resolve
their kernels through :func:`get_kernel` at construction time, so the
``backend={numpy,jit}`` switch is a single attribute threaded from the
CLI down to the innermost loop.  The fused tile reductions of
:mod:`repro.fused` are not here: they are imported directly, one
callable for both backends, and the *reader's* backend picks the row
kernels that reduce a call.

Backends
--------
``numpy``
    The vectorized reference implementations, registered by the modules
    that define them (:mod:`repro.core.frsz2`, :mod:`repro.sparse`,
    :mod:`repro.solvers.prec_kernels`).
``jit``
    The C kernels of :class:`repro.jit.cbackend.CEngine`, compiled at
    runtime with the system C compiler through cffi.  They replay the
    *exact* arithmetic of the reference (same accumulation order, same
    rounding, no FMA contraction), so results are byte-equal.  The
    engine must pass a bit-identity self-test against the numpy
    reference (:func:`repro.jit.selftest.run`) before it is accepted;
    when it cannot be built or fails that test,
    :func:`resolve_backend` degrades ``jit`` to ``numpy`` with a
    :class:`JitUnavailableWarning` naming the reason.

The registry is deliberately flat: ``get_kernel`` is called once per
object construction (not per matvec), so dispatch overhead never sits
on the hot path.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "BACKENDS",
    "JitUnavailableWarning",
    "JitUnavailableError",
    "register_kernel",
    "register",
    "get_kernel",
    "registered_kernels",
    "load_engine",
    "jit_available",
    "jit_engine_name",
    "jit_unavailable_reason",
    "resolve_backend",
    "share_cpus",
]

#: accepted values for every ``backend=`` knob
BACKENDS = ("numpy", "jit")


class JitUnavailableWarning(UserWarning):
    """``backend='jit'`` was requested but the JIT engine could not be loaded."""


class JitUnavailableError(RuntimeError):
    """A jit kernel was requested while no JIT engine is available."""


_REGISTRY: Dict[Tuple[str, str], Callable] = {}


def register_kernel(name: str, backend: str, fn: Callable) -> Callable:
    """Register ``fn`` as kernel ``name`` for ``backend``; returns ``fn``."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    _REGISTRY[(name, backend)] = fn
    return fn


def register(name: str, backend: str) -> Callable:
    """Decorator form of :func:`register_kernel`."""

    def deco(fn: Callable) -> Callable:
        return register_kernel(name, backend, fn)

    return deco


def get_kernel(name: str, backend: str = "numpy") -> Callable:
    """The kernel registered as ``name`` for ``backend``.

    For ``backend='jit'`` the engine is loaded (and its kernels
    registered) on first use; raises :class:`JitUnavailableError` when
    it is unavailable — callers are expected to pass a backend that went
    through :func:`resolve_backend` first.
    """
    if backend == "jit":
        _ensure_jit_kernels()
    try:
        return _REGISTRY[(name, backend)]
    except KeyError:
        raise KeyError(
            f"no kernel {name!r} registered for backend {backend!r}"
        ) from None


def registered_kernels(backend: Optional[str] = None) -> List[str]:
    """Sorted kernel names registered for ``backend`` (or all backends)."""
    return sorted(
        {n for (n, b) in _REGISTRY if backend is None or b == backend}
    )


# ----------------------------------------------------------------------
# engine loading
# ----------------------------------------------------------------------

_ENGINE = None
_ENGINE_LOADED = False
_ENGINE_FAILURE: Optional[str] = None
#: kernel-running processes this one shares the host's CPUs with
_CPU_SHARERS = 1


def load_engine():
    """The process-wide JIT engine, or ``None`` with the reason recorded.

    The engine is :class:`repro.jit.cbackend.CEngine`; it must pass
    :func:`selftest.run` — a bit-identity check of every kernel family
    against the numpy reference — before it is accepted.  The result
    (including failure) is cached for the process; set
    ``REPRO_JIT_DISABLE=1`` to force the unavailable path.
    """
    global _ENGINE, _ENGINE_LOADED, _ENGINE_FAILURE
    if _ENGINE_LOADED:
        return _ENGINE
    _ENGINE_LOADED = True
    if os.environ.get("REPRO_JIT_DISABLE"):
        _ENGINE_FAILURE = "disabled via REPRO_JIT_DISABLE"
        return None
    try:
        from . import cbackend, selftest

        engine = cbackend.CEngine()
        selftest.run(engine)
    except Exception as exc:  # noqa: BLE001 - any failure disables the engine
        _ENGINE_FAILURE = f"cffi: {type(exc).__name__}: {exc}"
        return None
    _ENGINE = engine
    share_cpus(_CPU_SHARERS)
    return engine


def share_cpus(workers: int) -> None:
    """Size the engine's thread pool for a process that is one of
    ``workers`` kernel-running processes on this host (a worker of
    :class:`repro.parallel.SupervisedPool`): ``max(1, cpus // workers)``
    threads, at once when the engine is loaded, else when it loads."""
    global _CPU_SHARERS
    _CPU_SHARERS = max(1, int(workers))
    if _ENGINE is not None:
        from .cbackend import _cpus

        _ENGINE.set_threads(max(1, _cpus() // _CPU_SHARERS))


def jit_available() -> bool:
    """True when a JIT engine loaded and passed its bit-identity self-test."""
    return load_engine() is not None


def jit_engine_name() -> Optional[str]:
    """``'cffi'`` when the engine is available, else ``None``."""
    engine = load_engine()
    return engine.name if engine is not None else None


def jit_unavailable_reason() -> Optional[str]:
    """Why the engine did not load (``None`` while it is available)."""
    load_engine()
    return None if _ENGINE is not None else _ENGINE_FAILURE


def _reset_engine_cache() -> None:
    """Testing hook: forget the cached engine/registrations."""
    global _ENGINE, _ENGINE_LOADED, _ENGINE_FAILURE
    _ENGINE = None
    _ENGINE_LOADED = False
    _ENGINE_FAILURE = None
    for key in [k for k in _REGISTRY if k[1] == "jit"]:
        del _REGISTRY[key]


def resolve_backend(backend: Optional[str], warn: bool = True) -> str:
    """Validate a ``backend=`` knob and degrade gracefully.

    ``None`` means ``numpy``.  ``jit`` resolves to itself when an engine
    is available and otherwise falls back to ``numpy``, emitting a
    :class:`JitUnavailableWarning` that names what failed (unless
    ``warn=False``).  Unknown names raise ``ValueError``.
    """
    if backend is None:
        return "numpy"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "jit" and not jit_available():
        if warn:
            warnings.warn(
                f"jit backend unavailable ({jit_unavailable_reason()}); "
                "falling back to numpy",
                JitUnavailableWarning,
                stacklevel=2,
            )
        return "numpy"
    return backend


def _ensure_jit_kernels() -> None:
    """Register the loaded engine's kernels under the ``jit`` backend."""
    engine = load_engine()
    if engine is None:
        raise JitUnavailableError(
            f"jit backend unavailable: {jit_unavailable_reason()}"
        )
    if ("frsz2.encode", "jit") in _REGISTRY:
        return
    register_kernel("frsz2.encode", "jit", engine.encode)
    register_kernel("frsz2.decode_tile", "jit", engine.decode_tile)
    register_kernel("frsz2.decode_gather", "jit", engine.decode_gather)
    register_kernel("spmv.csr_matvec", "jit", engine.csr_matvec)
    register_kernel("spmv.ell_matvec", "jit", engine.ell_matvec)
    register_kernel("prec.ilu0_factor", "jit", engine.ilu0_factor)
    register_kernel("prec.lower_trisolve", "jit", engine.lower_unit_trisolve)
    register_kernel("prec.upper_trisolve", "jit", engine.upper_trisolve)
    register_kernel("prec.block_diag_apply", "jit", engine.block_diag_apply)
    # The prec.* numpy references live with the solvers; import them here
    # so the numpy/jit registries stay mirrored even when no
    # preconditioner object has been constructed yet.
    from ..solvers import prec_kernels as _prec_kernels  # noqa: F401
