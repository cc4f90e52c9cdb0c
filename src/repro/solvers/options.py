"""One description of a solve, and the one place a solver is built from it.

The CLI, a :class:`~repro.serve.jobs.JobSpec`, a bench entry and a
fault-campaign cell all describe a CB-GMRES run with :class:`SolveOptions`
and build it with :meth:`SolveOptions.build`, so they cannot disagree on
an accepted value or on the order things are built in
(``docs/ARCHITECTURE.md``, "One description of a solve").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from numbers import Integral
from typing import Any, Callable, Dict, Optional

from ..accessor import VectorAccessor, list_storage_formats
from ..jit.dispatch import BACKENDS, resolve_backend
from ..sparse.engine import SPMV_FORMATS, SpmvEngine
from .adaptive import ADAPTIVE_STORAGE
from .basis import BASIS_MODES
from .gmres import DEFAULT_MAX_ITER, DEFAULT_RESTART, CbGmres
from .preconditioner import PRECONDITIONERS, PREC_STORAGES, make_preconditioner

__all__ = ["SolveOptions", "check_choice", "from_fields"]


def check_choice(name: str, value: Any, allowed) -> None:
    """``ValueError`` naming the field, the value and the accepted set."""
    if value not in allowed:
        raise ValueError(
            f"unknown {name} {value!r}; expected one of {tuple(allowed)}"
        )


def from_fields(cls, data: Dict[str, Any]):
    """``cls(**data)`` for a dataclass, with a ``ValueError`` that names
    an unknown or missing key where the call would raise ``TypeError``."""
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} expects a dict, got {type(data).__name__}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s) {unknown}; "
            f"expected a subset of {[f.name for f in fields]}"
        )
    missing = [
        f.name for f in fields
        if f.name not in data and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ValueError(f"{cls.__name__} is missing required field(s) {missing}")
    return cls(**data)


@dataclass(frozen=True)
class SolveOptions:
    """The eight settings of a CB-GMRES run (defaults: :class:`CbGmres`'s).

    Each is checked at construction against the tuple its owner exports
    (``__post_init__`` names them; ``m`` and ``max_iter`` are integers
    >= 1): anything else is a ``ValueError`` naming the field, the value
    and the accepted set, before any work is done.
    """

    storage: str = "float64"
    m: int = DEFAULT_RESTART
    max_iter: int = DEFAULT_MAX_ITER
    spmv_format: str = "csr"
    basis_mode: str = "cached"
    backend: str = "numpy"
    preconditioner: str = "none"
    prec_storage: str = "float64"

    def __post_init__(self) -> None:
        for name, allowed in (
            ("storage", list_storage_formats() + [ADAPTIVE_STORAGE]),
            ("spmv_format", SPMV_FORMATS),
            ("basis_mode", BASIS_MODES),
            ("backend", BACKENDS),
            ("preconditioner", PRECONDITIONERS),
            ("prec_storage", PREC_STORAGES),
        ):
            check_choice(name, getattr(self, name), allowed)
        for name in ("m", "max_iter"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SolveOptions":
        return from_fields(cls, data)

    def resolved(self) -> "SolveOptions":
        """These options with ``backend`` resolved: what a grid driver
        fans out, so an unavailable jit engine warns once in the parent
        instead of once per cell."""
        return dataclasses.replace(self, backend=resolve_backend(self.backend))

    def build(
        self,
        a,
        *,
        tracer=None,
        storage_factory: "Callable[[str, int, str], VectorAccessor] | None" = None,
        wrap_operator: Optional[Callable] = None,
        solver: Callable = CbGmres,
        **solver_kwargs,
    ):
        """Construct ``solver`` for the operator ``a`` under these options.

        The order is the contract.  The backend is resolved once (one
        unavailable-jit warning, one resolved name for every component).
        The preconditioner is factored from the *raw* operator, so
        injected faults never reach the factors; a caller that already
        holds them passes ``preconditioner=``.  The
        :class:`~repro.sparse.engine.SpmvEngine` is built next (a
        pre-built one is kept) and ``wrap_operator(engine)`` goes
        *around* it, so a faulty SpMV poisons the selected format's
        output.  ``storage_factory(storage, n, backend)`` is the solvers'
        accessor hook plus the resolved backend.  ``tracer`` and every
        other keyword reach ``solver(a, storage, ...)`` unchanged.
        """
        backend = resolve_backend(self.backend)
        raw = a.csr if isinstance(a, SpmvEngine) else a
        if self.preconditioner != "none" and "preconditioner" not in solver_kwargs:
            solver_kwargs["preconditioner"] = make_preconditioner(
                self.preconditioner, raw,
                storage=self.prec_storage, backend=backend,
            )
        if self.spmv_format != "csr" and a is raw:
            a = SpmvEngine(raw, format=self.spmv_format, backend=backend)
        if wrap_operator is not None:
            a = wrap_operator(a)
        if storage_factory is not None:
            solver_kwargs["storage_factory"] = (
                lambda storage, n: storage_factory(storage, n, backend)
            )
        if tracer is not None:
            solver_kwargs["tracer"] = tracer
        return solver(
            a, self.storage, m=self.m, max_iter=self.max_iter,
            basis_mode=self.basis_mode, backend=backend, **solver_kwargs,
        )
