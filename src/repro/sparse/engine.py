"""Structure-driven SpMV engine: format selection and the one SpMV operator.

The predecessor CB-GMRES GPU paper (Aliaga et al., "Compressed Basis
GMRES on High Performance GPUs") obtains its SpMV numbers by switching
Ginkgo's SpMV kernel by matrix structure; this module reproduces that
decision as a deterministic rule over row lengths:

======  ===========================================================
format  chosen when
======  ===========================================================
csr     ``nnz == 0`` or fewer than ``PADDED_MIN_ROWS`` rows — too
        small or degenerate for a padded layout to pay.
ell     ``max_len <= ELL_MAX_WIDTH`` and ``ell_padding <=
        ELL_MAX_PADDING`` — near-uniform rows (stencils, banded
        matrices): the dense rectangle wastes little traffic and the
        kernel is a single gather/multiply/reduce pass.
csr     everything else — irregular or long-tail rows, where padding
        every row to the longest would multiply the traffic.
======  ===========================================================

Every suite matrix picks ``ell`` at every scale, so a sliced layout
(SELL-C-σ, between the two) would never run and the engine has none.
The rule is a pure function of the sparsity pattern, so the same matrix
always selects the same format — the reproducibility contract
``python -m repro bench --spmv-format auto`` relies on.

:class:`SpmvEngine` is the one SpMV operator: it wraps a
:class:`~repro.sparse.csr.CSRMatrix`, converts it once to the resolved
layout (CSR or ELL — storage and one registered kernel each) and runs
every product through that layout's kernel.  The ELL kernels accumulate
each row in CSR entry order, so the engine's results are bit-identical
to the CSR path on finite inputs (see :mod:`repro.sparse.ell`).
"""

from __future__ import annotations

import numpy as np

from ..gpu.kernels import spmv_kernel_cost
from ..jit import dispatch as _dispatch
from ..observe import NULL_TRACER
from .csr import CSRMatrix
from .ell import ELLMatrix

__all__ = [
    "SPMV_FORMATS",
    "PADDED_MIN_ROWS",
    "ELL_MAX_WIDTH",
    "ELL_MAX_PADDING",
    "choose_format",
    "SpmvEngine",
]

#: accepted values for every ``spmv_format=`` knob
SPMV_FORMATS = ("auto", "csr", "ell")

#: rule table: fewest rows a padded layout is considered for
PADDED_MIN_ROWS = 32
#: rule table: widest row ELL will pad every row to
ELL_MAX_WIDTH = 64
#: rule table: maximum padded-slots-per-nonzero ELL may cost
ELL_MAX_PADDING = 1.5


def choose_format(a: CSRMatrix) -> str:
    """Deterministic rule table: pick ``csr`` or ``ell``.

    A pure function of the sparsity pattern (see the module docstring's
    rule table), so repeated calls on the same matrix always agree.
    """
    m, nnz = a.shape[0], int(a.nnz)
    if nnz == 0 or m < PADDED_MIN_ROWS:
        return "csr"
    max_len = int(np.diff(a.indptr).max())
    if max_len <= ELL_MAX_WIDTH and m * max_len / nnz <= ELL_MAX_PADDING:
        return "ell"
    return "csr"


class SpmvEngine:
    """The SpMV operator a solve multiplies by, over one storage layout.

    Parameters
    ----------
    a : CSRMatrix
        The source matrix (kept as the ``csr`` attribute).
    format : {"auto", "csr", "ell"}, default "auto"
        ``auto`` applies :func:`choose_format`; anything else forces
        the named layout.  For ``"csr"`` the layout is ``a`` itself.
    backend : {"numpy", "jit"}, optional
        Kernel backend of the layout's product (see :meth:`set_backend`).

    Notes
    -----
    The engine alone owns what a product needs besides the stored
    arrays: the kernel binding, the checks on ``x`` and ``out``, the
    ``<format>.matvec`` span and the ``spmv.*`` counters (priced once,
    here, by :func:`repro.gpu.kernels.spmv_kernel_cost`).  It is traced
    only when a caller assigns ``tracer``; a solver never does.  Operator
    decorators (fault injectors) wrap *around* an engine and pass
    ``shape``, ``nnz``, ``resolved_format`` and ``padded_entries``
    through.
    """

    def __init__(
        self,
        a: CSRMatrix,
        format: str = "auto",
        backend: "str | None" = None,
    ) -> None:
        if not isinstance(a, CSRMatrix):
            raise TypeError(
                "SpmvEngine wraps a CSRMatrix; wrap fault injectors and other "
                "operator decorators around the engine, not inside it"
            )
        if format not in SPMV_FORMATS:
            raise ValueError(
                f"unknown SpMV format {format!r}; expected one of {SPMV_FORMATS}"
            )
        self.csr = a
        self.requested_format = format
        resolved = choose_format(a) if format == "auto" else format
        self.resolved_format = resolved
        self.layout = ELLMatrix.from_csr(a) if resolved == "ell" else a
        self.padded_entries = self.layout.padded_entries
        self.padding_ratio = self.layout.padding_ratio
        cost = spmv_kernel_cost(a.shape[0], a.nnz, resolved, self.padded_entries)
        #: what one product adds to a live tracer's counters
        self._counts = (
            ("spmv.calls", 1),
            ("spmv.flops", int(cost.fp64_flops)),
            ("spmv.bytes", int(cost.bytes_moved)),
            ("spmv.padded_entries", self.padded_entries),
            (f"spmv.format.{resolved}", 1),
        )
        self._span = f"{resolved}.matvec"
        self.tracer = NULL_TRACER
        self.set_backend(backend)

    def set_backend(self, backend: "str | None") -> str:
        """Bind the layout's SpMV kernel under ``backend`` (``"numpy"`` or
        ``"jit"``) and return the resolved name.

        The jit kernels are bit-identical to numpy, so switching backends
        never changes a result bit; an unavailable jit engine degrades to
        numpy with a warning.
        """
        self.backend = _dispatch.resolve_backend(backend)
        self._kernel = _dispatch.get_kernel(self.layout.kernel_name, self.backend)
        return self.backend

    @property
    def shape(self) -> "tuple[int, int]":
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    def matvec(self, x: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
        """``y = A @ x`` through the layout's kernel; returns ``y``.

        ``out``, when given, receives ``y`` and is returned: it must be a
        writable C-contiguous float64 array of shape ``(m,)`` that shares
        no memory with ``x``.  Anything else is a ``ValueError`` naming
        ``out`` — the compiled kernels write through a raw pointer.
        """
        m, n = self.csr.shape
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (n,):
            raise ValueError(f"expected x of shape ({n},)")
        if out is None:
            out = np.empty(m)
        elif not (
            isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == (m,) and out.flags.c_contiguous
            and out.flags.writeable
        ):
            raise ValueError(
                f"out must be a writable C-contiguous float64 array of shape ({m},)"
            )
        elif np.may_share_memory(x, out):
            raise ValueError("out must not share memory with x")
        tracer = self.tracer
        with tracer.span(self._span):
            self.layout.apply(self._kernel, x, out)
        if tracer.enabled:
            for name, value in self._counts:
                tracer.count(name, value)
        return out

    def matmat(self, X: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
        """``Y = A @ X`` for an ``(n, k)`` block: one :meth:`matvec` per
        column, so column ``c`` is bit-identical to ``matvec(X[:, c])``
        and billed exactly like it.  ``out``, when given, is ``(m, k)``
        and each of its columns must pass :meth:`matvec`'s ``out`` checks
        (Fortran order, which is also what ``out=None`` allocates)."""
        m, n = self.csr.shape
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[0] != n:
            raise ValueError(f"expected X of shape ({n}, k)")
        k = X.shape[1]
        if out is None:
            out = np.empty((m, k), order="F")
        elif getattr(out, "shape", None) != (m, k):
            raise ValueError(f"out must have shape ({m}, {k})")
        for c in range(k):
            self.matvec(X[:, c], out=out[:, c])
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim == 2:
            return self.matmat(x)
        return self.matvec(x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SpmvEngine {self.requested_format}->{self.resolved_format} "
            f"{self.shape[0]}x{self.shape[1]} nnz={self.nnz} "
            f"padding={self.padding_ratio:.2f}x>"
        )
