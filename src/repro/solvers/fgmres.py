"""Flexible GMRES with a compressed preconditioned basis (paper ref [17]).

Agullo et al. ("Exploring variable accuracy storage through lossy
compression ... a first application to flexible GMRES") proposed —
almost simultaneously with CB-GMRES — compressing the *preconditioned*
Krylov vectors ``z_j = M^-1 v_j`` inside flexible GMRES instead of the
orthonormal basis itself.  The paper's related-work section summarizes
the trade-off: "This improves the numerical stability at the price of
reduced runtime benefits."

Both effects are structural and this implementation reproduces them:

* stability — the orthonormal basis ``V`` stays in full precision, so
  the Arnoldi recurrence is undisturbed; compression errors only enter
  through the solution update ``x = x0 + Z_m y``, where they act like a
  slightly perturbed preconditioner (which flexible GMRES tolerates by
  construction);
* runtime — *two* bases are stored and streamed (``V`` uncompressed for
  orthogonalization + ``Z`` compressed), so the memory-traffic savings
  are roughly halved relative to CB-GMRES.

The work log feeds the same GPU timing model; the
``uncompressed_basis_reads`` counter carries the V-basis traffic that
CB-GMRES would have compressed.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..accessor import VectorAccessor
from ..sparse.csr import CSRMatrix
from ..fused import DEFAULT_TILE_ELEMS
from .adaptive import ControllerConfig
from .gmres import DEFAULT_MAX_ITER, DEFAULT_RESTART, CbGmres
from .orthogonal import DEFAULT_ETA
from .preconditioner import Preconditioner

__all__ = ["FlexibleGmres"]


class FlexibleGmres(CbGmres):
    """Restarted FGMRES storing the preconditioned basis ``Z`` compressed.

    Parameters mirror :class:`~repro.solvers.gmres.CbGmres`;
    ``z_storage`` is the storage format of the preconditioned vectors
    (the quantity ref [17] compresses), while the orthonormal basis ``V``
    always stays in float64.

    ``z_storage="adaptive"`` puts the Z basis under a
    :class:`~repro.solvers.adaptive.PrecisionController`: each restart
    cycle re-selects the cheapest ladder format whose unit roundoff
    still admits the residual reduction the cycle must deliver.  The
    orthonormal V basis is untouched (it is already float64), so only
    the solution-update error channel moves — exactly the channel
    flexible GMRES tolerates by construction.

    The class is :class:`~repro.solvers.gmres.CbGmres` with the Arnoldi
    core's two hook points overridden (``_direction`` stores ``z``
    compressed and hands the read-back to the SpMV, ``_correction``
    combines ``Z_m y``), so ``solve``, breakdown recovery, the stats
    billing and the tracer spans (assign a :class:`repro.observe.Tracer`
    to ``tracer``) are inherited, not re-implemented.

    Parameters
    ----------
    a : CSRMatrix
        Square system matrix.
    z_storage : str, optional
        Storage format for the preconditioned basis, or ``"adaptive"``.
    m : int, optional
        Restart length.
    eta : float, optional
        CGS reorthogonalization threshold.
    max_iter : int, optional
        Global iteration cap.
    stall_restarts : int, optional
        Consecutive non-improving restarts before declaring a stall.
    preconditioner : Preconditioner, optional
        ``M`` in ``z = M^-1 v`` (identity when omitted).
    storage_factory : callable, optional
        ``(storage, n) -> VectorAccessor`` override for the Z basis,
        also used when the adaptive controller rebuilds accessors per
        format switch.
    precision : ControllerConfig, optional
        Controller tuning for ``z_storage="adaptive"``.
    basis_mode : str, optional
        ``"cached"`` or ``"streaming"`` for both bases.
    tile_elems : int, optional
        Tile size override for the shared tile grid.
    backend : str, optional
        Kernel backend (``"numpy"``/``"jit"``) for the SpMV and the Z
        basis codec; bit-identical across backends (see
        :mod:`repro.jit.dispatch`).
    """

    def __init__(
        self,
        a: CSRMatrix,
        z_storage: str = "frsz2_32",
        m: int = DEFAULT_RESTART,
        eta: float = DEFAULT_ETA,
        max_iter: int = DEFAULT_MAX_ITER,
        stall_restarts: Optional[int] = 8,
        preconditioner: Optional[Preconditioner] = None,
        storage_factory: "Callable[[str, int], VectorAccessor] | None" = None,
        precision: Optional[ControllerConfig] = None,
        basis_mode: str = "cached",
        tile_elems: Optional[int] = None,
        backend: "str | None" = None,
    ) -> None:
        super().__init__(
            a,
            z_storage,
            m=m,
            eta=eta,
            max_iter=max_iter,
            stall_restarts=stall_restarts,
            preconditioner=preconditioner,
            storage_factory=storage_factory,
            precision=precision,
            basis_mode=basis_mode,
            tile_elems=tile_elems or DEFAULT_TILE_ELEMS,
            backend=backend,
        )
        self.z_storage = z_storage

    # -- the two Arnoldi-core hooks that make the cycle flexible --------
    _flexible = True

    def _direction(self, s, j: int) -> np.ndarray:
        """``z_{j-1} = M^-1 v_{j-1}``, stored compressed (ref [17])."""
        z_basis = s.stored
        z_basis.write_vector(j - 1, s.precondition(self.preconditioner, s.v))
        s.bill(z_basis, writes=1)
        # counted read: the SpMV streams z_{j-1} from compressed
        # storage (ref [17] halves the saving, not the traffic)
        return z_basis.read_vector(j - 1)

    def _correction(self, s) -> np.ndarray:
        """``x = x0 + Z_m y`` — the compressed basis is read here."""
        with self.tracer.span("update", columns=s.j_used):
            return s.stored.combine(s.j_used, s.lsq.solve())
