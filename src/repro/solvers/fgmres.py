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

The work log feeds the same GPU timing model: each cycle's record
counts the Arnoldi steps' walks and writes of the float64 ``V`` (its
``step_storage``) beside the writes, the read-backs of ``z_{j-1}`` and
the update of the compressed ``Z``, so the V-basis traffic CB-GMRES
would have compressed is priced at float64.
"""

from __future__ import annotations

import numpy as np

from .gmres import CbGmres

__all__ = ["FlexibleGmres"]


class FlexibleGmres(CbGmres):
    """Restarted FGMRES storing the preconditioned basis ``Z`` compressed.

    It is built exactly like :class:`~repro.solvers.gmres.CbGmres`;
    ``storage`` (and ``storage_factory``) set the storage of the
    preconditioned vectors (the quantity ref [17] compresses), while the
    orthonormal basis ``V`` always stays in float64.

    ``storage="adaptive"`` puts the Z basis under a
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
    billing and the tracer spans are inherited, not re-implemented.
    """

    # -- the two Arnoldi-core hooks that make the cycle flexible --------
    _flexible = True

    def _direction(self, s, j: int) -> np.ndarray:
        """``z_{j-1} = M^-1 v_{j-1}``, stored compressed (ref [17])."""
        z_basis = s.stored
        z_basis.write_vector(j - 1, s.precondition(self.preconditioner, s.v))
        s.cycle.basis_writes += 1
        # counted read: the SpMV streams z_{j-1} from compressed
        # storage (ref [17] halves the saving, not the traffic)
        s.cycle.direction_reads += 1
        return z_basis.read_vector(j - 1)

    def _correction(self, s) -> np.ndarray:
        """``x = x0 + Z_m y`` — the compressed basis is read here."""
        with self.tracer.span("update", columns=s.j_used):
            return s.stored.combine(s.j_used, s.lsq.solve())
