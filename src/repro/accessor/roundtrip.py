"""Round-trip compressor accessor — the LibPressio simulation of §V-D.

The paper does not implement SZ/SZ3/ZFP inside the Accessor; instead it
"simulate[s] the effect of other compression schemes on the CB-GMRES
convergence ... by compressing and immediately decompressing the Krylov
vectors through the LibPressio interface".  This accessor does exactly
that: on write, the vector passes through a generic compressor's round
trip and the lossy reconstruction is kept in float64; reads return it
unchanged (a dense float64 slot, read like
:class:`~repro.accessor.PrecisionAccessor`'s).  ``stored_nbytes``
reports the *actual compressed size*, so bits-per-value accounting
matches the discussion in Section VI-A.
"""

from __future__ import annotations

import numpy as np

from ..compressors.base import Compressor
from .precision import PrecisionAccessor

__all__ = ["RoundTripAccessor"]


class RoundTripAccessor(PrecisionAccessor):
    """Inject a generic lossy compressor's error into stored vectors.

    Reads slice the kept reconstruction freely; tile bytes are pro-rated
    from the actual compressed size.
    """

    def __init__(self, n: int, compressor: Compressor, name: str) -> None:
        super().__init__(n)
        self.compressor = compressor
        self.name = name
        self._stored_nbytes = n * 8  # nothing compressed yet

    def write(self, values: np.ndarray) -> None:
        values = self._check_write(values)
        if self.n == 0:
            self._record_write()
            return
        self._data, self._stored_nbytes = self.compressor.roundtrip_with_size(values)
        self._record_write()

    def clear(self) -> None:
        super().clear()
        self._stored_nbytes = self.n * 8

    def stored_nbytes(self) -> int:
        return self._stored_nbytes
