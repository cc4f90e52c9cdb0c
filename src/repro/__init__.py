"""repro — reproduction of "FRSZ2 for In-Register Block Compression Inside
GMRES on GPUs" (Grützmacher, Underwood, Di, Cappello, Anzt; SC 2024).

Subpackages
-----------
core
    The FRSZ2 fixed-rate block-floating-point codec (the paper's
    contribution) and its bit-level substrates.
accessor
    Ginkgo-style Accessor interface decoupling storage format from
    arithmetic format (float64/32/16, FRSZ2, round-trip compressors).
compressors
    From-scratch SZ-like and ZFP-like comparator compressors behind a
    LibPressio-style registry, with error-bound metrics.
sparse
    CSR/COO sparse-matrix substrate, MatrixMarket I/O, and deterministic
    synthetic analogs of the SuiteSparse CFD matrices of Table I.
solvers
    Restarted CB-GMRES per the paper's Fig. 1, target-RRN calibration
    (Section V-C), and the per-restart precision controller.
gpu
    H100 performance-model substrate: device catalog, roofline and
    instruction-cost kernel models, warp-level SIMT executor, and the
    end-to-end solver timing model.
bench
    Experiment drivers that regenerate every table and figure of the
    paper's evaluation section.
robust
    Fault tolerance: seeded fault injectors (bit flips, NaN/Inf, container
    corruption), automatic precision fallback (``RobustCbGmres``), and the
    survival-rate campaign.
"""

from .core import FRSZ2, Frsz2Compressed

__version__ = "1.0.0"

__all__ = ["FRSZ2", "Frsz2Compressed", "__version__"]
