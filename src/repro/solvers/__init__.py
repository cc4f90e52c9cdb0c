"""CB-GMRES solver stack (paper Fig. 1) and supporting numerics."""

from .adaptive import (
    ADAPTIVE_STORAGE,
    DEFAULT_LADDER,
    ControllerConfig,
    CycleFeedback,
    PrecisionController,
    PrecisionDecision,
    storage_unit_roundoff,
)
from .analysis import OrthogonalityTrace, basis_perturbation, trace_orthogonality
from .basis import KrylovBasis
from .calibration import CalibrationResult, calibrate_suite, calibrate_target
from .fgmres import FlexibleGmres
from .gmres import (
    DEFAULT_MAX_ITER,
    DEFAULT_MAX_RECOVERIES,
    DEFAULT_RESTART,
    BreakdownEvent,
    CbGmres,
    GmresResult,
    ResidualSample,
    SolveStats,
)
from .hessenberg import GivensLeastSquares
from .options import SolveOptions
from .orthogonal import DEFAULT_ETA, OrthogonalizationResult, cgs_orthogonalize
from .preconditioner import (
    PREC_STORAGES,
    PRECONDITIONERS,
    BlockJacobiPreconditioner,
    IdentityPreconditioner,
    ILU0Preconditioner,
    JacobiPreconditioner,
    Preconditioner,
    PreconditionerError,
    ZeroPivotError,
    make_preconditioner,
)
from .predictor import (
    BasisRiskFeatures,
    FormatRecommendation,
    exponent_spread_features,
    predict_format,
)
from .problems import Problem, make_expected_solution, make_problem, make_rhs

__all__ = [
    "ADAPTIVE_STORAGE",
    "DEFAULT_LADDER",
    "ControllerConfig",
    "CycleFeedback",
    "PrecisionController",
    "PrecisionDecision",
    "storage_unit_roundoff",
    "KrylovBasis",
    "OrthogonalityTrace",
    "basis_perturbation",
    "trace_orthogonality",
    "FlexibleGmres",
    "CalibrationResult",
    "calibrate_suite",
    "calibrate_target",
    "BreakdownEvent",
    "CbGmres",
    "GmresResult",
    "ResidualSample",
    "SolveStats",
    "DEFAULT_MAX_ITER",
    "DEFAULT_MAX_RECOVERIES",
    "DEFAULT_RESTART",
    "GivensLeastSquares",
    "SolveOptions",
    "DEFAULT_ETA",
    "OrthogonalizationResult",
    "cgs_orthogonalize",
    "Preconditioner",
    "PreconditionerError",
    "ZeroPivotError",
    "PRECONDITIONERS",
    "PREC_STORAGES",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "BlockJacobiPreconditioner",
    "ILU0Preconditioner",
    "make_preconditioner",
    "BasisRiskFeatures",
    "FormatRecommendation",
    "exponent_spread_features",
    "predict_format",
    "Problem",
    "make_expected_solution",
    "make_problem",
    "make_rhs",
]
