"""Safe feature screening for L1-regularized squared-hinge SVMs.

Given a solved model at one penalty, the screening rule certifies
features that must have zero weight at any smaller penalty, so the
smaller problem can be solved over the surviving columns only.  The
certificate is geometric and exact: discarded features can never enter
the optimal model, no matter the solver.
"""

from .data import (
    DataFormatError,
    Dataset,
    FeatureStats,
    parse_sparse_text,
    read_sparse_file,
    serialize_sparse_text,
)
from .geometry import Ball, ball_at_t, min_radius_ball, project_null
from .oracle import OracleResult, null_space_basis, oracle_max, oracle_neg_min
from .path import DegenerateProblemError, PathConfig, PathReport, lambda_grid, run_path
from .screening import (
    Branch,
    ScreeningContext,
    ScreenReport,
    build_context,
    neg_min,
    screen_all,
    theta_at_lambda_max,
)
from .solver import (
    KktReport,
    PrimalModel,
    SolverOptions,
    ThetaVector,
    first_features,
    grad_h,
    kkt_report,
    lambda_max,
    model_from_json,
    model_to_json,
    objective_value,
    solve_primal,
    theta_from_primal,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "Branch",
    "DataFormatError",
    "Dataset",
    "DegenerateProblemError",
    "FeatureStats",
    "KktReport",
    "OracleResult",
    "PathConfig",
    "PathReport",
    "PrimalModel",
    "ScreenReport",
    "ScreeningContext",
    "SolverOptions",
    "ThetaVector",
    "ball_at_t",
    "build_context",
    "first_features",
    "grad_h",
    "kkt_report",
    "lambda_grid",
    "lambda_max",
    "min_radius_ball",
    "model_from_json",
    "model_to_json",
    "neg_min",
    "null_space_basis",
    "objective_value",
    "oracle_max",
    "oracle_neg_min",
    "parse_sparse_text",
    "project_null",
    "read_sparse_file",
    "run_path",
    "screen_all",
    "serialize_sparse_text",
    "solve_primal",
    "theta_at_lambda_max",
    "theta_from_primal",
    "__version__",
]
