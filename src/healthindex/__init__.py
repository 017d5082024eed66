"""Monotone health-index learning from irregular longitudinal panels.

Core pieces: a panel data model with CSV ingestion, a concave dual solver
yielding a Gaussian posterior over index weights, confidence-scored
prediction with a rejection option, a convex baseline trained by proximal
subgradient descent, a synthetic-panel simulator and an experiment harness.
"""

from .chi_baseline import ChiHyperparams, ChiModel, chi_objective, chi_predict, chi_train
from .errors import (
    ConflictingLabels,
    DegenerateProblem,
    DimensionMismatch,
    DomainError,
    DuplicateTimeIndex,
    NonConvergence,
    NonFiniteObjective,
    PanelFormatError,
    ZeroFeatureVector,
)
from .harness import (
    ExperimentSpec,
    PipelineResult,
    ResultRow,
    ResultTable,
    cross_validate_c,
    evaluate,
    run_pipeline,
    train_uqchi,
)
from .med_core import (
    DualProblem,
    DualSolution,
    WeightPosterior,
    dual_gradient,
    dual_objective,
    log_partition,
    posterior,
    potential_vector,
    solve_dual,
)
from .panel import (
    LongitudinalPanel,
    Standardization,
    SubjectSeries,
    aggregates,
    apply_standardization,
    fit_standardization,
    load_panel,
    split_and_mask,
    standardize,
    write_panel,
)
from .predictor import (
    Predictions,
    confidence,
    index_trajectory,
    predict,
    predict_panel,
    reject_by_rate,
    reject_by_threshold,
)
from .simulator import SimConfig, simulate

__version__ = "0.1.0"

__all__ = [
    "ChiHyperparams",
    "ChiModel",
    "ConflictingLabels",
    "DegenerateProblem",
    "DimensionMismatch",
    "DomainError",
    "DualProblem",
    "DualSolution",
    "DuplicateTimeIndex",
    "ExperimentSpec",
    "LongitudinalPanel",
    "NonConvergence",
    "NonFiniteObjective",
    "PanelFormatError",
    "PipelineResult",
    "Predictions",
    "ResultRow",
    "ResultTable",
    "SimConfig",
    "Standardization",
    "SubjectSeries",
    "WeightPosterior",
    "ZeroFeatureVector",
    "aggregates",
    "apply_standardization",
    "chi_objective",
    "chi_predict",
    "chi_train",
    "confidence",
    "cross_validate_c",
    "dual_gradient",
    "dual_objective",
    "evaluate",
    "fit_standardization",
    "index_trajectory",
    "load_panel",
    "log_partition",
    "posterior",
    "potential_vector",
    "predict",
    "predict_panel",
    "reject_by_rate",
    "reject_by_threshold",
    "run_pipeline",
    "simulate",
    "solve_dual",
    "split_and_mask",
    "standardize",
    "train_uqchi",
    "write_panel",
]
