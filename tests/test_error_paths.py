"""Checks that no other test reaches: each case builds one malformed input
and asserts the error type and message its check raises."""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from healthindex.chi_baseline import (
    ChiHyperparams,
    ChiModel,
    chi_objective,
    chi_predict_panel,
    chi_train,
    model_from_payload,
)
from healthindex.errors import (
    Config,
    DimensionMismatch,
    DomainError,
    NonConvergence,
    NonFiniteObjective,
    PanelFormatError,
)
from healthindex.med_core import (
    DualProblem,
    WeightPosterior,
    dual_objective,
    posterior_from_payload,
    potential_vector,
    solve_dual,
)
from healthindex.panel import LongitudinalPanel, Standardization, fit_standardization
from healthindex.predictor import index_trajectory
from healthindex.simulator import SimConfig


def _panel():
    """One subject with two visits of two features."""
    return LongitudinalPanel(("a",), [0, 2], [1, 2], np.ones((2, 2)), [1])


def _standardized(panel):
    """``panel``'s rows, marked as standardized by a non-identity transform."""
    return replace(panel, standardization=Standardization(np.zeros(panel.d), np.full(panel.d, 2.0)))


def _one_visit_each(rows):
    """Two positive subjects with one visit each, the rows of ``rows``."""
    return LongitudinalPanel(("a", "b"), [0, 1, 2], [1, 1], np.array(rows), [1, 1])


@dataclass(frozen=True)
class _UnboundedNumber(Config):
    size: int = 1


CASES = {
    "ChiModel non-finite": (
        lambda: ChiModel(np.array([1.0, np.nan]), 0.0),
        ValueError, "model coefficients must be finite",
    ),
    "chi_objective d": (
        lambda: chi_objective(ChiModel(np.ones(3), 0.0), _panel(), ChiHyperparams()),
        DimensionMismatch, "model has d=3, panel has d=2",
    ),
    "chi_predict_panel d": (
        lambda: chi_predict_panel(ChiModel(np.ones(3), 0.0), _panel()),
        DimensionMismatch, "model has d=3, panel has d=2",
    ),
    "chi payload kind": (
        lambda: model_from_payload({"model": "med"}),
        ValueError, "not a chi model payload: 'med'",
    ),
    "DualProblem empty": (
        lambda: DualProblem(np.zeros((0, 3)), 2.0),
        DimensionMismatch, r"aggregates must be a non-empty \(N, d\) matrix",
    ),
    "lambda length": (
        lambda: dual_objective(np.zeros(2), DualProblem(np.ones((3, 2)), 2.0)),
        DimensionMismatch, r"lambda has shape \(2,\), expected \(3,\)",
    ),
    "potential_vector negative": (
        lambda: potential_vector([0.5, -0.1], np.ones((2, 3))),
        DomainError, "lambda must be non-negative",
    ),
    "med payload kind": (
        lambda: posterior_from_payload({"model": "chi"}),
        ValueError, "not a med model payload: 'chi'",
    ),
    "Standardization shapes": (
        lambda: Standardization(np.zeros(2), np.ones(3)),
        DimensionMismatch, "mean and scale must be 1-d and equally long",
    ),
    "Standardization scale": (
        lambda: Standardization(np.zeros(2), np.array([1.0, 0.0])),
        ValueError, "scale entries must be positive",
    ),
    "panel without subjects": (
        lambda: LongitudinalPanel((), [0], np.zeros(0, dtype=int), np.zeros((0, 2)), []),
        PanelFormatError, "panel needs >= 1 subject",
    ),
    "panel arrays": (
        lambda: LongitudinalPanel(("a",), [0, 3], [1, 2], np.ones((2, 2)), [1]),
        DimensionMismatch, "panel arrays do not fit together",
    ),
    "panel standardization d": (
        lambda: LongitudinalPanel(
            ("a",), [0, 2], [1, 2], np.ones((2, 2)), [1], Standardization.identity(3)
        ),
        DimensionMismatch, "standardization dimension != panel dimension",
    ),
    "index_trajectory d": (
        lambda: index_trajectory(WeightPosterior(np.ones(3)), _panel(), 0),
        DimensionMismatch, "panel has d=2, posterior has d=3",
    ),
    "index_trajectory position past the end": (
        lambda: index_trajectory(WeightPosterior(np.ones(2)), _panel(), 1),
        IndexError, r"subject position 1 outside \[0, 1\)",
    ),
    "index_trajectory negative position": (
        lambda: index_trajectory(WeightPosterior(np.ones(2)), _panel(), -1),
        IndexError, r"subject position -1 outside \[0, 1\)",
    ),
    "fit_standardization range": (
        lambda: fit_standardization(_one_visit_each([[1.0, -1e308], [2.0, 1e308]])),
        ValueError, "feature 2 of 2 spans more than the float range; rescale it",
    ),
    "solve_dual overflow": (
        lambda: solve_dual(DualProblem(np.random.default_rng(0).normal(size=(3, 5)) * 1e300, 1.5)),
        NonConvergence,
        r"projected gradient norm nan is not <= tol 1\.000e-08 after 0 iterations: the dual "
        "objective overflows at the aggregates' scale; standardize the features",
    ),
    "chi_train scale": (
        lambda: chi_train(_one_visit_each([[1e300, 1.0], [-1e300, 1.0]])),
        NonFiniteObjective,
        r"objective became non-finite at step 1 \(step_size=0\.01\); its subgradient at "
        "w = 0, b = 0 is not finite: the features' scale overflows it; standardize the features",
    ),
    "chi_train step size": (
        lambda: chi_train(_standardized(_panel()), step_size=1e160),
        NonFiniteObjective,
        r"objective became non-finite at step 1 \(step_size=1e\+160\); reduce the step size",
    ),
    "chi_train raw first step": (
        lambda: chi_train(_panel(), step_size=1e160),
        NonFiniteObjective,
        r"objective became non-finite at step 1 \(step_size=1e\+160\); the first step "
        "overflows on raw features as large as 1; standardize the features or reduce the step size",
    ),
    "SimConfig visits": (
        lambda: SimConfig(visits_min=4, visits_max=3),
        ValueError, "need visits_min <= visits_max",
    ),
    "SimConfig empty class": (
        lambda: SimConfig(n_per_class=2, normal_proportion=0.2).class_sizes(),
        ValueError, "normal_proportion leaves an empty class",
    ),
    "Config number without a Range": (
        lambda: _UnboundedNumber(),
        TypeError, "_UnboundedNumber.size is a number without a Range",
    ),
}


@pytest.mark.parametrize("build,error,message", CASES.values(), ids=list(CASES))
def test_check_raises(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()
