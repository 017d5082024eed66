"""Checks that no other test reaches: each case builds one malformed input
and asserts the error type and message its check raises."""

from dataclasses import dataclass

import numpy as np
import pytest

from healthindex.chi_baseline import (
    ChiHyperparams,
    ChiModel,
    chi_objective,
    chi_predict_panel,
    model_from_payload,
)
from healthindex.errors import (
    Config,
    DimensionMismatch,
    DomainError,
    PanelFormatError,
)
from healthindex.med_core import (
    DualProblem,
    WeightPosterior,
    dual_objective,
    posterior_from_payload,
    potential_vector,
)
from healthindex.panel import LongitudinalPanel, Standardization, SubjectSeries
from healthindex.predictor import index_trajectory
from healthindex.simulator import SimConfig


def _panel():
    """One subject with two visits of two features."""
    return LongitudinalPanel(("a",), [0, 2], [1, 2], np.ones((2, 2)), [1])


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
    "from_subjects empty": (
        lambda: LongitudinalPanel.from_subjects(()),
        PanelFormatError, "panel needs >= 1 subject",
    ),
    "from_subjects visit count": (
        lambda: LongitudinalPanel.from_subjects((SubjectSeries("a", [1, 2, 3], np.ones((2, 2))),)),
        DimensionMismatch, r"subject a: observations must be \(T, d\) with T == len\(times\)",
    ),
    "index_trajectory d": (
        lambda: index_trajectory(WeightPosterior(np.ones(3)), _panel().subjects[0]),
        DimensionMismatch, "series has d=2, posterior has d=3",
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
