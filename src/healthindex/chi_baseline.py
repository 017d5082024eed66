"""Convex health-index baseline trained by proximal subgradient descent.

The objective combines a ridge term, hinge losses on labeled terminal
visits, hinge losses pushing consecutive-visit index differences above one
(monotone degradation), within-class variance of the terminal index around
each class center, and an L1 penalty handled by soft thresholding. Labeled
subjects feed the hinge and variance terms; every subject feeds the
monotonicity term. Training runs on theta = (w, b): every hinge term is one
weighted row of a single stacked matrix, the ridge and variance terms one
quadratic form, so a step is two products with that matrix, one with the
(d + 1)-square form and a soft threshold that leaves b alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Sequence

import numpy as np

from .errors import (
    GE_ZERO,
    GT_ZERO,
    Config,
    DimensionMismatch,
    NonFiniteObjective,
    Range,
    json_field,
)
# both model kinds share one file format, writer and loader; save_model stays
# importable from here because perfbench's tracer wraps chi_baseline.save_model
from .med_core import FORMAT_VERSION, check_payload_d, save_model  # noqa: F401
from .panel import NEGATIVE, POSITIVE, LongitudinalPanel
from .predictor import Predictions, _row, index_means, index_signs


_BLOCK_ROWS = 256  # visit steps per block in _build_design


@dataclass(frozen=True)
class ChiHyperparams(Config):
    """Finite non-negative term weights.

    Defaults come from a 10-fold cross-validated sweep of the grid
    {0.1, 1, 10} per weight on default synthetic panels, keeping the
    candidate with the best held-out accuracy.
    """

    alpha: Annotated[float, GE_ZERO] = 0.1
    beta: Annotated[float, GE_ZERO] = 10.0
    lambda_var: Annotated[float, GE_ZERO] = 0.1
    gamma_l1: Annotated[float, GE_ZERO] = 0.1


@dataclass(frozen=True)
class ChiModel:
    w: np.ndarray
    b: float

    def __post_init__(self):
        arr = np.array(self.w, dtype=float)
        if arr.ndim != 1:
            raise DimensionMismatch(f"weights w must be a vector, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "w", arr)
        object.__setattr__(self, "b", float(self.b))
        if not (np.all(np.isfinite(self.w)) and np.isfinite(self.b)):
            raise ValueError("model coefficients must be finite")

    @property
    def d(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class _Design:
    """The objective in theta = (w, b), built once per panel and term weights.

    Every hinge term is weight * max(0, 1 - row . theta) for one row of
    ``rows``: y * [x, 1] for each labeled terminal visit x (weight beta) and
    [diff, 0] for each consecutive-visit difference (weight alpha). The ridge
    and within-class variance terms make up 0.5 * theta . quad @ theta, with
    quad = I_d (+) 0 + lambda_var * sum over classes of C^T C / n_class, C
    the class's terminal visits minus their center.
    """

    rows: np.ndarray  # (N_lab + M, d + 1)
    weights: np.ndarray  # (N_lab + M,)
    quad: np.ndarray  # (d + 1, d + 1)
    l1: np.ndarray  # (d + 1,) gamma_l1 per weight, 0 for the intercept


def _build_design(panel: LongitudinalPanel, hyper: ChiHyperparams) -> _Design:
    d, labels, obs = panel.d, panel.labels, panel.observations
    last = panel.offsets[1:] - 1  # each subject's terminal row
    labeled = labels != 0
    n_lab = int(labeled.sum())
    n_rows = n_lab + obs.shape[0] - panel.n_subjects
    rows = np.zeros((n_rows, d + 1))
    np.multiply(labels[labeled, None], obs[last[labeled]], out=rows[:n_lab, :d])
    rows[:n_lab, d] = labels[labeled]
    # each subject's steps x_k - x_(k-1) in visit order, subject after subject:
    # row i + 1 minus row i for each i but a subject's last, in row blocks so
    # that no temporary is matrix-sized
    steps = np.delete(np.arange(len(obs) - 1), last[:-1])
    for a in range(0, len(steps), _BLOCK_ROWS):
        i = steps[a:a + _BLOCK_ROWS]
        np.subtract(obs[i + 1], obs[i], out=rows[n_lab + a:n_lab + a + len(i), :d])
    weights = np.full(n_rows, hyper.alpha, dtype=float)
    weights[:n_lab] = hyper.beta
    quad = np.eye(d + 1)
    quad[d, d] = 0.0
    for label in (POSITIVE, NEGATIVE):
        members = obs[last[labels == label]]
        if len(members):
            centered = members - members.mean(axis=0)
            quad[:d, :d] += (hyper.lambda_var / len(members)) * (centered.T @ centered)
    l1 = np.full(d + 1, hyper.gamma_l1, dtype=float)
    l1[d] = 0.0
    return _Design(rows, weights, quad, l1)


def _evaluate(design: _Design, theta: np.ndarray) -> tuple[float, np.ndarray]:
    """Objective value at theta = (w, b) and the subgradient of every term
    except the L1 penalty (handled by prox): one product of the hinge rows
    with theta, one with the active weights, one with the quadratic form.

    Callers ignore overflow and invalid values once around all their
    evaluations: a diverged iterate is caught by their finite check."""
    margins = design.rows @ theta
    curved = design.quad @ theta
    value = (
        0.5 * float(theta @ curved)
        + float(design.weights @ np.maximum(0.0, 1.0 - margins))
        + float(design.l1 @ np.abs(theta))
    )
    grad = curved - np.where(margins < 1.0, design.weights, 0.0) @ design.rows
    return value, grad


def _soft_threshold(x: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)


def chi_objective(
    model: ChiModel, panel: LongitudinalPanel, hyper: ChiHyperparams
) -> float:
    """Exact objective value; absent classes contribute nothing."""
    if model.d != panel.d:
        raise DimensionMismatch(f"model has d={model.d}, panel has d={panel.d}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _evaluate(_build_design(panel, hyper), np.append(model.w, model.b))[0]


def chi_train(
    panel: LongitudinalPanel,
    hyper: ChiHyperparams | None = None,
    steps: int = 400,
    step_size: float = 0.01,
) -> ChiModel:
    """Proximal subgradient descent on theta = (w, b) with step schedule
    step_size / sqrt(k); the prox soft-thresholds w and leaves b alone.

    Returns the best iterate by objective, which is never worse than the
    zero model it starts from. Raises on a non-finite objective, naming the
    features' scale as the cause when the subgradient at theta = 0, which
    the data alone decide, is not finite; the scale and the step size when
    the first step overflows on a raw (unstandardized) panel; and else the
    step size.
    """
    hyper = hyper or ChiHyperparams()
    Range(1).check("steps", steps)
    GT_ZERO.check("step_size", step_size)
    if not panel.labels.any():
        raise ValueError("training needs at least one labeled subject")

    theta = best = np.zeros(panel.d + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        design = _build_design(panel, hyper)
        best_value, grad = _evaluate(design, theta)
        grad_at_zero = grad
        for k in range(1, steps + 1):
            step = step_size / np.sqrt(k)
            theta = _soft_threshold(theta - step * grad, step * design.l1)
            value, grad = _evaluate(design, theta)
            if not np.isfinite(value):
                if not np.isfinite(grad_at_zero).all():
                    cause = ("its subgradient at w = 0, b = 0 is not finite: the features' "
                             "scale overflows it; standardize the features")
                elif k == 1 and panel.standardization.is_identity:
                    size = np.abs(panel.observations).max()
                    cause = (f"the first step overflows on raw features as large as {size:.3g}; "
                             "standardize the features or reduce the step size")
                else:
                    cause = "reduce the step size"
                raise NonFiniteObjective(
                    f"objective became non-finite at step {k} (step_size={step_size}); {cause}",
                    iteration=k,
                )
            if value < best_value:
                best_value, best = value, theta

    return ChiModel(best[:-1], best[-1])


def chi_predict(model: ChiModel, x: Sequence[float]) -> int:
    """Sign of the affine score x.w + b; an exact tie goes to +1."""
    return int(index_signs(index_means(model.w, _row(model, x)) + model.b)[0])


def chi_predict_panel(model: ChiModel, panel: LongitudinalPanel) -> Predictions:
    """Each subject's affine score x.w + b at its terminal visit x, the
    ``index_mean``, as ``chi_predict`` takes it; a tie goes to +1. The
    baseline has no posterior, so no std or confidence."""
    if model.d != panel.d:
        raise DimensionMismatch(f"model has d={model.d}, panel has d={panel.d}")
    return Predictions.at_terminals(panel, index_means(model.w, panel.terminals) + model.b)


# ---------------------------------------------------------------------------
# model file


def model_payload(
    model: ChiModel,
    hyper: ChiHyperparams,
    standardization_dict: dict,
) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "model": "chi",
        "d": model.d,
        "w": model.w.tolist(),
        "b": model.b,
        "hyper": hyper.to_dict(),
        "standardization": standardization_dict,
    }


def model_from_payload(payload: dict) -> ChiModel:
    if payload.get("model") != "chi":
        raise ValueError(f"not a chi model payload: {payload.get('model')!r}")
    model = ChiModel(json_field(payload, "w"), json_field(payload, "b", float))
    check_payload_d(payload, "w", model.d)
    return model
