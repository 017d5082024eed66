"""Convex health-index baseline trained by proximal subgradient descent.

The objective combines a ridge term, hinge losses on labeled terminal
visits, hinge losses pushing consecutive-visit index differences above one
(monotone degradation), within-class variance of the terminal index around
each class center, and an L1 penalty handled by soft thresholding. Labeled
subjects feed the hinge and variance terms; every subject feeds the
monotonicity term.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NonFiniteObjective, reject_unknown_keys
# both model kinds share one file format, writer and loader; save_model stays
# importable from here because perfbench's tracer wraps chi_baseline.save_model
from .med_core import FORMAT_VERSION, save_model  # noqa: F401
from .panel import NEGATIVE, POSITIVE, LongitudinalPanel


@dataclass(frozen=True)
class ChiHyperparams:
    """Non-negative term weights.

    Defaults come from a 10-fold cross-validated sweep of the grid
    {0.1, 1, 10} per weight on default synthetic panels, keeping the
    candidate with the best held-out accuracy.
    """

    alpha: float = 0.1
    beta: float = 10.0
    lambda_var: float = 0.1
    gamma_l1: float = 0.1

    def __post_init__(self):
        for name in ("alpha", "beta", "lambda_var", "gamma_l1"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload) -> "ChiHyperparams":
        reject_unknown_keys(cls, payload)
        return cls(**payload)


@dataclass(frozen=True)
class ChiModel:
    w: np.ndarray
    b: float

    def __post_init__(self):
        arr = np.array(self.w, dtype=float)
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
    """Matrices extracted once from a panel for objective/gradient evaluation."""

    x_labeled: np.ndarray  # (N_lab, d) terminal visits of labeled subjects
    y_labeled: np.ndarray  # (N_lab,)
    # y * x_labeled by rows: y = +-1 only flips signs, so yx @ w + y * b
    # equals y * (x @ w + b) bit for bit
    yx_labeled: np.ndarray
    diffs: np.ndarray  # (M, d) consecutive-visit differences, all subjects
    centered_pos: np.ndarray  # (N+, d) terminal visits minus positive center
    centered_neg: np.ndarray  # (N-, d)


def _build_design(panel: LongitudinalPanel) -> _Design:
    d = panel.d
    x_lab, y_lab, diff_blocks = [], [], []
    for s in panel.subjects:
        if s.label is not None:
            x_lab.append(s.terminal)
            y_lab.append(float(s.label))
        if s.n_visits > 1:
            diff_blocks.append(s.visit_diffs())
    x_labeled = np.array(x_lab, dtype=float).reshape(len(x_lab), d)
    y_labeled = np.array(y_lab, dtype=float)
    diffs = (
        np.vstack(diff_blocks) if diff_blocks else np.empty((0, d))
    )
    pos = x_labeled[y_labeled == POSITIVE]
    neg = x_labeled[y_labeled == NEGATIVE]
    centered_pos = pos - pos.mean(axis=0) if len(pos) else np.empty((0, d))
    centered_neg = neg - neg.mean(axis=0) if len(neg) else np.empty((0, d))
    return _Design(
        x_labeled,
        y_labeled,
        y_labeled[:, None] * x_labeled,
        diffs,
        centered_pos,
        centered_neg,
    )


def _evaluate(
    design: _Design, w: np.ndarray, b: float, hyper: ChiHyperparams
) -> tuple[float, np.ndarray, float]:
    """Objective value and the subgradient of every term except the L1
    penalty (handled by prox), from one product of each design block with w.

    Callers ignore overflow and invalid values once around all their
    evaluations: a diverged iterate is caught by their finite check."""
    g_w = w.copy()
    g_b = 0.0
    value = 0.5 * float(w @ w)
    if len(design.y_labeled):
        margins = design.yx_labeled @ w + design.y_labeled * b
        value += hyper.beta * float(np.maximum(0.0, 1.0 - margins).sum())
        active = margins < 1.0
        if np.any(active):
            ya = design.y_labeled[active]
            g_w -= hyper.beta * (ya @ design.x_labeled[active])
            g_b -= hyper.beta * float(ya.sum())
    if len(design.diffs):
        rises = design.diffs @ w
        value += hyper.alpha * float(np.maximum(0.0, 1.0 - rises).sum())
        active = rises < 1.0
        if np.any(active):
            g_w -= hyper.alpha * design.diffs[active].sum(axis=0)
    for centered in (design.centered_pos, design.centered_neg):
        if len(centered):
            proj = centered @ w
            value += 0.5 * hyper.lambda_var * float(proj @ proj) / len(centered)
            g_w += hyper.lambda_var * (centered.T @ proj) / len(centered)
    value += hyper.gamma_l1 * float(np.abs(w).sum())
    return value, g_w, g_b


def _soft_threshold(w: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(w) * np.maximum(np.abs(w) - threshold, 0.0)


def chi_objective(
    model: ChiModel, panel: LongitudinalPanel, hyper: ChiHyperparams
) -> float:
    """Exact objective value; absent classes contribute nothing."""
    if model.d != panel.d:
        raise DimensionMismatch(f"model has d={model.d}, panel has d={panel.d}")
    with np.errstate(over="ignore", invalid="ignore"):
        return _evaluate(_build_design(panel), model.w, model.b, hyper)[0]


def chi_train(
    panel: LongitudinalPanel,
    hyper: ChiHyperparams | None = None,
    steps: int = 400,
    step_size: float = 0.01,
) -> ChiModel:
    """Proximal subgradient descent with step schedule step_size / sqrt(k).

    Returns the best iterate by objective, which is never worse than the
    zero model it starts from. Raises on a non-finite objective.
    """
    hyper = hyper or ChiHyperparams()
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if step_size <= 0:
        raise ValueError("step_size must be positive")
    design = _build_design(panel)
    if not len(design.y_labeled):
        raise ValueError("training needs at least one labeled subject")

    w = np.zeros(panel.d)
    b = 0.0
    best_w, best_b = w, b
    with np.errstate(over="ignore", invalid="ignore"):
        best_value, g_w, g_b = _evaluate(design, w, b, hyper)
        for k in range(1, steps + 1):
            step = step_size / np.sqrt(k)
            w = _soft_threshold(w - step * g_w, step * hyper.gamma_l1)
            b = b - step * g_b
            value, g_w, g_b = _evaluate(design, w, b, hyper)
            if not np.isfinite(value):
                raise NonFiniteObjective(
                    f"objective became non-finite at step {k} "
                    f"(step_size={step_size}); reduce the step size",
                    iteration=k,
                )
            if value < best_value:
                best_value, best_w, best_b = value, w, b

    return ChiModel(best_w, best_b)


def chi_predict(model: ChiModel, x: Sequence[float]) -> int:
    """Sign of the affine score x.w + b; an exact tie goes to +1."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({model.d},)")
    return 1 if float(x @ model.w) + model.b >= 0.0 else -1


def chi_predict_panel(model: ChiModel, panel: LongitudinalPanel) -> dict[str, int]:
    """Terminal-visit predictions keyed by subject id."""
    return {s.subject_id: chi_predict(model, s.terminal) for s in panel.subjects}


# ---------------------------------------------------------------------------
# model file


def model_payload(
    model: ChiModel,
    hyper: ChiHyperparams,
    standardization_dict: dict | None = None,
) -> dict:
    payload = {
        "format_version": FORMAT_VERSION,
        "model": "chi",
        "d": model.d,
        "w": model.w.tolist(),
        "b": model.b,
        "hyper": hyper.to_dict(),
    }
    if standardization_dict is not None:
        payload["standardization"] = standardization_dict
    return payload


def model_from_payload(payload: dict) -> ChiModel:
    if payload.get("model") != "chi":
        raise ValueError(f"not a chi model payload: {payload.get('model')!r}")
    return ChiModel(np.asarray(payload["w"], dtype=float), float(payload["b"]))
