"""Closed-form prediction from the Gaussian weight posterior.

Under a posterior N(v, I) the index of a visit x is Gaussian with mean v.x
and standard deviation ||x||, so the class probability has the closed form
Phi(|v.x| / ||x||). Confidence feeds two abstention modes: a probability
threshold and a fixed rejection rate over the least-confident records.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, Range, ZeroFeatureVector
from .med_core import WeightPosterior
from .panel import LongitudinalPanel, SubjectSeries

REJECTED_LABEL = 0
# the rejection thresholds and rates reject_by_threshold and reject_by_rate take
THRESHOLDS = Range(0.5, 1.0)
RATES = Range(0.0, 1.0, open_high=True)

PREDICTION_COLUMNS = (
    "subject_id",
    "t_last",
    "index_mean",
    "index_std",
    "pred",
    "confidence",
    "abstained",
)


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _check_dim(posterior: WeightPosterior, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (posterior.d,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({posterior.d},)")
    return x


def predict(posterior: WeightPosterior, x: Sequence[float]) -> int:
    """Sign of the posterior-mean index; an exact tie goes to +1."""
    x = _check_dim(posterior, x)
    return 1 if float(posterior.mean @ x) >= 0.0 else -1


def _index(posterior: WeightPosterior, x: np.ndarray) -> tuple[float, float]:
    """The index mean v.x and standard deviation ||x|| of one visit x: the
    one expression that prediction, confidence and trajectories share."""
    return float(posterior.mean @ x), float(np.linalg.norm(x))


def confidence(posterior: WeightPosterior, x: Sequence[float]) -> float:
    """Phi(|v.x| / ||x||): the larger of the two class probabilities."""
    mean, norm = _index(posterior, _check_dim(posterior, x))
    if norm == 0.0:
        raise ZeroFeatureVector("confidence undefined for an all-zero feature vector")
    return _normal_cdf(abs(mean) / norm)


@dataclass(frozen=True)
class IndexTrajectory:
    """Per-visit posterior index means and standard deviations."""

    times: tuple[int, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]
    monotonicity_violations: int


def index_trajectory(posterior: WeightPosterior, series: SubjectSeries) -> IndexTrajectory:
    """Index mean v.x_t and std ||x_t|| per visit, with a count of visits
    where the mean index decreases. The last visit's mean and std are the
    ``index_mean`` and ``index_std`` that ``predict_panel`` records."""
    if series.d != posterior.d:
        raise DimensionMismatch(
            f"series has d={series.d}, posterior has d={posterior.d}"
        )
    means, stds = zip(*(_index(posterior, x) for x in series.observations))
    return IndexTrajectory(
        times=tuple(int(t) for t in series.times),
        means=means,
        stds=stds,
        monotonicity_violations=int(np.sum(np.diff(means) < 0.0)),
    )


@dataclass(frozen=True)
class PredictionRecord:
    """Decision at a subject's terminal visit.

    ``index_mean`` is the index the decision thresholds and ``index_std`` its
    posterior standard deviation; a model without a posterior (the chi
    baseline) leaves ``index_std`` and ``confidence`` as None.
    """

    subject_id: str
    t_last: int
    index_mean: float
    index_std: float | None
    predicted_label: int
    confidence: float | None
    abstained: bool = False

    @property
    def rejection_label(self) -> int:
        """Rejection-aware label: 0 when abstained, else the prediction."""
        return REJECTED_LABEL if self.abstained else self.predicted_label


def predict_panel(posterior: WeightPosterior, panel: LongitudinalPanel) -> list[PredictionRecord]:
    """One record per subject from the index mean v.x and std ||x|| of its
    terminal visit x; the same two floats give ``predict`` and
    ``confidence``. An all-zero terminal visit carries no evidence: it gets
    the tie label +1 and confidence 0.5, the lowest possible, so rate-based
    rejection abstains on it first."""
    if panel.d != posterior.d:
        raise DimensionMismatch(f"panel has d={panel.d}, posterior has d={posterior.d}")
    last = panel.offsets[1:] - 1
    records = []
    for sid, t, x in zip(panel.subject_ids, panel.times[last].tolist(), panel.observations[last]):
        mean, std = _index(posterior, x)
        records.append(
            PredictionRecord(
                subject_id=sid,
                t_last=t,
                index_mean=mean,
                index_std=std,
                predicted_label=1 if mean >= 0.0 else -1,
                confidence=_normal_cdf(abs(mean) / std) if std != 0.0 else 0.5,
            )
        )
    return records


def reject_by_threshold(
    records: Sequence[PredictionRecord], threshold: float
) -> list[PredictionRecord]:
    """Abstain exactly on records with confidence below the threshold."""
    THRESHOLDS.check("threshold", threshold)
    return [replace(r, abstained=r.confidence < threshold) for r in records]


def reject_by_rate(
    records: Sequence[PredictionRecord], rate: float
) -> list[PredictionRecord]:
    """Abstain on the floor(rate * len) least-confident records.

    Ties break by input position (stable sort), so growing the rate always
    grows the abstention set.
    """
    RATES.check("rate", rate)
    if not records:
        raise ValueError("need at least one record")
    n_reject = int(math.floor(rate * len(records)))
    order = np.argsort([r.confidence for r in records], kind="stable")
    rejected = set(order[:n_reject].tolist())
    return [replace(r, abstained=i in rejected) for i, r in enumerate(records)]


# ---------------------------------------------------------------------------
# prediction CSV


def _cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def write_predictions(records: Iterable[PredictionRecord], path) -> None:
    """One row per subject; the pred column is rejection-aware (1, -1 or 0)
    and a missing std or confidence is left blank."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREDICTION_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.subject_id,
                    r.t_last,
                    repr(r.index_mean),
                    _cell(r.index_std),
                    r.rejection_label,
                    _cell(r.confidence),
                    int(r.abstained),
                ]
            )


def read_prediction_labels(path) -> dict[str, int]:
    """Rejection-aware labels keyed by subject id, as written above."""
    out: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out[row["subject_id"]] = int(row["pred"])
    return out
