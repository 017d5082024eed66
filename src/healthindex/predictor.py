"""Closed-form prediction from the Gaussian weight posterior.

Under a posterior N(v, I) the index of a visit x is Gaussian with mean v.x
and standard deviation ||x||, so the class probability has the closed form
Phi(|v.x| / ||x||). A panel's predictions are one ``Predictions`` struct of
arrays, one entry per subject at its terminal visit. Confidence feeds two
abstention modes, each returning the struct with a new abstention mask: a
probability threshold and a fixed rejection rate over the least-confident
subjects.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from itertools import compress
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, Range, ZeroFeatureVector
from .med_core import WeightPosterior
from .panel import LongitudinalPanel

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


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.frompyfunc(math.erf, 1, 1)(z / math.sqrt(2.0)).astype(float))


def index_means(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """w.x for each row x of the (n, d) ``rows``, under weights of shape (d,)
    or (F, d). Plain einsum calls no BLAS routine, so the floats follow
    neither the OpenBLAS kernel nor where a row sits in memory."""
    return np.einsum("...d,nd->...n", weights, rows)


def index_signs(means: np.ndarray) -> np.ndarray:
    """+1 where an index mean is >= 0 (a tie goes to +1), else -1."""
    return np.where(means >= 0.0, 1, -1)


def _index(posterior: WeightPosterior, rows: np.ndarray):
    """Index means v.x, stds ||x|| and z = |v.x| / ||x|| (0 for x = 0) of the
    rows x of ``rows``. A row whose ||x||^2 overflows takes its std and z
    from x / s, s = max |x_i|."""
    means = index_means(posterior.mean, rows)
    with np.errstate(over="ignore"):
        stds = np.sqrt(np.einsum("nd,nd->n", rows, rows))
    big = np.isinf(stds)
    z = np.divide(np.abs(means), stds, out=np.zeros_like(stds), where=(stds != 0.0) & ~big)
    if big.any():
        s = np.abs(rows[big]).max(axis=1)
        _, scaled_stds, z[big] = _index(posterior, rows[big] / s[:, None])
        stds[big] = s * scaled_stds
    return means, stds, z


def _row(model, x: Sequence[float]) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.d,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({model.d},)")
    return x[None]


def predict(posterior: WeightPosterior, x: Sequence[float]) -> int:
    """Sign of the posterior-mean index; an exact tie goes to +1."""
    return int(index_signs(index_means(posterior.mean, _row(posterior, x)))[0])


def confidence(posterior: WeightPosterior, x: Sequence[float]) -> float:
    """Phi(|v.x| / ||x||): the larger of the two class probabilities."""
    _, norm, z = _index(posterior, _row(posterior, x))
    if norm[0] == 0.0:
        raise ZeroFeatureVector("confidence undefined for an all-zero feature vector")
    return float(_normal_cdf(z)[0])


@dataclass(frozen=True)
class IndexTrajectory:
    """Per-visit posterior index means and standard deviations."""

    times: tuple[int, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]
    monotonicity_violations: int


def index_trajectory(
    posterior: WeightPosterior, panel: LongitudinalPanel, j: int
) -> IndexTrajectory:
    """Index mean v.x_t and std ||x_t|| at each visit of the panel's subject
    at position j (rows ``offsets[j]:offsets[j + 1]``), with a count of
    visits where the mean index decreases: the monitoring view of one
    subject. The last visit's mean and std are the ``index_mean`` and
    ``index_std`` that ``predict_panel`` returns for that subject."""
    if not 0 <= j < panel.n_subjects:
        raise IndexError(f"subject position {j} outside [0, {panel.n_subjects})")
    if panel.d != posterior.d:
        raise DimensionMismatch(f"panel has d={panel.d}, posterior has d={posterior.d}")
    rows = slice(panel.offsets[j], panel.offsets[j + 1])
    means, stds, _ = _index(posterior, panel.observations[rows])
    return IndexTrajectory(
        times=tuple(panel.times[rows].tolist()),
        means=tuple(means.tolist()),
        stds=tuple(stds.tolist()),
        monotonicity_violations=int(np.sum(np.diff(means) < 0.0)),
    )


@dataclass(frozen=True)
class Predictions:
    """Decisions at each subject's terminal visit, one array entry per
    subject in panel order: ``predicted_label`` is the sign of ``index_mean``.
    A model without a posterior (the chi baseline) has no ``index_std`` and
    no ``confidence`` (None)."""

    subject_ids: tuple[str, ...]
    t_last: np.ndarray
    index_mean: np.ndarray
    index_std: np.ndarray | None
    predicted_label: np.ndarray
    confidence: np.ndarray | None
    abstained: np.ndarray

    @classmethod
    def at_terminals(cls, panel: LongitudinalPanel, mean, std=None, conf=None) -> Predictions:
        """The panel's subjects with terminal index ``mean``, a tie going to
        +1, and none abstained."""
        return cls(panel.subject_ids, panel.times[panel.offsets[1:] - 1], mean, std,
                   index_signs(mean), conf, np.zeros(len(mean), dtype=bool))

    def __len__(self) -> int:
        return len(self.subject_ids)

    @property
    def rejection_labels(self) -> np.ndarray:
        """Rejection-aware labels: 0 where abstained, else the prediction."""
        return np.where(self.abstained, REJECTED_LABEL, self.predicted_label)

    def subset(self, rows: np.ndarray) -> Predictions:
        """The subjects where the boolean mask ``rows`` is True, in order."""
        arrays = (getattr(self, f.name) for f in fields(self)[1:])
        return Predictions(tuple(compress(self.subject_ids, rows)),
                           *(None if a is None else a[rows] for a in arrays))


def predict_panel(posterior: WeightPosterior, panel: LongitudinalPanel) -> Predictions:
    """Each subject's index mean v.x and std ||x|| at its terminal visit x, as
    ``predict`` and ``confidence`` take them. An all-zero terminal visit carries
    no evidence: it gets the tie label +1 and confidence 0.5, the lowest
    possible, so rate-based rejection abstains on it first."""
    if panel.d != posterior.d:
        raise DimensionMismatch(f"panel has d={panel.d}, posterior has d={posterior.d}")
    mean, std, z = _index(posterior, panel.terminals)
    return Predictions.at_terminals(panel, mean, std, _normal_cdf(z))


def _confidence(preds: Predictions) -> np.ndarray:
    if preds.confidence is None:
        raise ValueError("rejection needs confidence scores, which a chi model does not give")
    return preds.confidence


def reject_by_threshold(preds: Predictions, threshold: float) -> Predictions:
    """Abstain exactly on subjects with confidence below the threshold."""
    THRESHOLDS.check("threshold", threshold)
    return replace(preds, abstained=_confidence(preds) < threshold)


def reject_by_rate(preds: Predictions, rate: float) -> Predictions:
    """Abstain on the floor(rate * len) least-confident subjects.

    Ties break by input position (stable sort), so growing the rate always
    grows the abstention set.
    """
    RATES.check("rate", rate)
    if not len(preds):
        raise ValueError("need at least one record")
    order = np.argsort(_confidence(preds), kind="stable")
    abstained = np.zeros(len(preds), dtype=bool)
    abstained[order[: math.floor(rate * len(preds))]] = True
    return replace(preds, abstained=abstained)


# ---------------------------------------------------------------------------
# prediction CSV


def write_predictions(preds: Predictions, path) -> None:
    """One row per subject; the pred column is rejection-aware (1, -1 or 0)
    and a missing std or confidence column is left blank."""
    blank = [""] * len(preds)
    columns = (
        preds.subject_ids,
        preds.t_last.tolist(),
        preds.index_mean.tolist(),
        blank if preds.index_std is None else preds.index_std.tolist(),
        preds.rejection_labels.tolist(),
        blank if preds.confidence is None else preds.confidence.tolist(),
        preds.abstained.astype(int).tolist(),
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREDICTION_COLUMNS)
        writer.writerows(zip(*columns))


def read_prediction_labels(path) -> dict[str, int]:
    """Rejection-aware labels keyed by subject id, as written above.

    A missing subject_id or pred column, a row whose cell count differs from
    the header's, a pred cell that is not an integer and a repeated subject
    id raise ValueError naming the file and line.
    """
    out: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name in ("subject_id", "pred") if name not in header]
        if missing:
            raise ValueError(f"{path} line 1: no {' or '.join(missing)} column")
        sid_at, pred_at = header.index("subject_id"), header.index("pred")
        for row in reader:
            if not row:
                continue
            where = f"{path} line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: {len(row)} cells, the header has {len(header)}")
            sid, pred = row[sid_at], row[pred_at]
            if sid in out:
                raise ValueError(f"{where}: repeated subject id {sid!r}")
            try:
                out[sid] = int(pred)
            except ValueError:
                raise ValueError(f"{where}: pred {pred!r} is not an integer") from None
    return out
