"""Data model for irregular multivariate longitudinal panels.

A panel is a collection of per-subject time series with partially observed
binary labels. This module owns CSV ingestion and emission, feature
standardization, subject-level train/test splitting with label masking,
and the per-subject aggregate matrix consumed by the dual solver.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    ConflictingLabels,
    DimensionMismatch,
    DuplicateTimeIndex,
    PanelFormatError,
)

POSITIVE = 1
NEGATIVE = -1

_LABEL_TOKENS = {"1": POSITIVE, "+1": POSITIVE, "-1": NEGATIVE, "": None}
# panel CSV columns before the features: subject id, visit time, label
_RESERVED_COLUMNS = ("subject_id", "t", "label")


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Standardization:
    """Per-feature affine transform x -> (x - mean) / scale."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _frozen_array(self.mean))
        object.__setattr__(self, "scale", _frozen_array(self.scale))
        if self.mean.shape != self.scale.shape or self.mean.ndim != 1:
            raise DimensionMismatch("mean and scale must be 1-d and equally long")
        if np.any(self.scale <= 0):
            raise ValueError("scale entries must be positive")

    @classmethod
    def identity(cls, d: int) -> "Standardization":
        return cls(np.zeros(d), np.ones(d))

    @property
    def is_identity(self) -> bool:
        return bool(np.all(self.mean == 0.0) and np.all(self.scale == 1.0))

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.mean) / self.scale

    def inverse(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) * self.scale + self.mean

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "scale": self.scale.tolist()}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Standardization":
        return cls(payload["mean"], payload["scale"])


@dataclass(frozen=True)
class SubjectSeries:
    """One subject's visits: strictly increasing integer times, a (T, d)
    observation matrix and an optional binary label (+1, -1 or None)."""

    subject_id: str
    times: np.ndarray
    observations: np.ndarray
    label: int | None = None

    def __post_init__(self):
        times = _frozen_array(self.times, dtype=int)
        obs = _frozen_array(self.observations)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "observations", obs)
        if obs.ndim != 2 or obs.shape[0] != times.shape[0]:
            raise DimensionMismatch(
                f"subject {self.subject_id}: observations must be (T, d) with "
                f"T == len(times)"
            )
        if times.shape[0] < 1:
            raise PanelFormatError(f"subject {self.subject_id}: needs >= 1 visit")
        if np.any(np.diff(times) <= 0):
            raise PanelFormatError(
                f"subject {self.subject_id}: times must be strictly increasing"
            )
        if not np.all(np.isfinite(obs)):
            raise PanelFormatError(
                f"subject {self.subject_id}: non-finite observation"
            )
        if self.label not in (POSITIVE, NEGATIVE, None):
            raise PanelFormatError(
                f"subject {self.subject_id}: label must be +1, -1 or None"
            )

    @property
    def n_visits(self) -> int:
        return self.times.shape[0]

    @property
    def d(self) -> int:
        return self.observations.shape[1]

    @property
    def first(self) -> np.ndarray:
        return self.observations[0]

    @property
    def terminal(self) -> np.ndarray:
        return self.observations[-1]

    def visit_diffs(self) -> np.ndarray:
        """Consecutive-visit differences, shape (T - 1, d)."""
        return np.diff(self.observations, axis=0)


@dataclass(frozen=True)
class LongitudinalPanel:
    """An immutable collection of subjects sharing feature dimension d."""

    subjects: tuple[SubjectSeries, ...]
    standardization: Standardization | None = None

    def __post_init__(self):
        object.__setattr__(self, "subjects", tuple(self.subjects))
        if not self.subjects:
            raise PanelFormatError("panel needs >= 1 subject")
        d = self.subjects[0].d
        for s in self.subjects:
            if s.d != d:
                raise DimensionMismatch(
                    f"subject {s.subject_id} has d={s.d}, expected {d}"
                )
        seen = set()
        for s in self.subjects:
            if s.subject_id in seen:
                raise PanelFormatError(f"duplicate subject id {s.subject_id}")
            seen.add(s.subject_id)
        if self.standardization is None:
            object.__setattr__(self, "standardization", Standardization.identity(d))
        elif self.standardization.mean.shape[0] != d:
            raise DimensionMismatch("standardization dimension != panel dimension")

    @property
    def d(self) -> int:
        return self.subjects[0].d

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def subject_ids(self) -> tuple[str, ...]:
        return tuple(s.subject_id for s in self.subjects)

    def labels(self) -> dict[str, int | None]:
        return {s.subject_id: s.label for s in self.subjects}

    def observed_labels(self) -> dict[str, int]:
        return {s.subject_id: s.label for s in self.subjects if s.label is not None}

    def label_counts(self) -> tuple[int, int, int]:
        """(n_positive, n_negative, n_unobserved)."""
        pos = sum(1 for s in self.subjects if s.label == POSITIVE)
        neg = sum(1 for s in self.subjects if s.label == NEGATIVE)
        return pos, neg, self.n_subjects - pos - neg


def aggregates(panel: LongitudinalPanel) -> np.ndarray:
    """The (N, d) matrix of per-subject vectors driving the dual multipliers,
    one row per subject in panel order.

    A row is the expected label times the terminal visit plus the summed
    consecutive-visit differences. The expected label is 2 P(y = +1) - 1:
    +1 or -1 for an observed label, 0 for a missing one (P(y = +1) = 0.5).
    The monotonicity part is accumulated from explicit per-step differences
    (first to last), which telescopes to terminal - first observation.
    Single-visit subjects contribute no monotonicity term.
    """
    rows = []
    for s in panel.subjects:
        ybar = 0.0 if s.label is None else float(s.label)
        vec = ybar * s.terminal
        if s.n_visits > 1:
            vec = vec + s.visit_diffs().sum(axis=0)
        rows.append(vec)
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# standardization


def fit_standardization(panel: LongitudinalPanel) -> Standardization:
    """Per-feature mean and standard deviation over all visits of all subjects.

    Constant features get scale 1 so the transform stays invertible.
    """
    stacked = np.vstack([s.observations for s in panel.subjects])
    mean = stacked.mean(axis=0)
    scale = stacked.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return Standardization(mean, scale)


def apply_standardization(
    panel: LongitudinalPanel, standardization: Standardization
) -> LongitudinalPanel:
    """Return a copy of the panel with transformed observations.

    Refuses to stack transforms: the input panel must still be raw.
    """
    if not panel.standardization.is_identity:
        raise ValueError("panel is already standardized")
    subjects = tuple(
        replace(s, observations=standardization.transform(s.observations))
        for s in panel.subjects
    )
    return LongitudinalPanel(subjects, standardization=standardization)


def standardize(panel: LongitudinalPanel) -> LongitudinalPanel:
    """Fit on the panel itself and apply."""
    return apply_standardization(panel, fit_standardization(panel))


def save_standardization(standardization: Standardization, path) -> None:
    Path(path).write_text(json.dumps(standardization.to_dict(), indent=2) + "\n")


# ---------------------------------------------------------------------------
# CSV ingestion / emission


def _parse_label(token: str, subject_id: str) -> int | None:
    token = token.strip()
    if token in _LABEL_TOKENS:
        return _LABEL_TOKENS[token]
    raise PanelFormatError(
        f"subject {subject_id}: label must be one of 1, -1 or empty, got {token!r}"
    )


def load_panel(path) -> LongitudinalPanel:
    """Read a long-format CSV (one row per subject visit) into a panel.

    The header names ``subject_id``, ``t`` and ``label``; every other column
    is a feature, in header order. Rows are grouped by subject in
    first-appearance order and sorted by time. Duplicate (subject, t) pairs,
    conflicting labels, non-numeric features and ragged rows are rejected.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelFormatError(f"{path}: empty file") from None
        rows = list(reader)

    header = [h.strip() for h in header]
    for col in _RESERVED_COLUMNS:
        if col not in header:
            raise PanelFormatError(f"{path}: missing column {col!r}")
    sid_i, t_i, label_i = (header.index(col) for col in _RESERVED_COLUMNS)
    feat_i = [i for i, h in enumerate(header) if h not in _RESERVED_COLUMNS]
    if not feat_i:
        raise PanelFormatError(f"{path}: no feature columns")

    by_subject: dict[str, dict] = {}
    for row_no, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise DimensionMismatch(
                f"{path}:{row_no}: expected {len(header)} cells, got {len(row)}"
            )
        sid = row[sid_i].strip()
        if not sid:
            raise PanelFormatError(f"{path}:{row_no}: empty subject id")
        try:
            t = int(row[t_i])
        except ValueError:
            raise PanelFormatError(
                f"{path}:{row_no}: non-integer time index {row[t_i]!r}"
            ) from None
        try:
            feats = [float(row[i]) for i in feat_i]
        except ValueError:
            raise PanelFormatError(
                f"{path}:{row_no}: non-numeric feature value"
            ) from None
        label = _parse_label(row[label_i], sid)

        entry = by_subject.setdefault(sid, {"visits": {}, "label": None})
        if t in entry["visits"]:
            raise DuplicateTimeIndex(f"subject {sid}: duplicate time index t={t}")
        entry["visits"][t] = feats
        if label is not None:
            if entry["label"] is not None and entry["label"] != label:
                raise ConflictingLabels(f"subject {sid}: conflicting labels")
            entry["label"] = label

    if not by_subject:
        raise PanelFormatError(f"{path}: no data rows")

    subjects = []
    for sid, entry in by_subject.items():
        times = sorted(entry["visits"])
        obs = np.array([entry["visits"][t] for t in times], dtype=float)
        subjects.append(SubjectSeries(sid, np.array(times), obs, entry["label"]))
    return LongitudinalPanel(tuple(subjects))


def write_panel(panel: LongitudinalPanel, path) -> None:
    """Emit the long-format CSV with header ``subject_id,t,label,f1..fd``.
    Floats use repr for byte-stable round trips."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(_RESERVED_COLUMNS) + [f"f{k + 1}" for k in range(panel.d)])
        for s in panel.subjects:
            label_cell = "" if s.label is None else str(s.label)
            for t, x in zip(s.times, s.observations):
                writer.writerow([s.subject_id, int(t), label_cell] + [repr(float(v)) for v in x])


# ---------------------------------------------------------------------------
# splitting and masking


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def split_and_mask(
    panel: LongitudinalPanel,
    train_fraction: float,
    unlabeled_fraction: float,
    seed: int,
) -> tuple[LongitudinalPanel, LongitudinalPanel]:
    """Subject-level train/test split with label masking on the train side.

    Exactly round(unlabeled_fraction * n_train) train subjects get their label
    hidden; the test split keeps its labels for scoring only. Deterministic in
    the seed.
    """
    if not 0.0 <= train_fraction <= 1.0 or not 0.0 <= unlabeled_fraction <= 1.0:
        raise ValueError("fractions must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    order = rng.permutation(panel.n_subjects)
    n_train = _round_half_up(train_fraction * panel.n_subjects)
    if n_train == 0 or n_train == panel.n_subjects:
        raise ValueError("split leaves an empty train or test side")
    train_idx = sorted(order[:n_train])
    test_idx = sorted(order[n_train:])

    train_subjects = [panel.subjects[i] for i in train_idx]
    n_mask = _round_half_up(unlabeled_fraction * n_train)
    mask_positions = set(rng.choice(n_train, size=n_mask, replace=False).tolist())
    train_subjects = tuple(
        replace(s, label=None) if i in mask_positions else s
        for i, s in enumerate(train_subjects)
    )
    test_subjects = tuple(panel.subjects[i] for i in test_idx)
    return (
        LongitudinalPanel(train_subjects, standardization=panel.standardization),
        LongitudinalPanel(test_subjects, standardization=panel.standardization),
    )
