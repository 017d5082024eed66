"""Data model for irregular multivariate longitudinal panels.

A panel is a collection of per-subject time series with partially observed
binary labels. This module owns CSV ingestion and emission, feature
standardization, subject-level train/test splitting with label masking,
and the per-subject aggregate matrix consumed by the dual solver.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    ConflictingLabels,
    DimensionMismatch,
    DuplicateTimeIndex,
    PanelFormatError,
    Range,
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
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.scale))):
            raise ValueError("standardization mean and scale must be finite")
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


# np.loadtxt settings for the panel CSV dialect: csv.writer's quoting, and no
# comment character, since a subject id may start with "#"
_LOADTXT = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)


@dataclass(frozen=True)
class _Layout:
    """Where a panel CSV keeps its columns, read from its header record."""

    header: list[str]  # the header cells as written
    header_lines: int  # physical lines the header record spans
    keys: tuple[int, int, int]  # subject_id, t and label column indices
    features: list[int]  # feature column indices, in header order


def _layout(path) -> _Layout:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelFormatError(f"{path}: empty file") from None
        header_lines = reader.line_num
    names = [h.strip() for h in header]
    for col in _RESERVED_COLUMNS:
        if col not in names:
            raise PanelFormatError(f"{path}: missing column {col!r}")
    features = [i for i, h in enumerate(names) if h not in _RESERVED_COLUMNS]
    if not features:
        raise PanelFormatError(f"{path}: no feature columns")
    keys = tuple(names.index(col) for col in _RESERVED_COLUMNS)
    return _Layout(header, header_lines, keys, features)


def _loadtxt(path, layout: _Layout, dtype, usecols) -> np.ndarray:
    """One column-wise pass over the data rows; raises ValueError on a row
    loadtxt cannot read. loadtxt would open a path with newline translation,
    which turns a CR inside a quoted cell into LF; the file is opened as
    csv.reader needs it instead."""
    with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a file without data rows
        return np.loadtxt(
            fh, dtype=dtype, usecols=usecols, skiprows=layout.header_lines, **_LOADTXT
        )


def _count_commas(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b",") for chunk in iter(lambda: fh.read(1 << 20), b""))


def _parse_label(token: str, subject_id: str) -> int | None:
    token = token.strip()
    if token in _LABEL_TOKENS:
        return _LABEL_TOKENS[token]
    raise PanelFormatError(
        f"subject {subject_id}: label must be one of 1, -1 or empty, got {token!r}"
    )


def _parse_id_and_time(path, row_no, sid: str, t: str) -> tuple[str, int]:
    sid = sid.strip()
    if not sid:
        raise PanelFormatError(f"{path}:{row_no}: empty subject id")
    try:
        return sid, int(t)
    except ValueError:
        raise PanelFormatError(
            f"{path}:{row_no}: non-integer time index {t!r}"
        ) from None


def _subject_labels(sids, labels) -> dict[str, int | None]:
    """Each subject's observed label (None when no row carries one), keyed by
    subject id in first-appearance order."""
    out: dict[str, int | None] = {}
    for sid, label in zip(sids, labels):
        seen = out.setdefault(sid, label)
        if label is not None and seen != label:
            if seen is not None:
                raise ConflictingLabels(f"subject {sid}: conflicting labels")
            out[sid] = label
    return out


def _column_rows(path, layout: _Layout):
    """((id, time) pairs, labels, features) of every data row, each column
    parsed whole by np.loadtxt; None when the file needs ``_scanned_rows``:
    a cell loadtxt or a key check refuses, or a row with more cells than the
    header. The key cells are read as Python str objects (dtype=object): a
    numpy str array would drop a trailing NUL.

    The two passes read every column, so loadtxt refuses a row narrower
    than the header; the file's commas then show that none is wider. A
    feature cell holds no comma (no float does), so the only commas besides
    the separators are those inside header and key cells.
    """
    try:
        rows = _loadtxt(path, layout, object, layout.keys).tolist()
        features = _loadtxt(path, layout, float, layout.features)
        keys = [_parse_id_and_time(path, None, sid, t) for sid, t, _ in rows]
        labels = [_parse_label(row[2], sid) for row, (sid, _) in zip(rows, keys)]
    except ValueError:
        return None
    separators = (len(layout.header) - 1) * (len(keys) + 1)
    quoted = sum(cell.count(",") for cells in [layout.header, *rows] for cell in cells)
    if _count_commas(path) != separators + quoted:
        return None
    return keys, labels, features


def _scanned_rows(path, layout: _Layout):
    """((id, time) pairs, labels, features) read row by row with csv.reader
    and float(): skips rows of blank cells, reads every number float() reads,
    and names the line of the first bad row."""
    keys, labels, features = [], [], []
    width = len(layout.header)
    sid_i, t_i, label_i = layout.keys
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != width:
                raise DimensionMismatch(
                    f"{path}:{row_no}: expected {width} cells, got {len(row)}"
                )
            keys.append(_parse_id_and_time(path, row_no, row[sid_i], row[t_i]))
            try:
                features.append([float(row[i]) for i in layout.features])
            except ValueError:
                raise PanelFormatError(
                    f"{path}:{row_no}: non-numeric feature value"
                ) from None
            labels.append(_parse_label(row[label_i], keys[-1][0]))
    features = np.array(features, dtype=float).reshape(len(keys), len(layout.features))
    return keys, labels, features


def load_panel(path) -> LongitudinalPanel:
    """Read a long-format CSV (one row per subject visit) into a panel.

    The header names ``subject_id``, ``t`` and ``label`` in any order; every
    other column is a feature, in header order. Cells follow csv.writer's
    default dialect: a cell may be quoted, with inner quotes doubled, and a
    quoted cell may hold commas and line breaks. ``#`` starts no comment.
    Ids, times and labels are stripped of surrounding whitespace; a time is
    an integer as int() reads it, a label is 1, +1, -1 or empty. A feature
    is a finite number as float() reads it, surrounding whitespace allowed.
    Rows of blank cells are skipped.

    Rows are grouped by subject in first-appearance order and sorted by
    time. Duplicate (subject, t) pairs, conflicting labels, non-numeric or
    non-finite features and ragged rows are rejected; a bad row's error
    names its line.

    The columns are parsed whole with np.loadtxt. A file that needs more
    (rows of blank cells, a number such as ``1_0`` that float() reads and
    loadtxt does not, or any bad row) is read again row by row, which gives
    the same panel or the row's error.
    """
    layout = _layout(path)
    keys, labels, features = _column_rows(path, layout) or _scanned_rows(path, layout)
    if not keys:
        raise PanelFormatError(f"{path}: no data rows")
    subject_labels = _subject_labels((sid for sid, _ in keys), labels)
    code = {sid: j for j, sid in enumerate(subject_labels)}
    codes = np.fromiter((code[sid] for sid, _ in keys), dtype=np.intp, count=len(keys))
    times = np.array([t for _, t in keys])
    order = np.lexsort((times, codes))
    codes, times = codes[order], times[order]
    ids = list(subject_labels)
    dup = np.flatnonzero((codes[1:] == codes[:-1]) & (times[1:] == times[:-1]))
    if dup.size:
        i = dup[np.argmin(order[dup + 1])]  # the first repeat in file order
        raise DuplicateTimeIndex(
            f"subject {ids[codes[i]]}: duplicate time index t={times[i]}"
        )
    features = features[order]
    bounds = np.flatnonzero(np.diff(codes, prepend=-1, append=len(ids))).tolist()
    return LongitudinalPanel(
        tuple(
            SubjectSeries(sid, times[a:b], features[a:b], subject_labels[sid])
            for sid, a, b in zip(ids, bounds[:-1], bounds[1:])
        )
    )


def load_observed_labels(path) -> dict[str, int]:
    """``load_panel(path).observed_labels()`` read from the ``subject_id``
    and ``label`` columns alone: the time and feature columns are neither
    parsed nor checked. Bad label tokens and conflicting labels are rejected
    as load_panel rejects them. A file whose id or label column np.loadtxt
    cannot read (a short row, a line of spaces, a blank id, no data rows)
    goes through load_panel, which skips blank rows and names a bad line.
    """
    layout = _layout(path)
    sid_i, _, label_i = layout.keys
    try:
        cells = _loadtxt(path, layout, object, (sid_i, label_i)).tolist()
    except ValueError:
        cells = []
    sids = [sid.strip() for sid, _ in cells]
    if not sids or not all(sids):
        return load_panel(path).observed_labels()
    labels = [_parse_label(token, sid) for sid, (_, token) in zip(sids, cells)]
    return {
        sid: label
        for sid, label in _subject_labels(sids, labels).items()
        if label is not None
    }


def _csv_field(text: str) -> str:
    """A cell as csv.writer's default dialect writes it: quoted, inner quotes
    doubled, when it holds a comma, a quote or a line break."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_panel(panel: LongitudinalPanel, path) -> None:
    """Emit the long-format CSV with header ``subject_id,t,label,f1..fd``,
    byte for byte as csv.writer writes it: CRLF line ends, and a subject id
    quoted when it holds a comma, a quote or a line break. Floats use repr,
    so load_panel reads back the same bits."""
    header = list(_RESERVED_COLUMNS) + [f"f{k + 1}" for k in range(panel.d)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for s in panel.subjects:
            sid = _csv_field(s.subject_id)
            label = "" if s.label is None else str(s.label)
            fh.write(
                "".join(
                    f"{sid},{t},{label},{','.join(map(repr, row))}\r\n"
                    for t, row in zip(s.times.tolist(), s.observations.tolist())
                )
            )


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
    Range(0.0, 1.0).check("train_fraction", train_fraction)
    Range(0.0, 1.0).check("unlabeled_fraction", unlabeled_fraction)
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
