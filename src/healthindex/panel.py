"""Data model for irregular multivariate longitudinal panels.

A panel keeps the visits of all its subjects as the rows of one matrix,
subject after subject, with row offsets marking where each subject starts,
and partially observed binary labels. This module owns CSV ingestion and
emission, feature standardization, subject-level train/test splitting with
label masking, and the per-subject aggregate matrix consumed by the dual
solver.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from functools import partial
from itertools import compress, islice
from typing import Mapping

import numpy as np

from .errors import (
    ConflictingLabels,
    DimensionMismatch,
    DuplicateTimeIndex,
    PanelFormatError,
    Range,
    json_field,
)

POSITIVE = 1
NEGATIVE = -1

_LABEL_TOKENS = {"1": POSITIVE, "+1": POSITIVE, "-1": NEGATIVE, "": None}
# panel CSV columns before the features: subject id, visit time, label
_RESERVED_COLUMNS = ("subject_id", "t", "label")


def _frozen_array(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only array, without a copy when it already is an
    array of ``dtype``: pass arrays that nothing else writes."""
    arr = np.asarray(values, dtype=dtype)
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

    def transform(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(x - mean) / scale: into a new array, or into ``out``, which may
        be ``x`` itself. The division is in place either way: a whole
        panel's matrix is large."""
        out = np.subtract(np.asarray(x, dtype=float), self.mean, out=out)
        out /= self.scale
        return out

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "scale": self.scale.tolist()}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Standardization":
        return cls(json_field(payload, "mean"), json_field(payload, "scale"))


@dataclass(frozen=True)
class SubjectSeries:
    """One subject's visits, as ``LongitudinalPanel.subjects`` views them:
    integer times, a (T, d) observation matrix and a label (+1, -1 or None).
    Nothing is checked here. Only perfbench's trace hooks still read it, for
    ids and row counts; it goes once they read the panel's arrays."""

    subject_id: str
    times: np.ndarray
    observations: np.ndarray
    label: int | None = None

    @property
    def n_visits(self) -> int:
        return self.times.shape[0]


@dataclass(frozen=True)
class LongitudinalPanel:
    """An immutable panel of N subjects sharing feature dimension d.

    Subject j's visits are rows ``offsets[j]:offsets[j + 1]`` of the
    (rows, d) ``observations`` and the (rows,) ``times``, and ``labels[j]``
    is +1, -1 or 0 for a missing label. The arrays are made read-only, not
    copied. The first subject with no visit, times that do not strictly
    increase, a non-finite observation or a bad label is named, then the
    first repeated id.
    """

    subject_ids: tuple[str, ...]
    offsets: np.ndarray
    times: np.ndarray
    observations: np.ndarray
    labels: np.ndarray
    standardization: Standardization | None = None

    def __post_init__(self):
        ids = tuple(self.subject_ids)
        object.__setattr__(self, "subject_ids", ids)
        for name, dtype in (("offsets", np.intp), ("times", int), ("observations", float),
                            ("labels", int)):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), dtype))
        n, obs, offsets = len(ids), self.observations, self.offsets
        if not n:
            raise PanelFormatError("panel needs >= 1 subject")
        if (obs.ndim != 2 or self.times.shape != obs.shape[:1] or self.labels.shape != (n,)
                or offsets.shape != (n + 1,) or offsets[0] != 0 or offsets[-1] != len(obs)
                or np.any(np.diff(offsets) < 0)):
            raise DimensionMismatch("panel arrays do not fit together")
        counts = np.diff(offsets)
        owner = np.repeat(np.arange(n), counts)  # the subject of each row
        unordered = owner[1:][(owner[1:] == owner[:-1]) & (np.diff(self.times) <= 0)]
        faults = {
            "needs >= 1 visit": counts < 1,
            "times must be strictly increasing": np.isin(np.arange(n), unordered),
            "non-finite observation": np.isin(np.arange(n), owner[~np.isfinite(obs).all(axis=1)]),
            "label must be +1, -1 or None": ~np.isin(self.labels, (POSITIVE, NEGATIVE, 0)),
        }
        flags = np.array(list(faults.values()))
        if flags.any():
            j = int(np.argmax(flags.any(axis=0)))
            raise PanelFormatError(f"subject {ids[j]}: {list(faults)[np.argmax(flags[:, j])]}")
        seen: set[str] = set()
        for sid in ids:
            if sid in seen:
                raise PanelFormatError(f"duplicate subject id {sid}")
            seen.add(sid)
        if self.standardization is None:
            object.__setattr__(self, "standardization", Standardization.identity(self.d))
        elif self.standardization.mean.shape[0] != self.d:
            raise DimensionMismatch("standardization dimension != panel dimension")

    @property
    def d(self) -> int:
        return self.observations.shape[1]

    @property
    def n_subjects(self) -> int:
        return len(self.subject_ids)

    @property
    def terminals(self) -> np.ndarray:
        """Each subject's last visit, an (N, d) matrix."""
        return self.observations[self.offsets[1:] - 1]

    @property
    def subjects(self) -> tuple[SubjectSeries, ...]:
        """Per-subject views of the rows, made anew on every call."""
        bounds = self.offsets.tolist()
        return tuple(
            SubjectSeries(sid, self.times[a:b], self.observations[a:b], label or None)
            for sid, a, b, label in zip(
                self.subject_ids, bounds[:-1], bounds[1:], self.labels.tolist()
            )
        )

    def observed_labels(self) -> dict[str, int]:
        return {sid: y for sid, y in zip(self.subject_ids, self.labels.tolist()) if y}


def aggregates(panel: LongitudinalPanel) -> np.ndarray:
    """The (N, d) matrix of per-subject vectors driving the dual multipliers,
    one row per subject in panel order.

    A row is ybar * x_T + (x_T - x_1): the expected label times the terminal
    visit, plus the sum of the consecutive-visit differences, which
    telescopes to terminal minus first visit (exactly 0 for a single visit).
    The expected label is 2 P(y = +1) - 1: +1 or -1 for an observed label, 0
    for a missing one (P(y = +1) = 0.5).
    """
    rows = panel.terminals
    drift = rows - panel.observations[panel.offsets[:-1]]
    rows *= panel.labels[:, None]
    rows += drift
    return rows


# ---------------------------------------------------------------------------
# standardization


# rows of squared deviations per block in fit_standardization
_STD_BLOCK_ROWS = 256


def fit_standardization(panel: LongitudinalPanel) -> Standardization:
    """Per-feature mean and standard deviation over all visits of all subjects.

    Constant features get scale 1 so the transform stays invertible. A
    feature whose sum or squared deviations overflow gets the mean and
    standard deviation of its values divided by their largest magnitude,
    scaled back; one whose range overflows, so that no shift keeps it
    finite, is refused by position.
    """
    observations = panel.observations
    rows, d = observations.shape
    with np.errstate(over="ignore", invalid="ignore"):
        mean = observations.mean(axis=0)
        if d == 1:  # a one-column sum is pairwise; std's is the reference
            scale = observations.std(axis=0)
        else:
            # std's sum of squared deviations without its (rows, d) temporary:
            # numpy sums axis 0 row after row, so a block of squared deviations
            # below the running sum adds up to the same floats
            block = np.zeros((min(rows, _STD_BLOCK_ROWS) + 1, d))
            for start in range(0, rows, _STD_BLOCK_ROWS):
                chunk = observations[start : start + _STD_BLOCK_ROWS]
                squares = block[1 : len(chunk) + 1]
                np.subtract(chunk, mean, out=squares)
                np.multiply(squares, squares, out=squares)
                block[0] = block[: len(chunk) + 1].sum(axis=0)
            scale = np.sqrt(block[0] / rows)
        overflow = np.flatnonzero(~np.isfinite(scale))  # an overflowing mean makes it inf
        if overflow.size:
            columns = observations[:, overflow]
            fits = np.isfinite(columns.max(axis=0) - columns.min(axis=0))
            if not fits.all():
                k = overflow[np.argmin(fits)] + 1
                raise ValueError(f"feature {k} of {d} spans more than the float range; rescale it")
            size = np.abs(columns).max(axis=0)
            columns /= size
            mean[overflow] = columns.mean(axis=0) * size
            scale[overflow] = columns.std(axis=0) * size
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
    return replace(
        panel,
        observations=standardization.transform(panel.observations),
        standardization=standardization,
    )


def standardize(panel: LongitudinalPanel) -> LongitudinalPanel:
    """Fit on the panel itself and apply."""
    return apply_standardization(panel, fit_standardization(panel))


# ---------------------------------------------------------------------------
# CSV ingestion / emission


# np.loadtxt settings for the panel CSV dialect: csv.writer's quoting, and no
# comment character, since a subject id may start with "#"; records come back
# in a 1-d structured array
_LOADTXT = dict(delimiter=",", quotechar='"', comments=None, ndmin=1)
# records per np.loadtxt call in _column_rows: beside the feature matrix, a
# load holds one chunk's structured array
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class _Layout:
    """Where a panel CSV keeps its columns, read from its header record."""

    width: int  # cells in the header record
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
    return _Layout(len(header), header_lines, keys, features)


def _loadtxt(path, layout: _Layout, dtype) -> np.ndarray:
    """One pass over the data rows; raises ValueError on a row loadtxt
    cannot read. loadtxt would open a path with newline translation, which
    turns a CR inside a quoted cell into LF; the file is opened as
    csv.reader needs it instead."""
    with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a file without data rows
        return np.loadtxt(fh, dtype=dtype, skiprows=layout.header_lines, **_LOADTXT)


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
    """((id, time) pairs, labels, features) of every data row; None when the
    file needs ``_scanned_rows``: a cell loadtxt or a key check refuses, a
    row whose cell count differs from the header's, or more records than LF
    line ends plus one (lines ended by a lone CR). Each np.loadtxt call
    reads ``_CHUNK_ROWS`` whole records from one line iterator, also records
    whose quoted cells span lines, into a matrix with a row per line end,
    and returns the view of the records read. The key cells are read as Python str objects
    (dtype=object): a numpy str array would drop a trailing NUL.
    """
    names = [f"f{i}" for i in range(layout.width)]
    dtype = [(name, object if i in layout.keys else float) for i, name in enumerate(names)]
    with open(path, "rb") as raw:
        n_lines = 1 + sum(block.count(b"\n") for block in iter(partial(raw.read, 1 << 20), b""))
    features = np.empty((max(n_lines - layout.header_lines, 0), len(layout.features)))
    keys, labels, n = [], [], 0
    with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data rows, or a blank line
        next(islice(fh, layout.header_lines, layout.header_lines), None)
        try:
            while len(rows := np.loadtxt(fh, dtype=dtype, max_rows=_CHUNK_ROWS, **_LOADTXT)):
                if n + len(rows) > len(features):
                    return None
                for j, i in enumerate(layout.features):
                    features[n:n + len(rows), j] = rows[names[i]]
                sids, times, tokens = (rows[names[i]].tolist() for i in layout.keys)
                chunk = [_parse_id_and_time(path, None, sid, t) for sid, t in zip(sids, times)]
                labels += [_parse_label(token, sid) for token, (sid, _) in zip(tokens, chunk)]
                keys += chunk
                n += len(rows)
        except ValueError:
            return None
    # a view of the records read, not the buffer cut in place: realloc left a
    # free sliver after the matrix that small allocations took, so once freed
    # its heap hole could not hold the next, slightly larger matrix, and the
    # heap grew by one (cli_large peak_rss_mb 63.7 MB against 56.6 MB)
    return keys, labels, features[:n]


def _scanned_rows(path, layout: _Layout):
    """((id, time) pairs, labels, features) read row by row with csv.reader
    and float(): skips rows of blank cells, reads every number float() reads,
    and names the line of the first bad row."""
    keys, labels, features = [], [], []
    sid_i, t_i, label_i = layout.keys
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != layout.width:
                raise DimensionMismatch(
                    f"{path}:{row_no}: expected {layout.width} cells, got {len(row)}"
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


def load_panel(path, standardize=None) -> LongitudinalPanel:
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

    Every column is parsed by np.loadtxt, a chunk of records at a time,
    into one feature matrix, which is gathered into subject/time order only
    when its rows are not in that order already (write_panel's are). A file
    that needs more (rows of blank cells, a number such as ``1_0`` that
    float() reads and loadtxt does not, line ends that are a lone CR, or any
    bad row) is read again row by row, which gives the same panel or the
    row's error.

    ``standardize`` is a function of the raw panel that returns the
    Standardization to apply, or None. The loader then transforms the matrix
    it allocated in place, so the panel it returns, standardized, holds the
    only (rows, d) matrix; it is frozen and validated as any panel. The raw
    panel the function is given shares that matrix, which is rewritten once
    the function returns. None or an identity leaves the panel raw.
    ``apply_standardization`` is the copying transform for panels the
    caller holds.
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
    if np.any(order[1:] < order[:-1]):
        features = features[order]  # drops the rows in file order
    panel = LongitudinalPanel(
        tuple(ids),
        np.flatnonzero(np.diff(codes, prepend=-1, append=len(ids))),
        times,
        features,
        [label or 0 for label in subject_labels.values()],
    )
    standardization = None if standardize is None else standardize(panel)
    if standardization is None or standardization.is_identity:
        return panel
    if standardization.mean.shape[0] != panel.d:
        raise DimensionMismatch("standardization dimension != panel dimension")
    features.setflags(write=True)  # allocated above, held by nothing else
    return replace(
        panel,
        observations=standardization.transform(features, out=features),
        standardization=standardization,
    )


def load_observed_labels(path) -> dict[str, int]:
    """``load_panel(path).observed_labels()`` in one np.loadtxt pass that
    reads the ``subject_id`` and ``label`` cells and keeps one byte of every
    other cell: the time and feature cells are counted, neither parsed nor
    checked. Bad label tokens and conflicting labels are rejected as
    load_panel rejects them. A file np.loadtxt cannot read this way (a row
    whose cell count differs from the header's, a line of spaces, a blank
    id, a cell holding a character beyond Latin-1, no data rows) goes
    through load_panel, which skips blank rows and names a bad line.
    """
    layout = _layout(path)
    sid_i, _, label_i = layout.keys
    dtype = [("", object if i in (sid_i, label_i) else "S1") for i in range(layout.width)]
    try:
        rows = _loadtxt(path, layout, dtype)
        sids = [sid.strip() for sid in rows[rows.dtype.names[sid_i]].tolist()]
        tokens = rows[rows.dtype.names[label_i]].tolist()
    except ValueError:
        sids = []
    if not sids or not all(sids):
        return load_panel(path).observed_labels()
    labels = [_parse_label(token, sid) for sid, token in zip(sids, tokens)]
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
    sids = [_csv_field(sid) for sid in panel.subject_ids]
    labels = [label or "" for label in panel.labels.tolist()]
    owner = np.repeat(np.arange(panel.n_subjects), np.diff(panel.offsets)).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(  # row by row: the whole matrix as Python floats is large
            f"{sids[j]},{t},{labels[j]},{','.join(map(repr, row.tolist()))}\r\n"
            for j, t, row in zip(owner, panel.times.tolist(), panel.observations)
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
    train = np.zeros(panel.n_subjects, dtype=bool)
    train[order[:n_train]] = True
    labels = panel.labels.copy()
    n_mask = _round_half_up(unlabeled_fraction * n_train)
    labels[np.flatnonzero(train)[rng.choice(n_train, size=n_mask, replace=False)]] = 0
    return _subset(panel, train, labels), _subset(panel, ~train, labels)


def _subset(panel: LongitudinalPanel, keep: np.ndarray, labels: np.ndarray) -> LongitudinalPanel:
    """The subjects where ``keep`` is True, in panel order, with ``labels``."""
    counts = np.diff(panel.offsets)
    rows = np.repeat(keep, counts)
    return LongitudinalPanel(
        tuple(compress(panel.subject_ids, keep)),
        np.cumsum(np.append(0, counts[keep])),
        panel.times[rows],
        panel.observations[rows],
        labels[keep],
        panel.standardization,
    )
