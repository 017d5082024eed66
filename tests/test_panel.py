import warnings

import numpy as np
import pytest

from oracles import Series, panel_from_subjects

from healthindex import panel as panel_module
from healthindex.errors import (
    ConflictingLabels,
    DimensionMismatch,
    DuplicateTimeIndex,
    PanelFormatError,
)
from healthindex.panel import (
    Standardization,
    aggregates,
    apply_standardization,
    fit_standardization,
    load_observed_labels,
    load_panel,
    split_and_mask,
    write_panel,
)


def make_series(sid, rows, label=None, times=None):
    obs = np.asarray(rows, dtype=float)
    if times is None:
        times = np.arange(1, obs.shape[0] + 1)
    return Series(sid, times, obs, label)


def make_panel(*series):
    return panel_from_subjects(tuple(series))


def random_panel(rng, n_subjects=6, d=3, labeled_fraction=0.5):
    subjects = []
    for i in range(n_subjects):
        n_visits = int(rng.integers(1, 6))
        label = None
        if rng.random() < labeled_fraction:
            label = 1 if rng.random() < 0.5 else -1
        subjects.append(
            make_series(f"s{i}", rng.normal(size=(n_visits, d)), label=label)
        )
    return make_panel(*subjects)


class TestCsvLoading:
    def write(self, tmp_path, text):
        path = tmp_path / "panel.csv"
        path.write_text(text)
        return path

    def test_two_subjects_one_unobserved(self, tmp_path):
        path = self.write(
            tmp_path,
            "subject_id,t,label,f1,f2\n"
            "a,1,+1,0.0,1.0\n"
            "a,2,+1,0.5,1.5\n"
            "a,3,+1,1.0,2.0\n"
            "b,1,,2.0,0.0\n"
            "b,2,,2.5,0.5\n"
            "b,3,,3.0,1.0\n",
        )
        panel = load_panel(path)
        assert panel.n_subjects == 2
        assert panel.d == 2
        assert panel.labels.tolist() == [1, 0]
        a = panel.subjects[0]
        assert a.subject_id == "a"
        assert a.label == 1
        np.testing.assert_array_equal(a.times, [1, 2, 3])

    def test_duplicate_time_index_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "subject_id,t,label,f1\ns1,1,1,0.0\ns1,2,1,0.5\ns1,2,1,0.7\n",
        )
        with pytest.raises(DuplicateTimeIndex):
            load_panel(path)

    def test_single_row_subject_has_one_visit(self, tmp_path):
        path = self.write(tmp_path, "subject_id,t,label,f1\nsolo,4,-1,2.0\n")
        panel = load_panel(path)
        s = panel.subjects[0]
        assert s.n_visits == 1
        assert np.diff(s.observations, axis=0).shape == (0, 1)

    def test_rows_sorted_by_time_within_subject(self, tmp_path):
        path = self.write(
            tmp_path,
            "subject_id,t,label,f1\ns,5,,5.0\ns,1,,1.0\ns,3,,3.0\n",
        )
        s = load_panel(path).subjects[0]
        np.testing.assert_array_equal(s.times, [1, 3, 5])
        np.testing.assert_array_equal(s.observations[:, 0], [1.0, 3.0, 5.0])

    def test_conflicting_labels_rejected(self, tmp_path):
        path = self.write(
            tmp_path, "subject_id,t,label,f1\ns,1,1,0.0\ns,2,-1,1.0\n"
        )
        with pytest.raises(ConflictingLabels):
            load_panel(path)

    def test_non_numeric_feature_rejected(self, tmp_path):
        path = self.write(tmp_path, "subject_id,t,label,f1\ns,1,1,abc\n")
        with pytest.raises(PanelFormatError):
            load_panel(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = self.write(tmp_path, "subject_id,t,label,f1,f2\ns,1,1,0.0\n")
        with pytest.raises(DimensionMismatch):
            load_panel(path)

    def test_bad_label_token_rejected(self, tmp_path):
        path = self.write(tmp_path, "subject_id,t,label,f1\ns,1,2,0.0\n")
        with pytest.raises(PanelFormatError):
            load_panel(path)

    @pytest.mark.parametrize("row", ["s,1,1,0.0,1.0,2.0", '"s,t",1,1,0.0,1.0,"2,0"'])
    def test_long_row_rejected_with_its_line(self, tmp_path, row):
        path = self.write(
            tmp_path, f'subject_id,t,label,f1,f2\na,1,1,0.0,1.0\n\n{row}\n'
        )
        with pytest.raises(DimensionMismatch, match=r"panel\.csv:4: expected 5 cells, got 6"):
            load_panel(path)

    def test_short_row_error_names_its_line(self, tmp_path):
        path = self.write(tmp_path, "subject_id,t,label,f1,f2\na,1,1,0.0,1.0\n\na,2,1,0.0\n")
        with pytest.raises(DimensionMismatch, match=r"panel\.csv:4: expected 5 cells, got 4"):
            load_panel(path)

    def test_ids_are_read_as_written(self, tmp_path):
        """Quoted cells, "#" (no comment), a stripped leading space and a
        trailing NUL, which numpy str arrays would drop."""
        path = self.write(
            tmp_path,
            "subject_id,t,label,f1\n"
            '"a,b",1,1,0.5\n'
            '"say ""hi""",1,,1.5\n'
            "#c,1,-1,2.5\n"
            " d,1,,3.5\n"
            '"e\r\nf",1,,4.5\n'
            "g\0,1,1,5.5\n",
        )
        panel = load_panel(path)
        assert panel.subject_ids == ("a,b", 'say "hi"', "#c", "d", "e\r\nf", "g\0")
        assert [s.label for s in panel.subjects] == [1, None, -1, None, None, 1]
        np.testing.assert_array_equal(
            [s.observations[-1][0] for s in panel.subjects], [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]
        )
        assert load_observed_labels(path) == {"a,b": 1, "#c": -1, "g\0": 1}

    def test_reserved_columns_in_any_order(self, tmp_path):
        path = self.write(
            tmp_path,
            "f2,label,t,f1,subject_id\n1.0,-1,2,0.5,s\n3.0,,1,2.5,s\n9.0,1,1,8.0,r\n",
        )
        panel = load_panel(path)
        assert panel.subject_ids == ("s", "r")
        assert [s.label for s in panel.subjects] == [-1, 1]
        s = panel.subjects[0]
        np.testing.assert_array_equal(s.times, [1, 2])
        np.testing.assert_array_equal(s.observations, [[3.0, 2.5], [1.0, 0.5]])

    def test_blank_lines_empty_rows_and_crlf(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_bytes(
            b"subject_id,t,label,f1,f2\r\n\r\na,1,1,0.5,1.5\r\n,,,,\r\n   \r\n"
            b" , ,, ,\r\na,2,,2.5,3.5\r\n\r\n"
        )
        (a,) = load_panel(path).subjects
        assert a.label == 1
        np.testing.assert_array_equal(a.times, [1, 2])
        np.testing.assert_array_equal(a.observations, [[0.5, 1.5], [2.5, 3.5]])

    def test_number_grammar_is_floats(self, tmp_path):
        """Whitespace around a number is allowed, and so is every spelling
        float() reads, also those np.loadtxt does not (1_0)."""
        path = self.write(
            tmp_path, "subject_id,t,label,f1,f2\ns, 1 ,1, 0.5 ,\t-2e-3\ns,2,1,1_0,+.5\n"
        )
        s = load_panel(path).subjects[0]
        np.testing.assert_array_equal(s.observations, [[0.5, -0.002], [10.0, 0.5]])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_rejected(self, tmp_path, cell):
        path = self.write(tmp_path, f"subject_id,t,label,f1\ns,1,1,0.0\ns,2,1,{cell}\n")
        with pytest.raises(PanelFormatError, match="subject s: non-finite observation"):
            load_panel(path)

    @pytest.mark.parametrize("feature", ["1.0", "x"])
    def test_labels_only_reader_matches_the_panel(self, tmp_path, feature):
        path = self.write(
            tmp_path,
            f"subject_id,t,label,f1\nb,1,,{feature}\na,1,-1,0.0\nb,2,+1,0.0\nc,1,,0.0\n",
        )
        assert list(load_observed_labels(path).items()) == [("b", 1), ("a", -1)]
        if feature == "x":  # the feature column is not read
            with pytest.raises(PanelFormatError, match="non-numeric feature value"):
                load_panel(path)
        else:
            assert load_observed_labels(path) == load_panel(path).observed_labels()

    def test_labels_only_reader_skips_blank_rows(self, tmp_path):
        path = self.write(tmp_path, "subject_id,t,label,f1\na,1,1,0.0\n  \n,,,\n")
        assert load_observed_labels(path) == {"a": 1}

    @pytest.mark.parametrize(
        "rows,error",
        [
            ("s,1,1,0.0\ns,2,-1,1.0\n", ConflictingLabels),
            ("s,1,2,0.0\n", PanelFormatError),
            ("s,1,1,0.0\n,2,1,0.0\n", PanelFormatError),
        ],
    )
    def test_labels_only_reader_rejects_bad_labels(self, tmp_path, rows, error):
        path = self.write(tmp_path, "subject_id,t,label,f1\n" + rows)
        with pytest.raises(error):
            load_observed_labels(path)

    def test_round_trip_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(7)
        panel = random_panel(rng)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_panel(panel, first)
        write_panel(load_panel(first), second)
        assert first.read_bytes() == second.read_bytes()


_HEAD = "subject_id,t,label,f1,f2\n"


# (file text, load_panel's (ids, offsets, times, observations, labels) or its
# (error class, message), load_observed_labels' dict or its (error class, message))
_EDGE_FILES = {
    "empty file": ("", (PanelFormatError, "empty file"), (PanelFormatError, "empty file")),
    "header without data rows": (
        _HEAD, (PanelFormatError, "no data rows"), (PanelFormatError, "no data rows")
    ),
    "header without line end": (
        _HEAD[:-1], (PanelFormatError, "no data rows"), (PanelFormatError, "no data rows")
    ),
    "header and blank rows only": (
        _HEAD + "\n  \n,,,,\n", (PanelFormatError, "no data rows"),
        (PanelFormatError, "no data rows"),
    ),
    "missing reserved column": (
        "subject_id,label,f1\na,1,0.0\n", (PanelFormatError, "missing column 't'"),
        (PanelFormatError, "missing column 't'"),
    ),
    "no feature columns": (
        "label,t,subject_id\n1,1,a\n", (PanelFormatError, "no feature columns"),
        (PanelFormatError, "no feature columns"),
    ),
    "non-integer time": (
        _HEAD + "a,1,1,0.0,1.0\na,1.5,1,0.0,1.0\n",
        (PanelFormatError, r"panel\.csv:3: non-integer time index '1\.5'"), {"a": 1},
    ),
    "last row without line end": (
        _HEAD + "a,1,1,0.0,1.0\na,2,1,0.5,1.5",
        (("a",), [0, 2], [1, 2], [[0.0, 1.0], [0.5, 1.5]], [1]), {"a": 1},
    ),
    "trailing comma on the data rows": (
        _HEAD + "a,1,1,0.0,1.0,\na,2,1,0.5,1.5,\n",
        (DimensionMismatch, r"panel\.csv:2: expected 5 cells, got 6"),
        (DimensionMismatch, r"panel\.csv:2: expected 5 cells, got 6"),
    ),
    "trailing comma on every row": (
        _HEAD[:-1] + ",\na,1,1,0.0,1.0,\na,2,1,0.5,1.5,\n",
        (PanelFormatError, r"panel\.csv:2: non-numeric feature value"), {"a": 1},
    ),
    "wide row with a quoted comma": (
        _HEAD + 'a,1,1,0.0,1.0\n"s,t",1,1,0.0,1.0,"2,0"\n',
        (DimensionMismatch, r"panel\.csv:3: expected 5 cells, got 6"),
        (DimensionMismatch, r"panel\.csv:3: expected 5 cells, got 6"),
    ),
    "quoted features": (
        _HEAD + 'a,1,1,"0.5","1.5"\na,2,-1,"2.5",3.5\n',
        (ConflictingLabels, "subject a: conflicting labels"),
        (ConflictingLabels, "subject a: conflicting labels"),
    ),
    "quoted features, one label": (
        _HEAD + 'a,2,,"2.5",3.5\na,1,1,"0.5","1.5"\n',
        (("a",), [0, 2], [1, 2], [[0.5, 1.5], [2.5, 3.5]], [1]), {"a": 1},
    ),
    "header cell with a quoted comma": (
        'subject_id,t,label,"f,1",f2\na,1,1,0.0,1.0\n"x,y",1,-1,2.0,3.0\n',
        (("a", "x,y"), [0, 1, 2], [1, 1], [[0.0, 1.0], [2.0, 3.0]], [1, -1]),
        {"a": 1, "x,y": -1},
    ),
    "id with a line feed": (
        _HEAD + '"i\nj",1,1,0.0,1.0\n', (("i\nj",), [0, 1], [1], [[0.0, 1.0]], [1]),
        {"i\nj": 1},
    ),
    "id with a trailing carriage return": (
        _HEAD + '"h\r",1,1,0.0,1.0\nh,1,-1,0.0,1.0\n',
        (ConflictingLabels, "subject h: conflicting labels"),
        (ConflictingLabels, "subject h: conflicting labels"),
    ),
    "reserved columns between features": (
        "f1,subject_id,f2,t,f3,label\n1,a,2,1,3,1\n4,a,5,2,6,\n",
        (("a",), [0, 2], [1, 2], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [1]), {"a": 1},
    ),
}


@pytest.mark.parametrize("text,panel,labels", _EDGE_FILES.values(), ids=list(_EDGE_FILES))
def test_edge_files(tmp_path, text, panel, labels):
    """Each reader gives the stated panel or labels, or the stated error."""
    path = tmp_path / "panel.csv"
    path.write_bytes(text.encode())
    if isinstance(panel[0], type):
        with pytest.raises(panel[0], match=panel[1]):
            load_panel(path)
    else:
        got = load_panel(path)
        assert got.subject_ids == panel[0]
        for name, want in zip(("offsets", "times", "observations", "labels"), panel[1:]):
            np.testing.assert_array_equal(getattr(got, name), want)
    if isinstance(labels, tuple):
        with pytest.raises(labels[0], match=labels[1]):
            load_observed_labels(path)
    else:
        assert load_observed_labels(path) == labels


# the edge files plus multi-line quoted ids, CRLF with blank rows, ragged and
# long rows, and rows out of subject/time order
_CHUNK_FILES = {name: text.encode() for name, (text, _, _) in _EDGE_FILES.items()} | {
    "ids as written": (
        'subject_id,t,label,f1\n"a,b",1,1,0.5\n"say ""hi""",1,,1.5\n#c,1,-1,2.5\n'
        ' d,1,,3.5\n"e\r\nf",1,,4.5\n"\r\n\ng\r",2,1,5.5\ng\0,1,1,6.5\n'
    ).encode(),
    "last-column id spanning lines that read as rows": (
        't,label,f1,subject_id\n1,1,0.5,"a\n2,1,0.7,b\n3,1,0.9,c"\n1,-1,0.1,d\n'
    ).encode(),
    "crlf with blank rows": (
        b"subject_id,t,label,f1,f2\r\n\r\na,1,1,0.5,1.5\r\n\r\n\r\n"
        b"a,2,,2.5,3.5\r\nb,1,,1.0,1.0\r\n\r\n"
    ),
    "crlf with rows of blank cells": (
        b"subject_id,t,label,f1,f2\r\na,1,1,0.5,1.5\r\n,,,,\r\n   \r\na,2,,2.5,3.5\r\n"
    ),
    "short row": b"subject_id,t,label,f1,f2\na,1,1,0.0,1.0\n\na,2,1,0.0\n",
    "long row": b'subject_id,t,label,f1,f2\na,1,1,0.0,1.0\n\n"s,t",1,1,0.0,1.0,"2,0"\n',
    "rows out of order": b"subject_id,t,label,f1\nb,2,,2.0\na,3,1,3.0\nb,1,,1.0\na,1,1,1.0\na,2,,2.0\n",
}


def _load_outcome(path):
    """load_panel's arrays or error, and whether the column pass read the file."""
    try:
        columns = panel_module._column_rows(path, panel_module._layout(path)) is not None
    except ValueError:
        columns = None
    try:
        got = load_panel(path)
    except ValueError as exc:
        return columns, type(exc), str(exc)
    arrays = (got.offsets, got.times, got.observations, got.labels)
    return columns, got.subject_ids, *(a.tolist() for a in arrays)


@pytest.mark.parametrize("chunk", [1, 2])
@pytest.mark.parametrize("data", _CHUNK_FILES.values(), ids=list(_CHUNK_FILES))
def test_chunk_boundaries(tmp_path, monkeypatch, data, chunk):
    """np.loadtxt chunks of one or two records give the same panel or error,
    by the same pass, as a single chunk: a chunk ends after a whole record,
    also when a quoted cell spans lines."""
    path = tmp_path / "panel.csv"
    path.write_bytes(data)
    whole = _load_outcome(path)
    monkeypatch.setattr(panel_module, "_CHUNK_ROWS", chunk)
    assert _load_outcome(path) == whole


@pytest.mark.parametrize("chunk", [1, 2, panel_module._CHUNK_ROWS])
def test_rows_out_of_order_come_back_sorted(tmp_path, monkeypatch, chunk):
    path = tmp_path / "panel.csv"
    path.write_bytes(_CHUNK_FILES["rows out of order"])
    monkeypatch.setattr(panel_module, "_CHUNK_ROWS", chunk)
    got = load_panel(path)
    assert got.subject_ids == ("b", "a")
    np.testing.assert_array_equal(got.offsets, [0, 2, 5])
    np.testing.assert_array_equal(got.times, [1, 2, 1, 2, 3])
    np.testing.assert_array_equal(got.observations, [[1.0], [2.0], [1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(got.labels, [0, 1])


def test_lone_cr_file_loads_as_its_crlf_twin(tmp_path):
    """Lines ended by a lone CR are more records than LF line ends: the
    column pass gives the file up, and the row-by-row pass reads the panel
    the CRLF file gives."""
    rows = [_HEAD.strip(), "b,2,,2.0,0.5", "a,1,1,1.0,1.5", "b,1,,3.0,2.5", "a,2,,4.0,3.5"]
    lone_cr, crlf = tmp_path / "cr.csv", tmp_path / "crlf.csv"
    lone_cr.write_bytes("\r".join(rows).encode() + b"\r")
    crlf.write_bytes("\r\n".join(rows).encode() + b"\r\n")
    assert panel_module._column_rows(lone_cr, panel_module._layout(lone_cr)) is None
    assert _load_outcome(lone_cr)[1:] == _load_outcome(crlf)[1:]
    assert load_panel(lone_cr).subject_ids == ("b", "a")


# files the column pass reads in order, reads and gathers, and gives up
_STANDARDIZED_FILES = ["quoted features, one label", "rows out of order",
                       "crlf with rows of blank cells", "reserved columns between features"]


@pytest.mark.parametrize("name", _STANDARDIZED_FILES)
def test_load_standardizes_in_place(tmp_path, name):
    """A standardizing load gives apply_standardization's panel bit for
    bit, whether the function fits on the raw panel or returns a stored
    standardization, and freezes the matrix it rewrote."""
    path = tmp_path / "panel.csv"
    path.write_bytes(_CHUNK_FILES[name])
    raw = load_panel(path)
    fitted = fit_standardization(raw)
    want = apply_standardization(raw, fitted)
    seen = []

    def fit(panel):
        seen.append((panel.standardization.is_identity, panel.observations.tobytes()))
        return fit_standardization(panel)

    for standardize in (lambda panel: fitted, fit):
        got = load_panel(path, standardize)
        assert got.observations.tobytes() == want.observations.tobytes()
        assert got.standardization.to_dict() == fitted.to_dict()
        assert (got.subject_ids, got.times.tolist()) == (raw.subject_ids, raw.times.tolist())
        assert not got.observations.flags.writeable
    assert seen == [(True, raw.observations.tobytes())]
    assert not np.shares_memory(raw.observations, want.observations)


def test_load_with_identity_or_foreign_standardization(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_bytes(_CHUNK_FILES["rows out of order"])
    raw = load_panel(path)
    same = load_panel(path, lambda panel: Standardization.identity(1))
    assert same.observations.tobytes() == raw.observations.tobytes()
    assert same.standardization.is_identity
    with pytest.raises(DimensionMismatch, match="standardization dimension != panel dimension"):
        load_panel(path, lambda panel: Standardization(np.ones(2), np.ones(2)))


class TestSeriesValidation:
    def test_times_must_increase(self):
        with pytest.raises(PanelFormatError):
            make_panel(make_series("s", [[0.0], [1.0]], times=np.array([2, 2])))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            make_panel(
                make_series("a", [[0.0, 1.0]]),
                make_series("b", [[0.0]]),
            )

    def test_arrays_are_immutable(self):
        s = make_panel(make_series("s", [[1.0, 2.0]])).subjects[0]
        with pytest.raises(ValueError):
            s.observations[0, 0] = 9.0


class TestExpectedLabel:
    """The expected label 2 P(y = +1) - 1 scales the terminal visit of a
    subject's aggregate row: +1 or -1 when observed, 0 when missing."""

    def test_observed_positive_is_one(self):
        panel = make_panel(make_series("p", [[1.5, -2.0]], label=1))
        np.testing.assert_array_equal(aggregates(panel), [[1.5, -2.0]])

    def test_unobserved_half_is_zero(self):
        panel = make_panel(make_series("u", [[1.5, -2.0]]))
        np.testing.assert_array_equal(aggregates(panel), [[0.0, 0.0]])

    def test_monotone_and_affine_in_probability(self):
        # P(y = +1) = 0, 0.5, 1 for labels -1, missing, +1
        rows = [[0.5, 1.0], [2.0, -1.0], [3.0, 4.0]]
        mats = [
            aggregates(make_panel(make_series("s", rows, label=label)))[0]
            for label in (-1, None, 1)
        ]
        terminal = np.array(rows[-1])
        np.testing.assert_array_equal(mats[1] - mats[0], terminal)
        np.testing.assert_array_equal(mats[2] - mats[1], terminal)


class TestAggregates:
    def test_labeled_positive_telescopes(self):
        panel = make_panel(
            make_series("s", [[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]], label=1)
        )
        np.testing.assert_array_equal(aggregates(panel), [[7.0, 0.0]])

    def test_single_visit_negative(self):
        panel = make_panel(make_series("s", [[2.0, 3.0]], label=-1))
        np.testing.assert_array_equal(aggregates(panel), [[-2.0, -3.0]])

    def test_unobserved_keeps_only_monotone_part(self):
        panel = make_panel(make_series("s", [[0.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_array_equal(aggregates(panel), [[1.0, 1.0]])

    def test_telescoping_identity_random_panels(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            panel = random_panel(rng, n_subjects=4, d=4, labeled_fraction=0.0)
            for row, s in zip(aggregates(panel), panel.subjects):
                # unobserved labels kill the discriminant part, leaving the
                # telescoped sum of diffs, x_T - x_1 exactly
                np.testing.assert_array_equal(row, s.observations[-1] - s.observations[0])
                steps = np.zeros(panel.d)
                for step in np.diff(s.observations, axis=0):
                    steps = steps + step
                np.testing.assert_allclose(row, steps, rtol=1e-12, atol=1e-12)

    def test_matrix_stacks_in_order(self):
        panel = make_panel(
            make_series("a", [[1.0, 0.0]], label=1),
            make_series("b", [[0.0, 2.0]], label=1),
        )
        mat = aggregates(panel)
        assert mat.shape == (2, 2)
        np.testing.assert_array_equal(mat, [[1.0, 0.0], [0.0, 2.0]])


class TestStandardization:
    def test_standardized_panel_has_zero_mean_unit_variance(self):
        rng = np.random.default_rng(4)
        panel = random_panel(rng, n_subjects=8, d=3)
        out = apply_standardization(panel, fit_standardization(panel))
        stacked = np.vstack([s.observations for s in out.subjects])
        np.testing.assert_allclose(stacked.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(stacked.std(axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize("rows,d", [(1, 2), (4, 2), (9, 3), (50, 90), (13, 1), (2000, 5)])
    def test_scale_is_std_bit_for_bit(self, rows, d, monkeypatch):
        """The blocks of squared deviations, each summed below the running
        sum, give the floats of np.std, across block boundaries too."""
        monkeypatch.setattr(panel_module, "_STD_BLOCK_ROWS", 4)
        obs = np.random.default_rng(rows * d).normal(size=(rows, d)) * 30.0 + 7.0
        std = obs.std(axis=0)
        panel = make_panel(make_series("s", obs))
        np.testing.assert_array_equal(fit_standardization(panel).scale, np.where(std > 0, std, 1.0))

    @pytest.mark.parametrize("d", [1, 3])
    def test_overflowing_squares_get_the_scaled_moments(self, d):
        """A feature of scale 1e300, whose squares overflow, gets the moments
        of the unscaled feature times 1e300, with no warning; the other
        features keep their bits."""
        obs = np.random.default_rng(d).normal(size=(40, d)) + 2.0
        fitted = fit_standardization(make_panel(make_series("s", obs)))
        obs[:, 0] *= 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = fit_standardization(make_panel(make_series("s", obs)))
        np.testing.assert_allclose(huge.mean[0], fitted.mean[0] * 1e300, rtol=1e-14)
        np.testing.assert_allclose(huge.scale[0], fitted.scale[0] * 1e300, rtol=1e-14)
        np.testing.assert_array_equal(huge.mean[1:], fitted.mean[1:])
        np.testing.assert_array_equal(huge.scale[1:], fitted.scale[1:])

    def test_constant_feature_gets_unit_scale(self):
        panel = make_panel(make_series("s", [[5.0, 1.0], [5.0, 2.0]]))
        std = fit_standardization(panel)
        assert std.scale[0] == 1.0

    def test_double_standardization_refused(self):
        panel = make_panel(make_series("s", [[1.0], [2.0]]))
        out = apply_standardization(panel, fit_standardization(panel))
        with pytest.raises(ValueError):
            apply_standardization(out, fit_standardization(out))

    def test_dict_round_trip(self):
        std = Standardization(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        again = Standardization.from_dict(std.to_dict())
        np.testing.assert_array_equal(again.mean, std.mean)
        np.testing.assert_array_equal(again.scale, std.scale)


class TestSplitAndMask:
    def build(self, n=10):
        rng = np.random.default_rng(0)
        return make_panel(
            *[
                make_series(f"s{i}", rng.normal(size=(3, 2)), label=1 if i % 2 else -1)
                for i in range(n)
            ]
        )

    def test_split_counts(self):
        train, test = split_and_mask(self.build(10), 0.7, 0.0, seed=1)
        assert train.n_subjects == 7
        assert test.n_subjects == 3
        assert all(s.label is not None for s in train.subjects)

    def test_masked_count_exact(self):
        panel = self.build(10)
        train, _ = split_and_mask(panel, 0.8, 0.5, seed=2)
        assert sum(1 for s in train.subjects if s.label is None) == 4

    def test_same_seed_same_split(self):
        panel = self.build(12)
        first = split_and_mask(panel, 0.5, 0.25, seed=9)
        second = split_and_mask(panel, 0.5, 0.25, seed=9)
        assert [s.subject_id for s in first[0].subjects] == [
            s.subject_id for s in second[0].subjects
        ]
        assert [s.label for s in first[0].subjects] == [
            s.label for s in second[0].subjects
        ]

    def test_partition_property(self):
        panel = self.build(11)
        rng = np.random.default_rng(5)
        for _ in range(20):
            seed = int(rng.integers(0, 10_000))
            train, test = split_and_mask(panel, 0.6, 0.3, seed=seed)
            train_ids = set(train.subject_ids)
            test_ids = set(test.subject_ids)
            assert train_ids | test_ids == set(panel.subject_ids)
            assert not train_ids & test_ids

    def test_test_side_keeps_labels(self):
        _, test = split_and_mask(self.build(10), 0.5, 1.0, seed=3)
        assert all(s.label is not None for s in test.subjects)

    def test_empty_side_rejected(self):
        panel = self.build(4)
        with pytest.raises(ValueError):
            split_and_mask(panel, 1.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            split_and_mask(panel, 0.0, 0.0, seed=0)
