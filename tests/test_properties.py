"""Property-based tests: panel CSV round trips, the flat panel layers
against their per-subject references, nested rate rejection and config
values at the edges."""

import copy
import csv
import io
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import (
    Series,
    aggregates_per_subject,
    chi_design_per_subject,
    split_and_mask_per_subject,
    standardize_per_subject,
    validate_subjects,
)

from healthindex.chi_baseline import ChiHyperparams, _build_design
from healthindex.harness import ExperimentSpec, run_pipeline
from healthindex.panel import (
    LongitudinalPanel,
    SubjectSeries,
    aggregates,
    apply_standardization,
    fit_standardization,
    load_observed_labels,
    load_panel,
    split_and_mask,
    write_panel,
)
from healthindex.predictor import Predictions, reject_by_rate
from healthindex.simulator import SimConfig

# deterministic example streams, no per-example deadline on slow machines
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
# any non-blank text the loader keeps as is (it strips ids), drawn often from
# the characters csv quoting is about, and from "#", which starts no comment
subject_ids = st.text(
    st.sampled_from(',"#\r\n ') | st.characters(blacklist_categories=("Cs",)),
    min_size=1,
    max_size=6,
).filter(lambda sid: sid.strip() == sid)


@st.composite
def panels(draw):
    """Panels with gaps in t, unlabeled and single-visit subjects, ids that
    need csv quoting, negative zeros, subnormals and extreme magnitudes."""
    d = draw(st.integers(1, 4))
    ids = draw(st.lists(subject_ids, min_size=1, max_size=5, unique=True))
    subjects = []
    for sid in ids:
        times = sorted(draw(st.sets(st.integers(-3, 60), min_size=1, max_size=4)))
        rows = draw(
            st.lists(st.lists(finite_floats, min_size=d, max_size=d),
                     min_size=len(times), max_size=len(times))
        )
        label = draw(st.sampled_from([1, -1, None]))
        subjects.append(SubjectSeries(sid, np.array(times), np.array(rows), label))
    return LongitudinalPanel.from_subjects(tuple(subjects))


def csv_writer_bytes(panel):
    """The panel CSV as csv.writer writes it, the reference for write_panel."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["subject_id", "t", "label"] + [f"f{k + 1}" for k in range(panel.d)])
    for s in panel.subjects:
        label = "" if s.label is None else str(s.label)
        for t, x in zip(s.times, s.observations):
            writer.writerow([s.subject_id, int(t), label] + [repr(float(v)) for v in x])
    return buf.getvalue().encode("utf-8")


@PROPERTY_SETTINGS
@given(panels())
def test_csv_write_load_write_is_byte_stable(panel):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        write_panel(panel, first)
        loaded = load_panel(first)
        write_panel(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes() == csv_writer_bytes(panel)
        assert load_observed_labels(first) == panel.observed_labels()
    assert loaded.subject_ids == panel.subject_ids
    for got, want in zip(loaded.subjects, panel.subjects):
        assert got.label == want.label
        np.testing.assert_array_equal(got.times, want.times)
        assert got.observations.tobytes() == want.observations.tobytes()


@st.composite
def subject_lists(draw, min_subjects=1):
    """Subjects of one d with 1-7 visits at increasing times, signed values
    and some labels missing."""
    d = draw(st.integers(1, 4))
    subjects = []
    for j in range(draw(st.integers(min_subjects, 8))):
        n_visits = draw(st.integers(1, 7))
        times = sorted(draw(st.sets(st.integers(-5, 40), min_size=n_visits, max_size=n_visits)))
        rows = draw(arrays(float, (n_visits, d), elements=st.floats(-1e3, 1e3)))
        label = draw(st.sampled_from([1, -1, None]))
        subjects.append(Series(f"s{j}", np.array(times), rows, label))
    return subjects


def assert_same_panel(panel, subjects):
    assert panel.subject_ids == tuple(s.subject_id for s in subjects)
    assert panel.labels.tolist() == [s.label or 0 for s in subjects]
    assert panel.times.tolist() == [int(t) for s in subjects for t in s.times]
    assert panel.observations.tobytes() == np.vstack([s.observations for s in subjects]).tobytes()


@PROPERTY_SETTINGS
@given(subject_lists(), st.floats(0.05, 0.95), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_flat_layers_match_the_per_subject_reference(
    subjects, train_fraction, unlabeled_fraction, seed
):
    panel = LongitudinalPanel.from_subjects(subjects)
    assert_same_panel(panel, subjects)
    assert aggregates(panel).tobytes() == aggregates_per_subject(subjects).tobytes()

    mean, scale, transformed = standardize_per_subject(subjects)
    fitted = fit_standardization(panel)
    assert fitted.mean.tobytes() == mean.tobytes()
    assert fitted.scale.tobytes() == scale.tobytes()
    applied = apply_standardization(panel, fitted)
    assert applied.observations.tobytes() == np.vstack(transformed).tobytes()

    hyper = ChiHyperparams()
    design = _build_design(panel, hyper)
    reference = chi_design_per_subject(subjects, hyper)
    for got, want in zip((design.rows, design.weights, design.quad), reference):
        assert got.tobytes() == want.tobytes()

    try:
        sides = split_and_mask_per_subject(subjects, train_fraction, unlabeled_fraction, seed)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            split_and_mask(panel, train_fraction, unlabeled_fraction, seed)
        return
    for side, want in zip(split_and_mask(panel, train_fraction, unlabeled_fraction, seed), sides):
        assert_same_panel(side, want)


FAULTS = ("non-increasing times", "non-finite cell", "mixed d", "duplicate id", "no visit")


@st.composite
def faulty_subject_lists(draw):
    """Valid subjects with one or two faults put into them; a mixed d comes
    alone, since the per-subject checks run before the d check."""
    subjects = draw(subject_lists(min_subjects=2))
    faults = draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2))
    for fault in ["mixed d"] if "mixed d" in faults else sorted(faults, key=FAULTS.index):
        j = draw(st.integers(0, len(subjects) - 1))
        sid, times, obs, label = subjects[j]
        if fault == "non-increasing times":
            times = np.append(times, times[-1] - draw(st.integers(0, 3)))
            obs = np.vstack([obs, obs[-1:]])
        elif fault == "non-finite cell":
            obs = obs.copy()
            cell = draw(st.integers(0, len(obs) - 1)), draw(st.integers(0, obs.shape[1] - 1))
            obs[cell] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        elif fault == "mixed d":
            obs = np.hstack([obs, obs[:, :1]])
        elif fault == "duplicate id":
            other = draw(st.integers(0, len(subjects) - 2))
            sid = subjects[other + (other >= j)].subject_id
        else:
            times, obs = times[:0], obs[:0]
        subjects[j] = Series(sid, times, obs, label)
    return subjects


def raised(build):
    try:
        build()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@PROPERTY_SETTINGS
@given(faulty_subject_lists())
def test_flat_panel_refuses_what_the_per_subject_checks_refuse(subjects):
    want = raised(lambda: validate_subjects(subjects))
    assert want is not None
    assert raised(lambda: LongitudinalPanel.from_subjects(subjects)) == want


@PROPERTY_SETTINGS
@given(
    st.lists(st.sampled_from([0.5, 0.6, 0.75, 0.75, 0.9, 1.0]) | st.floats(0.5, 1.0),
             min_size=1, max_size=40),
    st.lists(st.floats(0.0, 0.999), min_size=1, max_size=6),
)
def test_reject_by_rate_sets_nest_as_the_rate_grows(confidences, rates):
    n = len(confidences)
    records = Predictions(
        tuple(f"s{i}" for i in range(n)), np.ones(n, dtype=int), np.zeros(n), np.ones(n),
        np.ones(n, dtype=int), np.array(confidences), np.zeros(n, dtype=bool),
    )
    previous: set = set()
    for rate in sorted(rates):
        out = reject_by_rate(records, rate)
        current = {sid for sid, a in zip(out.subject_ids, out.abstained) if a}
        assert len(current) == math.floor(rate * len(records))
        assert previous <= current
        previous = current


# a sweep small enough to run once per accepted edge value
TINY_SPEC = {
    "sim": {"d": 3, "n_per_class": 6, "informative_k": 1, "degradation_rate": 0.8,
            "label_observed_fraction": 1.0},
    "c_grid": [1.5, 3.0],
    "label_ratios": [0.5],
    "train_ratios": [0.6],
    "rejection_rates": [0.0, 0.5],
    "n_seeds": 1,
    "cv_folds": 2,
    "chi_steps": 5,
}
# every field of the three config dataclasses, as a path into the spec payload
FIELD_PATHS = (
    [(f.name,) for f in fields(ExperimentSpec)]
    + [("sim", f.name) for f in fields(SimConfig)]
    + [("chi_hyper", f.name) for f in fields(ChiHyperparams)]
)
# a wrong type, a bool, null, NaN, +-inf, a negative, zero, an empty and a nested list
EDGE_VALUES = ["x", True, None, math.nan, math.inf, -math.inf, -1, 0, [], [[1.5]]]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from(EDGE_VALUES),
    st.booleans(),
    st.sampled_from(["cv", "fixed", "sweep"]),
)
def test_config_edge_is_refused_or_sweeps_without_failure(value, as_list, c_policy):
    """Set each field in turn to the edge value (or a one-entry list of it):
    from_dict refuses it with ValueError, or every cell of the sweep runs."""
    for path in FIELD_PATHS:
        payload = copy.deepcopy({**TINY_SPEC, "c_policy": c_policy})
        node = payload
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = [value] if as_list else value
        try:
            spec = ExperimentSpec.from_dict(payload)
        except ValueError:
            continue
        runs = run_pipeline(spec).runs
        assert [run["error"] for run in runs if run["error"]] == [], path
        n_splits = len(spec.train_ratios) * len(spec.label_ratios) * spec.n_seeds
        n_c = len(spec.c_grid) if spec.c_policy == "sweep" else 1
        cells = {"uqchi": n_splits * n_c * len(spec.rejection_rates), "chi": n_splits}
        logged = {m: sum(r["method"] == m for r in runs) for m in spec.baselines}
        assert logged == {m: cells[m] for m in spec.baselines} and all(logged.values()), path
