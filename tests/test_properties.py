"""Property-based tests: panel CSV round trips, nested rate rejection and
config values at the edges."""

import copy
import csv
import io
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from healthindex.chi_baseline import ChiHyperparams
from healthindex.harness import ExperimentSpec, run_pipeline
from healthindex.panel import (
    LongitudinalPanel,
    SubjectSeries,
    load_observed_labels,
    load_panel,
    write_panel,
)
from healthindex.predictor import PredictionRecord, reject_by_rate
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
    return LongitudinalPanel(tuple(subjects))


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


@PROPERTY_SETTINGS
@given(
    st.lists(st.sampled_from([0.5, 0.6, 0.75, 0.75, 0.9, 1.0]) | st.floats(0.5, 1.0),
             min_size=1, max_size=40),
    st.lists(st.floats(0.0, 0.999), min_size=1, max_size=6),
)
def test_reject_by_rate_sets_nest_as_the_rate_grows(confidences, rates):
    records = [
        PredictionRecord(f"s{i}", 1, 0.0, 1.0, 1, conf)
        for i, conf in enumerate(confidences)
    ]
    previous: set = set()
    for rate in sorted(rates):
        current = {r.subject_id for r in reject_by_rate(records, rate) if r.abstained}
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
