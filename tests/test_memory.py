"""Peak memory of the simulate -> load -> train -> predict path.

Each gate runs one stage under tracemalloc and divides its peak traced bytes
by the ``nbytes`` of the panel's (rows, d) matrix. numpy reports its array
buffers to tracemalloc, so the ratio is deterministic: it counts the
matrix-sized buffers a stage holds at once, plus the per-row and per-subject
arrays beside them. A stage that keeps a second copy of the matrix (per-subject
blocks stacked into one, a structured array stacked into the feature matrix,
a gather of rows already in order, the raw panel kept beside the
standardized one rather than standardized in place, full-size visit-step
gathers in the chi design) fails its limit. The predict gate scores a panel
of one or two visits per subject, where prediction's per-subject arrays are
largest next to the matrix.
"""

from __future__ import annotations

import tracemalloc

import pytest

from healthindex import cli
from healthindex.panel import fit_standardization, load_panel

TRAIN = ["--n-per-class", "250", "--d", "90", "--seed", "0"]
SCORED = ["--n-per-class", "1000", "--d", "90", "--seed", "1", "--label-observed-fraction", "1",
          "--visits-min", "1", "--visits-max", "2"]


def peak_bytes(stage) -> int:
    tracemalloc.start()
    try:
        stage()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_cli(*argv) -> None:
    assert cli.main([str(arg) for arg in argv]) == 0


def nbytes(path) -> int:
    return load_panel(path).observations.nbytes


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("memory")
    run_cli("simulate", "--out", work / "train.csv", *TRAIN)
    run_cli("simulate", "--out", work / "scored.csv", *SCORED)
    run_cli("train", "--panel", work / "train.csv", "--out", work / "model.json")
    return work


def test_simulate_peak(tmp_path):
    """One matrix sized for visits_max visits per subject (1.45)."""
    path = tmp_path / "panel.csv"
    peak = peak_bytes(lambda: run_cli("simulate", "--out", path, *TRAIN))
    assert peak / nbytes(path) < 1.9


def test_load_panel_peak(work):
    """One feature matrix filled chunk by chunk, no gather of rows already
    in subject/time order (1.36)."""
    path = work / "train.csv"
    assert peak_bytes(lambda: load_panel(path)) / nbytes(path) < 1.8


def test_fit_standardization_peak(work):
    """The mean and one block of squared deviations (0.14); ``std`` makes a
    (rows, d) temporary of deviations (1.04)."""
    panel = load_panel(work / "train.csv")
    peak = peak_bytes(lambda: fit_standardization(panel))
    assert peak / panel.observations.nbytes < 0.3


def test_train_uqchi_peak(work, tmp_path):
    """One matrix, loaded and standardized in place, beside the aggregates
    and the solver's arrays (1.87); a standardized copy beside the raw
    matrix reads 2.21."""
    path = work / "train.csv"
    argv = ("train", "--panel", path, "--out", tmp_path / "uqchi.json")
    assert peak_bytes(lambda: run_cli(*argv)) / nbytes(path) < 2.0


def test_train_chi_peak(work, tmp_path):
    """The matrix, standardized in place, beside the chi design (2.16)."""
    path = work / "train.csv"
    argv = ("train", "--panel", path, "--method", "chi", "--out", tmp_path / "chi.json")
    assert peak_bytes(lambda: run_cli(*argv)) / nbytes(path) < 2.5


def test_predict_peak(work, tmp_path):
    """One matrix, loaded and standardized in place, beside the predictions
    (1.85); a standardized copy beside the raw matrix reads 2.29."""
    path = work / "scored.csv"
    argv = ("predict", "--model", work / "model.json", "--panel", path,
            "--reject-rate", "0.4", "--out", tmp_path / "pred.csv")
    assert peak_bytes(lambda: run_cli(*argv)) / nbytes(path) < 2.0


def test_matrices_are_cut_under_a_profiler(tmp_path):
    """simulate cuts its matrix in place also while a profiler's call hook
    holds a reference to the array being cut; load_panel's matrix holds the
    rows read."""
    import cProfile

    path = tmp_path / "panel.csv"
    cProfile.Profile().runcall(run_cli, "simulate", "--out", path, *TRAIN)
    assert cProfile.Profile().runcall(load_panel, path).observations.nbytes == nbytes(path)
