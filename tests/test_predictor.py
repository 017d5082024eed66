import math
import warnings

import numpy as np
import pytest

from oracles import Series, panel_from_subjects

from healthindex.chi_baseline import ChiModel, chi_predict_panel
from healthindex.errors import DimensionMismatch, ZeroFeatureVector
from healthindex.med_core import WeightPosterior
from healthindex.predictor import (
    Predictions,
    confidence,
    index_trajectory,
    predict,
    predict_panel,
    read_prediction_labels,
    reject_by_rate,
    reject_by_threshold,
    write_predictions,
)
from healthindex.simulator import SimConfig, simulate

# 97.5% quantile of the standard normal, checked against Phi by hand
Z_975 = 1.959964


def series(rows, sid="s", label=None):
    obs = np.asarray(rows, dtype=float)
    return Series(sid, np.arange(1, obs.shape[0] + 1), obs, label)


def one(rows):
    """A panel of one subject with these visits."""
    return panel_from_subjects((series(rows),))


def record(sid, conf, label=1):
    return sid, conf, label


def predictions(records):
    """Predictions of (subject id, confidence, label) rows, each at t = 1
    with index mean equal to the label and index std 1."""
    ids, confs, labels = zip(*records) if records else ((), (), ())
    n, labels = len(ids), np.array(labels, dtype=int)
    return Predictions(
        ids, np.ones(n, dtype=int), labels.astype(float), np.ones(n), labels,
        np.array(confs, dtype=float), np.zeros(n, dtype=bool),
    )


def rejected(preds):
    return [sid for sid, out in zip(preds.subject_ids, preds.abstained) if out]


class TestPredict:
    def test_positive_side(self):
        post = WeightPosterior(np.array([1.0, -1.0]))
        assert predict(post, [2.0, 1.0]) == 1

    def test_zero_mean_ties_to_positive(self):
        post = WeightPosterior(np.zeros(2))
        assert predict(post, [3.0, -1.0]) == 1
        assert confidence(post, [3.0, -1.0]) == pytest.approx(0.5)

    def test_negative_side(self):
        post = WeightPosterior(np.array([0.3]))
        assert predict(post, [-2.0]) == -1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            predict(WeightPosterior(np.ones(2)), [1.0])

    def test_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            v = rng.normal(size=4)
            x = rng.normal(size=4)
            base = predict(WeightPosterior(v), x)
            assert predict(WeightPosterior(v * rng.uniform(0.1, 50)), x) == base
            assert predict(WeightPosterior(v), x * rng.uniform(0.1, 50)) == base


class TestConfidence:
    def test_orthogonal_is_half(self):
        post = WeightPosterior(np.array([1.0, 0.0]))
        assert confidence(post, [0.0, 2.0]) == pytest.approx(0.5)

    def test_975_quantile(self):
        post = WeightPosterior(np.array([Z_975]))
        assert confidence(post, [1.0]) == pytest.approx(0.975, abs=1e-6)

    def test_limit_is_one(self):
        post = WeightPosterior(np.array([1e9]))
        assert confidence(post, [1.0]) == 1.0

    def test_monotone_in_scaled_projection(self):
        # the score depends on x only through v.x / ||x||; sweep that ratio
        scores = [
            confidence(WeightPosterior(np.array([ratio])), [1.0])
            for ratio in np.linspace(0.0, 5, 50)
        ]
        assert np.all(np.diff(scores) > 0)
        assert all(0.5 <= s <= 1.0 for s in scores)
        post = WeightPosterior(np.array([2.0]))
        assert confidence(post, [1.0]) == pytest.approx(confidence(post, [7.5]))

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroFeatureVector):
            confidence(WeightPosterior(np.ones(2)), [0.0, 0.0])

    def test_matches_erf_formula(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            v = rng.normal(size=3)
            x = rng.normal(size=3)
            z = abs(v @ x) / np.linalg.norm(x)
            expected = 0.5 * (1 + math.erf(z / math.sqrt(2)))
            assert confidence(WeightPosterior(v), x) == pytest.approx(expected)


class TestIndexTrajectory:
    def test_monotone_series_has_no_violations(self):
        post = WeightPosterior(np.array([1.0, 0.0]))
        traj = index_trajectory(post, one([[1.0, 9.0], [2.0, 9.0], [3.0, 9.0]]), 0)
        assert traj.means == (1.0, 2.0, 3.0)
        assert traj.monotonicity_violations == 0

    def test_zero_posterior_keeps_stds(self):
        post = WeightPosterior(np.zeros(2))
        traj = index_trajectory(post, one([[3.0, 4.0], [0.0, 2.0]]), 0)
        assert traj.means == (0.0, 0.0)
        assert traj.stds == (5.0, 2.0)

    def test_counts_decreases(self):
        post = WeightPosterior(np.array([1.0]))
        traj = index_trajectory(post, one([[3.0], [2.0]]), 0)
        assert traj.monotonicity_violations == 1

    def test_last_visit_matches_prediction_record(self):
        """The trajectory's last mean and std are the record's index_mean
        and index_std, bit for bit."""
        panel, _ = simulate(SimConfig(d=90, seed=3))
        post = WeightPosterior(np.random.default_rng(3).normal(size=90))
        preds = predict_panel(post, panel)
        for i in range(panel.n_subjects):
            traj = index_trajectory(post, panel, i)
            assert (traj.means[-1], traj.stds[-1]) == (preds.index_mean[i], preds.index_std[i])


class TestRejectByThreshold:
    def test_half_rejects_nothing(self):
        records = predictions([record("a", 0.51), record("b", 0.99)])
        assert not any(reject_by_threshold(records, 0.5).abstained)

    def test_one_rejects_everything_below_certainty(self):
        records = predictions([record("a", 0.6), record("b", 1.0)])
        flags = reject_by_threshold(records, 1.0).abstained.tolist()
        assert flags == [True, False]

    def test_plain_comparison(self):
        records = predictions([record("a", 0.6), record("b", 0.9)])
        flags = reject_by_threshold(records, 0.7).abstained.tolist()
        assert flags == [True, False]

    def test_threshold_range_checked(self):
        with pytest.raises(ValueError):
            reject_by_threshold(predictions([record("a", 0.6)]), 0.4)
        with pytest.raises(ValueError):
            reject_by_threshold(predictions([record("a", 0.6)]), 1.1)

    def test_abstained_records_report_zero_label(self):
        rec = reject_by_threshold(predictions([record("a", 0.6, label=-1)]), 0.9)
        assert rec.abstained[0]
        assert rec.rejection_labels[0] == 0
        assert rec.predicted_label[0] == -1


class TestRejectByRate:
    def test_zero_rate_keeps_all(self):
        records = predictions([record("a", 0.6), record("b", 0.7)])
        assert not any(reject_by_rate(records, 0.0).abstained)

    def test_floor_count_least_confident(self):
        records = predictions(
            [record(f"s{i}", c) for i, c in enumerate([0.9, 0.5, 0.7, 0.6, 0.8])]
        )
        assert rejected(reject_by_rate(records, 0.4)) == ["s1", "s3"]

    def test_ties_break_by_input_order(self):
        records = predictions([record(f"s{i}", 0.75) for i in range(4)])
        assert rejected(reject_by_rate(records, 0.5)) == ["s0", "s1"]

    def test_rates_nest(self):
        rng = np.random.default_rng(21)
        records = predictions(
            [record(f"s{i}", float(c)) for i, c in enumerate(rng.uniform(0.5, 1, 40))]
        )
        previous: set = set()
        for rate in (0.0, 0.2, 0.4, 0.6, 0.8):
            current = set(rejected(reject_by_rate(records, rate)))
            assert previous <= current
            previous = current

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            reject_by_rate(predictions([]), 0.2)

    def test_accepted_accuracy_rises_with_rate_on_calibrated_data(self):
        # correctness drawn as Bernoulli(confidence): higher-confidence records
        # are right more often, so trimming the least confident helps on average
        rng = np.random.default_rng(33)
        deltas = []
        for _ in range(30):
            confs = rng.uniform(0.5, 1.0, 200)
            correct = rng.uniform(size=200) < confs
            records = predictions([record(f"s{i}", float(c)) for i, c in enumerate(confs)])
            accs = []
            for rate in (0.0, 0.6):
                kept = correct[~reject_by_rate(records, rate).abstained]
                accs.append(np.mean(kept))
            deltas.append(accs[1] - accs[0])
        assert np.mean(deltas) > 0


class TestPredictPanel:
    def test_zero_terminal_visit_gets_tie_label_and_least_confidence(self):
        post = WeightPosterior(np.array([1.0, -0.5]))
        panel = panel_from_subjects(
            (
                series([[1.0, 0.0], [2.0, 1.0]], sid="a"),
                series([[1.0, 1.0], [0.0, 0.0]], sid="b"),
                series([[-3.0, 0.5]], sid="c"),
            )
        )
        records = predict_panel(post, panel)
        assert (records.predicted_label[1], records.confidence[1]) == (1, 0.5)
        assert records.index_std[1] == 0.0
        assert all(c > 0.5 for i, c in enumerate(records.confidence) if i != 1)
        assert rejected(reject_by_rate(records, 0.34)) == ["b"]


    def test_records_carry_the_floats_that_decide(self):
        """A record's floats do not depend on where its row sits in memory:
        the record, the last visit of the trajectory (a row of the panel
        matrix) and predict/confidence on a copy of the row at an 8-byte
        offset agree bit for bit."""
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = int(rng.integers(1, 40))
            post = WeightPosterior(rng.normal(size=d))
            panel = panel_from_subjects(
                tuple(
                    series(rng.normal(size=(int(rng.integers(1, 5)), d)), sid=f"s{i}")
                    for i in range(8)
                )
            )
            records = predict_panel(post, panel)
            for i, x in enumerate(panel.terminals):
                traj = index_trajectory(post, panel, i)
                assert records.t_last[i] == traj.times[-1]
                assert (records.index_mean[i], records.index_std[i]) == (
                    traj.means[-1], traj.stds[-1])
                shifted = np.empty(d + 1)[1:]  # 8 bytes past an aligned allocation
                shifted[:] = x
                assert records.predicted_label[i] == predict(post, shifted)
                assert records.confidence[i] == confidence(post, shifted)

    def test_overflowing_norm_is_scaled(self):
        """A subject 1e200 times another: ||x||^2 overflows, but its std is
        1e200 times the other's and its confidence the other's (both within
        rounding: 1e200 * x is rounded), without a numpy warning."""
        rng = np.random.default_rng(14)
        for _ in range(20):
            d = int(rng.integers(1, 40))
            rows = rng.normal(size=(2, d))
            panel = panel_from_subjects(
                (series(rows, sid="a"), series(rows * 1e200, sid="b"))
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                records = predict_panel(WeightPosterior(rng.normal(size=d)), panel)
            assert records.index_std[1] == pytest.approx(1e200 * records.index_std[0],
                                                         rel=1e-15)
            assert records.confidence[1] == pytest.approx(records.confidence[0], rel=1e-15)

    def test_dimension_mismatch_names_both(self):
        panel = panel_from_subjects((series([[1.0, 2.0]]),))
        with pytest.raises(DimensionMismatch, match="panel has d=2, posterior has d=3"):
            predict_panel(WeightPosterior(np.ones(3)), panel)

    def test_rejecting_predictions_without_confidence_names_the_cause(self):
        panel = panel_from_subjects(
            (series([[1.0, 0.0]], sid="a"), series([[-3.0, 0.5]], sid="b"))
        )
        preds = chi_predict_panel(ChiModel(np.array([1.0, -0.5]), 0.25), panel)
        assert preds.index_std is None and preds.confidence is None
        for reject, arg in ((reject_by_rate, 0.5), (reject_by_threshold, 0.7)):
            with pytest.raises(ValueError, match="rejection needs confidence scores"):
                reject(preds, arg)

    def test_subset_keeps_the_masked_subjects_in_order(self):
        records = reject_by_rate(
            predictions([record(f"s{i}", c) for i, c in enumerate([0.9, 0.5, 0.7, 0.6])]),
            0.5,
        )
        kept = records.subset(np.array([True, True, False, True]))
        assert kept.subject_ids == ("s0", "s1", "s3")
        assert kept.confidence.tolist() == [0.9, 0.5, 0.6]
        assert kept.rejection_labels.tolist() == [1, 0, 0]
        assert len(kept) == 3


class TestPredictionCsv:
    def test_round_trip_with_rejection_labels(self, tmp_path):
        post = WeightPosterior(np.array([1.0, -0.5]))
        panel = panel_from_subjects(
            (
                series([[1.0, 0.0], [2.0, 1.0]], sid="a", label=1),
                series([[-3.0, 0.5]], sid="b", label=-1),
            )
        )
        records = reject_by_rate(predict_panel(post, panel), 0.5)
        path = tmp_path / "preds.csv"
        write_predictions(records, path)
        labels = read_prediction_labels(path)
        assert set(labels) == {"a", "b"}
        assert sum(1 for v in labels.values() if v == 0) == 1
        header = path.read_text().splitlines()[0]
        assert header == "subject_id,t_last,index_mean,index_std,pred,confidence,abstained"

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("subject_id,pred\r\n\r\na,1\r\n\r\nb,-1\r\n\r\n", newline="")
        assert read_prediction_labels(path) == {"a": 1, "b": -1}
