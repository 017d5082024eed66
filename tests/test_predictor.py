import math

import numpy as np
import pytest

from healthindex.errors import DimensionMismatch, ZeroFeatureVector
from healthindex.med_core import WeightPosterior
from healthindex.panel import LongitudinalPanel, SubjectSeries
from healthindex.predictor import (
    PredictionRecord,
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
    return SubjectSeries(sid, np.arange(1, obs.shape[0] + 1), obs, label)


def record(sid, conf, label=1):
    return PredictionRecord(sid, 1, float(label), 1.0, label, conf)


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
        traj = index_trajectory(post, series([[1.0, 9.0], [2.0, 9.0], [3.0, 9.0]]))
        assert traj.means == (1.0, 2.0, 3.0)
        assert traj.monotonicity_violations == 0

    def test_zero_posterior_keeps_stds(self):
        post = WeightPosterior(np.zeros(2))
        traj = index_trajectory(post, series([[3.0, 4.0], [0.0, 2.0]]))
        assert traj.means == (0.0, 0.0)
        assert traj.stds == (5.0, 2.0)

    def test_counts_decreases(self):
        post = WeightPosterior(np.array([1.0]))
        traj = index_trajectory(post, series([[3.0], [2.0]]))
        assert traj.monotonicity_violations == 1

    def test_last_visit_matches_prediction_record(self):
        """The trajectory's last mean and std are the record's index_mean
        and index_std, bit for bit."""
        panel, _ = simulate(SimConfig(d=90, seed=3))
        post = WeightPosterior(np.random.default_rng(3).normal(size=90))
        for s, rec in zip(panel.subjects, predict_panel(post, panel)):
            traj = index_trajectory(post, s)
            assert (traj.means[-1], traj.stds[-1]) == (rec.index_mean, rec.index_std)


class TestRejectByThreshold:
    def test_half_rejects_nothing(self):
        records = [record("a", 0.51), record("b", 0.99)]
        assert not any(r.abstained for r in reject_by_threshold(records, 0.5))

    def test_one_rejects_everything_below_certainty(self):
        records = [record("a", 0.6), record("b", 1.0)]
        flags = [r.abstained for r in reject_by_threshold(records, 1.0)]
        assert flags == [True, False]

    def test_plain_comparison(self):
        records = [record("a", 0.6), record("b", 0.9)]
        flags = [r.abstained for r in reject_by_threshold(records, 0.7)]
        assert flags == [True, False]

    def test_threshold_range_checked(self):
        with pytest.raises(ValueError):
            reject_by_threshold([record("a", 0.6)], 0.4)
        with pytest.raises(ValueError):
            reject_by_threshold([record("a", 0.6)], 1.1)

    def test_abstained_records_report_zero_label(self):
        (rec,) = reject_by_threshold([record("a", 0.6, label=-1)], 0.9)
        assert rec.abstained
        assert rec.rejection_label == 0
        assert rec.predicted_label == -1


class TestRejectByRate:
    def test_zero_rate_keeps_all(self):
        records = [record("a", 0.6), record("b", 0.7)]
        assert not any(r.abstained for r in reject_by_rate(records, 0.0))

    def test_floor_count_least_confident(self):
        records = [record(f"s{i}", c) for i, c in enumerate([0.9, 0.5, 0.7, 0.6, 0.8])]
        rejected = [r.subject_id for r in reject_by_rate(records, 0.4) if r.abstained]
        assert rejected == ["s1", "s3"]

    def test_ties_break_by_input_order(self):
        records = [record(f"s{i}", 0.75) for i in range(4)]
        rejected = [r.subject_id for r in reject_by_rate(records, 0.5) if r.abstained]
        assert rejected == ["s0", "s1"]

    def test_rates_nest(self):
        rng = np.random.default_rng(21)
        records = [record(f"s{i}", float(c)) for i, c in enumerate(rng.uniform(0.5, 1, 40))]
        previous: set = set()
        for rate in (0.0, 0.2, 0.4, 0.6, 0.8):
            current = {r.subject_id for r in reject_by_rate(records, rate) if r.abstained}
            assert previous <= current
            previous = current

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            reject_by_rate([], 0.2)

    def test_accepted_accuracy_rises_with_rate_on_calibrated_data(self):
        # correctness drawn as Bernoulli(confidence): higher-confidence records
        # are right more often, so trimming the least confident helps on average
        rng = np.random.default_rng(33)
        deltas = []
        for _ in range(30):
            confs = rng.uniform(0.5, 1.0, 200)
            correct = rng.uniform(size=200) < confs
            records = [record(f"s{i}", float(c)) for i, c in enumerate(confs)]
            accs = []
            for rate in (0.0, 0.6):
                kept = [
                    correct[i]
                    for i, r in enumerate(reject_by_rate(records, rate))
                    if not r.abstained
                ]
                accs.append(np.mean(kept))
            deltas.append(accs[1] - accs[0])
        assert np.mean(deltas) > 0


class TestPredictPanel:
    def test_zero_terminal_visit_gets_tie_label_and_least_confidence(self):
        post = WeightPosterior(np.array([1.0, -0.5]))
        panel = LongitudinalPanel.from_subjects(
            (
                series([[1.0, 0.0], [2.0, 1.0]], sid="a"),
                series([[1.0, 1.0], [0.0, 0.0]], sid="b"),
                series([[-3.0, 0.5]], sid="c"),
            )
        )
        records = predict_panel(post, panel)
        zero = records[1]
        assert (zero.predicted_label, zero.confidence) == (1, 0.5)
        assert zero.index_std == 0.0
        assert all(r.confidence > 0.5 for r in records if r is not zero)
        rejected = [r.subject_id for r in reject_by_rate(records, 0.34) if r.abstained]
        assert rejected == ["b"]


    def test_records_carry_the_floats_that_decide(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = int(rng.integers(1, 40))
            post = WeightPosterior(rng.normal(size=d))
            panel = LongitudinalPanel.from_subjects(
                tuple(
                    series(rng.normal(size=(int(rng.integers(1, 5)), d)), sid=f"s{i}")
                    for i in range(8)
                )
            )
            for r, s in zip(predict_panel(post, panel), panel.subjects):
                x = s.terminal
                assert r.t_last == int(s.times[-1])
                assert r.index_mean == float(post.mean @ x)
                assert r.index_std == float(np.linalg.norm(x))
                assert r.predicted_label == predict(post, x)
                assert r.confidence == confidence(post, x)

    def test_dimension_mismatch_names_both(self):
        panel = LongitudinalPanel.from_subjects((series([[1.0, 2.0]]),))
        with pytest.raises(DimensionMismatch, match="panel has d=2, posterior has d=3"):
            predict_panel(WeightPosterior(np.ones(3)), panel)


class TestPredictionCsv:
    def test_round_trip_with_rejection_labels(self, tmp_path):
        post = WeightPosterior(np.array([1.0, -0.5]))
        panel = LongitudinalPanel.from_subjects(
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
