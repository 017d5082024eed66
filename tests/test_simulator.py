import json

import numpy as np
import pytest

from healthindex.panel import NEGATIVE, POSITIVE, load_panel
from healthindex.simulator import SimConfig, simulate, simulate_to_files

SMALL = dict(d=6, n_per_class=10, informative_k=3, seed=5)


class TestConfig:
    def test_defaults_give_equal_classes(self):
        assert SimConfig().class_sizes() == (50, 50)

    def test_explicit_proportion_resplits_with_floor(self):
        config = SimConfig(n_per_class=50, normal_proportion=0.6)
        assert config.class_sizes() == (60, 40)
        config = SimConfig(n_per_class=5, normal_proportion=0.55)
        assert config.class_sizes() == (5, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(visits_min=0)
        with pytest.raises(ValueError):
            SimConfig(normal_proportion=1.0)
        with pytest.raises(ValueError):
            SimConfig(informative_k=100, d=10)
        with pytest.raises(ValueError):
            SimConfig(d=3, noise_sigmas=(1.0, 2.0))

    def test_dict_round_trip(self):
        config = SimConfig(**SMALL, noise_sigmas=(1.0,) * 6)
        assert SimConfig.from_dict(config.to_dict()) == config


class TestGeneration:
    def test_counts_and_visits(self):
        config = SimConfig(**SMALL)
        panel, truth = simulate(config)
        assert panel.n_subjects == 20
        assert sum(1 for v in truth.values() if v == NEGATIVE) == 10
        assert sum(1 for v in truth.values() if v == POSITIVE) == 10
        for s in panel.subjects:
            assert config.visits_min <= s.n_visits <= config.visits_max
            np.testing.assert_array_equal(s.times, np.arange(1, s.n_visits + 1))

    def test_label_observed_floor_per_class(self):
        config = SimConfig(**SMALL, label_observed_fraction=0.25)
        panel, truth = simulate(config)
        observed = [s for s in panel.subjects if s.label is not None]
        # floor(0.25 * 10) = 2 per class
        assert len(observed) == 4
        assert sum(1 for s in observed if s.label == POSITIVE) == 2
        for s in observed:
            assert s.label == truth[s.subject_id]

    def test_same_seed_identical_panels(self):
        config = SimConfig(**SMALL)
        first, _ = simulate(config)
        second, _ = simulate(config)
        for a, b in zip(first.subjects, second.subjects):
            assert a.subject_id == b.subject_id
            assert a.label == b.label
            np.testing.assert_array_equal(a.observations, b.observations)

    def test_different_seeds_differ(self):
        a, _ = simulate(SimConfig(**SMALL))
        b, _ = simulate(SimConfig(**{**SMALL, "seed": 6}))
        assert any(
            x.observations.shape != y.observations.shape
            or not np.array_equal(x.observations, y.observations)
            for x, y in zip(a.subjects, b.subjects)
        )

    def test_noiseless_drift_is_strictly_monotone(self):
        config = SimConfig(
            d=4,
            n_per_class=5,
            noise_sigmas=(0.0,) * 4,
            degradation_rate=1.0,
            informative_k=4,
            label_observed_fraction=1.0,
            seed=1,
        )
        panel, truth = simulate(config)
        direction = np.ones(4)
        for s in panel.subjects:
            index = s.observations @ direction
            if truth[s.subject_id] == POSITIVE:
                assert np.all(np.diff(index) > 0)
            else:
                np.testing.assert_allclose(index, 0.0)

    def test_zero_drift_makes_classes_identical_in_distribution(self):
        config = SimConfig(
            d=3,
            n_per_class=400,
            degradation_rate=0.0,
            informative_k=3,
            seed=3,
            visits_min=2,
            visits_max=3,
        )
        panel, truth = simulate(config)
        terminal = {POSITIVE: [], NEGATIVE: []}
        for s in panel.subjects:
            terminal[truth[s.subject_id]].append(s.observations[-1])
        gap = np.abs(
            np.mean(terminal[POSITIVE], axis=0) - np.mean(terminal[NEGATIVE], axis=0)
        )
        # both classes are the same noise process; means agree within a few SE
        assert np.all(gap < 5 / np.sqrt(400))

    def test_separability_oracle_with_low_noise(self):
        config = SimConfig(
            d=5,
            n_per_class=30,
            noise_sigmas=(1e-4,) * 5,
            degradation_rate=0.5,
            informative_k=2,
            seed=9,
        )
        panel, truth = simulate(config)
        direction = np.zeros(5)
        direction[: config.informative_k] = 1.0
        scores = np.array([s.observations[-1] @ direction for s in panel.subjects])
        labels = np.array([truth[s.subject_id] for s in panel.subjects])
        threshold = 0.5 * config.degradation_rate * 2 * (config.visits_min - 1)
        predictions = np.where(scores > threshold, POSITIVE, NEGATIVE)
        assert np.mean(predictions == labels) == 1.0


class TestFiles:
    def test_csv_and_echo_are_deterministic(self, tmp_path):
        config = SimConfig(**SMALL, label_observed_fraction=0.3)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        simulate_to_files(config, first, tmp_path / "a.json")
        simulate_to_files(config, second, tmp_path / "b.json")
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_echo_contents(self, tmp_path):
        config = SimConfig(**SMALL)
        _, truth = simulate_to_files(config, tmp_path / "p.csv", tmp_path / "p.json")
        echo = json.loads((tmp_path / "p.json").read_text())
        assert echo["config"]["d"] == 6
        assert len(echo["resolved_noise_sigmas"]) == 6
        assert echo["informative_indices"] == [0, 1, 2]
        assert echo["true_labels"] == {k: int(v) for k, v in sorted(truth.items())}

    def test_emitted_csv_loads_back(self, tmp_path):
        config = SimConfig(**SMALL, label_observed_fraction=0.5)
        path = tmp_path / "panel.csv"
        panel, _ = simulate_to_files(config, path)
        loaded = load_panel(path)
        assert loaded.n_subjects == panel.n_subjects
        assert loaded.d == panel.d
        original = {s.subject_id: s for s in panel.subjects}
        for s in loaded.subjects:
            np.testing.assert_array_equal(s.observations, original[s.subject_id].observations)
            assert s.label == original[s.subject_id].label
