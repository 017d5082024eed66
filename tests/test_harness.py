import dataclasses
import json
import logging
import warnings

import numpy as np
import pytest

from oracles import Series, cross_validate_c_cold, cross_validate_c_per_fold, panel_from_subjects

from healthindex import harness
from healthindex.chi_baseline import ChiHyperparams
from healthindex.errors import NonConvergence
from healthindex.harness import (
    C_POLICY_FIXED,
    C_POLICY_SWEEP,
    ExperimentSpec,
    cross_validate_c,
    default_sim_config,
    evaluate,
    run_pipeline,
    train_uqchi,
)
from healthindex.med_core import DualSolution
from healthindex.panel import standardize
from healthindex.predictor import predict_panel
from healthindex.simulator import SimConfig, simulate


def series(rows, sid, label=None):
    obs = np.asarray(rows, dtype=float)
    return Series(sid, np.arange(1, obs.shape[0] + 1), obs, label)


def tiny_spec(**overrides):
    base = dict(
        sim=SimConfig(
            d=8,
            n_per_class=12,
            degradation_rate=0.6,
            informative_k=4,
            label_observed_fraction=1.0,
            seed=0,
        ),
        c_policy=C_POLICY_FIXED,
        fixed_c=1.5,
        label_ratios=(0.2,),
        train_ratios=(0.7,),
        rejection_rates=(0.0, 0.4),
        n_seeds=3,
        cv_folds=3,
        baselines=("uqchi", "chi"),
        chi_steps=120,
        chi_step_size=0.05,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestEvaluate:
    def test_mixed_outcomes(self):
        result = evaluate({"a": 1, "b": 1, "c": 0}, {"a": 1, "b": -1, "c": 1})
        assert result.accuracy == 0.5
        assert result.n_abstained == 1
        assert (result.true_positive, result.false_positive) == (1, 1)

    def test_all_abstained_gives_null_accuracy(self):
        result = evaluate({"a": 0, "b": 0}, {"a": 1, "b": -1})
        assert result.accuracy is None
        assert result.n_abstained == 2

    def test_perfect(self):
        result = evaluate({"a": 1, "b": -1}, {"a": 1, "b": -1})
        assert result.accuracy == 1.0
        assert result.n_abstained == 0

    def test_id_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate({"a": 1, "zz": 1}, {"a": 1})

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            evaluate({"a": 3}, {"a": 1})


class TestTrainUqchi:
    def test_learns_the_planted_direction(self):
        config = SimConfig(
            d=6,
            n_per_class=25,
            degradation_rate=0.8,
            informative_k=2,
            label_observed_fraction=1.0,
            seed=4,
        )
        panel, _ = simulate(config)
        posterior, solution, _ = train_uqchi(standardize(panel), c=1.5)
        assert solution.converged
        informative = np.abs(posterior.mean[:2]).mean()
        noise = np.abs(posterior.mean[2:]).mean()
        assert informative > noise

    @pytest.mark.parametrize("seed", range(4))
    def test_c_one_gives_the_prior(self, caplog, seed):
        """On 50 subjects in d = 90, c = 1 certifies lam = 0: the model is the
        prior, every prediction is +1 with confidence 0.5, and c = 1 scores in
        cross-validation as c = 0.5 does. A solve that stopped near lam =
        1e-11 predicted -1 for 13 to 31 of the 50 subjects."""
        panel = standardize(simulate(SimConfig(n_per_class=25, seed=seed))[0])
        assert panel.d == 90
        preds = predict_panel(train_uqchi(panel, 1.0)[0], panel)
        assert (preds.predicted_label == 1).all() and (preds.confidence == 0.5).all()
        with caplog.at_level(logging.DEBUG, harness.__name__):
            cross_validate_c(panel, (0.5, 1.0, 2.0), folds=5, seed=seed)
        (record,) = caplog.records
        assert record.cv_grid[0]["mean"] == record.cv_grid[1]["mean"]


class TestCrossValidateC:
    def build_panel(self, seed=11, n=30, strong=True):
        config = SimConfig(
            d=10,
            n_per_class=n // 2,
            degradation_rate=0.7 if strong else 0.0,
            informative_k=3,
            label_observed_fraction=1.0,
            seed=seed,
        )
        panel, _ = simulate(config)
        return standardize(panel)

    def test_singleton_grid_returned(self):
        panel = self.build_panel()
        assert cross_validate_c(panel, [5.0], folds=3, seed=0) == 5.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty c grid"):
            cross_validate_c(self.build_panel(), [], folds=3, seed=0)

    def test_tie_breaks_to_smaller_c(self):
        # a panel with no labels scores every c identically (no folds at all)
        subjects = tuple(
            series(np.random.default_rng(i).normal(size=(3, 2)), f"s{i}")
            for i in range(6)
        )
        panel = panel_from_subjects(subjects)
        with pytest.warns(UserWarning):
            chosen = cross_validate_c(panel, [5.0, 1.5, 20.0], folds=3, seed=0)
        assert chosen == 1.5

    def test_holdout_fallback_warns(self):
        panel = self.build_panel(n=30)
        few_labels = panel_from_subjects(
            tuple(
                s if i < 4 else dataclasses.replace(s, label=None)
                for i, s in enumerate(panel.subjects)
            ),
            standardization=panel.standardization,
        )
        with pytest.warns(UserWarning, match="holdout"):
            chosen = cross_validate_c(few_labels, [1.5, 5.0], folds=10, seed=1)
        assert chosen == cross_validate_c_cold(few_labels, [1.5, 5.0], folds=10, seed=1)

    def test_strong_signal_prefers_small_c(self):
        wins = 0
        for seed in range(20):
            panel = self.build_panel(seed=200 + seed)
            chosen = cross_validate_c(panel, [1.5, 100.0], folds=5, seed=seed)
            wins += chosen == 1.5
        assert wins >= 14

    # no drift signal, so the chosen c varies with the seed; 24 subjects in
    # d=30 train with N < d, 60 subjects in d=4 with N > d
    @pytest.mark.parametrize("d,n_per_class", [(30, 12), (4, 30)])
    @pytest.mark.parametrize(
        "grid", [(1.5, 3.0, 5.0, 10.0, 20.0, 100.0), (0.5, 1.0, 1.5, 5.0)]
    )
    def test_matches_cold_oracle(self, d, n_per_class, grid):
        chosen, expected = [], []
        for seed in range(10):
            config = SimConfig(
                d=d,
                n_per_class=n_per_class,
                degradation_rate=0.0,
                informative_k=2,
                label_observed_fraction=0.7,
                seed=seed,
            )
            panel = standardize(simulate(config)[0])
            chosen.append(cross_validate_c(panel, grid, folds=5, seed=seed))
            expected.append(cross_validate_c_cold(panel, grid, folds=5, seed=seed))
        assert chosen == expected
        assert len(set(expected)) > 1

    # small panels with no drift signal; 30 subjects in d = 12 train with
    # N < d, 40 in d = 3 with N > d; a 0.2 label fraction leaves fewer
    # labeled subjects than folds (one holdout)
    @pytest.mark.parametrize("d,n_per_class", [(12, 15), (3, 20)])
    @pytest.mark.parametrize("label_fraction", [1.0, 0.6, 0.2])
    @pytest.mark.parametrize("grid", [(1.5, 3.0, 100.0), (0.5, 1.0, 2.0, 20.0)])
    def test_scores_match_per_fold_oracle(self, caplog, d, n_per_class, label_fraction, grid):
        """Every c's mean fold score, read from the DEBUG record, equals the
        fold-by-fold loop's exactly, and so does the chosen c; the second
        grid's c <= 1 solves make the next c start cold."""
        for seed in range(3):
            config = SimConfig(
                d=d,
                n_per_class=n_per_class,
                degradation_rate=0.0,
                informative_k=2,
                label_observed_fraction=label_fraction,
                seed=seed,
            )
            panel = standardize(simulate(config)[0])
            caplog.clear()
            with warnings.catch_warnings(), caplog.at_level(logging.DEBUG, harness.__name__):
                warnings.filterwarnings("ignore", ".*single holdout", UserWarning)
                chosen = cross_validate_c(panel, grid, folds=10, seed=seed)
                expected, scores = cross_validate_c_per_fold(panel, grid, 10, seed)
            (record,) = caplog.records
            assert chosen == expected == record.chosen_c
            assert [row["mean"] for row in record.cv_grid] == scores

    def test_debug_record(self, caplog):
        """One DEBUG record per call: each c's fold scores and their mean, the
        batched lambda-loop iterations and the fold steps, and the chosen c."""
        panel = self.build_panel(seed=5, n=40)
        grid = (1.5, 5.0, 100.0)
        with caplog.at_level(logging.DEBUG, harness.__name__):
            chosen = cross_validate_c(panel, grid, folds=4, seed=0)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG and record.chosen_c == chosen
        assert [row["c"] for row in record.cv_grid] == list(grid)
        for row in record.cv_grid:
            assert len(row["fold_scores"]) == 4
            assert row["mean"] == float(np.mean(row["fold_scores"]))
            assert 0 < row["lambda_loop_iterations"] <= row["fold_steps"]
        assert f"c={chosen!r}" in record.getMessage()

    def test_no_record_without_debug(self, caplog):
        with caplog.at_level(logging.INFO, harness.__name__):
            cross_validate_c(self.build_panel(), (1.5, 5.0), folds=3, seed=0)
        assert not caplog.records

    def test_debug_leaves_the_sweep_outputs(self, caplog, tmp_path):
        spec = tiny_spec(c_policy="cv", c_grid=(1.5, 5.0), n_seeds=2)
        with caplog.at_level(logging.DEBUG, harness.__name__):
            run_pipeline(spec).write(tmp_path / "debug")
        assert len(caplog.records) == spec.n_seeds
        run_pipeline(spec).write(tmp_path / "plain")
        for name in ("results.csv", "runs.jsonl"):
            assert (tmp_path / "debug" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_zero_terminal_visit_is_scored(self):
        # predict() sends the tie x.v = 0 to +1; CV scores the subject instead of failing
        panel = self.build_panel(seed=3, n=20)
        first = panel.subjects[0]
        zeroed = dataclasses.replace(
            first, observations=np.vstack([first.observations[:-1], np.zeros(panel.d)])
        )
        panel = panel_from_subjects(
            (zeroed,) + panel.subjects[1:], standardization=panel.standardization
        )
        grid = (1.5, 3.0, 100.0)
        chosen = cross_validate_c(panel, grid, folds=5, seed=0)
        assert chosen == cross_validate_c_cold(panel, grid, folds=5, seed=0)


class TestExperimentSpec:
    def test_defaults_follow_reported_grids(self):
        spec = ExperimentSpec()
        assert spec.c_grid == (1.5, 3.0, 5.0, 10.0, 20.0, 100.0)
        assert spec.label_ratios == (0.1, 0.2, 0.5)
        assert spec.train_ratios == (0.3, 0.5, 0.7)
        assert spec.rejection_rates == (0.2, 0.4, 0.6)
        assert spec.n_seeds == 20
        assert spec.cv_folds == 10
        assert spec.sim.label_observed_fraction == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(label_ratios=(0.0,))
        with pytest.raises(ValueError):
            ExperimentSpec(rejection_rates=(1.0,))
        with pytest.raises(ValueError):
            ExperimentSpec(baselines=("nope",))
        with pytest.raises(ValueError):
            ExperimentSpec(c_policy="random")
        with pytest.raises(ValueError):
            ExperimentSpec(sim=None, panel_csv=None)
        # None would make the fixed cell cross-validate while logging "None"
        with pytest.raises(ValueError, match="fixed_c must be a real number, got None"):
            ExperimentSpec(c_policy=C_POLICY_FIXED, fixed_c=None)

    def test_json_round_trip(self, tmp_path):
        spec = tiny_spec(chi_hyper=ChiHyperparams(alpha=2.0))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        again = ExperimentSpec.from_json(path)
        assert again == spec


class TestRunPipeline:
    def test_deterministic_output(self):
        spec = tiny_spec()
        first = run_pipeline(spec)
        second = run_pipeline(spec)
        assert first.table.to_csv_text() == second.table.to_csv_text()
        assert json.dumps(list(first.runs)) == json.dumps(list(second.runs))

    def test_row_structure_and_bounds(self):
        spec = tiny_spec()
        result = run_pipeline(spec)
        keys = {
            (r.method, r.rejection_rate, r.c_key) for r in result.table.rows
        }
        assert ("uqchi", 0.0, repr(1.5)) in keys
        assert ("uqchi", 0.4, repr(1.5)) in keys
        assert ("chi", 0.0, "") in keys
        for row in result.table.rows:
            if row.mean_accuracy is not None:
                assert 0.0 <= row.mean_accuracy <= 1.0
                assert row.std_accuracy >= 0.0
            assert row.n_seeds <= spec.n_seeds

    def test_sweep_policy_emits_one_row_per_c(self):
        spec = tiny_spec(c_policy=C_POLICY_SWEEP, c_grid=(1.5, 5.0), rejection_rates=(0.2,))
        result = run_pipeline(spec)
        uq = [r for r in result.table.rows if r.method == "uqchi"]
        assert {r.c_key for r in uq} == {repr(1.5), repr(5.0)}

    def test_abstention_counts_nest_per_seed(self):
        spec = tiny_spec(rejection_rates=(0.0, 0.2, 0.6))
        result = run_pipeline(spec)
        per_seed = {}
        for run in result.runs:
            if run["method"] == "uqchi" and run["error"] is None:
                per_seed.setdefault(run["seed_index"], {})[run["rejection_rate"]] = run[
                    "abstained"
                ]
            assert run["method"] in ("uqchi", "chi")
        for counts in per_seed.values():
            assert counts[0.0] <= counts[0.2] <= counts[0.6]

    def test_failed_cells_recorded_not_fatal(self):
        # masking 90% of a 10-subject training split leaves one label, and the
        # 3-fold CV of chi hyper... chi training still works with one label;
        # force failure instead with an empty-label split via label ratio 0.95
        spec = tiny_spec(
            sim=SimConfig(
                d=4,
                n_per_class=5,
                degradation_rate=0.5,
                informative_k=2,
                label_observed_fraction=1.0,
            ),
            label_ratios=(0.95,),
            train_ratios=(0.5,),
            n_seeds=2,
            baselines=("chi",),
        )
        result = run_pipeline(spec)
        (row,) = result.table.rows
        assert row.n_failed == 2
        assert row.mean_accuracy is None
        errors = [r["error"] for r in result.runs]
        assert all(e is not None for e in errors)

    def test_failed_uqchi_cells_recorded_not_fatal(self, monkeypatch):
        # every dual solve the harness makes (solve_dual in training,
        # solve_folds in cross-validation) raises NonConvergence carrying a
        # partial solution, as the solver does when it cannot certify, so
        # every uqchi cell fails; chi does not use the dual solver
        (expected,) = [r for r in run_pipeline(tiny_spec()).table.rows if r.method == "chi"]

        def uncertified_solve(problem, *args, **kwargs):
            partial = DualSolution(
                lam=np.zeros(problem.n_subjects),
                objective=0.0,
                grad_norm=1.0,
                iterations=0,
                converged=False,
            )
            raise NonConvergence("projected gradient norm 1.000e+00", solution=partial)

        monkeypatch.setattr(harness, "solve_dual", uncertified_solve)
        monkeypatch.setattr(harness, "solve_folds", uncertified_solve)
        spec = tiny_spec()
        result = run_pipeline(spec)
        uq_runs = [r for r in result.runs if r["method"] == "uqchi"]
        assert len(uq_runs) == spec.n_seeds * len(spec.rejection_rates)
        for run in uq_runs:
            assert run["error"].startswith("NonConvergence")
            assert run["chosen_c"] is None and run["accuracy"] is None
        for i in range(spec.n_seeds):
            rates = [r["rejection_rate"] for r in uq_runs if r["seed_index"] == i]
            assert rates == list(spec.rejection_rates)
        uq_rows = [r for r in result.table.rows if r.method == "uqchi"]
        assert len(uq_rows) == len(spec.rejection_rates)
        for row in uq_rows:
            assert row.n_failed == spec.n_seeds and row.n_seeds == 0
            assert row.mean_accuracy is None and row.std_accuracy is None
            assert row.mean_abstained is None
        (chi_row,) = [r for r in result.table.rows if r.method == "chi"]
        assert chi_row == expected and chi_row.n_failed == 0

    def test_table_recomputable_from_runs(self):
        spec = tiny_spec(n_seeds=4)
        result = run_pipeline(spec)
        for row in result.table.rows:
            matching = [
                r["accuracy"]
                for r in result.runs
                if (r["method"], r["label_ratio"], r["train_ratio"], r["rejection_rate"], r["c"])
                == (row.method, row.label_ratio, row.train_ratio, row.rejection_rate, row.c_key)
                and r["error"] is None
                and r["accuracy"] is not None
            ]
            assert len(matching) == row.n_seeds
            if matching:
                assert row.mean_accuracy == pytest.approx(float(np.mean(matching)))
                expected_std = float(np.std(matching, ddof=1)) if len(matching) > 1 else 0.0
                assert row.std_accuracy == pytest.approx(expected_std)

    def test_csv_source(self, tmp_path):
        from healthindex.simulator import simulate_to_files

        config = SimConfig(
            d=5,
            n_per_class=10,
            degradation_rate=0.6,
            informative_k=2,
            label_observed_fraction=1.0,
            seed=7,
        )
        path = tmp_path / "panel.csv"
        simulate_to_files(config, path)
        spec = tiny_spec(sim=None, panel_csv=str(path), n_seeds=2)
        result = run_pipeline(spec)
        assert any(r.mean_accuracy is not None for r in result.table.rows)

    def test_csv_source_rejects_among_scored_subjects_only(self, tmp_path):
        """A CSV panel's unlabeled test subjects are not scored, and rate
        rejection counts only the scored ones: floor(rate * labeled test
        subjects) abstentions per run."""
        from healthindex.panel import load_panel, split_and_mask
        from healthindex.simulator import simulate_to_files

        config = SimConfig(
            d=5,
            n_per_class=10,
            degradation_rate=0.6,
            informative_k=2,
            label_observed_fraction=0.5,
            seed=7,
        )
        path = tmp_path / "panel.csv"
        simulate_to_files(config, path)
        spec = tiny_spec(
            sim=None,
            panel_csv=str(path),
            n_seeds=4,
            baselines=("uqchi",),
            rejection_rates=(0.0, 0.4),
        )
        panel = load_panel(path)
        runs = [r for r in run_pipeline(spec).runs if r["method"] == "uqchi"]
        assert len(runs) == 8
        for run in runs:
            assert run["error"] is None
            _, test = split_and_mask(
                panel,
                run["train_ratio"],
                run["label_ratio"],
                spec.seed + run["seed_index"] + harness._SPLIT_SEED_OFFSET,
            )
            n_scored = int(np.count_nonzero(test.labels))
            assert n_scored < test.n_subjects
            assert run["abstained"] == int(np.floor(run["rejection_rate"] * n_scored))

    def test_no_scored_test_subject_logs_no_accuracy(self, tmp_path):
        """A split whose test side holds no labeled subject logs accuracy
        None and 0 abstained for both methods, with no error."""
        from healthindex.simulator import simulate_to_files

        config = SimConfig(
            d=4, n_per_class=5, informative_k=2, label_observed_fraction=0.2, seed=1
        )
        path = tmp_path / "panel.csv"
        simulate_to_files(config, path)
        spec = tiny_spec(sim=None, panel_csv=str(path), n_seeds=6)
        first = [r for r in run_pipeline(spec).runs if r["seed_index"] == 0]
        assert {r["method"] for r in first} == {"uqchi", "chi"}
        for run in first:
            assert (run["error"], run["accuracy"], run["abstained"]) == (None, None, 0)
        assert [r["chosen_c"] for r in first if r["method"] == "uqchi"] == [1.5, 1.5]

    @pytest.mark.parametrize("source", ["csv", "sim"])
    def test_each_source_read_once(self, tmp_path, monkeypatch, source):
        """The CSV is read once per sweep and each seed's panel simulated
        once, through the names a tracer wraps."""
        from healthindex import harness
        from healthindex.simulator import simulate_to_files

        calls = []

        def counted(name, original):
            def call(arg):
                calls.append((name, arg))
                return original(arg)
            return call

        for name in ("load_panel", "simulate"):
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        spec = tiny_spec(train_ratios=(0.5, 0.7), label_ratios=(0.2, 0.5), n_seeds=2)
        if source == "csv":
            path = tmp_path / "panel.csv"
            simulate_to_files(spec.sim, path)
            spec = dataclasses.replace(spec, sim=None, panel_csv=str(path))
        run_pipeline(spec)
        if source == "csv":
            assert calls == [("load_panel", str(path))]
        else:
            assert [(name, arg.seed) for name, arg in calls] == [("simulate", 0), ("simulate", 1)]


class TestNoSignalFloor:
    def test_zero_drift_accuracy_near_chance(self):
        spec = tiny_spec(
            sim=SimConfig(
                d=6,
                n_per_class=12,
                degradation_rate=0.0,
                informative_k=3,
                label_observed_fraction=1.0,
                seed=0,
            ),
            rejection_rates=(0.0,),
            n_seeds=50,
            chi_steps=80,
        )
        result = run_pipeline(spec)
        for row in result.table.rows:
            assert 0.4 <= row.mean_accuracy <= 0.6, (row.method, row.mean_accuracy)


class TestDefaultSimConfig:
    def test_fully_labeled_for_split_masking(self):
        assert default_sim_config().label_observed_fraction == 1.0
        assert default_sim_config().d == 90
