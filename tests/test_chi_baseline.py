import numpy as np
import pytest

from oracles import (
    Series,
    central_diff_gradient,
    chi_design_per_term,
    chi_evaluate_per_term,
    chi_train_per_term,
    panel_from_subjects,
)

from healthindex.chi_baseline import (
    ChiHyperparams,
    ChiModel,
    _build_design,
    _evaluate,
    chi_objective,
    chi_predict,
    chi_train,
    model_from_payload,
    model_payload,
)
from healthindex.errors import DimensionMismatch, NonFiniteObjective
from healthindex.panel import standardize
from healthindex.simulator import SimConfig, simulate


def series(rows, sid="s", label=None):
    obs = np.asarray(rows, dtype=float)
    return Series(sid, np.arange(1, obs.shape[0] + 1), obs, label)


def toy_panel():
    """Separable 1-d panel: both classes improve by +1 per visit, terminal
    visits sit at +2 and -2."""
    return panel_from_subjects(
        (
            series([[1.0], [2.0]], "pos", label=1),
            series([[-3.0], [-2.0]], "neg", label=-1),
        )
    )


def random_labeled_panel(rng, n_subjects=6, d=3):
    subjects = []
    for i in range(n_subjects):
        n_visits = int(rng.integers(2, 5))
        label = 1 if i % 2 == 0 else -1
        drift = 0.3 * label * np.arange(n_visits)[:, None]
        obs = rng.normal(size=(n_visits, d)) + drift
        subjects.append(series(obs, f"s{i}", label=label))
    return panel_from_subjects(tuple(subjects))


class TestHyperparams:
    @pytest.mark.parametrize("field", ["alpha", "beta", "lambda_var", "gamma_l1"])
    @pytest.mark.parametrize(
        "value", ["0.1", None, True, np.bool_(True), float("nan"), float("inf"), -np.inf, -0.5]
    )
    def test_bad_weight_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ChiHyperparams(**{field: value})

    @pytest.mark.parametrize("value", [0, 2, 0.0, np.float64(1.5), np.int64(3)])
    def test_real_weights_accepted(self, value):
        assert ChiHyperparams(alpha=value).alpha == value


class TestObjective:
    def test_zero_model_value(self):
        panel = random_labeled_panel(np.random.default_rng(1))
        hyper = ChiHyperparams(alpha=2.0, beta=3.0, lambda_var=1.0, gamma_l1=1.0)
        n_labeled = sum(1 for s in panel.subjects if s.label is not None)
        n_diffs = sum(s.n_visits - 1 for s in panel.subjects)
        value = chi_objective(ChiModel(np.zeros(panel.d), 0.0), panel, hyper)
        assert value == pytest.approx(3.0 * n_labeled + 2.0 * n_diffs)

    def test_ridge_isolation(self):
        panel = toy_panel()
        hyper = ChiHyperparams(alpha=0.0, beta=0.0, lambda_var=0.0, gamma_l1=0.0)
        w = np.array([1.5])
        value = chi_objective(ChiModel(w, 0.7), panel, hyper)
        assert value == pytest.approx(0.5 * 1.5**2)

    def test_single_class_skips_missing_variance_term(self):
        panel = panel_from_subjects(
            (
                series([[1.0], [2.0]], "a", label=1),
                series([[0.5], [1.5]], "b", label=1),
            )
        )
        hyper = ChiHyperparams(alpha=0.0, beta=0.0, lambda_var=4.0, gamma_l1=0.0)
        value = chi_objective(ChiModel(np.array([1.0]), 0.0), panel, hyper)
        # only the ridge and the positive-class variance around center 1.75
        expected = 0.5 + 0.5 * 4.0 * (0.25**2 + 0.25**2) / 2
        assert value == pytest.approx(expected)

    def test_unlabeled_subjects_touch_only_monotone_term(self):
        rng = np.random.default_rng(2)
        base = random_labeled_panel(rng)
        extra = series(rng.normal(size=(3, base.d)), "unlab", label=None)
        grown = panel_from_subjects(base.subjects + (extra,))
        hyper_no_mono = ChiHyperparams(alpha=0.0, beta=1.0, lambda_var=1.0, gamma_l1=1.0)
        model = ChiModel(rng.normal(size=base.d), 0.3)
        assert chi_objective(model, grown, hyper_no_mono) == pytest.approx(
            chi_objective(model, base, hyper_no_mono)
        )
        hyper_mono = ChiHyperparams(alpha=5.0, beta=0.0, lambda_var=0.0, gamma_l1=0.0)
        assert chi_objective(model, grown, hyper_mono) >= chi_objective(
            model, base, hyper_mono
        ) - 1e-12

    def test_convexity_chords(self):
        rng = np.random.default_rng(3)
        panel = random_labeled_panel(rng)
        hyper = ChiHyperparams(alpha=1.0, beta=2.0, lambda_var=0.5, gamma_l1=0.3)
        for _ in range(300):
            w1, w2 = rng.normal(size=(2, panel.d)) * 2
            b1, b2 = rng.normal(size=2)
            theta = rng.uniform()
            mix = chi_objective(
                ChiModel(theta * w1 + (1 - theta) * w2, theta * b1 + (1 - theta) * b2),
                panel,
                hyper,
            )
            ends = theta * chi_objective(ChiModel(w1, b1), panel, hyper) + (
                1 - theta
            ) * chi_objective(ChiModel(w2, b2), panel, hyper)
            assert mix <= ends + 1e-9

    def test_gradient_matches_finite_differences_at_smooth_points(self):
        rng = np.random.default_rng(4)
        panel = random_labeled_panel(rng)
        hyper = ChiHyperparams(alpha=0.7, beta=1.3, lambda_var=0.9, gamma_l1=0.2)
        checked = 0
        while checked < 20:
            w = rng.normal(size=panel.d) * 0.8
            b = float(rng.normal())
            if _near_kink(panel, w, b) or np.any(np.abs(w) < 1e-3):
                continue
            point = np.concatenate([w, [b]])

            def full(p):
                return chi_objective(ChiModel(p[:-1], p[-1]), panel, hyper)

            numeric = central_diff_gradient(full, point, h=1e-7)
            _, grad = _evaluate(_build_design(panel, hyper), point)
            analytic = grad + np.append(hyper.gamma_l1 * np.sign(w), 0.0)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-5)
            checked += 1


def _near_kink(panel, w, b, margin=1e-4):
    for s in panel.subjects:
        if s.label is not None:
            if abs(1.0 - s.label * (s.observations[-1] @ w + b)) < margin:
                return True
        if s.n_visits > 1:
            if np.any(np.abs(1.0 - np.diff(s.observations, axis=0) @ w) < margin):
                return True
    return False


def _single_class_panel():
    rng = np.random.default_rng(21)
    return panel_from_subjects(
        tuple(series(rng.normal(size=(i % 3 + 1, 3)), f"p{i}", label=1) for i in range(5))
    )


def _single_visit_panel():
    rng = np.random.default_rng(22)
    return panel_from_subjects(
        tuple(series(rng.normal(size=(1, 3)), f"s{i}", label=1 - 2 * (i % 2)) for i in range(6))
    )


def _partly_unlabeled_panel():
    rng = np.random.default_rng(23)
    base = random_labeled_panel(rng, n_subjects=7, d=4)
    extra = tuple(series(rng.normal(size=(3, 4)), f"u{i}") for i in range(4))
    return panel_from_subjects(base.subjects + extra)


ORACLE_PANELS = {
    "random": lambda: random_labeled_panel(np.random.default_rng(24), n_subjects=9, d=5),
    "single-class": _single_class_panel,
    "no-multi-visit": _single_visit_panel,
    "partly-unlabeled": _partly_unlabeled_panel,
}


class TestPerTermOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_PANELS))
    def test_value_and_subgradient_match(self, name):
        """The stacked-matrix evaluation in theta = (w, b) agrees with the
        per-term one at random points and term weights."""
        panel = ORACLE_PANELS[name]()
        reference_design = chi_design_per_term(panel)
        rng = np.random.default_rng(25)
        for _ in range(25):
            hyper = ChiHyperparams(*rng.uniform(0.0, 3.0, size=4))
            w = rng.normal(size=panel.d)
            b = float(rng.normal())
            value, grad = _evaluate(_build_design(panel, hyper), np.append(w, b))
            ref_value, ref_g_w, ref_g_b = chi_evaluate_per_term(reference_design, w, b, hyper)
            assert value == pytest.approx(ref_value, rel=1e-12)
            np.testing.assert_allclose(grad, np.append(ref_g_w, ref_g_b), rtol=1e-12)

    def test_training_matches_per_term_trainer(self):
        panel = standardize(simulate(SimConfig(seed=0))[0])
        hyper = ChiHyperparams()
        model = chi_train(panel, hyper)
        ref_w, ref_b = chi_train_per_term(panel, hyper)
        np.testing.assert_allclose(model.w, ref_w, rtol=0.0, atol=1e-12)
        assert model.b == pytest.approx(ref_b, rel=0.0, abs=1e-12)


class TestTraining:
    def test_separable_toy_learns_positive_weight(self):
        panel = toy_panel()
        hyper = ChiHyperparams(alpha=1.0, beta=1.0, lambda_var=0.0, gamma_l1=0.0)
        model = chi_train(panel, hyper, steps=600, step_size=0.2)
        assert model.w[0] > 0

        # independent 2-d grid search over (w, b) confirms the sign and that
        # training reached a comparable objective; the objective is written
        # out from the panel for the whole grid at once (each class holds one
        # labeled subject, so the variance term is zero)
        grid_w = np.linspace(-3, 3, 301)
        grid_b = np.linspace(-3, 3, 301)
        terminals = np.array([s.observations[-1][0] for s in panel.subjects])
        labels = np.array([s.label for s in panel.subjects], dtype=float)
        diffs = np.concatenate([np.diff(s.observations, axis=0)[:, 0] for s in panel.subjects])
        w = grid_w[:, None, None]
        b = grid_b[None, :, None]
        values = (
            0.5 * w[..., 0] ** 2
            + hyper.beta * np.maximum(0.0, 1.0 - labels * (terminals * w + b)).sum(-1)
            + hyper.alpha * np.maximum(0.0, 1.0 - diffs * w).sum(-1)
            + hyper.gamma_l1 * np.abs(w[..., 0])
        )
        i_best, j_best = np.unravel_index(np.argmin(values), values.shape)
        for i, j in ((0, 0), (150, 150), (300, 17), (42, 260), (i_best, j_best)):
            exact = chi_objective(ChiModel(grid_w[i : i + 1], grid_b[j]), panel, hyper)
            assert values[i, j] == pytest.approx(exact, abs=1e-12)
        assert grid_w[i_best] > 0
        trained = chi_objective(model, panel, hyper)
        assert trained <= values[i_best, j_best] + 0.05

    def test_zero_hyper_keeps_zero_weights(self):
        panel = toy_panel()
        hyper = ChiHyperparams(alpha=0.0, beta=0.0, lambda_var=0.0, gamma_l1=0.0)
        model = chi_train(panel, hyper, steps=200, step_size=0.1)
        assert np.linalg.norm(model.w) <= 1e-3

    def test_heavy_l1_shrinks_everything(self):
        rng = np.random.default_rng(5)
        panel = random_labeled_panel(rng)
        hyper = ChiHyperparams(alpha=1.0, beta=1.0, lambda_var=0.1, gamma_l1=1e3)
        model = chi_train(panel, hyper, steps=300, step_size=0.01)
        assert np.abs(model.w).sum() <= 1e-6

    def test_never_worse_than_zero_model(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            panel = random_labeled_panel(np.random.default_rng(seed))
            hyper = ChiHyperparams()
            model = chi_train(panel, hyper, steps=150, step_size=0.05)
            zero = chi_objective(ChiModel(np.zeros(panel.d), 0.0), panel, hyper)
            assert chi_objective(model, panel, hyper) <= zero + 1e-12

    def test_deterministic(self):
        panel = random_labeled_panel(np.random.default_rng(7))
        a = chi_train(panel, steps=100, step_size=0.05)
        b = chi_train(panel, steps=100, step_size=0.05)
        np.testing.assert_array_equal(a.w, b.w)
        assert a.b == b.b

    def test_unlabeled_only_panel_rejected(self):
        panel = panel_from_subjects((series([[1.0], [2.0]], "u"),))
        with pytest.raises(ValueError):
            chi_train(panel)

    def test_divergent_step_raises(self):
        panel = random_labeled_panel(np.random.default_rng(8))
        with pytest.raises(NonFiniteObjective):
            chi_train(panel, steps=400, step_size=1e150)

    def test_alpha_reduces_monotonicity_violations(self):
        """Stronger monotone pressure never raises the mean violation count."""
        alphas = (0.0, 1.0, 10.0)
        totals = {a: [] for a in alphas}
        for seed in range(12):
            rng = np.random.default_rng(100 + seed)
            subjects = []
            for i in range(8):
                n_visits = int(rng.integers(3, 6))
                label = 1 if i % 2 == 0 else -1
                obs = rng.normal(size=(n_visits, 2)).cumsum(axis=0)
                obs[-1] += label * 2.0
                subjects.append(series(obs, f"s{i}", label=label))
            panel = panel_from_subjects(tuple(subjects))
            for alpha in alphas:
                hyper = ChiHyperparams(alpha=alpha, beta=1.0, lambda_var=0.0, gamma_l1=0.0)
                model = chi_train(panel, hyper, steps=300, step_size=0.05)
                count = 0
                for s in panel.subjects:
                    if s.n_visits > 1:
                        count += int(np.sum(np.diff(s.observations, axis=0) @ model.w < 0))
                totals[alpha].append(count)
        means = [np.mean(totals[a]) for a in alphas]
        assert means[1] <= means[0] + 1e-9
        assert means[2] <= means[1] + 1e-9


class TestPredict:
    def test_affine_decision(self):
        model = ChiModel(np.array([1.0, 0.0]), -1.0)
        assert chi_predict(model, [2.0, 5.0]) == 1

    def test_zero_model_ties_positive(self):
        model = ChiModel(np.zeros(2), 0.0)
        assert chi_predict(model, [1.0, -1.0]) == 1

    def test_negative_score(self):
        model = ChiModel(np.array([1.0]), 0.0)
        assert chi_predict(model, [-0.5]) == -1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            chi_predict(ChiModel(np.ones(2), 0.0), [1.0])


class TestPayload:
    def test_round_trip(self):
        model = ChiModel(np.array([0.5, -0.25]), 1.5)
        hyper = ChiHyperparams(alpha=2.0)
        payload = model_payload(model, hyper, {"mean": [0.0, 0.0], "scale": [1.0, 1.0]})
        again = model_from_payload(payload)
        np.testing.assert_array_equal(again.w, model.w)
        assert again.b == model.b
        assert payload["hyper"]["alpha"] == 2.0
