import math

import numpy as np
import pytest

from oracles import (
    central_diff_gradient,
    dual_value_grid_2d,
    importance_sampled_mean,
    mc_log_mean_exp,
)

from healthindex.errors import (
    DegenerateProblem,
    DimensionMismatch,
    DomainError,
    NonConvergence,
)
from healthindex.med_core import (
    DualProblem,
    DualSolution,
    WeightPosterior,
    dual_gradient,
    dual_objective,
    log_partition,
    model_payload,
    posterior,
    posterior_from_payload,
    potential_vector,
    projected_gradient,
    solve_dual,
)

# frozen by hand: 0.5*0.25 - 0.5 - log(0.75) for the one-subject fixture
SCALAR_LOG_PARTITION = -0.0873179275482191
# root of lam^2 - 3 lam + 1 = 0 inside [0, 2)
GOLDEN_LAMBDA = 0.3819660112501051


def random_problem(rng, n=5, d=3, c=2.0):
    return DualProblem(rng.normal(size=(n, d)), c)


def interior_lambda(rng, problem):
    return rng.uniform(0.0, 0.9) * problem.c * rng.uniform(0.05, 0.95, problem.n_subjects)


def assert_kkt_certificate(problem, solution, tol):
    grad = dual_gradient(solution.lam, problem)
    for lam_n, g_n in zip(solution.lam, grad):
        if lam_n <= 0.0:
            assert g_n <= tol
        else:
            assert abs(g_n) <= tol


class TestPotentialVector:
    def test_zero_multipliers_give_zero(self):
        agg = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(potential_vector([0.0, 0.0], agg), [0.0, 0.0])

    def test_unit_multipliers_sum_rows(self):
        agg = np.array([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(potential_vector([1.0, 1.0], agg), [1.0, 2.0])

    def test_weighted_combination(self):
        agg = np.array([[2.0, -1.0], [1.0, 1.0]])
        np.testing.assert_allclose(potential_vector([0.5, 2.0], agg), [3.0, 1.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            potential_vector([1.0], np.ones((2, 2)))


class TestLogPartition:
    def test_zero_lambda_is_zero(self):
        problem = DualProblem(np.ones((3, 2)), c=2.0)
        assert log_partition(np.zeros(3), problem) == 0.0

    def test_scalar_fixture(self):
        problem = DualProblem(np.array([[1.0]]), c=2.0)
        value = log_partition(np.array([0.5]), problem)
        assert value == pytest.approx(SCALAR_LOG_PARTITION, abs=1e-14)

    def test_monte_carlo_gaussian_integral(self):
        # the quadratic term is log E[exp(w.v)] under the standard normal prior
        rng = np.random.default_rng(11)
        for seed in range(3):
            d = int(rng.integers(1, 4))
            v = rng.normal(size=d)
            v *= rng.uniform(0.5, 1.5) / np.linalg.norm(v)
            estimate = mc_log_mean_exp(v, n_draws=400_000, seed=seed)
            assert estimate == pytest.approx(0.5 * v @ v, rel=0.02)

    def test_domain_error_at_c(self):
        problem = DualProblem(np.ones((1, 1)), c=2.0)
        with pytest.raises(DomainError):
            log_partition(np.array([2.0]), problem)
        with pytest.raises(DomainError):
            log_partition(np.array([-0.1]), problem)


class TestDualObjective:
    def test_zero_lambda_is_zero(self):
        problem = DualProblem(np.ones((4, 3)), c=3.0)
        assert dual_objective(np.zeros(4), problem) == 0.0

    def test_scalar_fixture(self):
        problem = DualProblem(np.array([[1.0]]), c=2.0)
        value = dual_objective(np.array([0.5]), problem)
        assert value == pytest.approx(-SCALAR_LOG_PARTITION, abs=1e-14)

    def test_negated_log_partition_identity(self):
        rng = np.random.default_rng(5)
        problem = random_problem(rng, n=6, d=4, c=2.5)
        for _ in range(200):
            lam = interior_lambda(rng, problem)
            j = dual_objective(lam, problem)
            z = log_partition(lam, problem)
            assert j == pytest.approx(-z, rel=1e-12, abs=1e-12)

    def test_diverges_monotonically_at_upper_bound(self):
        problem = DualProblem(np.array([[0.3]]), c=2.0)
        lams = 2.0 * (1.0 - np.logspace(-1, -12, 12))
        values = [dual_objective(np.array([l]), problem) for l in lams]
        assert np.all(np.diff(values) < 0)
        assert values[-1] < -20

    def test_concavity_chords(self):
        rng = np.random.default_rng(17)
        problem = random_problem(rng, n=5, d=3, c=2.0)
        for _ in range(300):
            lam_a = interior_lambda(rng, problem)
            lam_b = interior_lambda(rng, problem)
            theta = rng.uniform()
            mix = theta * lam_a + (1 - theta) * lam_b
            lhs = dual_objective(mix, problem)
            rhs = theta * dual_objective(lam_a, problem) + (1 - theta) * dual_objective(
                lam_b, problem
            )
            assert lhs >= rhs - 1e-9


class TestDualGradient:
    def test_zero_lambda_components(self):
        problem = DualProblem(np.ones((3, 2)), c=4.0)
        np.testing.assert_allclose(
            dual_gradient(np.zeros(3), problem), np.full(3, 1.0 - 0.25)
        )

    def test_scalar_fixture(self):
        problem = DualProblem(np.array([[1.0]]), c=2.0)
        value = dual_gradient(np.array([0.5]), problem)
        np.testing.assert_allclose(value, [1.0 - 1.0 / 1.5 - 0.5])

    def test_matches_central_differences(self):
        rng = np.random.default_rng(23)
        problem = random_problem(rng, n=5, d=3, c=2.0)
        lam = interior_lambda(rng, problem)
        analytic = dual_gradient(lam, problem)
        numeric = central_diff_gradient(lambda l: dual_objective(l, problem), lam)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-6)


class TestSolveDual:
    def test_barrier_only_solution(self):
        problem = DualProblem(np.zeros((4, 2)), c=3.0)
        solution = solve_dual(problem)
        assert solution.converged
        np.testing.assert_allclose(solution.lam, np.full(4, 2.0), atol=1e-8)

    def test_scale_property_zeroed_aggregates(self):
        rng = np.random.default_rng(2)
        agg = rng.normal(size=(5, 3)) * 0.0
        solution = solve_dual(DualProblem(agg, c=1.5))
        np.testing.assert_allclose(solution.lam, np.full(5, 0.5), atol=1e-8)

    def test_single_subject_closed_form(self):
        problem = DualProblem(np.array([[1.0]]), c=2.0)
        solution = solve_dual(problem)
        assert solution.lam[0] == pytest.approx(GOLDEN_LAMBDA, abs=1e-8)

    def test_two_subject_grid_search_oracle(self):
        rng = np.random.default_rng(31)
        for c in (1.5, 3.0):
            agg = rng.normal(size=(2, 2))
            problem = DualProblem(agg, c=c)
            solution = solve_dual(problem)
            lam_ref, value_ref = dual_value_grid_2d(agg, c)
            assert solution.objective == pytest.approx(value_ref, abs=1e-6)
            np.testing.assert_allclose(solution.lam, lam_ref, atol=1e-3)

    def test_kkt_certificate(self):
        rng = np.random.default_rng(41)
        tol = 1e-8
        for _ in range(20):
            problem = random_problem(
                rng, n=int(rng.integers(1, 8)), d=int(rng.integers(1, 5)), c=2.0
            )
            assert_kkt_certificate(problem, solve_dual(problem, tol=tol), tol)

    def test_stored_objective_matches_reevaluation(self):
        rng = np.random.default_rng(67)
        problem = random_problem(rng)
        solution = solve_dual(problem)
        assert solution.objective == pytest.approx(
            dual_objective(solution.lam, problem), rel=1e-12
        )

    def test_degenerate_problem_rejected(self):
        with pytest.warns(UserWarning):
            problem = DualProblem(np.zeros((3, 2)), c=0.8)
        with pytest.raises(DegenerateProblem):
            solve_dual(problem)

    def test_nonconvergence_raises_with_diagnostics(self):
        rng = np.random.default_rng(71)
        problem = random_problem(rng, n=6, d=3, c=2.0)
        with pytest.raises(NonConvergence) as excinfo:
            solve_dual(problem, tol=1e-300, max_iter=2)
        partial = excinfo.value.solution
        assert partial is not None and not partial.converged
        assert partial.grad_norm > 0

    def test_hopeless_scale_gives_up_quickly(self):
        # at |a| ~ 1e6 with N > d the 1e-8 certificate is out of reach; the
        # solver must say so after a bounded number of steps
        agg = np.random.default_rng(7).normal(size=(30, 5)) * 1e6
        with pytest.raises(NonConvergence) as excinfo:
            solve_dual(DualProblem(agg, c=2.0))
        assert excinfo.value.solution.iterations < 1000


def _gaussian(shape, scale=1.0, c=2.0, seed=7):
    return lambda: (np.random.default_rng(seed).normal(size=shape) * scale, c)


def _repeated_rows():
    rows = np.random.default_rng(5).normal(size=(2, 3))
    return np.repeat(rows, 5, axis=0), 2.0


SOLVER_FIXTURES = {
    "2000x90-c1.5": _gaussian((2000, 90), 0.3, c=1.5, seed=0),
    # at c=3 the Armijo test alone stalls at a projected-gradient norm of 2e-6
    # once J's per-step gains fall below its float resolution
    "2000x90-c3": _gaussian((2000, 90), 0.3, c=3.0, seed=0),
    "2000x90-c100": _gaussian((2000, 90), 0.3, c=100.0, seed=0),
    **{
        f"{n}x{d}-scale{scale:g}": _gaussian((n, d), scale)
        for n, d in ((30, 5), (5, 30))
        for scale in (1e-6, 1e-3, 1e3)
    },
    "5x30-scale1e+06": _gaussian((5, 30), 1e6),
    "1x1-c1+1e-9": _gaussian((1, 1), c=1.0 + 1e-9, seed=11),
    "20x4-c1.0001": _gaussian((20, 4), c=1.0001, seed=13),
    "10x3-repeated-rows": _repeated_rows,
}


@pytest.mark.parametrize("name", sorted(SOLVER_FIXTURES))
def test_solver_fixture_kkt_certificate(name):
    agg, c = SOLVER_FIXTURES[name]()
    problem = DualProblem(agg, c)
    assert_kkt_certificate(problem, solve_dual(problem, tol=1e-8), tol=1e-8)


class TestPosterior:
    def test_zero_multipliers_recover_prior(self):
        problem = DualProblem(np.ones((2, 3)), c=2.0)
        solution = DualSolution(
            lam=np.zeros(2), objective=0.0, grad_norm=0.0, iterations=0, converged=True
        )
        post = posterior(solution, problem)
        np.testing.assert_array_equal(post.mean, np.zeros(3))

    def test_single_subject_linearity(self):
        problem = DualProblem(np.array([[1.0, 0.0]]), c=2.0)
        solution = DualSolution(
            lam=np.array([0.4]), objective=0.0, grad_norm=0.0, iterations=1, converged=True
        )
        np.testing.assert_allclose(posterior(solution, problem).mean, [0.4, 0.0])

    def test_refuses_unconverged_without_force(self):
        problem = DualProblem(np.ones((1, 1)), c=2.0)
        bad = DualSolution(
            lam=np.array([0.1]), objective=0.0, grad_norm=1.0, iterations=5, converged=False
        )
        with pytest.raises(NonConvergence):
            posterior(bad, problem)
        forced = posterior(bad, problem, force=True)
        np.testing.assert_allclose(forced.mean, [0.1])

    def test_importance_sampling_oracle(self):
        rng = np.random.default_rng(83)
        problem = DualProblem(rng.normal(size=(3, 2)), c=2.0)
        solution = solve_dual(problem)
        post = posterior(solution, problem)
        mean_est, se = importance_sampled_mean(post.mean, n_draws=100_000, seed=7)
        np.testing.assert_array_less(np.abs(mean_est - post.mean), 3 * se + 1e-12)


class TestModelPayload:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(97)
        problem = DualProblem(rng.normal(size=(4, 3)), c=5.0)
        solution = solve_dual(problem)
        payload = model_payload(problem, solution, standardization_dict={"mean": [0.0] * 3, "scale": [1.0] * 3})
        path = tmp_path / "model.json"
        from healthindex.med_core import load_model, save_model

        save_model(path, payload)
        loaded = load_model(path)
        post = posterior_from_payload(loaded)
        np.testing.assert_allclose(post.mean, posterior(solution, problem).mean)
        assert loaded["c"] == 5.0
        assert loaded["convergence"]["converged"] is True


class TestProjectedGradient:
    def test_blocks_descent_out_of_box(self):
        lam = np.array([0.0, 0.5, 1.0])
        grad = np.array([-1.0, -1.0, 1.0])
        pg = projected_gradient(lam, grad, upper=1.0)
        np.testing.assert_array_equal(pg, [0.0, -1.0, 0.0])
