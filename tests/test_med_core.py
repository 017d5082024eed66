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
from healthindex.harness import ExperimentSpec
from healthindex.med_core import (
    DECREMENT_ULPS,
    DEFAULT_TOL,
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
    solve_folds,
    _presolve_folds,
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


class TestDualProblem:
    @pytest.mark.parametrize(
        "rows, bad_row",
        [
            ([[math.nan, 1.0], [1.0, 2.0]], 0),
            ([[1.0, 2.0], [math.inf, 1.0], [-math.inf, 0.0]], 1),
        ],
    )
    def test_non_finite_aggregates_rejected(self, rows, bad_row):
        with pytest.raises(DomainError, match=f"row {bad_row} "):
            DualProblem(np.array(rows), c=2.0)

    def test_c_at_most_one_warning_names_its_caller(self):
        with pytest.warns(UserWarning, match="lambda = 0") as caught:
            DualProblem(np.ones((3, 2)), c=1.0)
        assert caught[0].filename == __file__


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

    @pytest.mark.parametrize("c", [1.5, 100.0])
    def test_one_newton_system_per_step(self, c, monkeypatch):
        """A cold N <= d solve factors one Newton system per accepted step,
        plus at most one for a final search that finds no acceptable point."""
        solve = np.linalg.solve
        calls = []

        def counting_solve(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        agg = np.random.default_rng(0).normal(0.0, 0.3, size=(70, 90))
        solution = solve_dual(DualProblem(agg, c))
        assert 0 < len(calls) <= solution.iterations + 1

    def test_gradient_arc_takes_over_from_a_failed_newton_arc(self):
        """At N >> d, entries of scale 20 and c = 100, the Newton arc alone
        stops short of the certificate (no point on it passes); the
        projected-gradient arc carries the solve on to it."""
        agg = np.random.default_rng(3).normal(size=(200, 20)) * 20.0
        problem = DualProblem(agg, c=100.0)
        assert_kkt_certificate(problem, solve_dual(problem), DEFAULT_TOL)

    @pytest.mark.parametrize("seed", range(4))
    def test_square_problem_with_large_rows_certifies_quickly(self, seed):
        """N ~ d, entries of scale 264, c = 1.2. An eps-active test on the raw
        gradient step, far longer than lam* <= 0.0075, kept interior
        multipliers pushing toward 0 on the diagonal metric, and the solve
        crawled linearly for 112 to 365 steps."""
        agg = np.random.default_rng(seed).normal(size=(37, 38)) * 264
        problem = DualProblem(agg, c=1.2)
        solution = solve_dual(problem)
        assert_kkt_certificate(problem, solution, DEFAULT_TOL)
        assert solution.iterations <= 40

    def test_hopeless_scale_gives_up_quickly(self):
        # at |a| ~ 1e6 with N > d the 1e-8 certificate is out of reach; the
        # solver must say so after a bounded number of steps
        agg = np.random.default_rng(7).normal(size=(30, 5)) * 1e6
        with pytest.raises(NonConvergence) as excinfo:
            solve_dual(DualProblem(agg, c=2.0))
        assert excinfo.value.solution.iterations < 1000

    @pytest.mark.parametrize("shape,scale", [((40, 5), 1e170), ((40, 5), 1e300), ((3, 5), 1e300)])
    def test_overflowing_problem_is_not_certified(self, shape, scale):
        """Finite aggregates whose ||v||^2 overflows: J is -inf and the
        projected gradient NaN, which certifies nothing."""
        agg = np.random.default_rng(0).normal(size=shape) * scale
        with np.errstate(all="ignore"), pytest.raises(NonConvergence, match="norm nan") as excinfo:
            solve_dual(DualProblem(agg, c=1.5))
        assert math.isnan(excinfo.value.solution.grad_norm)
        assert not excinfo.value.solution.converged


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


@pytest.mark.parametrize("name", sorted(SOLVER_FIXTURES))
def test_solver_fixture_reports_checked_values(name):
    """The loop evaluates J and its gradient without input checks; the
    objective and norm it reports must equal the checked public functions
    at its multipliers bit for bit."""
    agg, c = SOLVER_FIXTURES[name]()
    problem = DualProblem(agg, c)
    solution = solve_dual(problem, tol=1e-8)
    assert solution.objective == dual_objective(solution.lam, problem)
    grad = dual_gradient(solution.lam, problem)
    pg = projected_gradient(solution.lam, grad, problem.box_upper)
    assert solution.grad_norm == np.linalg.norm(pg)


def _neighbour_start(agg, c, c_prev=1.5):
    """The optimum at c_prev, rescaled to c as cross-validation does."""
    lam_prev = solve_dual(DualProblem(agg, c_prev)).lam
    return lam_prev * ((1.0 - 1.0 / c) / (1.0 - 1.0 / c_prev))


class TestWarmStart:
    # 46x90 runs the lambda-space loop from the start; 200x20 seeds the presolve
    @pytest.mark.parametrize("shape", [(46, 90), (200, 20)])
    @pytest.mark.parametrize("c", [3.0, 100.0])
    def test_neighbour_start_certifies(self, shape, c):
        agg = np.random.default_rng(0).normal(size=shape)
        problem = DualProblem(agg, c)
        solution = solve_dual(problem, tol=1e-8, start=_neighbour_start(agg, c))
        assert_kkt_certificate(problem, solution, tol=1e-8)

    def test_neighbour_start_saves_iterations(self):
        agg = np.random.default_rng(0).normal(size=(46, 90))
        problem = DualProblem(agg, 3.0)
        cold = solve_dual(problem)
        warm = solve_dual(problem, start=_neighbour_start(agg, 3.0))
        assert warm.iterations < cold.iterations
        np.testing.assert_allclose(warm.lam, cold.lam, atol=1e-8)

    def test_out_of_box_start_is_clipped(self):
        problem = DualProblem(np.random.default_rng(1).normal(size=(4, 6)), c=2.0)
        solution = solve_dual(problem, start=[-1.0, 5.0, 0.3, 2.0])
        assert_kkt_certificate(problem, solution, tol=1e-8)

    @pytest.mark.parametrize("shape", [(46, 90), (200, 20)])
    def test_wrong_length_rejected(self, shape):
        problem = DualProblem(np.ones(shape), c=2.0)
        with pytest.raises(DimensionMismatch):
            solve_dual(problem, start=np.full(shape[0] + 1, 0.1))


def _potential_decrement(problem, v, lam):
    """Newton decrement g . H^-1 g and value F of the potential problem at v,
    where g = v - A^T lam; checks first that lam is lam*(A v)."""
    agg, c, upper = problem.aggregates, problem.c, problem.box_upper
    t = agg @ v
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam_star = np.clip(np.where(t < 1.0 - 1.0 / c, c - 1.0 / (1.0 - t), 0.0), 0.0, upper)
        barrier = np.where(lam > 0.0, lam + np.log1p(-lam / c), 0.0)
        weights = np.where((lam > 0.0) & (lam < upper), 1.0 / (1.0 - t) ** 2, 0.0)
    np.testing.assert_array_equal(lam, lam_star)
    grad = v - agg.T @ lam
    hessian = np.eye(v.shape[0]) + agg.T @ (agg * weights[:, None])
    f_value = 0.5 * float(v @ v) + float(np.sum(barrier - lam * t))
    return float(grad @ np.linalg.solve(hessian, grad)), f_value


def presolve_one(problem, v0=None):
    """The batched presolve on one fold that keeps every row, from ``v0``
    or v = 0: the potential optimum v and lam*(A v)."""
    v0 = np.zeros(problem.d) if v0 is None else v0
    keep = np.ones((1, problem.n_subjects), dtype=bool)
    v, lam = _presolve_folds(problem.aggregates, keep, problem.c, v0[None, :])
    return v[0], lam[0]


class TestPotentialPresolve:
    # shaped like the tall sweep: d = 20 and 90 to 210 training subjects
    @pytest.mark.parametrize("n", [90, 140, 210])
    @pytest.mark.parametrize("scale", [1e-2, 1e-1, 1.0, 10.0])
    def test_stops_on_decrement_over_the_c_grid(self, n, scale):
        """Cold and warm-started as cross-validation does, over the default
        grid: the presolve ends within twice its Newton-decrement stop bound
        (a presolve cut after its first Newton step misses it by 70x or
        more), and the solve it seeds certifies."""
        agg = np.random.default_rng(n).normal(size=(n, 20)) * scale
        lam_prev = c_prev = None
        for c in ExperimentSpec().c_grid:
            problem = DualProblem(agg, c)
            starts = [None]
            if lam_prev is not None:
                starts.append(lam_prev * ((1.0 - 1.0 / c) / (1.0 - 1.0 / c_prev)))
            for start in starts:
                v0 = None if start is None else agg.T @ np.clip(start, 0.0, problem.box_upper)
                v, lam = presolve_one(problem, v0)
                decrement, f_value = _potential_decrement(problem, v, lam)
                bound = DECREMENT_ULPS * np.finfo(float).eps * max(1.0, abs(f_value))
                assert decrement <= 2.0 * bound
                solution = solve_dual(problem, tol=DEFAULT_TOL, start=start)
                assert_kkt_certificate(problem, solution, DEFAULT_TOL)
            lam_prev, c_prev = solution.lam, c


def _decrement_bound(f_value):
    return DECREMENT_ULPS * np.finfo(float).eps * max(1.0, abs(f_value))


# N ~ d, entries of scale 16 to 30, c = 100: a backtracking line search on the
# Newton direction spent all 150 steps on each of these and stopped 4e9 to 2e12
# times above the decrement bound
@pytest.mark.parametrize(
    "shape,scale,seed",
    [((43, 29), 26.0, 1), ((51, 31), 30.0, 11), ((37, 35), 16.0, 6), ((46, 39), 29.0, 3)],
)
def test_presolve_stops_on_decrement_near_square_at_c100(shape, scale, seed):
    problem = DualProblem(np.random.default_rng(seed).normal(size=shape) * scale, 100.0)
    decrement, f_value = _potential_decrement(problem, *presolve_one(problem))
    assert decrement <= 2.0 * _decrement_bound(f_value)


class TestBatchedPresolve:
    # d = 20 and 90 to 210 training subjects in ten folds, as the tall sweep
    @pytest.mark.parametrize("n", [90, 150, 210])
    @pytest.mark.parametrize("scale", [1e-2, 1.0, 10.0])
    def test_folds_match_their_batch_of_one(self, n, scale, monkeypatch):
        """Each masked fold of one batched presolve ends where the presolve
        of that fold alone ends, though the folds stop after different
        numbers of Newton steps. Were a fold to keep stepping past its
        decrement stop, it would drift from its own run by 1.5e-12 to 4e-9
        relative on these cases."""
        rng = np.random.default_rng(n)
        agg = rng.normal(size=(n, 20)) * scale
        keep = np.ones((10, n), dtype=bool)
        for rows, heldout in zip(keep, np.array_split(rng.permutation(n), 10)):
            rows[heldout] = False
        c = 10.0
        v0 = rng.normal(size=(10, 20)) * (np.arange(10)[:, None] / (10.0 * scale))
        v, lam = _presolve_folds(agg, keep, c, v0)

        solve, hessians = np.linalg.solve, []

        def counting_solve(a, b):
            hessians.append(a.shape[0])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        steps = []
        for f, rows in enumerate(keep):
            problem = DualProblem(agg[rows], c)
            v_f, lam_f = presolve_one(problem, v0[f])
            steps.append(sum(hessians))
            hessians[:] = []
            assert np.linalg.norm(v[f] - v_f) <= 1e-12 * np.linalg.norm(v_f)
            assert not np.any(lam[f, ~rows])
            decrement, f_value = _potential_decrement(problem, v_f, lam_f)
            assert decrement <= 2.0 * _decrement_bound(f_value)
        assert len(set(steps)) > 1


def _ten_folds(rng, n):
    keep = np.ones((10, n), dtype=bool)
    for rows, heldout in zip(keep, np.array_split(rng.permutation(n), 10)):
        rows[heldout] = False
    return keep


class TestSolveFolds:
    # N <= d, where the folds take 4 to 34 lambda steps, and N > d, where
    # they take 0 to 2 after the presolve
    @pytest.mark.parametrize(
        "shape,scale,c",
        [((60, 90), 0.3, 1.5), ((40, 90), 1.0, 100.0), ((150, 20), 1.0, 3.0),
         ((200, 20), 5.0, 100.0)],
    )
    @pytest.mark.parametrize("warm", [False, True])
    def test_folds_match_their_batch_of_one(self, shape, scale, c, warm):
        """Each masked fold of one batch ends where ``solve_dual`` on its kept
        rows ends, after as many steps, though the folds certify after
        different numbers of steps. A fold that kept stepping once certified
        would drift from its own run and count more steps."""
        rng = np.random.default_rng(shape[0])
        agg = rng.normal(size=shape) * scale
        keep = _ten_folds(rng, shape[0])
        start = rng.uniform(0.0, 0.5, size=keep.shape) if warm else None
        batch = solve_folds(DualProblem(agg, c), keep, start)
        for f, rows in enumerate(keep):
            fold = DualProblem(agg[rows], c)
            single = solve_dual(fold, start=None if start is None else start[f, rows])
            lam = batch.lam[f, rows]
            assert np.linalg.norm(lam - single.lam) <= 1e-12 * np.linalg.norm(single.lam)
            assert not np.any(batch.lam[f, ~rows])
            assert batch.iterations[f] == single.iterations
            assert batch.grad_norm[f] <= DEFAULT_TOL
            assert batch.objective[f] == pytest.approx(dual_objective(lam, fold), rel=1e-12)
        if shape[0] < shape[1]:
            assert len(set(batch.iterations)) > 1

    def test_first_uncertified_fold_raises(self):
        """With a step cap some folds reach and others do not, the batch
        raises for the first fold in fold order that misses its certificate,
        carrying the partial solution its own run ends with."""
        rng = np.random.default_rng(40)
        agg = rng.normal(size=(40, 90))
        keep = _ten_folds(rng, 40)
        c = 100.0
        steps = [solve_dual(DualProblem(agg[rows], c)).iterations for rows in keep]
        cap = steps[0]
        first = next(f for f, n in enumerate(steps) if n > cap)
        assert first > 0
        with pytest.raises(NonConvergence) as batch_failure:
            solve_folds(DualProblem(agg, c), keep, max_iter=cap)
        with pytest.raises(NonConvergence) as own_failure:
            solve_dual(DualProblem(agg[keep[first]], c), max_iter=cap)
        got, want = batch_failure.value.solution, own_failure.value.solution
        assert not got.converged and got.iterations == want.iterations == cap
        assert np.linalg.norm(got.lam - want.lam) <= 1e-12 * np.linalg.norm(want.lam)
        assert str(batch_failure.value) == str(own_failure.value)

    def test_overflowing_fold_raises(self):
        """A batch whose second fold keeps rows of scale 1e308 that make v
        infinite: that fold's projected gradient is NaN while the first fold
        certifies, and the batch raises for the NaN fold."""
        big = np.array([[1.0, -1.0, 1.0, -1.0, 1.0]] * 4 + [[1.0] * 5]) * 1e308
        agg = np.vstack([np.random.default_rng(0).normal(size=(10, 5)), big])
        keep = np.zeros((2, 15), dtype=bool)
        keep[0, :10] = keep[1, 10:] = True
        with np.errstate(all="ignore"):
            with pytest.raises(NonConvergence, match="norm nan") as excinfo:
                solve_folds(DualProblem(agg, c=3.0), keep)
            alone = solve_folds(DualProblem(agg, c=3.0), keep[:1])
        partial = excinfo.value.solution
        assert partial.lam.shape == (5,) and math.isnan(partial.grad_norm)
        assert alone.grad_norm[0] <= DEFAULT_TOL

    def test_keep_and_start_shapes_checked(self):
        problem = DualProblem(np.ones((4, 2)), c=2.0)
        with pytest.raises(DimensionMismatch):
            solve_folds(problem, np.ones((2, 3), dtype=bool))
        with pytest.raises(DimensionMismatch):
            solve_folds(problem, np.array([[True] * 4, [False] * 4]))
        with pytest.raises(DimensionMismatch):
            solve_folds(problem, np.ones((2, 4), dtype=bool), np.zeros((1, 4)))


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


class TestProjectedGradient:
    def test_blocks_descent_out_of_box(self):
        lam = np.array([0.0, 0.5, 1.0])
        grad = np.array([-1.0, -1.0, 1.0])
        pg = projected_gradient(lam, grad, upper=1.0)
        np.testing.assert_array_equal(pg, [0.0, -1.0, 0.0])
