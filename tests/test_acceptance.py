"""Acceptance gate: ten criteria, each printing one PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. Every tolerance and runtime bound is asserted, not just printed.
The trend criteria (6 to 9) run the experiment pipeline on the default
synthetic panel with 20 seeds each; all are deterministic. Criterion 07 has
a companion check that depends on c through the scale of the posterior mean.
"""

import json
import time

import numpy as np
import pytest

from oracles import central_diff_gradient, dual_value_grid_2d, mc_log_mean_exp

from healthindex.cli import main as cli_main
from healthindex.harness import (
    C_POLICY_SWEEP,
    ExperimentSpec,
    run_pipeline,
    train_uqchi,
)
from healthindex.med_core import (
    DualProblem,
    dual_gradient,
    dual_objective,
    log_partition,
    solve_dual,
)
from healthindex.panel import split_and_mask, standardize
from healthindex.simulator import SimConfig, simulate

GOLDEN_LAMBDA = 0.3819660112501051  # root of lam^2 - 3 lam + 1 inside [0, 2)


def report(number, passed, detail, elapsed=None, limit=None):
    stamp = ""
    if elapsed is not None:
        stamp = f" ({elapsed:.1f}s" + (f" < {limit:.0f}s)" if limit else ")")
    print(f"\n[criterion {number:02d}] {'PASS' if passed else 'FAIL'}: {detail}{stamp}")


def trend_spec(**overrides):
    base = dict(
        sim=SimConfig(label_observed_fraction=1.0, seed=0),
        c_policy=C_POLICY_SWEEP,
        c_grid=(1.5,),
        label_ratios=(0.2,),
        train_ratios=(0.7,),
        rejection_rates=(0.0,),
        n_seeds=20,
        baselines=("uqchi",),
        seed=0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def cell_accuracy(result, method, label_ratio, rate, c_key):
    for row in result.table.rows:
        if (row.method, row.label_ratio, row.rejection_rate, row.c_key) == (
            method,
            label_ratio,
            rate,
            c_key,
        ):
            return row.mean_accuracy
    raise KeyError((method, label_ratio, rate, c_key))


def test_criterion_01_gradient_oracle():
    """Analytic dual gradient vs central differences on 100 random instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        d = int(rng.integers(1, 6))
        c = float(rng.choice([1.5, 5.0]))
        problem = DualProblem(rng.normal(size=(n, d)), c)
        lam = rng.uniform(0.05, 0.9, n) * min(c * 0.9, 2.0)
        analytic = dual_gradient(lam, problem)
        numeric = central_diff_gradient(lambda l: dual_objective(l, problem), lam)
        rel = np.abs(analytic - numeric) / (1.0 + np.abs(analytic))
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    passed = worst < 1e-6 and elapsed < 10.0
    report(1, passed, f"gradient vs finite differences, max rel err {worst:.2e}", elapsed, 10)
    assert worst < 1e-6
    assert elapsed < 10.0


def test_criterion_02_dual_solver_grid_oracle():
    """Solver optimum vs 2-d grid search (step 1e-3) plus local refinement."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_obj = 0.0
    worst_lam = 0.0
    for _ in range(50):
        c = float(rng.choice([1.5, 3.0]))
        aggregates = rng.normal(size=(2, int(rng.integers(1, 4))))
        problem = DualProblem(aggregates, c)
        solution = solve_dual(problem)
        lam_ref, value_ref = dual_value_grid_2d(aggregates, c, step=1e-3)
        worst_obj = max(worst_obj, abs(solution.objective - value_ref))
        worst_lam = max(worst_lam, float(np.abs(solution.lam - lam_ref).max()))
    elapsed = time.perf_counter() - start
    passed = worst_obj < 1e-6 and worst_lam < 1e-3 and elapsed < 60.0
    report(
        2,
        passed,
        f"grid-search oracle, max |dJ| {worst_obj:.2e}, max |dlam| {worst_lam:.2e}",
        elapsed,
        60,
    )
    assert worst_obj < 1e-6
    assert worst_lam < 1e-3
    assert elapsed < 60.0


def test_criterion_03_closed_form_fixtures():
    """One-subject quadratic root and the barrier-only stationary point."""
    single = solve_dual(DualProblem(np.array([[1.0]]), c=2.0))
    err_single = abs(single.lam[0] - GOLDEN_LAMBDA)
    barrier = solve_dual(DualProblem(np.zeros((4, 3)), c=3.0))
    err_barrier = float(np.abs(barrier.lam - 2.0).max())
    passed = err_single < 1e-8 and err_barrier < 1e-8
    report(
        3,
        passed,
        f"closed forms, |lam - (3-sqrt(5))/2| = {err_single:.2e}, "
        f"|lam - (c-1)| = {err_barrier:.2e}",
    )
    assert err_single < 1e-8
    assert err_barrier < 1e-8


def test_criterion_04_monte_carlo_log_partition():
    """Monte Carlo check of log E[exp(w.v)] = ||v||^2 / 2 for w ~ N(0, I)."""
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for seed in range(10):
        d = int(rng.integers(1, 4))
        v = rng.normal(size=d)
        v *= rng.uniform(0.5, 1.5) / np.linalg.norm(v)
        exact = 0.5 * float(v @ v)
        estimate = mc_log_mean_exp(v, n_draws=1_000_000, seed=seed)
        worst = max(worst, abs(estimate - exact) / exact)
    elapsed = time.perf_counter() - start
    passed = worst < 0.02 and elapsed < 60.0
    report(4, passed, f"Monte Carlo Gaussian integral, max rel err {worst:.2%}", elapsed, 60)
    assert worst < 0.02
    assert elapsed < 60.0


def test_criterion_05_identity_concavity_kkt():
    """J = -log Z to 1e-12, concave chords at 1e-9 slack, KKT at solver exits."""
    rng = np.random.default_rng(505)
    problem = DualProblem(rng.normal(size=(6, 4)), c=2.5)

    worst_identity = 0.0
    for _ in range(1000):
        lam = rng.uniform(0.0, 0.95, 6) * 2.5 * rng.uniform(0.1, 0.9)
        j = dual_objective(lam, problem)
        z = log_partition(lam, problem)
        worst_identity = max(worst_identity, abs(j + z) / max(1.0, abs(j)))

    worst_chord = -np.inf
    for _ in range(1000):
        lam_a = rng.uniform(0.0, 0.9, 6) * 2.5
        lam_b = rng.uniform(0.0, 0.9, 6) * 2.5
        theta = rng.uniform()
        mix = dual_objective(theta * lam_a + (1 - theta) * lam_b, problem)
        ends = theta * dual_objective(lam_a, problem) + (1 - theta) * dual_objective(
            lam_b, problem
        )
        worst_chord = max(worst_chord, ends - mix)

    tol = 1e-8
    kkt_ok = True
    for trial in range(30):
        n = int(rng.integers(1, 12))
        d = int(rng.integers(1, 6))
        c = float(rng.choice([1.5, 3.0, 10.0]))
        instance = DualProblem(rng.normal(size=(n, d)) * rng.uniform(0.2, 3.0), c)
        solution = solve_dual(instance, tol=tol)
        grad = dual_gradient(solution.lam, instance)
        for lam_n, g_n in zip(solution.lam, grad):
            if lam_n <= 0.0:
                kkt_ok = kkt_ok and g_n <= tol
            else:
                kkt_ok = kkt_ok and abs(g_n) <= tol

    passed = worst_identity < 1e-12 and worst_chord <= 1e-9 and kkt_ok
    report(
        5,
        passed,
        f"identity err {worst_identity:.2e}, worst chord violation "
        f"{max(worst_chord, 0):.2e}, KKT ok = {kkt_ok}",
    )
    assert worst_identity < 1e-12
    assert worst_chord <= 1e-9
    assert kkt_ok


def test_criterion_06_rejection_trend():
    """Mean accepted-accuracy non-decreasing in the rejection rate."""
    start = time.perf_counter()
    rates = (0.0, 0.2, 0.4, 0.6)
    result = run_pipeline(trend_spec(rejection_rates=rates))
    accs = [cell_accuracy(result, "uqchi", 0.2, r, repr(1.5)) for r in rates]
    elapsed = time.perf_counter() - start
    steps_ok = all(accs[i + 1] >= accs[i] - 0.005 for i in range(len(accs) - 1))
    passed = steps_ok and elapsed < 180.0
    report(
        6,
        passed,
        "accepted accuracy by rejection rate " + " -> ".join(f"{a:.3f}" for a in accs),
        elapsed,
        180,
    )
    assert steps_ok
    assert elapsed < 180.0


def test_criterion_07_c_sweep_trend():
    """Mean accuracy at c = 1.5 is no worse than at c = 100."""
    start = time.perf_counter()
    result = run_pipeline(
        trend_spec(c_policy=C_POLICY_SWEEP, c_grid=(1.5, 100.0))
    )
    acc_low = cell_accuracy(result, "uqchi", 0.2, 0.0, repr(1.5))
    acc_high = cell_accuracy(result, "uqchi", 0.2, 0.0, repr(100.0))
    elapsed = time.perf_counter() - start
    passed = acc_low >= acc_high and elapsed < 180.0
    report(
        7,
        passed,
        f"margin-rate sweep, acc(c=1.5) = {acc_low:.4f} vs acc(c=100) = {acc_high:.4f}",
        elapsed,
        180,
    )
    assert acc_low >= acc_high
    assert elapsed < 180.0


def test_criterion_07_posterior_norm_grows_with_c():
    """The posterior-mean norm ||v|| strictly increases along the paper's c
    grid on standardized default-simulation splits.

    Criterion 07 can pass with equal accuracies, because the sign of v.x
    does not see the scale c puts on v; this check does.
    """
    start = time.perf_counter()
    grid = ExperimentSpec().c_grid
    all_increasing = True
    for seed in range(5):
        panel, _ = simulate(SimConfig(label_observed_fraction=1.0, seed=seed))
        train, _ = split_and_mask(panel, 0.7, 0.2, seed=seed)
        train_s = standardize(train)
        norms = [float(np.linalg.norm(train_uqchi(train_s, c)[0].mean)) for c in grid]
        increasing = all(b > a for a, b in zip(norms, norms[1:]))
        all_increasing = all_increasing and increasing
        report(
            7,
            increasing,
            f"seed {seed}, ||v|| by c " + " -> ".join(f"{n:.3f}" for n in norms),
        )
    elapsed = time.perf_counter() - start
    assert all_increasing
    assert elapsed < 180.0


def test_criterion_08_label_ratio_trend():
    """Mean accuracy non-increasing in the unlabeled fraction."""
    start = time.perf_counter()
    ratios = (0.1, 0.2, 0.5)
    result = run_pipeline(trend_spec(label_ratios=ratios))
    accs = [cell_accuracy(result, "uqchi", r, 0.0, repr(1.5)) for r in ratios]
    elapsed = time.perf_counter() - start
    steps_ok = all(accs[i + 1] <= accs[i] + 0.01 for i in range(len(accs) - 1))
    passed = steps_ok and elapsed < 180.0
    report(
        8,
        passed,
        "accuracy by unlabeled fraction " + " -> ".join(f"{a:.3f}" for a in accs),
        elapsed,
        180,
    )
    assert steps_ok
    assert elapsed < 180.0


def test_criterion_09_baseline_comparison():
    """Rejection-enabled learner beats the convex baseline at rate 0.6."""
    start = time.perf_counter()
    result = run_pipeline(
        trend_spec(rejection_rates=(0.6,), baselines=("uqchi", "chi"))
    )
    acc_uq = cell_accuracy(result, "uqchi", 0.2, 0.6, repr(1.5))
    acc_chi = cell_accuracy(result, "chi", 0.2, 0.0, "")
    elapsed = time.perf_counter() - start
    passed = acc_uq >= acc_chi
    report(
        9,
        passed,
        f"accepted accuracy at 60% rejection {acc_uq:.4f} vs baseline {acc_chi:.4f}",
        elapsed,
    )
    assert acc_uq >= acc_chi


def test_criterion_10_sweep_determinism(tmp_path):
    """Two identical sweep invocations emit byte-identical outputs."""
    start = time.perf_counter()
    config = {
        "sim": {
            "d": 12,
            "n_per_class": 10,
            "degradation_rate": 0.3,
            "informative_k": 4,
            "label_observed_fraction": 1.0,
            "seed": 0,
        },
        "c_policy": "sweep",
        "c_grid": [1.5],
        "label_ratios": [0.2],
        "train_ratios": [0.7],
        "rejection_rates": [0.2, 0.4],
        "n_seeds": 3,
        "cv_folds": 3,
        "baselines": ["uqchi", "chi"],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["sweep", "--config", str(spec_path), "--out-dir", str(out_a)]) == 0
    assert cli_main(["sweep", "--config", str(spec_path), "--out-dir", str(out_b)]) == 0
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("results.csv", "runs.jsonl", "spec.json")
    )
    elapsed = time.perf_counter() - start
    report(10, identical, "byte-identical sweep outputs on rerun", elapsed)
    assert identical
