"""Concave dual problem for the max-entropy index learner.

Training reduces to maximizing

    J(lam) = sum_n [lam_n + log(1 - lam_n / c)] - 0.5 * ||v(lam)||^2,
    v(lam) = sum_n lam_n * a_n,

over the box 0 <= lam_n < c, where a_n is the per-subject aggregate vector
and c is the rate of the exponential margin prior. J is smooth and strictly
concave on the open box (the log barrier diverges at lam_n = c), so the
optimum is unique and certified by the projected-gradient KKT conditions.
The solver runs one damped projected Newton loop in multiplier space,
warm-started from an equivalent d-dimensional strongly convex problem when
there are more subjects than features.
The weight posterior under a standard normal prior is N(v(lam*), I).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DegenerateProblem, DimensionMismatch, DomainError, NonConvergence

FORMAT_VERSION = 1

# relative safety margin keeping the barrier finite during line searches
BOX_MARGIN = 1e-8

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000
ARMIJO_SIGMA = 1e-4


@dataclass(frozen=True)
class DualProblem:
    """Aggregate matrix (N, d) plus the margin-prior rate c > 0.

    c <= 1 is legal but puts the barrier-only maximizer at lam = 0; a warning
    flags it because such problems carry no data force at all when the
    aggregates vanish.
    """

    aggregates: np.ndarray
    c: float

    def __post_init__(self):
        arr = np.array(self.aggregates, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise DimensionMismatch("aggregates must be a non-empty (N, d) matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "aggregates", arr)
        object.__setattr__(self, "c", float(self.c))
        if self.c <= 0:
            raise ValueError("margin prior rate c must be positive")
        if self.c <= 1:
            warnings.warn(
                f"c={self.c} <= 1: barrier term is maximized at lambda = 0",
                UserWarning,
                stacklevel=2,
            )

    @property
    def n_subjects(self) -> int:
        return self.aggregates.shape[0]

    @property
    def d(self) -> int:
        return self.aggregates.shape[1]

    @property
    def box_upper(self) -> float:
        return self.c * (1.0 - BOX_MARGIN)


@dataclass(frozen=True)
class DualSolution:
    lam: np.ndarray
    objective: float
    grad_norm: float
    iterations: int
    converged: bool

    def __post_init__(self):
        arr = np.array(self.lam, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "lam", arr)


@dataclass(frozen=True)
class WeightPosterior:
    """Gaussian posterior over index weights: mean v(lam*), identity covariance."""

    mean: np.ndarray

    def __post_init__(self):
        arr = np.array(self.mean, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "mean", arr)

    @property
    def d(self) -> int:
        return self.mean.shape[0]


def _check_lambda(lam: np.ndarray, problem: DualProblem) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (problem.n_subjects,):
        raise DimensionMismatch(
            f"lambda has shape {lam.shape}, expected ({problem.n_subjects},)"
        )
    if np.any(lam < 0):
        raise DomainError("lambda must be non-negative")
    if np.any(lam >= problem.c):
        raise DomainError(f"lambda must stay below c={problem.c}")
    return lam


def potential_vector(lam: Sequence[float], aggregates: np.ndarray) -> np.ndarray:
    """v(lam) = sum_n lam_n * a_n."""
    lam = np.asarray(lam, dtype=float)
    aggregates = np.asarray(aggregates, dtype=float)
    if lam.ndim != 1 or aggregates.ndim != 2 or lam.shape[0] != aggregates.shape[0]:
        raise DimensionMismatch("lambda length must match the number of aggregates")
    if np.any(lam < 0):
        raise DomainError("lambda must be non-negative")
    return aggregates.T @ lam


def log_partition(lam: Sequence[float], problem: DualProblem) -> float:
    """log Z(lam) = 0.5 ||v||^2 + sum_n [-lam_n - log(1 - lam_n / c)]."""
    lam = _check_lambda(lam, problem)
    v = problem.aggregates.T @ lam
    return float(0.5 * v @ v - lam.sum() - np.log1p(-lam / problem.c).sum())


def dual_objective(lam: Sequence[float], problem: DualProblem) -> float:
    """J(lam) = sum_n [lam_n + log(1 - lam_n / c)] - 0.5 ||v||^2 = -log Z."""
    lam = _check_lambda(lam, problem)
    v = problem.aggregates.T @ lam
    return float(lam.sum() + np.log1p(-lam / problem.c).sum() - 0.5 * v @ v)


def dual_gradient(lam: Sequence[float], problem: DualProblem) -> np.ndarray:
    """dJ/dlam_n = 1 - 1/(c - lam_n) - a_n . v(lam)."""
    lam = _check_lambda(lam, problem)
    v = problem.aggregates.T @ lam
    return 1.0 - 1.0 / (problem.c - lam) - problem.aggregates @ v


def projected_gradient(lam: np.ndarray, grad: np.ndarray, upper: float) -> np.ndarray:
    """Gradient with components clipped where the box blocks ascent."""
    pg = grad.copy()
    pg[(lam <= 0.0) & (grad < 0.0)] = 0.0
    pg[(lam >= upper) & (grad > 0.0)] = 0.0
    return pg


def _presolve_potential(problem: DualProblem, max_iter: int = 150) -> np.ndarray:
    """Warm-start multipliers from the d-dimensional potential problem.

    Eliminating lambda coordinate-wise turns the dual into an unconstrained
    strongly convex problem in the potential vector v:

        minimize F(v) = 0.5 ||v||^2 + sum_n phi(a_n . v),

    where phi(t) is the per-subject maximum of lam + log(1 - lam/c) - lam*t
    over the box, with maximizer lam*(t) = clip(c - 1/(1 - t)). Newton on F
    has Hessian I + A^T W A (eigenvalues >= 1), so it is immune to the
    Gram conditioning that slows lambda-space ascent when N > d.
    """
    aggs = problem.aggregates
    c = problem.c
    upper = problem.box_upper
    d = aggs.shape[1]
    knee = 1.0 - 1.0 / c

    def lam_of(t):
        with np.errstate(divide="ignore", over="ignore"):
            lam = c - 1.0 / (1.0 - t)
        return np.clip(np.where(t < knee, lam, 0.0), 0.0, upper)

    def value(v):
        t = aggs @ v
        lam = lam_of(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            barrier = np.where(lam > 0.0, lam + np.log1p(-lam / c), 0.0)
        return 0.5 * float(v @ v) + float(np.sum(barrier - lam * t))

    v = np.zeros(d)
    t = aggs @ v
    lam = lam_of(t)
    f_value = value(v)
    for _ in range(max_iter):
        grad = v - aggs.T @ lam
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= 1e-12 * max(1.0, float(np.linalg.norm(v))):
            break
        weights = np.where((lam > 0.0) & (lam < upper), 1.0 / (1.0 - t) ** 2, 0.0)
        hessian = aggs.T @ (aggs * weights[:, None])
        hessian[np.diag_indices_from(hessian)] += 1.0
        try:
            step_dir = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            step_dir = grad
        step = 1.0
        accepted = False
        for _ in range(40):
            candidate = v - step * step_dir
            cand_value = value(candidate)
            if cand_value < f_value:
                v, f_value = candidate, cand_value
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        t = aggs @ v
        lam = lam_of(t)
    return lam_of(aggs @ v)


def solve_dual(
    problem: DualProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DualSolution:
    """Damped projected Newton ascent on the box [0, c)^N to a KKT certificate.

    Starts from the potential presolve when N > d, else from a constant
    interior point, and takes two-metric Levenberg-damped Newton steps.
    While a step's predicted gain grad . step exceeds J's float resolution,
    it must pass the Armijo test on J; below that, rounding hides J's
    progress, so it must strictly shrink the projected-gradient norm
    instead. Exits once that norm reaches ``tol``, which certifies the KKT
    conditions componentwise; otherwise raises ``NonConvergence`` carrying
    the last iterate. ``iterations`` counts accepted steps. Deterministic.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not np.any(problem.aggregates) and problem.c <= 1.0:
        raise DegenerateProblem(
            "all aggregates are zero and c <= 1: maximizer is the boundary point "
            "lambda = 0"
        )

    upper = problem.box_upper
    aggs = problem.aggregates
    n_subjects, d = aggs.shape
    row_sq = np.einsum("nd,nd->n", aggs, aggs)
    edge = 1e-12 * problem.c

    def newton_direction(lam, grad, damping):
        """Two-metric damped Newton step.

        Coordinates within the projected-gradient displacement of a bound
        and pushing outward are treated first order (diagonal metric), so the
        Newton block only couples coordinates that stay interior; clipping a
        raw Newton step otherwise wrecks the coupled move. The Hessian of -J
        is diag(1/(c - lam)^2) + A A^T, whose spectrum spans the tiny barrier
        curvature up to the largest Gram eigenvalue; Levenberg damping bounds
        the step on the near-null Gram directions, and the Woodbury form
        keeps the linear system well conditioned when d < N.
        """
        curvature = 1.0 / (problem.c - lam) ** 2 + damping
        displacement = np.clip(lam + grad, 0.0, upper) - lam
        eps_active = max(edge, min(0.01 * problem.c, float(np.linalg.norm(displacement))))
        near_low = (lam <= eps_active) & (grad < 0.0)
        near_high = (lam >= upper - eps_active) & (grad > 0.0)
        free = ~(near_low | near_high)
        direction = grad / (curvature + row_sq)
        if not np.any(free):
            return direction
        a_free = aggs[free]
        curv_free = curvature[free]
        g_free = grad[free]
        try:
            if a_free.shape[0] <= d:
                hessian = a_free @ a_free.T
                hessian[np.diag_indices_from(hessian)] += curv_free
                direction[free] = np.linalg.solve(hessian, g_free)
            else:
                scaled = a_free / curv_free[:, None]
                core = a_free.T @ scaled
                core[np.diag_indices_from(core)] += 1.0
                rhs = scaled.T @ g_free
                direction[free] = g_free / curv_free - scaled @ np.linalg.solve(core, rhs)
        except np.linalg.LinAlgError:
            pass
        return direction

    def pg_norm_at(lam, grad):
        return float(np.linalg.norm(projected_gradient(lam, grad, upper)))

    if d < n_subjects and np.any(aggs):
        lam = _presolve_potential(problem)
    else:
        start = min(0.5, max((problem.c - 1.0) / 2.0, 1e-3), upper / 2.0)
        lam = np.full(n_subjects, start)
    obj = dual_objective(lam, problem)
    grad = dual_gradient(lam, problem)
    pg_norm = pg_norm_at(lam, grad)
    damping = 0.0
    iterations = 0

    while pg_norm > tol and iterations < max_iter:
        # below this predicted gain the Armijo test compares rounding noise
        resolution = np.finfo(float).eps / ARMIJO_SIGMA * max(1.0, abs(obj))
        accepted = False
        # Levenberg schedule: grow damping until a step is accepted,
        # relax it again afterwards so the endgame is pure Newton
        while not accepted and damping <= 1e14:
            candidate = np.clip(lam + newton_direction(lam, grad, damping), 0.0, upper)
            gain = float(grad @ (candidate - lam))
            if gain > 0.0:
                cand_obj = dual_objective(candidate, problem)
                if gain > resolution:
                    accepted = cand_obj >= obj + ARMIJO_SIGMA * gain
                else:
                    cand_grad = dual_gradient(candidate, problem)
                    accepted = pg_norm_at(candidate, cand_grad) < pg_norm
            if not accepted:
                damping = max(damping * 10.0, 1e-8)
        if not accepted:
            break
        lam, obj = candidate, cand_obj
        damping = 0.0 if damping < 1e-10 else damping / 8.0
        iterations += 1
        grad = dual_gradient(lam, problem)
        pg_norm = pg_norm_at(lam, grad)

    solution = DualSolution(
        lam=lam,
        objective=obj,
        grad_norm=pg_norm,
        iterations=iterations,
        converged=pg_norm <= tol,
    )
    if not solution.converged:
        raise NonConvergence(
            f"projected gradient norm {pg_norm:.3e} > tol {tol:.3e} after "
            f"{iterations} iterations",
            solution=solution,
        )
    return solution


def posterior(
    solution: DualSolution, problem: DualProblem, force: bool = False
) -> WeightPosterior:
    """Gaussian weight posterior N(v(lam*), I) at the dual optimum."""
    if not solution.converged and not force:
        raise NonConvergence(
            "refusing to build a posterior from an unconverged solution "
            "(pass force=True to override)",
            solution=solution,
        )
    return WeightPosterior(potential_vector(solution.lam, problem.aggregates))


# ---------------------------------------------------------------------------
# model file


def model_payload(
    problem: DualProblem,
    solution: DualSolution,
    standardization_dict: dict | None = None,
) -> dict:
    """JSON-ready dict holding the solution, posterior mean and provenance."""
    post = posterior(solution, problem, force=True)
    payload = {
        "format_version": FORMAT_VERSION,
        "model": "med",
        "d": problem.d,
        "n_subjects": problem.n_subjects,
        "c": problem.c,
        "lambda": solution.lam.tolist(),
        "mean_weights": post.mean.tolist(),
        "convergence": {
            "objective": solution.objective,
            "grad_norm": solution.grad_norm,
            "iterations": solution.iterations,
            "converged": solution.converged,
        },
    }
    if standardization_dict is not None:
        payload["standardization"] = standardization_dict
    return payload


def save_model(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_model(path) -> dict:
    payload = json.loads(Path(path).read_text())
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format: {payload.get('format_version')}")
    return payload


def posterior_from_payload(payload: dict) -> WeightPosterior:
    if payload.get("model") != "med":
        raise ValueError(f"not a med model payload: {payload.get('model')!r}")
    return WeightPosterior(np.asarray(payload["mean_weights"], dtype=float))
