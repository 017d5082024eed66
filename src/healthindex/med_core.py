"""Concave dual problem for the max-entropy index learner.

Training reduces to maximizing

    J(lam) = sum_n [lam_n + log(1 - lam_n / c)] - 0.5 * ||v(lam)||^2,
    v(lam) = sum_n lam_n * a_n,

over the box 0 <= lam_n < c, where a_n is the per-subject aggregate vector
and c is the rate of the exponential margin prior. J is smooth and strictly
concave on the open box (the log barrier diverges at lam_n = c), so the
optimum is unique and certified by the projected-gradient KKT conditions.
The solver runs one projected Newton loop over a batch of row subsets
(folds) of one problem, lam holding one row per fold: one batched solve of
each fold's Newton system on its diagonally scaled epsilon-active set per
step, and an Armijo search along each fold's projection arc. A fold with
more rows than d is warm-started from an equivalent d-dimensional strongly
convex problem (one batched presolve), or from a caller's multipliers.
Like the presolve, the loop keeps each fold's state in place and steps
the folds still moving. A fold leaves certified, stuck (no point on either
arc is acceptable) or at max_iter; ``NonConvergence`` names the last two.
``solve_dual`` is the batch of one fold that keeps every row.
The weight posterior under a standard normal prior is N(v(lam*), I).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    GE_ZERO,
    GT_ZERO,
    DimensionMismatch,
    DomainError,
    NonConvergence,
    json_field,
)

FORMAT_VERSION = 1

# relative safety margin keeping the barrier finite during line searches
BOX_MARGIN = 1e-8

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 10_000
ARMIJO_SIGMA = 1e-4
MAX_HALVINGS = 40  # of the step, before a line search gives up
# the presolve's ray search stops once |F'| along the ray is this share of the
# Newton decrement, or after this many root-finding rounds
RAY_TOL = 0.1
RAY_ROUNDS = 8
# the potential presolve stops once its Newton decrement is this many ulps of F,
# or after this many Newton steps
DECREMENT_ULPS = 64
PRESOLVE_MAX_ITER = 150


@dataclass(frozen=True)
class DualProblem:
    """Aggregate matrix (N, d) plus the finite margin-prior rate c > 0; for
    c <= 1 the maximizer is lam = 0, whatever the aggregates."""

    aggregates: np.ndarray
    c: float

    def __post_init__(self):
        arr = np.array(self.aggregates, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise DimensionMismatch("aggregates must be a non-empty (N, d) matrix")
        finite = np.isfinite(arr).all(axis=1)
        if not finite.all():
            raise DomainError(f"aggregate row {int(np.argmin(finite))} is not finite")
        arr.setflags(write=False)
        object.__setattr__(self, "aggregates", arr)
        object.__setattr__(self, "c", float(self.c))
        GT_ZERO.check("margin prior rate c", self.c)

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
        if arr.ndim != 1:
            raise DimensionMismatch(f"mean weights must be a vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("posterior mean weights must be finite")
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
    blocked = ((lam <= 0.0) & (grad < 0.0)) | ((lam >= upper) & (grad > 0.0))
    return np.where(blocked, 0.0, grad)


def _presolve_folds(
    aggs: np.ndarray, keep: np.ndarray, c: float, v0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Warm-start multipliers from the d-dimensional potential problem of F
    folds at once: fold f keeps the rows of ``aggs`` (N, d) where ``keep[f]``
    is True and starts Newton at ``v0[f]``.

    Eliminating lambda coordinate-wise turns the dual into an unconstrained
    strongly convex problem in the potential vector v:

        minimize F(v) = 0.5 ||v||^2 + sum_n phi(a_n . v),

    where phi(t) is the per-subject maximum of lam + log(1 - lam/c) - lam*t
    over the box, with maximizer lam*(t) = clip(c - 1/(1 - t)). Newton on F
    has Hessian H = I + A^T W A (eigenvalues >= 1), so it is immune to the
    Gram conditioning that slows lambda-space ascent when N > d. A held-out
    row has lam = 0 and curvature weight 0, so it drops out of its fold's F.
    Each Newton step forms the moving folds' Hessians with one batched
    product and solves them with one batched solve.

    The step length comes from a ray search (Keerthi & DeCoste, "A modified
    finite Newton method for fast solution of large scale linear SVMs",
    JMLR 6, 2005): with q = A p, the point v - s p has t(s) = t - s q, so the
    derivative of F along the ray, g(s) = s p.p - p.v + lam*(t(s)) . q, costs
    N-vector work only. g rises from g(0) = -decrement; s = 1 is taken when
    g(1) is at most RAY_TOL times the decrement, else up to RAY_ROUNDS
    safeguarded secant steps (regula falsi, Illinois variant) on g's bracket
    in [0, 1] look for |g(s)| <= RAY_TOL * decrement, and failing that the
    bracket's upper end is taken. The point is accepted on a strict decrease
    of F; if F does not fall, the step halves, up to MAX_HALVINGS times.

    Each fold stops on its Newton decrement (Boyd & Vandenberghe, Convex
    Optimization, sec. 9.5.1): once grad . H^-1 grad <= DECREMENT_ULPS * eps
    * max(1, |F|), a full step would lower F by about half that, below F's
    float resolution, so no line search could tell it apart from rounding.
    A fold also stops at an exactly zero gradient, when every halving fails,
    or after PRESOLVE_MAX_ITER steps; a fold that stopped does not move. Returns
    the last accepted v (F, d) and lam*(A v) (F, N), zero on held-out rows,
    from the same evaluation that accepted v; the lambda-space loop of
    ``solve_dual`` certifies the multipliers.
    """
    upper = c * (1.0 - BOX_MARGIN)
    knee = 1.0 - 1.0 / c
    floor = DECREMENT_ULPS * np.finfo(float).eps
    diagonal = np.arange(aggs.shape[1])

    def multipliers(t, kept):
        lam = np.where(kept & (t < knee), c - 1.0 / (1.0 - t), 0.0)
        return np.minimum(np.maximum(lam, 0.0), upper)

    def evaluate(v, folds):
        """F, t = A v and lam*(t) of ``folds`` at their points v."""
        t = v @ aggs.T
        lam = multipliers(t, keep[folds])
        barrier = np.where(lam > 0.0, lam + np.log1p(-lam / c), 0.0)
        return 0.5 * (v * v).sum(axis=1) + (barrier - lam * t).sum(axis=1), t, lam

    def ray_search(kept, v, t, step_dir, decrement):
        """Step length in (0, 1] along -step_dir for each fold."""
        q = step_dir @ aggs.T
        pp, pv = (step_dir * step_dir).sum(axis=1), (step_dir * v).sum(axis=1)
        tol = RAY_TOL * decrement

        def slope(s):
            lam = multipliers(t - s[:, None] * q, kept)
            return s * pp - pv + (lam * q).sum(axis=1)

        s, hi, lo = np.ones(len(v)), np.ones(len(v)), np.zeros(len(v))
        g_lo, g_hi = -decrement, slope(s)
        last = np.zeros(len(v))  # +1 once a round moved lo, -1 once it moved hi
        search = g_hi > tol
        for _ in range(RAY_ROUNDS):
            if not search.any():
                break
            # regula falsi, Illinois variant: an end kept twice has its g halved
            s = np.where(search, lo - g_lo * (hi - lo) / (g_hi - g_lo), s)
            g = slope(s)
            below = search & (g < 0.0)
            above = search & ~below
            g_hi = np.where(below & (last > 0.0), 0.5 * g_hi, g_hi)
            g_lo = np.where(above & (last < 0.0), 0.5 * g_lo, g_lo)
            last = np.where(below, 1.0, np.where(above, -1.0, last))
            lo, g_lo = np.where(below, s, lo), np.where(below, g, g_lo)
            hi, g_hi = np.where(above, s, hi), np.where(above, g, g_hi)
            search &= ~(np.abs(g) <= tol)
            # a fold still searching steps to its upper end: a row about to
            # cross the knee t = 1 - 1/c then crosses, and the next Hessian
            # weighs it; a step short of the knee would stop short of it again
            s = np.where(search, hi, s)
        return np.where(s > 0.0, s, 1.0)  # NaN, from a non-finite g: halve from 1

    v = np.array(v0, dtype=float)
    moving = np.arange(len(v))
    # 1/(1 - t) and the barrier blow up only off the branch np.where keeps
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f_value, t_all, lam_all = evaluate(v, moving)
        for _ in range(PRESOLVE_MAX_ITER):
            lam, t = lam_all[moving], t_all[moving]
            grad = v[moving] - lam @ aggs
            weights = np.where((lam > 0.0) & (lam < upper), 1.0 / (1.0 - t) ** 2, 0.0)
            hessian = aggs.T @ (weights[:, :, None] * aggs)
            hessian[:, diagonal, diagonal] += 1.0
            try:
                step_dir = np.linalg.solve(hessian, grad[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                step_dir = grad
            decrement = (grad * step_dir).sum(axis=1)
            resolution = floor * np.maximum(1.0, abs(f_value[moving]))
            go = grad.any(axis=1) & (decrement > resolution)
            moving, step_dir, decrement = moving[go], step_dir[go], decrement[go]
            if not moving.size:
                break
            step = ray_search(keep[moving], v[moving], t[go], step_dir, decrement)
            trying = np.arange(len(moving))
            for _ in range(MAX_HALVINGS):
                folds = moving[trying]
                candidate = v[folds] - step[trying, None] * step_dir[trying]
                cand_value, cand_t, cand_lam = evaluate(candidate, folds)
                better = cand_value < f_value[folds]
                accepted = folds[better]
                v[accepted], f_value[accepted] = candidate[better], cand_value[better]
                t_all[accepted], lam_all[accepted] = cand_t[better], cand_lam[better]
                trying = trying[~better]
                if not trying.size:
                    break
                step[trying] *= 0.5
            stalled = np.zeros(len(moving), dtype=bool)
            stalled[trying] = True
            moving = moving[~stalled]
    return v, lam_all


def solve_dual(
    problem: DualProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    start: Sequence[float] | None = None,
) -> DualSolution:
    """Projected Newton ascent on the box [0, c)^N to a KKT certificate.

    Starts from the potential presolve when N > d, else from a constant
    interior point. A ``start`` multiplier vector (length N), clipped into
    the box, is the first iterate when N <= d; when N > d, where
    lambda-space Newton crawls on the Gram conditioning, it seeds the
    presolve at v = A^T start. Each step solves one two-metric Newton system
    on a diagonally scaled epsilon-active set, halves t up to MAX_HALVINGS
    times on the projection arc clip(lam + t * direction) (Bertsekas, SIAM
    J. Control Optim. 20(2), 1982), then on the projected-gradient arc if
    no point passed. While the predicted gain grad . step exceeds J's float
    resolution, a point must pass the Armijo test on J; below it, rounding
    hides J's progress, so it must strictly shrink the projected-gradient
    norm, which short gradient steps do but a coupled Newton move need not.
    Exits once that norm reaches ``tol``, which certifies the KKT conditions
    componentwise. Otherwise, stuck where no point on either arc passes or
    after ``max_iter`` steps, raises ``NonConvergence`` carrying the last
    iterate and naming which, or overflow for a norm that is not finite.
    ``iterations`` counts accepted steps. Deterministic. This is
    ``solve_folds`` on a batch of one fold that keeps every row.
    """
    keep = np.ones((1, problem.n_subjects), dtype=bool)
    starts = None if start is None else np.asarray(start, dtype=float)[None]
    folds = solve_folds(problem, keep, starts, tol=tol, max_iter=max_iter)
    objective, grad_norm, iterations = folds.objective[0], folds.grad_norm[0], folds.iterations[0]
    return DualSolution(folds.lam[0], float(objective), float(grad_norm), int(iterations), True)


@dataclass(frozen=True)
class FoldSolutions:
    """Certified multipliers of F folds of one problem, one row per fold:
    ``lam`` (F, N) is zero on each fold's held-out rows; ``objective``,
    ``grad_norm`` and ``iterations`` (accepted lambda-loop steps) are (F,)."""

    lam: np.ndarray
    objective: np.ndarray
    grad_norm: np.ndarray
    iterations: np.ndarray


# finite aggregates can still overflow ||v||^2 and A v: J is then -inf and
# the gradient NaN, which certifies nothing, and the error names the cause
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def solve_folds(
    problem: DualProblem,
    keep: np.ndarray,
    start: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FoldSolutions:
    """``solve_dual`` on F row subsets of one problem, as one batch: fold f
    keeps the rows where the (F, N) mask ``keep[f]`` is True and starts from
    row f of ``start`` (F, N), clipped into the box, or cold. A fold whose
    projected-gradient norm at lam = 0, sqrt(kept rows) * max(0, 1 - 1/c), is
    within tol (every fold when c <= 1) starts there, certified in 0 steps.

    The folds with more kept rows than d share one batched potential
    presolve. Then one lambda loop steps every fold not yet certified, lam
    of shape (F, N); a held-out row has the box [0, 0], so it stays at 0.
    Each fold keeps its own epsilon-active set, arc search and halvings,
    projected-gradient fallback arc, step count and certificate; a certified
    or stuck fold stops moving. One batched solve per step serves the
    moving folds: when N <= d, the Newton systems on each fold's free
    coordinates, read from the Gram matrix and padded to the widest free set
    with identity rows; when N > d, their (d, d) Woodbury cores. Raises
    ``NonConvergence`` for the first uncertified fold in fold order,
    carrying its partial ``DualSolution`` over its kept rows and naming it
    stuck or at max_iter; a non-finite norm names overflow as its cause
    instead, at c when the fold's sum of row norms is finite.
    """
    GT_ZERO.check("tol", tol)
    GE_ZERO.check("max_iter", max_iter)
    aggs, c, upper = problem.aggregates, problem.c, problem.box_upper
    n_subjects, d = aggs.shape
    keep = np.asarray(keep, dtype=bool)
    if keep.ndim != 2 or keep.shape[1] != n_subjects or not keep.any(axis=1).all():
        raise DimensionMismatch(
            f"keep has shape {keep.shape}, expected (F, {n_subjects}) with a kept row per fold"
        )
    kept_rows = keep.sum(axis=1)
    at_zero = np.sqrt(kept_rows) * max(0.0, 1.0 - 1.0 / c) <= tol
    tall = (kept_rows > d) & ~at_zero
    if start is None:
        cold = min(0.5, max((c - 1.0) / 2.0, 1e-3))
        lam = np.where(keep, cold, 0.0)
    else:
        start = np.asarray(start, dtype=float)
        if start.shape != keep.shape:
            raise DimensionMismatch(f"start has shape {start.shape}, expected {keep.shape}")
        lam = np.where(keep, np.clip(start, 0.0, upper), 0.0)
    lam[at_zero] = 0.0
    if tall.any():
        v0 = np.zeros((int(tall.sum()), d)) if start is None else lam[tall] @ aggs
        lam[tall] = _presolve_folds(aggs, keep[tall], c, v0)[1]

    row_sq = np.einsum("nd,nd->n", aggs, aggs)
    edge = 1e-12 * c
    if n_subjects <= d:  # the Gram matrix, with a zero row and column N to pad free sets
        gram = np.zeros((n_subjects + 1, n_subjects + 1))
        gram[:-1, :-1] = aggs @ aggs.T
    diagonal = np.arange(d)

    # dual_objective, then dual_gradient and norm(projected_gradient), of
    # each row, unchecked: the same floats on a fold that keeps every row
    def objective(lam):
        v = lam @ aggs
        return lam.sum(axis=1) + np.log1p(lam / -c).sum(axis=1) - 0.5 * np.vecdot(v, v), v

    def gradient(lam, v, box):
        grad = 1.0 - 1.0 / (c - lam) - v @ aggs.T
        pg = projected_gradient(lam, grad, box)
        return grad, np.sqrt(np.vecdot(pg, pg))

    def newton_direction(lam, grad, box, kept):
        """Two-metric Newton steps; undamped, as the arc search bounds them.

        Coordinates within the diagonally scaled step grad / (1/(c - lam)^2 +
        |a_n|^2) of a bound, pushing outward, keep that diagonal metric; a
        Newton block on the Hessian of -J couples the rest. A raw gradient
        step, far longer than lam* on large rows, put interior coordinates
        in the diagonal set and slowed them."""
        curvature = 1.0 / (c - lam) ** 2
        direction = grad / (curvature + row_sq)
        displacement = np.minimum(np.maximum(lam + direction, 0.0), box) - lam
        eps_active = np.sqrt(np.vecdot(displacement, displacement))
        eps_active = np.maximum(edge, np.minimum(0.01 * c, eps_active))[:, None]
        near_low = (lam <= eps_active) & (grad < 0.0)
        near_high = (lam >= upper - eps_active) & (grad > 0.0)
        free = kept & ~(near_low | near_high)
        width = free.sum(axis=1).max()
        if not width:
            return direction
        try:
            if n_subjects > d:  # Woodbury form; a row outside the free set is 0 in ``scaled``
                scaled = np.zeros(free.shape + (d,))
                np.divide(aggs, curvature[:, :, None], out=scaled, where=free[:, :, None])
                core = aggs.T @ scaled
                core[:, diagonal, diagonal] += 1.0
                rhs = np.matmul(grad[:, None, :], scaled).transpose(0, 2, 1)
                newton = grad / curvature - (scaled @ np.linalg.solve(core, rhs))[:, :, 0]
                return np.where(free, newton, direction)
            # each fold's free coordinates first: one system per fold, as wide
            # as the widest free set, identity rows padding the rest
            order = np.argsort(~free, axis=1, kind="stable")[:, :width]
            rows = np.arange(len(free))[:, None]
            sub = free[rows, order]
            padded = np.where(sub, order, n_subjects)
            hessian = gram.ravel()[padded[:, :, None] * (n_subjects + 1) + padded[:, None, :]]
            hessian.reshape(len(free), -1)[:, :: width + 1] += np.where(
                sub, curvature[rows, order], 1.0
            )
            rhs = np.where(sub, grad[rows, order], 0.0)[:, :, None]
            newton = np.linalg.solve(hessian, rhs)[:, :, 0]
            direction[rows, order] = np.where(sub, newton, direction[rows, order])
            return direction
        except np.linalg.LinAlgError:
            return direction

    def arc_search(folds, lam_f, grad_f, box_f, direction):
        """Halving t, write the first accepted point of clip(lam + t *
        direction) of each fold of ``folds``, whose rows of lam, grad and box
        are ``lam_f``, ``grad_f`` and ``box_f``, into lam, obj, grad and
        pg_norm. Returns the folds where no point passed, left as they were."""
        obj_f, norm_f = obj[folds], pg_norm[folds]
        # below this predicted gain the Armijo test compares rounding noise
        floor = np.finfo(float).eps / ARMIJO_SIGMA * np.maximum(1.0, np.abs(obj_f))
        trying, step = np.arange(len(folds)), 1.0
        for _ in range(MAX_HALVINGS):
            lam_t, box_t = lam_f[trying], box_f[trying]
            candidate = np.minimum(np.maximum(lam_t + step * direction[trying], 0.0), box_t)
            gain = np.vecdot(grad_f[trying], candidate - lam_t)
            ok = gain > 0.0
            if ok.any():
                cand_obj, v = objective(candidate)
                armijo = gain > floor[trying]
                ok &= ~armijo | (cand_obj >= obj_f[trying] + ARMIJO_SIGMA * gain)
            if ok.any():
                cand_grad, cand_norm = gradient(candidate, v, box_t)
                ok &= armijo | (cand_norm < norm_f[trying])
                accepted = folds[trying[ok]]
                lam[accepted], obj[accepted] = candidate[ok], cand_obj[ok]
                grad[accepted], pg_norm[accepted] = cand_grad[ok], cand_norm[ok]
                trying = trying[~ok]
                if not trying.size:
                    break
            step *= 0.5
        return folds[trying]

    # each fold's state stays in place, (F, N) or (F,); ``moving`` holds the
    # fold numbers still stepping. A fold leaves certified or ``stuck``
    # (neither arc had an acceptable point), its ``iterations`` the steps it
    # took; the folds still moving after max_iter steps are at the cap
    box = np.where(keep, upper, 0.0)
    obj, v = objective(lam)
    grad, pg_norm = gradient(lam, v, box)
    iterations, stuck = np.zeros(len(keep), dtype=int), np.zeros(len(keep), dtype=bool)
    moving, steps = np.arange(len(keep)), 0
    while True:
        certified = pg_norm[moving] <= tol  # a NaN norm, from overflow, certifies nothing
        if certified.any():
            iterations[moving[certified]] = steps
            moving = moving[~certified]
        if not moving.size or steps == max_iter:
            break
        lam_m, grad_m, box_m = lam[moving], grad[moving], box[moving]
        direction = newton_direction(lam_m, grad_m, box_m, keep[moving])
        failed = arc_search(moving, lam_m, grad_m, box_m, direction)
        if failed.size:
            failed = arc_search(failed, lam[failed], grad[failed], box[failed], grad[failed])
            iterations[failed], stuck[failed] = steps, True
            moving = moving[~stuck[moving]]
        steps += 1
    iterations[moving] = steps

    for f in np.sort(np.concatenate([np.flatnonzero(stuck), moving])):
        partial = DualSolution(lam[f, keep[f]], obj[f], pg_norm[f], int(iterations[f]), False)
        relation = ">" if pg_norm[f] > tol else "is not <="
        if not np.isfinite(pg_norm[f]):
            # ||v|| <= c * sum_n ||a_n||: if the aggregates' part is finite, c overflows J
            blame = "the aggregates' scale; standardize the features"
            if np.isfinite(np.sqrt(row_sq[keep[f]]).sum() ** 2):
                blame = f"c={c:g}; use a smaller c"
            cause = f"the dual objective overflows at {blame}"
        elif stuck[f]:
            cause = "stuck, with no acceptable point on the Newton or the projected-gradient arc"
        else:
            cause = f"max_iter={max_iter} reached"
        raise NonConvergence(
            f"projected gradient norm {pg_norm[f]:.3e} {relation} tol {tol:.3e} after "
            f"{iterations[f]} iterations: {cause}",
            solution=partial,
        )
    return FoldSolutions(lam, obj, pg_norm, iterations)


def posterior(solution: DualSolution, problem: DualProblem) -> WeightPosterior:
    """Gaussian weight posterior N(v(lam*), I) at the dual optimum; an
    unconverged solution is refused."""
    if not solution.converged:
        raise NonConvergence(
            "refusing to build a posterior from an unconverged solution", solution=solution
        )
    return WeightPosterior(potential_vector(solution.lam, problem.aggregates))


# ---------------------------------------------------------------------------
# model file


def model_payload(
    problem: DualProblem,
    solution: DualSolution,
    standardization_dict: dict,
) -> dict:
    """JSON-ready dict holding the solution, posterior mean and provenance."""
    post = posterior(solution, problem)
    return {
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
        },
        "standardization": standardization_dict,
    }


def save_model(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_model(path) -> dict:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        kind = type(payload).__name__
        raise ValueError(f"{path}: a model file must hold a JSON object, got {kind}")
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format: {payload.get('format_version')}")
    return payload


def check_payload_d(payload: dict, weights: str, d: int) -> None:
    """Refuse a model file whose ``d`` is not the length of its ``weights``."""
    if json_field(payload, "d") != d:
        raise DimensionMismatch(f"d is {payload['d']!r}, but {weights} holds {d} weights")


def posterior_from_payload(payload: dict) -> WeightPosterior:
    if payload.get("model") != "med":
        raise ValueError(f"not a med model payload: {payload.get('model')!r}")
    post = json_field(payload, "mean_weights", WeightPosterior)
    check_payload_d(payload, "mean_weights", post.d)
    return post
