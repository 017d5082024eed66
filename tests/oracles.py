"""Independent numerical oracles shared by the test modules.

Everything here avoids the production code paths it is used to check:
finite differences for gradients, Monte Carlo for the Gaussian integral,
grid search plus coordinate-wise golden-section ascent for the dual
optimum, and one Python loop per subject for the panel layers the flat
panel computes with whole-matrix operations.
"""

from typing import NamedTuple

import numpy as np

from healthindex.errors import DimensionMismatch, PanelFormatError

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def central_diff_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        up = x.copy()
        down = x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2.0 * h)
    return grad


def mc_log_mean_exp(v, n_draws=1_000_000, seed=0):
    """log E[exp(w.v)] for w ~ N(0, I), by plain Monte Carlo."""
    v = np.asarray(v, dtype=float)
    rng = np.random.default_rng(seed)
    projections = rng.standard_normal((n_draws, v.size)) @ v
    shift = projections.max()
    return shift + np.log(np.exp(projections - shift).mean())


def importance_sampled_mean(v, n_draws=100_000, seed=0):
    """Self-normalized importance-sampling mean of the unnormalized density
    N(0, I) * exp(w.v), plus a per-dimension standard error estimate."""
    v = np.asarray(v, dtype=float)
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((n_draws, v.size))
    logw = draws @ v
    logw -= logw.max()
    weights = np.exp(logw)
    weights /= weights.sum()
    mean = weights @ draws
    spread = (weights[:, None] ** 2 * (draws - mean) ** 2).sum(axis=0)
    return mean, np.sqrt(spread)


def golden_section_max(f, lo, hi, iterations=120):
    a, b = float(lo), float(hi)
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iterations):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def coordinate_ascent_max(f, x0, lower, upper, sweeps=40):
    """Coordinate-wise golden-section ascent; global for strictly concave f."""
    x = np.array(x0, dtype=float)
    for _ in range(sweeps):
        for i in range(x.size):
            def along(value, i=i):
                y = x.copy()
                y[i] = value
                return f(y)

            x[i], _ = golden_section_max(along, lower, upper)
    return x, f(x)


def dual_value_grid_2d(aggregates, c, step=1e-3, margin=1e-8):
    """Grid search of the two-multiplier dual objective, row by row.

    Independent of the production objective: evaluates the closed form via
    the Gram expansion of the quadratic term.
    """
    a1, a2 = np.asarray(aggregates[0], float), np.asarray(aggregates[1], float)
    g11, g12, g22 = a1 @ a1, a1 @ a2, a2 @ a2
    upper = c * (1.0 - margin)
    axis = np.arange(0.0, upper, step)
    barrier = axis + np.log1p(-axis / c)
    best_value = -np.inf
    best = (0.0, 0.0)
    quad2 = 0.5 * g22 * axis**2
    for l1, b1 in zip(axis, barrier):
        values = b1 + barrier - (0.5 * g11 * l1**2 + g12 * l1 * axis + quad2)
        k = int(np.argmax(values))
        if values[k] > best_value:
            best_value = float(values[k])
            best = (float(l1), float(axis[k]))

    def objective(lam):
        quad = (
            0.5 * g11 * lam[0] ** 2 + g12 * lam[0] * lam[1] + 0.5 * g22 * lam[1] ** 2
        )
        return (
            lam[0]
            + np.log1p(-lam[0] / c)
            + lam[1]
            + np.log1p(-lam[1] / c)
            - quad
        )

    refined, refined_value = coordinate_ascent_max(
        objective, np.array(best), 0.0, upper
    )
    return refined, float(refined_value)


def cross_validate_c_cold(train_panel, c_grid, folds, seed):
    """Margin-rate CV the slow way: c-major, one cold solve per (c, fold).

    Every fold rebuilds its own training panel and aggregates, and every held-out
    subject is scored one at a time with ``predictor.predict``.
    """
    import warnings

    from healthindex.harness import train_uqchi
    from healthindex.predictor import predict

    grid = sorted(set(float(c) for c in c_grid))
    labeled_ids = [s.subject_id for s in train_panel.subjects if s.label is not None]
    if len(labeled_ids) < 2:
        return grid[0]
    shuffled = list(np.random.default_rng(seed).permutation(labeled_ids))
    if len(labeled_ids) < folds:
        fold_sets = [shuffled[: len(shuffled) // 2]]
    else:
        fold_sets = [list(part) for part in np.array_split(np.array(shuffled), folds)]

    best_c, best_score = None, -np.inf
    for c in grid:
        scores = []
        for heldout in fold_sets:
            heldout_set = set(heldout)
            fold_train = panel_from_subjects(
                tuple(s for s in train_panel.subjects if s.subject_id not in heldout_set),
                standardization=train_panel.standardization,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                posterior, _, _ = train_uqchi(fold_train, c)
            eval_subjects = [s for s in train_panel.subjects if s.subject_id in heldout_set]
            correct = sum(
                predict(posterior, s.observations[-1]) == s.label for s in eval_subjects
            )
            scores.append(correct / len(eval_subjects))
        mean_score = float(np.mean(scores))
        if mean_score > best_score:
            best_c, best_score = c, mean_score
    return best_c


def cross_validate_c_per_fold(train_panel, c_grid, folds, seed):
    """Margin-rate CV one fold at a time, as it ran before the folds were
    batched: (chosen c, mean fold score of each c in increasing order).

    Each fold solves its own problem of kept rows with ``solve_dual``,
    warm-started from its optimum at the previous c scaled by (1 - 1/c) /
    (1 - 1/c_prev), or cold after a c <= 1; it builds its posterior and
    scores its held-out terminal visits with one product per fold.
    """
    from healthindex.med_core import DualProblem, posterior, solve_dual
    from healthindex.panel import aggregates

    grid = sorted(set(float(c) for c in c_grid))
    labels = train_panel.labels
    shuffled = np.random.default_rng(seed).permutation(np.flatnonzero(labels))
    if len(shuffled) < folds:
        heldouts = [shuffled[: len(shuffled) // 2]]
    else:
        heldouts = np.array_split(shuffled, folds)
    matrix = aggregates(train_panel)
    terminals = train_panel.terminals
    scores, lams, c_prev = [], [None] * len(heldouts), None
    for c in grid:
        fold_scores = []
        for f, heldout in enumerate(heldouts):
            rows = np.ones(len(labels), dtype=bool)
            rows[heldout] = False
            problem = DualProblem(matrix[rows], c)
            start = None
            if lams[f] is not None and c_prev > 1.0:
                start = lams[f] * ((1.0 - 1.0 / c) / (1.0 - 1.0 / c_prev))
            solution = solve_dual(problem, start=start)
            mean = posterior(solution, problem).mean
            predicted = np.where(terminals[~rows] @ mean >= 0.0, 1, -1)
            fold_scores.append(float(np.mean(predicted == labels[~rows])))
            lams[f] = solution.lam
        scores.append(float(np.mean(fold_scores)))
        c_prev = c
    return grid[int(np.argmax(scores))], scores


def chi_design_per_term(panel):
    """The chi objective's blocks, one per term: labeled terminal visits and
    their labels, consecutive-visit differences, and each class's terminal
    visits minus their center."""
    d = panel.d
    labeled = [s for s in panel.subjects if s.label is not None]
    x_labeled = np.array([s.observations[-1] for s in labeled], dtype=float).reshape(-1, d)
    y_labeled = np.array([s.label for s in labeled], dtype=float)
    blocks = [np.diff(s.observations, axis=0) for s in panel.subjects if s.n_visits > 1]
    diffs = np.vstack(blocks) if blocks else np.empty((0, d))
    centered = []
    for label in (1.0, -1.0):
        members = x_labeled[y_labeled == label]
        if len(members):
            centered.append(members - members.mean(axis=0))
    return x_labeled, y_labeled, diffs, centered


def chi_evaluate_per_term(design, w, b, hyper):
    """Chi objective value and the subgradient (g_w, g_b) of every term except
    the L1 penalty, each term evaluated on its own block."""
    x_labeled, y_labeled, diffs, centered = design
    g_w = w.copy()
    g_b = 0.0
    value = 0.5 * float(w @ w)
    if len(y_labeled):
        margins = y_labeled * (x_labeled @ w + b)
        value += hyper.beta * float(np.maximum(0.0, 1.0 - margins).sum())
        active = margins < 1.0
        g_w -= hyper.beta * (y_labeled[active] @ x_labeled[active])
        g_b -= hyper.beta * float(y_labeled[active].sum())
    if len(diffs):
        rises = diffs @ w
        value += hyper.alpha * float(np.maximum(0.0, 1.0 - rises).sum())
        g_w -= hyper.alpha * diffs[rises < 1.0].sum(axis=0)
    for block in centered:
        proj = block @ w
        value += 0.5 * hyper.lambda_var * float(proj @ proj) / len(block)
        g_w += hyper.lambda_var * (block.T @ proj) / len(block)
    value += hyper.gamma_l1 * float(np.abs(w).sum())
    return value, g_w, g_b


def chi_train_per_term(panel, hyper, steps=400, step_size=0.01):
    """Proximal subgradient descent on (w, b) with step step_size / sqrt(k),
    driven by ``chi_evaluate_per_term``; returns the best iterate (w, b)."""
    design = chi_design_per_term(panel)
    w, b = np.zeros(panel.d), 0.0
    best_value, g_w, g_b = chi_evaluate_per_term(design, w, b, hyper)
    best_w, best_b = w, b
    for k in range(1, steps + 1):
        step = step_size / np.sqrt(k)
        shifted = w - step * g_w
        w = np.sign(shifted) * np.maximum(np.abs(shifted) - step * hyper.gamma_l1, 0.0)
        b = b - step * g_b
        value, g_w, g_b = chi_evaluate_per_term(design, w, b, hyper)
        if value < best_value:
            best_value, best_w, best_b = value, w, b
    return best_w, best_b


# ---------------------------------------------------------------------------
# per-subject panel references: the panel layers as they were computed when
# a panel was a tuple of per-subject objects, one loop iteration per subject


class Series(NamedTuple):
    """One subject's pieces, as ``panel_from_subjects`` takes them."""

    subject_id: str
    times: np.ndarray
    observations: np.ndarray
    label: int | None = None


# a subject's label as the panel's labels array holds it; _BAD_LABEL is refused
_LABEL_CODES = {1: 1, -1: -1, None: 0}
_BAD_LABEL = 2


def panel_from_subjects(subjects, standardization=None):
    """A panel of per-subject pieces: Series, or anything with their four
    fields (a panel's ``subjects`` views among them). A (T, d)/times
    mismatch and a mixed d are refused here; the panel checks the rest."""
    from healthindex.panel import LongitudinalPanel

    subjects = tuple(subjects)
    if not subjects:
        raise PanelFormatError("panel needs >= 1 subject")
    blocks = [np.asarray(s.observations, dtype=float) for s in subjects]
    for s, x in zip(subjects, blocks):
        if x.ndim != 2 or x.shape[0] != len(s.times):
            raise DimensionMismatch(
                f"subject {s.subject_id}: observations must be (T, d) with T == len(times)"
            )
        if x.shape[1] != blocks[0].shape[1]:
            raise DimensionMismatch(
                f"subject {s.subject_id} has d={x.shape[1]}, expected {blocks[0].shape[1]}"
            )
    return LongitudinalPanel(
        tuple(s.subject_id for s in subjects),
        np.cumsum([0] + [len(x) for x in blocks]),
        np.concatenate([np.asarray(s.times, dtype=int) for s in subjects]),
        np.vstack(blocks),
        [_LABEL_CODES.get(s.label, _BAD_LABEL) for s in subjects],
        standardization,
    )


def validate_subjects(subjects):
    """Each subject's checks in turn, then the panel's; raises the error a
    panel of these subjects must raise."""
    for s in subjects:
        times = np.array(s.times, dtype=int)
        obs = np.array(s.observations, dtype=float)
        if obs.ndim != 2 or obs.shape[0] != times.shape[0]:
            raise DimensionMismatch(
                f"subject {s.subject_id}: observations must be (T, d) with "
                f"T == len(times)"
            )
        if times.shape[0] < 1:
            raise PanelFormatError(f"subject {s.subject_id}: needs >= 1 visit")
        if np.any(np.diff(times) <= 0):
            raise PanelFormatError(
                f"subject {s.subject_id}: times must be strictly increasing"
            )
        if not np.all(np.isfinite(obs)):
            raise PanelFormatError(f"subject {s.subject_id}: non-finite observation")
        if s.label not in (1, -1, None):
            raise PanelFormatError(
                f"subject {s.subject_id}: label must be +1, -1 or None"
            )
    if not subjects:
        raise PanelFormatError("panel needs >= 1 subject")
    d = np.shape(subjects[0].observations)[1]
    for s in subjects:
        if np.shape(s.observations)[1] != d:
            raise DimensionMismatch(
                f"subject {s.subject_id} has d={np.shape(s.observations)[1]}, expected {d}"
            )
    seen = set()
    for s in subjects:
        if s.subject_id in seen:
            raise PanelFormatError(f"duplicate subject id {s.subject_id}")
        seen.add(s.subject_id)


def aggregates_per_subject(subjects):
    """Expected label times the terminal visit, plus the telescoped sum of
    consecutive-visit differences, last minus first visit, one subject at a
    time."""
    rows = []
    for s in subjects:
        ybar = 0.0 if s.label is None else float(s.label)
        last, first = s.observations[-1], s.observations[0]
        rows.append(ybar * last + (last - first))
    return np.vstack(rows)


def standardize_per_subject(subjects):
    """(mean, scale, each subject's transformed observations)."""
    stacked = np.vstack([s.observations for s in subjects])
    mean = stacked.mean(axis=0)
    scale = stacked.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return mean, scale, [(s.observations - mean) / scale for s in subjects]


def split_and_mask_per_subject(subjects, train_fraction, unlabeled_fraction, seed):
    """(train, test) subject lists, with the masked train labels set to None."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(subjects))
    n_train = int(np.floor(train_fraction * len(subjects) + 0.5))
    if n_train == 0 or n_train == len(subjects):
        raise ValueError("split leaves an empty train or test side")
    train = [subjects[i] for i in sorted(order[:n_train])]
    n_mask = int(np.floor(unlabeled_fraction * n_train + 0.5))
    masked = set(rng.choice(n_train, size=n_mask, replace=False).tolist())
    train = [s._replace(label=None) if i in masked else s for i, s in enumerate(train)]
    return train, [subjects[i] for i in sorted(order[n_train:])]


def chi_design_per_subject(subjects, hyper):
    """The chi objective's stacked hinge rows, their weights and the
    quadratic form, filled one subject at a time."""
    d = np.shape(subjects[0].observations)[1]
    labeled = [s for s in subjects if s.label is not None]
    n_lab = len(labeled)
    n_rows = n_lab + sum(len(s.times) - 1 for s in subjects)
    rows = np.zeros((n_rows, d + 1))
    for i, s in enumerate(labeled):
        rows[i, :d] = s.label * s.observations[-1]
        rows[i, d] = s.label
    at = n_lab
    for s in subjects:
        rows[at : at + len(s.times) - 1, :d] = np.diff(s.observations, axis=0)
        at += len(s.times) - 1
    weights = np.full(n_rows, hyper.alpha, dtype=float)
    weights[:n_lab] = hyper.beta
    quad = np.eye(d + 1)
    quad[d, d] = 0.0
    for label in (1, -1):
        members = np.array([s.observations[-1] for s in labeled if s.label == label])
        if len(members):
            centered = members - members.mean(axis=0)
            quad[:d, :d] += (hyper.lambda_var / len(members)) * (centered.T @ centered)
    return rows, weights, quad
