"""Experiment driver: split, train, predict, reject, score, aggregate.

One run of the pipeline walks a grid of training ratios, unlabeled
fractions, margin-rate cells and seeds; each cell trains on a masked
subject-level split and predicts the held-out subjects at their terminal
visits. Rejection and scoring see only the held-out subjects with a truth
label, one mask per split, and accuracy is taken over the non-abstained
ones. Every run goes into one deterministic log, and the result table is
computed from it.
"""

from __future__ import annotations

import json
import logging
import warnings
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import cache, partial
from pathlib import Path
from typing import Annotated, Mapping, Sequence

import numpy as np

from . import med_core, predictor
from .chi_baseline import ChiHyperparams, chi_predict_panel, chi_train
from .errors import GE_ZERO, GT_ZERO, Config, Range
from .med_core import DualProblem, DualSolution, WeightPosterior, solve_dual, solve_folds
from .panel import (
    LongitudinalPanel,
    aggregates,
    apply_standardization,
    fit_standardization,
    load_panel,
    split_and_mask,
)
from .predictor import Predictions, index_means, index_signs, predict_panel, reject_by_rate
from .simulator import SimConfig, simulate

METHOD_UQCHI = "uqchi"
METHOD_CHI = "chi"

_SPLIT_SEED_OFFSET = 500_000
_CV_SEED_OFFSET = 900_000

# the run-log fields that identify a result-table cell, in ResultRow order
_KEY_FIELDS = ("method", "label_ratio", "train_ratio", "rejection_rate", "c")

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class EvalResult:
    """Accuracy over accepted predictions; None when everything abstained."""

    accuracy: float | None
    n_accepted: int
    n_abstained: int
    true_positive: int
    true_negative: int
    false_positive: int
    false_negative: int


def evaluate(predictions: Mapping[str, int], truth: Mapping[str, int]) -> EvalResult:
    """Score rejection-aware predictions (1, -1, 0) against true labels.

    Abstentions (label 0) leave the accuracy denominator. Every predicted id
    must carry a truth entry.
    """
    missing = [sid for sid in predictions if sid not in truth]
    if missing:
        raise ValueError(f"no truth for predicted subjects: {missing[:5]}")
    for sid, pred in predictions.items():
        if pred not in (1, -1, predictor.REJECTED_LABEL):
            raise ValueError(f"prediction for {sid} must be 1, -1 or 0, got {pred}")
    pairs = Counter((pred, truth[sid]) for sid, pred in predictions.items())
    tp, tn, fp, fn = pairs[1, 1], pairs[-1, -1], pairs[1, -1], pairs[-1, 1]
    abstained = sum(n for (pred, _), n in pairs.items() if pred == predictor.REJECTED_LABEL)
    accepted = tp + tn + fp + fn
    accuracy = (tp + tn) / accepted if accepted else None
    return EvalResult(accuracy, accepted, abstained, tp, tn, fp, fn)


def _score(preds: Predictions, truth: Mapping[str, int]) -> EvalResult:
    return evaluate(dict(zip(preds.subject_ids, preds.rejection_labels.tolist())), truth)


# ---------------------------------------------------------------------------
# training compositions


def train_uqchi(
    train_panel: LongitudinalPanel, c: float
) -> tuple[WeightPosterior, DualSolution, DualProblem]:
    """Aggregate the panel, solve the dual and return the weight posterior."""
    problem = DualProblem(aggregates(train_panel), c)
    solution = solve_dual(problem)
    return med_core.posterior(solution, problem), solution, problem


def _fold_sets(labeled: np.ndarray, folds: int, seed: int) -> list[np.ndarray]:
    """Shuffle the labeled subjects' positions and partition them into
    ``folds`` held-out sets.

    With fewer positions than folds this falls back, with a warning, to a
    single holdout of the first half of the shuffled positions.
    """
    shuffled = np.random.default_rng(seed).permutation(labeled)
    if len(shuffled) < folds:
        warnings.warn(
            f"{len(shuffled)} labeled subjects < {folds} folds: "
            "falling back to a single holdout split"
        )
        return [shuffled[: len(shuffled) // 2]]
    return np.array_split(shuffled, folds)


def cross_validate_c(
    train_panel: LongitudinalPanel, c_grid: Sequence[float], folds: int, seed: int
) -> float:
    """Pick the margin rate maximizing mean fold accuracy; ties take the
    smallest c.

    Folds partition the labeled subjects; unlabeled subjects stay in every
    training fold. With fewer labeled subjects than folds this degrades to a
    single holdout (with a warning), and with fewer than two it just returns
    the smallest candidate.

    Each c is one batched computation over the (F, N) fold keep masks. A
    subject's aggregate row depends on neither the fold nor c, so the
    aggregate matrix is built once. The grid is solved in increasing c, each
    c by one ``solve_folds`` call over every fold, warm-started from the
    previous optimum scaled by (1 - 1/c) / (1 - 1/c_prev): stationarity
    1 - 1/(c - lam_n) = a_n . v makes lam proportional to 1 - 1/c when
    lam << c. After a c <= 1 the next c starts cold. The folds' posterior
    means are one product lam @ A; a fold's accuracy is its count of correct
    index signs at held-out terminal visits, as every prediction takes them,
    over its held-out size. With DEBUG logging on, one record per call gives
    every c's fold scores and mean, batched lambda-loop iterations, total
    fold steps and largest fold projected-gradient norm, and the chosen c.
    """
    Range(2).check("folds", folds)
    grid = sorted(set(float(c) for c in c_grid))
    if not grid:
        raise ValueError("empty c grid")
    labels = train_panel.labels
    labeled = np.flatnonzero(labels)
    if len(labeled) < 2:
        warnings.warn("fewer than two labeled subjects: returning smallest c")
        return grid[0]

    matrix = aggregates(train_panel)
    terminals = train_panel.terminals
    fold_rows = _fold_sets(labeled, folds, seed)
    heldout = np.zeros((len(fold_rows), len(labels)), dtype=bool)
    for rows, heldout_rows in zip(heldout, fold_rows):
        rows[heldout_rows] = True
    trace = []
    lam = c_prev = None
    for c in grid:
        start = None
        if lam is not None and c_prev > 1.0:
            start = lam * ((1.0 - 1.0 / c) / (1.0 - 1.0 / c_prev))
        solved = solve_folds(DualProblem(matrix, c), ~heldout, start)
        signs = index_signs(index_means(solved.lam @ matrix, terminals))
        fold_scores = ((signs == labels) & heldout).sum(axis=1) / heldout.sum(axis=1)
        trace.append((c, fold_scores, solved.iterations, float(solved.grad_norm.max())))
        lam, c_prev = solved.lam, c
    scores = [float(np.mean(fold_scores)) for _, fold_scores, _, _ in trace]
    chosen = grid[int(np.argmax(scores))]
    if logger.isEnabledFor(logging.DEBUG):
        record = [
            dict(c=c, fold_scores=fold_scores.tolist(), mean=score, fold_steps=int(steps.sum()),
                 lambda_loop_iterations=int(steps.max()), max_grad_norm=grad_norm)
            for (c, fold_scores, steps, grad_norm), score in zip(trace, scores)
        ]
        extra = {"cv_grid": record, "chosen_c": chosen}
        logger.debug("cross_validate_c chose c=%r over %s", chosen, record, extra=extra)
    return chosen


# ---------------------------------------------------------------------------
# experiment specification


C_POLICY_CV = "cv"
C_POLICY_SWEEP = "sweep"


_OPEN_UNIT = Range(0, 1, open_low=True, open_high=True)


def default_sim_config() -> SimConfig:
    """Harness default: fully labeled panels, masking happens in the split."""
    return SimConfig(label_observed_fraction=1.0)


@dataclass(frozen=True)
class ExperimentSpec(Config):
    """Grid definition plus data source (simulation config or a panel CSV).

    ``c_policy`` "cv" picks c per split by cross-validation over ``c_grid``;
    "sweep" makes one cell per ``c_grid`` entry, so a fixed c is a one-entry
    grid. The default ``sim`` is fully labeled, but a ``sim`` object in a
    spec file builds a whole SimConfig whose omitted fields take SimConfig's
    defaults, ``label_observed_fraction`` 0.2 among them.
    """

    sim: SimConfig | None = field(default_factory=default_sim_config)
    panel_csv: str | None = None
    c_grid: Annotated[tuple[float, ...], GT_ZERO] = (1.5, 3.0, 5.0, 10.0, 20.0, 100.0)
    c_policy: str = C_POLICY_CV
    label_ratios: Annotated[tuple[float, ...], _OPEN_UNIT] = (0.1, 0.2, 0.5)
    train_ratios: Annotated[tuple[float, ...], _OPEN_UNIT] = (0.3, 0.5, 0.7)
    rejection_rates: Annotated[tuple[float, ...], Range(0, 1, open_high=True)] = (0.2, 0.4, 0.6)
    n_seeds: Annotated[int, Range(1)] = 20
    cv_folds: Annotated[int, Range(2)] = 10
    baselines: tuple[str, ...] = (METHOD_UQCHI, METHOD_CHI)
    chi_hyper: ChiHyperparams = field(default_factory=ChiHyperparams)
    chi_steps: Annotated[int, Range(1)] = 400
    chi_step_size: Annotated[float, GT_ZERO] = 0.01
    seed: Annotated[int, GE_ZERO] = 0

    def __post_init__(self):
        super().__post_init__()
        if (self.sim is None) == (self.panel_csv is None):
            raise ValueError("need exactly one data source: sim config or panel CSV")
        if self.sim is not None:
            if self.sim.seed != SimConfig.seed:
                raise ValueError(
                    "sim.seed is not a sweep knob: seed index i simulates with "
                    "seed + i, so set seed instead"
                )
            fraction = self.sim.label_observed_fraction
            if not any(int(fraction * n) for n in self.sim.class_sizes()):
                raise ValueError(
                    "sim.label_observed_fraction hides every simulated label, "
                    "and a chi cell needs one"
                )
        if self.c_policy not in (C_POLICY_CV, C_POLICY_SWEEP):
            raise ValueError(f"unknown c policy {self.c_policy!r}")
        if set(self.baselines) - {METHOD_UQCHI, METHOD_CHI}:
            raise ValueError(f"baselines must be drawn from uqchi/chi, got {self.baselines}")
        # a repeated entry would log each of its runs twice under one cell key
        for name in ("c_grid", "label_ratios", "train_ratios", "rejection_rates", "baselines"):
            entries = getattr(self, name)
            repeated = next((v for i, v in enumerate(entries) if v in entries[:i]), None)
            if repeated is not None:
                raise ValueError(f"{name} repeats the entry {repeated!r}")

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        return cls.from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# result table


@dataclass(frozen=True)
class ResultRow:
    method: str
    label_ratio: float
    train_ratio: float
    rejection_rate: float
    c_key: str
    mean_accuracy: float | None
    std_accuracy: float | None
    n_seeds: int
    mean_abstained: float | None
    n_failed: int


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[ResultRow, ...]

    HEADER = (
        "method,label_ratio,train_ratio,rejection_rate,c,"
        "mean_accuracy,std_accuracy,n_seeds,mean_abstained,n_failed"
    )

    def to_csv_text(self) -> str:
        def cell(value):
            if value is None:
                return ""
            return repr(value) if isinstance(value, float) else str(value)

        rows = (",".join(cell(getattr(r, f.name)) for f in fields(r)) for r in self.rows)
        return "\n".join([self.HEADER, *rows]) + "\n"


@dataclass(frozen=True)
class PipelineResult:
    table: ResultTable
    runs: tuple[dict, ...]

    def write(self, out_dir) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "results.csv").write_text(self.table.to_csv_text())
        with open(out_dir / "runs.jsonl", "w", encoding="utf-8") as fh:
            for run in self.runs:
                fh.write(json.dumps(run, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# pipeline


def _c_cells(spec: ExperimentSpec) -> list[tuple[str, float | None]]:
    if spec.c_policy == C_POLICY_SWEEP:
        return [(repr(c), c) for c in spec.c_grid]
    return [(C_POLICY_CV, None)]


def _source_panels(spec: ExperimentSpec) -> list[tuple[LongitudinalPanel, dict[str, int]]]:
    """(panel, truth) per seed index: the panel CSV, read once, or one
    simulated panel per seed."""
    if spec.panel_csv is not None:
        panel = load_panel(spec.panel_csv)
        return [(panel, panel.observed_labels())] * spec.n_seeds
    return [simulate(replace(spec.sim, seed=spec.seed + i)) for i in range(spec.n_seeds)]


def _uqchi_cell(
    spec: ExperimentSpec,
    seed_index: int,
    train_s: LongitudinalPanel,
    test_s: LongitudinalPanel,
    truth: Mapping[str, int],
    scored: np.ndarray,
    c_value: float | None,
) -> list[tuple[float | None, int, float]]:
    """(accuracy, abstained, chosen_c) per rejection rate for one c cell;
    ``c_value=None`` cross-validates c on the training split. With no scored
    subject every rate logs (None, 0, chosen_c), as the chi cell does."""
    if c_value is None:
        chosen_c = cross_validate_c(
            train_s, spec.c_grid, spec.cv_folds, seed=spec.seed + seed_index + _CV_SEED_OFFSET
        )
    else:
        chosen_c = c_value
    posterior, _, _ = train_uqchi(train_s, chosen_c)
    preds = predict_panel(posterior, test_s).subset(scored)
    if not len(preds):
        return [(None, 0, chosen_c)] * len(spec.rejection_rates)
    results = [_score(reject_by_rate(preds, rate), truth) for rate in spec.rejection_rates]
    return [(result.accuracy, result.n_abstained, chosen_c) for result in results]


def _chi_cell(
    spec: ExperimentSpec,
    train_s: LongitudinalPanel,
    test_s: LongitudinalPanel,
    truth: Mapping[str, int],
    scored: np.ndarray,
) -> list[tuple[float | None, int, None]]:
    """The one (accuracy, abstained, None) outcome of the chi baseline."""
    model = chi_train(
        train_s, spec.chi_hyper, steps=spec.chi_steps, step_size=spec.chi_step_size
    )
    result = _score(chi_predict_panel(model, test_s).subset(scored), truth)
    return [(result.accuracy, result.n_abstained, None)]


def _table(runs: Sequence[dict]) -> ResultTable:
    """One row per cell key, in first-appearance order, aggregated over seeds."""
    groups: dict[tuple, list[dict]] = {}
    for run in runs:
        groups.setdefault(tuple(run[f] for f in _KEY_FIELDS), []).append(run)
    rows = []
    for key, group in groups.items():
        ok = [run for run in group if run["error"] is None]
        accs = [run["accuracy"] for run in ok if run["accuracy"] is not None]
        abstained = [run["abstained"] for run in ok]
        std_acc = (
            float(np.std(accs, ddof=1)) if len(accs) > 1 else (0.0 if accs else None)
        )
        rows.append(
            ResultRow(
                *key,
                mean_accuracy=float(np.mean(accs)) if accs else None,
                std_accuracy=std_acc,
                n_seeds=len(accs),
                mean_abstained=float(np.mean(abstained)) if abstained else None,
                n_failed=len(group) - len(ok),
            )
        )
    return ResultTable(tuple(rows))


def _split(panel, truth, train_ratio, label_ratio, seed):
    """(train, test, truth, scored) of one split, both sides standardized
    with the train side's fit; ``scored`` masks the test subjects with a
    truth entry, the ones that rejection and scoring see."""
    train, test = split_and_mask(panel, train_ratio, label_ratio, seed)
    standardization = fit_standardization(train)
    train_s = apply_standardization(train, standardization)
    test_s = apply_standardization(test, standardization)
    scored = np.array([sid in truth for sid in test_s.subject_ids])
    return train_s, test_s, truth, scored


def run_pipeline(spec: ExperimentSpec) -> PipelineResult:
    """Walk the grid, log one run per cell key and seed, and compute the
    table from that log.

    A failing split or cell is logged with its coordinates and error under
    every key it covers, never fatal. Output is deterministic in the spec:
    identical specs give byte-identical tables and logs.
    """
    runs: list[dict] = []
    sources = _source_panels(spec)
    for train_ratio in spec.train_ratios:
        for label_ratio in spec.label_ratios:
            for i, (panel, truth) in enumerate(sources):
                cells = []
                if METHOD_UQCHI in spec.baselines:
                    for c_key, c_value in _c_cells(spec):
                        keys = [
                            (METHOD_UQCHI, label_ratio, train_ratio, rate, c_key)
                            for rate in spec.rejection_rates
                        ]
                        cells.append((keys, partial(_uqchi_cell, spec, i, c_value=c_value)))
                if METHOD_CHI in spec.baselines:
                    keys = [(METHOD_CHI, label_ratio, train_ratio, 0.0, "")]
                    cells.append((keys, partial(_chi_cell, spec)))

                # made by the first cell; a failing split fails each cell again
                seed = spec.seed + i + _SPLIT_SEED_OFFSET
                split = cache(partial(_split, panel, truth, train_ratio, label_ratio, seed))
                for keys, cell in cells:
                    try:
                        outcomes, error = cell(*split()), None
                    except Exception as exc:  # noqa: BLE001 - split and cell isolation
                        outcomes = [(None, None, None)] * len(keys)
                        error = f"{type(exc).__name__}: {exc}"
                    for key, (accuracy, abstained, chosen_c) in zip(keys, outcomes):
                        runs.append(
                            dict(
                                zip(_KEY_FIELDS, key),
                                seed_index=i,
                                chosen_c=chosen_c,
                                accuracy=accuracy,
                                abstained=abstained,
                                error=error,
                            )
                        )
    return PipelineResult(table=_table(runs), runs=tuple(runs))
