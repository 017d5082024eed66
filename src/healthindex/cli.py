"""Command line front end.

Subcommands: simulate, train, predict, evaluate, sweep. Exit codes:
0 success, 2 validation/input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from . import chi_baseline, harness, med_core, predictor
from .chi_baseline import ChiHyperparams
from .errors import NonConvergence, NonFiniteObjective
from .panel import (
    Standardization,
    apply_standardization,
    fit_standardization,
    load_panel,
    save_standardization,
)
from .simulator import SimConfig, simulate_to_files

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _add_simulate_parser(subparsers):
    p = subparsers.add_parser("simulate", help="generate a synthetic panel CSV")
    p.add_argument("--out", required=True, help="panel CSV path")
    p.add_argument("--echo", help="config echo JSON path (sigmas, truth, direction)")
    p.add_argument("--d", type=int, default=SimConfig.d)
    p.add_argument("--n-per-class", type=int, default=SimConfig.n_per_class)
    p.add_argument("--normal-proportion", type=float, default=None)
    p.add_argument("--visits-min", type=int, default=SimConfig.visits_min)
    p.add_argument("--visits-max", type=int, default=SimConfig.visits_max)
    p.add_argument("--degradation-rate", type=float, default=SimConfig.degradation_rate)
    p.add_argument("--informative-k", type=int, default=SimConfig.informative_k)
    p.add_argument(
        "--label-observed-fraction",
        type=float,
        default=SimConfig.label_observed_fraction,
    )
    p.add_argument("--seed", type=int, default=SimConfig.seed)


def _cmd_simulate(args) -> int:
    config = SimConfig(
        d=args.d,
        n_per_class=args.n_per_class,
        normal_proportion=args.normal_proportion,
        visits_min=args.visits_min,
        visits_max=args.visits_max,
        degradation_rate=args.degradation_rate,
        informative_k=args.informative_k,
        label_observed_fraction=args.label_observed_fraction,
        seed=args.seed,
    )
    panel, _ = simulate_to_files(config, args.out, args.echo)
    print(f"wrote {args.out} ({panel.n_subjects} subjects, d={panel.d})")
    return EXIT_OK


def _add_train_parser(subparsers):
    p = subparsers.add_parser("train", help="fit a model on a panel CSV")
    p.add_argument("--panel", required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--method", choices=("uqchi", "chi"), default="uqchi")
    p.add_argument("--no-standardize", action="store_true")
    p.add_argument("--standardization-out", help="also write the sidecar JSON")
    p.add_argument("--c", type=float, default=1.5, help="margin prior rate (uqchi)")
    p.add_argument("--tol", type=float, default=med_core.DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=med_core.DEFAULT_MAX_ITER)
    p.add_argument("--alpha", type=float, default=ChiHyperparams.alpha)
    p.add_argument("--beta", type=float, default=ChiHyperparams.beta)
    p.add_argument("--lambda-var", type=float, default=ChiHyperparams.lambda_var)
    p.add_argument("--gamma-l1", type=float, default=ChiHyperparams.gamma_l1)
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--step-size", type=float, default=0.01)


def _cmd_train(args) -> int:
    panel = load_panel(args.panel)
    if args.no_standardize:
        standardization = Standardization.identity(panel.d)
        train_panel = panel
    else:
        standardization = fit_standardization(panel)
        train_panel = apply_standardization(panel, standardization)

    if args.method == "uqchi":
        _, solution, problem = harness.train_uqchi(
            train_panel, args.c, tol=args.tol, max_iter=args.max_iter
        )
        payload = med_core.model_payload(
            problem, solution, standardization_dict=standardization.to_dict()
        )
        summary = (
            f"converged={solution.converged}, "
            f"iterations={solution.iterations}, objective={solution.objective:.6g}"
        )
    else:
        hyper = ChiHyperparams(args.alpha, args.beta, args.lambda_var, args.gamma_l1)
        model = chi_baseline.chi_train(
            train_panel, hyper, steps=args.steps, step_size=args.step_size
        )
        payload = chi_baseline.model_payload(
            model, hyper, standardization_dict=standardization.to_dict()
        )
        summary = f"|w|_1={float(abs(model.w).sum()):.6g}, b={model.b:.6g}"
    med_core.save_model(args.out, payload)
    print(f"wrote {args.out} ({summary})")

    if args.standardization_out:
        save_standardization(standardization, args.standardization_out)
    return EXIT_OK


def _add_predict_parser(subparsers):
    p = subparsers.add_parser("predict", help="score a panel with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--panel", required=True)
    p.add_argument("--out", required=True, help="prediction CSV path")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--reject-rate", type=float, default=None)
    group.add_argument("--reject-threshold", type=float, default=None)


def _cmd_predict(args) -> int:
    payload = med_core.load_model(args.model)
    panel = load_panel(args.panel)
    standardization = (
        Standardization.from_dict(payload["standardization"])
        if payload.get("standardization")
        else Standardization.identity(panel.d)
    )
    scored = (
        panel
        if standardization.is_identity
        else apply_standardization(panel, standardization)
    )

    kind = payload.get("model")
    if kind == "med":
        posterior = med_core.posterior_from_payload(payload)
        records = predictor.predict_panel(posterior, scored)
        if args.reject_rate is not None:
            records = predictor.reject_by_rate(records, args.reject_rate)
        elif args.reject_threshold is not None:
            records = predictor.reject_by_threshold(records, args.reject_threshold)
        predictor.write_predictions(records, args.out)
    elif kind == "chi":
        if args.reject_rate is not None or args.reject_threshold is not None:
            raise ValueError("rejection options need a model with confidence scores")
        model = chi_baseline.model_from_payload(payload)
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(predictor.PREDICTION_COLUMNS)
            for s in scored.subjects:
                writer.writerow(
                    [
                        s.subject_id,
                        int(s.times[-1]),
                        repr(float(s.terminal @ model.w)),
                        "",
                        chi_baseline.chi_predict(model, s.terminal),
                        "",
                        0,
                    ]
                )
    else:
        raise ValueError(f"unknown model kind {kind!r} in {args.model}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _add_evaluate_parser(subparsers):
    p = subparsers.add_parser(
        "evaluate", help="score a prediction CSV against labeled panel truth"
    )
    p.add_argument("--predictions", required=True)
    p.add_argument("--truth", required=True, help="panel CSV carrying true labels")
    p.add_argument("--out", help="write the JSON report here instead of stdout")


def _cmd_evaluate(args) -> int:
    preds = predictor.read_prediction_labels(args.predictions)
    truth = load_panel(args.truth).observed_labels()
    scored = {sid: label for sid, label in preds.items() if sid in truth}
    result = harness.evaluate(scored, truth)
    payload = dataclasses.asdict(result)
    payload["n_unscored"] = len(preds) - len(scored)
    report = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(report + "\n")
    else:
        print(report)
    return EXIT_OK


def _add_sweep_parser(subparsers):
    p = subparsers.add_parser("sweep", help="run the experiment grid")
    p.add_argument("--config", help="ExperimentSpec JSON file to start from")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--panel", help="panel CSV data source (overrides simulation)")
    p.add_argument("--c-grid", type=_floats, default=None)
    p.add_argument("--c-policy", choices=("cv", "fixed", "sweep"), default=None)
    p.add_argument("--fixed-c", type=float, default=None)
    p.add_argument("--label-ratios", type=_floats, default=None)
    p.add_argument("--train-ratios", type=_floats, default=None)
    p.add_argument("--rejection-rates", type=_floats, default=None)
    p.add_argument("--n-seeds", type=int, default=None)
    p.add_argument("--cv-folds", type=int, default=None)
    p.add_argument("--baselines", default=None, help="comma list drawn from uqchi,chi")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--degradation-rate", type=float, default=None)


def _cmd_sweep(args) -> int:
    spec = (
        harness.ExperimentSpec.from_json(args.config)
        if args.config
        else harness.ExperimentSpec()
    )
    overrides = {}
    for field_name, attr in (
        ("c_grid", "c_grid"),
        ("c_policy", "c_policy"),
        ("fixed_c", "fixed_c"),
        ("label_ratios", "label_ratios"),
        ("train_ratios", "train_ratios"),
        ("rejection_rates", "rejection_rates"),
        ("n_seeds", "n_seeds"),
        ("cv_folds", "cv_folds"),
        ("seed", "seed"),
    ):
        value = getattr(args, attr)
        if value is not None:
            overrides[field_name] = value
    if args.baselines is not None:
        overrides["baselines"] = tuple(
            tok.strip() for tok in args.baselines.split(",") if tok.strip()
        )
    if args.panel is not None:
        overrides["panel_csv"] = args.panel
        overrides["sim"] = None
    if args.degradation_rate is not None:
        if spec.sim is None:
            raise ValueError("--degradation-rate needs a simulation data source")
        overrides["sim"] = dataclasses.replace(
            spec.sim, degradation_rate=args.degradation_rate
        )
    if overrides:
        spec = dataclasses.replace(spec, **overrides)

    result = harness.run_pipeline(spec)
    result.write(args.out_dir)
    spec_echo = json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n"
    (Path(args.out_dir) / "spec.json").write_text(spec_echo)
    print(f"wrote {args.out_dir}/results.csv ({len(result.table.rows)} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="healthindex",
        description=(
            "Learn a monotone health index from longitudinal panels, with "
            "uncertainty-scored predictions, a rejection option and an "
            "experiment harness."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_simulate_parser(subparsers)
    _add_train_parser(subparsers)
    _add_predict_parser(subparsers)
    _add_evaluate_parser(subparsers)
    _add_sweep_parser(subparsers)
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (NonConvergence, NonFiniteObjective, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
