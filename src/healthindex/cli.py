"""Command line front end.

Subcommands: simulate, train, predict, evaluate, sweep. Exit codes:
0 success, 2 validation/input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import chi_baseline, harness, med_core, predictor
from .chi_baseline import ChiHyperparams
from .errors import (
    GT_ZERO,
    DimensionMismatch,
    NonConvergence,
    NonFiniteObjective,
    Range,
    json_field,
)
# apply_standardization stays importable from here because perfbench's tracer
# wraps cli.apply_standardization; load_panel standardizes the CLI's panels
from .panel import (  # noqa: F401
    Standardization,
    apply_standardization,
    fit_standardization,
    load_observed_labels,
    load_panel,
    save_standardization,
)
from .simulator import SimConfig, simulate_to_files

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _names(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in _names(text))


def _fields_given(cls, args) -> dict:
    """The fields of the dataclass ``cls`` that ``args`` names and sets."""
    given = {name: value for name, value in vars(args).items() if value is not None}
    return {f.name: given[f.name] for f in dataclasses.fields(cls) if f.name in given}


def _add_simulate_parser(subparsers):
    p = subparsers.add_parser("simulate", help="generate a synthetic panel CSV")
    p.add_argument("--out", required=True, help="panel CSV path")
    p.add_argument("--echo", help="config echo JSON path (sigmas, truth, direction)")
    p.add_argument("--d", type=int)
    p.add_argument("--n-per-class", type=int)
    p.add_argument("--normal-proportion", type=float)
    p.add_argument("--visits-min", type=int)
    p.add_argument("--visits-max", type=int)
    p.add_argument("--degradation-rate", type=float)
    p.add_argument("--informative-k", type=int)
    p.add_argument("--label-observed-fraction", type=float)
    p.add_argument("--seed", type=int)


def _cmd_simulate(args) -> int:
    config = SimConfig(**_fields_given(SimConfig, args))
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
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--lambda-var", type=float)
    p.add_argument("--gamma-l1", type=float)
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--step-size", type=float, default=0.01)


def _cmd_train(args) -> int:
    # the method's flags, checked as its code checks them, before the panel is read
    if args.method == "uqchi":
        GT_ZERO.check("margin prior rate c", args.c)
        if args.c <= 1:
            raise ValueError(f"margin prior rate c={args.c} <= 1 puts every lambda at 0, so the "
                             "model carries no data and every prediction is +1; use c > 1")
    else:
        hyper = ChiHyperparams(**_fields_given(ChiHyperparams, args))
        Range(1).check("steps", args.steps)
        GT_ZERO.check("step_size", args.step_size)
    # fitted on the raw rows, then applied to the same matrix in place
    panel = load_panel(args.panel, None if args.no_standardize else fit_standardization)
    standardization = panel.standardization

    if args.method == "uqchi":
        _, solution, problem = harness.train_uqchi(panel, args.c)
        payload = med_core.model_payload(
            problem, solution, standardization_dict=standardization.to_dict()
        )
        summary = (f"iterations={solution.iterations}, objective={solution.objective:.6g}, "
                   f"grad_norm={solution.grad_norm:.3e}")
    else:
        model = chi_baseline.chi_train(
            panel, hyper, steps=args.steps, step_size=args.step_size
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


def _read_model(path):
    """The kind, model and standardization of a model file; a missing or
    malformed field is refused naming the file and the field."""
    payload = med_core.load_model(path)
    kind = payload.get("model")
    readers = {"med": med_core.posterior_from_payload, "chi": chi_baseline.model_from_payload}
    if kind not in readers:
        raise ValueError(f"unknown model kind {kind!r} in {path}")
    try:
        model = readers[kind](payload)
        standardization = json_field(payload, "standardization", Standardization.from_dict)
        if standardization.mean.shape[0] != model.d:
            raise DimensionMismatch(f"standardization holds {standardization.mean.shape[0]} "
                                    f"features, d is {model.d}")
    except ValueError as exc:
        raise ValueError(f"model file {path}: {exc}") from None
    return kind, model, standardization


def _cmd_predict(args) -> int:
    if args.reject_rate is not None:
        predictor.RATES.check("rate", args.reject_rate)
    if args.reject_threshold is not None:
        predictor.THRESHOLDS.check("threshold", args.reject_threshold)
    kind, model, standardization = _read_model(args.model)
    if kind == "chi" and (args.reject_rate is not None or args.reject_threshold is not None):
        raise ValueError("rejection options need a model with confidence scores")

    def model_standardization(raw):
        if model.d != raw.d:
            raise DimensionMismatch(
                f"model {args.model} has d={model.d}, panel {args.panel} has d={raw.d}"
            )
        return standardization

    panel = load_panel(args.panel, model_standardization)  # standardized in place

    if kind == "med":
        preds = predictor.predict_panel(model, panel)
        if args.reject_rate is not None:
            preds = predictor.reject_by_rate(preds, args.reject_rate)
        elif args.reject_threshold is not None:
            preds = predictor.reject_by_threshold(preds, args.reject_threshold)
    else:
        preds = chi_baseline.chi_predict_panel(model, panel)
    predictor.write_predictions(preds, args.out)
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
    truth = load_observed_labels(args.truth)
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
    p.add_argument(
        "--baselines", type=_names, default=None, help="comma list drawn from uqchi,chi"
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--degradation-rate", type=float, default=None)


def _cmd_sweep(args) -> int:
    spec = (
        harness.ExperimentSpec.from_json(args.config)
        if args.config
        else harness.ExperimentSpec()
    )
    overrides = _fields_given(harness.ExperimentSpec, args)
    if args.panel is not None:
        overrides["panel_csv"] = args.panel
        overrides["sim"] = None
    if args.degradation_rate is not None:
        sim = overrides.get("sim", spec.sim)
        if sim is None:
            raise ValueError("--degradation-rate needs a simulation data source")
        overrides["sim"] = dataclasses.replace(sim, degradation_rate=args.degradation_rate)
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
