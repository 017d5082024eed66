"""In-memory span recording around healthindex's public functions.

A span is (name, start, end, parent, attrs). Spans are opened by wrappers
that replace public functions in the module namespace each caller looks
them up in (``harness.solve_dual``, ``cli.load_panel``, ...), so the program
itself is unchanged. Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = 0  # number of the current operation, for per-operation counters

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its attrs dict for the caller to fill."""
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "attrs": {}}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, observe=None):
        """Wrap ``fn`` in a span; ``observe(attrs, args, kwargs, result)`` adds
        counters, and an exception is recorded as ``attrs["error"]``."""
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    attrs["error"] = type(exc).__name__
                    raise
                if observe is not None:
                    observe(attrs, args, kwargs, result)
                return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, patches):
        """Replace each ``(module, attr, span name, observe)`` for the duration."""
        saved = []
        try:
            for module, attr, name, observe in patches:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(getattr(module, attr), name, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}, sort_keys=True) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            p = spans[s["parent"]]
            start, end = max(s["start"], p["start"]), min(s["end"], p["end"])
            if end > start:
                children[s["parent"]].append((start, end))
    return [s["end"] - s["start"] - _covered(children[i]) for i, s in enumerate(spans)]


def root_check(spans, selfs) -> tuple[float, float]:
    """(sum of all self times, sum of root durations); equal for a sound tree."""
    return sum(selfs), sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


def _ancestors(spans, i):
    p = spans[i]["parent"]
    while p is not None:
        yield spans[p]
        p = spans[p]["parent"]


def _quantile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# CLI span names, one per command the benchmark issues
CLI_COMMANDS = ("simulate", "train_uqchi", "train_chi", "predict", "evaluate")


def layer_metrics(spans, units: int) -> dict[str, float]:
    """The per-layer table, with counts and times per unit of work.

    ``units`` is the number of traced operations (grid passes or CLI cycles)
    the spans cover; every count and time is divided by it.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return len(idx(name)) / units

    def total(name):
        return sum(spans[i]["end"] - spans[i]["start"] for i in idx(name)) / units

    def self_total(name):
        return sum(selfs[i] for i in idx(name)) / units

    def attr_sum(name, key):
        return sum(spans[i]["attrs"].get(key, 0) for i in idx(name)) / units

    def distinct_ratio(name):
        keys = [(spans[i]["attrs"]["op"], spans[i]["attrs"]["key"]) for i in idx(name)
                if "key" in spans[i]["attrs"]]
        return len(set(keys)) / len(keys) if keys else 0.0

    solves = [spans[i] for i in idx("med_core.solve_dual")]
    solve_ms = [1000.0 * (s["end"] - s["start"]) for s in solves]
    done = [s["attrs"] for s in solves if "iterations" in s["attrs"]]
    cv_calls = len(idx("harness.cross_validate_c"))
    cv_solves = sum(
        1 for i in idx("med_core.solve_dual")
        if any(a["name"] == "harness.cross_validate_c" for a in _ancestors(spans, i))
    )
    cli_spans = [n for n in by_name if n.startswith("cli.")]

    m = {
        "harness.cross_validate_c.calls": calls("harness.cross_validate_c"),
        "harness.cross_validate_c.s": total("harness.cross_validate_c"),
        "harness.cross_validate_c.self_s": self_total("harness.cross_validate_c"),
        "harness.cross_validate_c.solves_per_call": cv_solves / cv_calls if cv_calls else 0.0,
        "panel.aggregates.calls": calls("panel.aggregates"),
        "panel.aggregates.s": total("panel.aggregates"),
        "panel.aggregates.distinct_ratio": distinct_ratio("panel.aggregates"),
        "med_core.solve_dual.calls": calls("med_core.solve_dual"),
        "med_core.solve_dual.s": total("med_core.solve_dual"),
        "med_core.solve_dual.ms_p50": _quantile(solve_ms, 50),
        "med_core.solve_dual.ms_p90": _quantile(solve_ms, 90),
        "med_core.solve_dual.iterations": attr_sum("med_core.solve_dual", "iterations"),
        "med_core.solve_dual.unconverged": sum(
            1 for s in solves if not s["attrs"].get("converged", False)) / units,
        "med_core.solve_dual.max_grad_norm": max(
            (a["grad_norm"] for a in done), default=0.0),
        "med_core.solve_dual.n_median": statistics.median(
            [a["n"] for a in done]) if done else 0.0,
        "med_core.solve_dual.d_median": statistics.median(
            [a["d"] for a in done]) if done else 0.0,
        "harness.train_uqchi.calls": calls("harness.train_uqchi"),
        "harness.train_uqchi.self_s": self_total("harness.train_uqchi"),
        "harness.evaluate.s": total("harness.evaluate"),
        "harness.run_pipeline.self_s": self_total("harness.run_pipeline"),
        "panel.load_panel.calls": calls("panel.load_panel"),
        "panel.load_panel.s": total("panel.load_panel"),
        "panel.load_panel.rows": attr_sum("panel.load_panel", "rows"),
        "panel.write_panel.s": total("panel.write_panel"),
        "panel.write_panel.bytes": attr_sum("panel.write_panel", "bytes"),
        "panel.split_and_mask.s": total("panel.split_and_mask"),
        "panel.fit_standardization.s": total("panel.fit_standardization"),
        "panel.apply_standardization.s": total("panel.apply_standardization"),
        "simulator.simulate.calls": calls("simulator.simulate"),
        "simulator.simulate.s": total("simulator.simulate"),
        "simulator.simulate.distinct_ratio": distinct_ratio("simulator.simulate"),
        "simulator.simulate_to_files.s": total("simulator.simulate_to_files"),
        "predictor.predict_panel.calls": calls("predictor.predict_panel"),
        "predictor.predict_panel.s": total("predictor.predict_panel"),
        "predictor.predict_panel.records": attr_sum("predictor.predict_panel", "records"),
        "predictor.reject_by_rate.s": total("predictor.reject_by_rate"),
        "predictor.write_predictions.s": total("predictor.write_predictions"),
        "chi_baseline.chi_train.calls": calls("chi_baseline.chi_train"),
        "chi_baseline.chi_train.s": total("chi_baseline.chi_train"),
        "chi_baseline.chi_predict_panel.s": total("chi_baseline.chi_predict_panel"),
        "med_core.save_model.s": total("med_core.save_model"),
        "cli.self_s": sum((self_total(n) for n in cli_spans), 0.0),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = total(f"cli.{command}")
    return m


def healthindex_patches(tracer):
    """Where each public function is looked up, and what its span records.

    Distinct-input keys carry ``tracer.op`` so that distinct ratios are
    counted within one operation.
    """
    from healthindex import chi_baseline, cli, harness, med_core, predictor, simulator

    def solve(attrs, args, kwargs, solution):
        problem = args[0]
        attrs.update(iterations=solution.iterations, converged=bool(solution.converged),
                     grad_norm=float(solution.grad_norm),
                     n=problem.aggregates.shape[0], d=problem.aggregates.shape[1])

    def aggregates(attrs, args, kwargs, result):
        ids = "\n".join(s.subject_id for s in args[0].subjects)
        attrs.update(op=tracer.op, key=hashlib.sha1(ids.encode()).hexdigest()[:16])

    def simulate(attrs, args, kwargs, result):
        attrs.update(op=tracer.op, key=repr(args[0]))

    def rows(attrs, args, kwargs, panel):
        attrs["rows"] = sum(s.n_visits for s in panel.subjects)

    def written(attrs, args, kwargs, result):
        attrs["bytes"] = os.path.getsize(args[1])

    def records(attrs, args, kwargs, result):
        attrs["records"] = len(result)

    return [
        (harness, "run_pipeline", "harness.run_pipeline", None),
        (harness, "cross_validate_c", "harness.cross_validate_c", None),
        (harness, "train_uqchi", "harness.train_uqchi", None),
        (harness, "evaluate", "harness.evaluate", None),
        (harness, "solve_dual", "med_core.solve_dual", solve),
        (harness, "aggregates", "panel.aggregates", aggregates),
        (harness, "split_and_mask", "panel.split_and_mask", None),
        (harness, "fit_standardization", "panel.fit_standardization", None),
        (harness, "apply_standardization", "panel.apply_standardization", None),
        (harness, "load_panel", "panel.load_panel", rows),
        (harness, "simulate", "simulator.simulate", simulate),
        (harness, "predict_panel", "predictor.predict_panel", records),
        (harness, "reject_by_rate", "predictor.reject_by_rate", None),
        (harness, "chi_train", "chi_baseline.chi_train", None),
        (harness, "chi_predict_panel", "chi_baseline.chi_predict_panel", None),
        (med_core, "posterior", "med_core.posterior", None),
        (med_core, "save_model", "med_core.save_model", None),
        (cli, "load_panel", "panel.load_panel", rows),
        (cli, "fit_standardization", "panel.fit_standardization", None),
        (cli, "apply_standardization", "panel.apply_standardization", None),
        (cli, "simulate_to_files", "simulator.simulate_to_files", None),
        (simulator, "write_panel", "panel.write_panel", written),
        (predictor, "predict_panel", "predictor.predict_panel", records),
        (predictor, "reject_by_rate", "predictor.reject_by_rate", None),
        (predictor, "write_predictions", "predictor.write_predictions", None),
        (predictor, "read_prediction_labels", "predictor.read_prediction_labels", None),
        (chi_baseline, "chi_train", "chi_baseline.chi_train", None),
        (chi_baseline, "save_model", "chi_baseline.save_model", None),
    ]
