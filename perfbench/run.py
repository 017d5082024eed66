"""Benchmark for healthindex: margin-rate CV sweeps and the CLI on a large panel.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_cv --seed 0 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen):

- ``sweep_cv``: ``harness.run_pipeline`` on the default ExperimentSpec, one
  call per grid point (train ratio x label ratio), each grid point with its
  own simulated panel. One pass over the nine grid points is one unit.
- ``sweep_tall``: the same, on panels with many more subjects than features.
- ``cli_large``: ``cli.main`` in-process on a few thousand subjects:
  simulate (set-up), then train uqchi, train chi, predict, evaluate. One
  train/train/predict/evaluate cycle is one unit.

Each run is one closed loop: one caller issues one operation after another
until ``--seconds`` have passed and every input of the run was used once.
Inputs come from a fixed pool of data seeds for which reference outputs are
stored in ``references.json``; ``--seed`` picks the order in which the pool is
walked. Every output is compared with its reference.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each unit
twice, once plain and once with spans around the public functions, and
prints the per-layer metrics; the spans go to ``.perfbench_work/``.
The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import os

# one BLAS thread: every matrix here is at most a few thousand x 90, and a
# single caller gives the steadiest timings; must be set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = BENCH_DIR / "references.json"

sys.path.insert(0, str(BENCH_DIR))
import spans  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "mean_accuracy": "ratio",
}
_LAYER_UNITS = {
    "calls": "count", "s": "s", "self_s": "s", "solves_per_call": "count",
    "distinct_ratio": "ratio", "ms_p50": "ms", "ms_p90": "ms", "iterations": "count",
    "unconverged": "count", "max_grad_norm": "norm", "n_median": "count",
    "d_median": "count", "rows": "count", "bytes": "bytes", "records": "count",
    "overhead_frac": "ratio", "traced_s": "s", "untraced_s": "s",
}
IMPORT_SAMPLES = 3
MAX_MISMATCH_ROWS = 20  # rows printed per mismatching output


def layer_unit(name: str) -> str:
    return _LAYER_UNITS[name.rsplit(".", 1)[-1]]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def line_digests(text: bytes) -> list[str]:
    return [sha256(line)[:12] for line in text.splitlines()]


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class SweepWorkload:
    """One unit = one run_pipeline call per default grid point.

    Grid point c of pool entry k simulates with data seed 9k + c, so all
    grid points of a pass see different panels: splitting the grid this way
    keeps one panel's difficulty from moving all nine timings together.
    """

    name: str
    base: object  # ExperimentSpec
    pool: int
    min_units: int
    trace_units: int

    @property
    def inputs(self):
        """A run walks the whole pool; building a spec costs nothing."""
        return self.pool

    def setup(self, k: int, work: Path, tracer=None):
        """The specs of pool entry k's grid pass."""
        grid = [(t, lr) for t in self.base.train_ratios for lr in self.base.label_ratios]
        return [
            replace(self.base, train_ratios=(t,), label_ratios=(lr,), n_seeds=1,
                    seed=len(grid) * k + c)
            for c, (t, lr) in enumerate(grid)
        ]

    def run_unit(self, specs, work: Path, outputs: list | None = None, tracer=None):
        """Run the grid pass; returns summed program time. ``outputs`` gets
        the spec seed, results.csv and runs.jsonl of each grid point."""
        from healthindex import harness

        elapsed = 0.0
        for spec in specs:
            out = work / "sweep"
            t0 = time.perf_counter()
            with root_span(tracer):
                harness.run_pipeline(spec).write(out)
            elapsed += time.perf_counter() - t0
            if outputs is not None:
                outputs.append({"key": spec.seed,
                                "results": (out / "results.csv").read_bytes(),
                                "runs": (out / "runs.jsonl").read_bytes()})
        return elapsed

    def reference(self, output):
        results, runs = output["results"], output["runs"]
        return {"results.csv": sha256(results), "runs.jsonl": sha256(runs),
                "lines": line_digests(results) + line_digests(runs)}

    def check(self, output, ref, log):
        """(attempted records, failed records, accuracies, matched)."""
        seed, results, runs = output["key"], output["results"], output["runs"]
        records = [json.loads(line) for line in runs.splitlines()]
        failed = {i for i, r in enumerate(records) if r["error"] is not None}
        accuracies = [r["accuracy"] for r in records if r["accuracy"] is not None]
        matched = True
        if ref is not None and (sha256(results) != ref["results.csv"]
                                or sha256(runs) != ref["runs.jsonl"]):
            matched = False
            got = line_digests(results) + line_digests(runs)
            lines = results.splitlines() + runs.splitlines()
            n_results = len(results.splitlines())
            want = ref["lines"]
            bad_runs = False
            bad = [i for i in range(max(len(got), len(want)))
                   if i >= len(got) or i >= len(want) or got[i] != want[i]]
            for i in bad[:MAX_MISMATCH_ROWS]:
                row = lines[i].decode() if i < len(lines) else "<missing>"
                where = "results.csv" if i < n_results else "runs.jsonl"
                log(f"MISMATCH {self.name} seed={seed} {where} line {i}: {row}")
            log_more(log, self.name, len(bad))
            for i in bad:
                if n_results <= i < len(got):
                    failed.add(i - n_results)
                    bad_runs = True
            if not bad_runs:  # the table disagrees although every record matches
                failed = set(range(len(records)))
        return len(records), len(failed), accuracies, matched


@dataclass(frozen=True)
class CliWorkload:
    """Set-up simulates a training panel and a separately seeded, fully
    labeled scored panel; one unit runs train uqchi, train chi, predict with
    rate rejection and evaluate on them."""

    name: str
    n_per_class: int
    d: int
    pool: int
    inputs: int
    informative_k: int = 20

    @property
    def min_units(self):
        return self.inputs

    @property
    def trace_units(self):
        return self.inputs

    def setup(self, k: int, work: Path, tracer=None):
        """Write pool entry k's panels with two ``simulate`` commands."""
        train, scored = work / f"train_{k}.csv", work / f"scored_{k}.csv"
        size = ["--n-per-class", str(self.n_per_class), "--d", str(self.d),
                "--informative-k", str(self.informative_k)]
        for label, argv in (
            ("simulate", ["simulate", "--out", str(train), "--seed", str(2 * k)] + size),
            ("simulate", ["simulate", "--out", str(scored), "--seed", str(2 * k + 1),
                          "--label-observed-fraction", "1.0"] + size),
        ):
            if call_cli(label, argv, tracer) != 0:
                raise RuntimeError(f"set-up command failed: {argv}")
        return k, train, scored

    def commands(self, k, train, scored, work):
        model, chi_model = work / f"uqchi_{k}.json", work / f"chi_{k}.json"
        preds, report = work / f"pred_{k}.csv", work / f"report_{k}.json"
        return [
            ("train_uqchi", ["train", "--panel", str(train), "--method", "uqchi",
                             "--out", str(model)]),
            ("train_chi", ["train", "--panel", str(train), "--method", "chi",
                           "--out", str(chi_model)]),
            ("predict", ["predict", "--model", str(model), "--panel", str(scored),
                         "--reject-rate", "0.4", "--out", str(preds)]),
            ("evaluate", ["evaluate", "--predictions", str(preds), "--truth", str(scored),
                          "--out", str(report)]),
        ], preds, report

    def run_unit(self, inp, work: Path, outputs: list | None = None, tracer=None):
        k, train, scored = inp
        commands, preds, report = self.commands(k, train, scored, work)
        codes, times = {}, {}
        with root_span(tracer):
            for label, argv in commands:
                t0 = time.perf_counter()
                codes[label] = call_cli(label, argv, tracer)
                times[label] = time.perf_counter() - t0
        if outputs is not None:
            outputs.append({"key": k, "codes": codes, "times": times,
                            "labels": read_labels(preds),
                            "report": report.read_bytes() if report.exists() else b""})
        return sum(times.values())

    def reference(self, output):
        codes, report = "".join(output["labels"].values()), output["report"]
        return {"labels": sha256(codes.encode()), "label_codes": codes,
                "report": sha256(report), "report_text": report.decode()}

    def check(self, output, ref, log):
        """(attempted commands, failed commands, accuracies, matched)."""
        k, codes, labels, report = (output[f] for f in ("key", "codes", "labels", "report"))
        failed = {label for label, code in codes.items() if code != 0}
        matched = True
        if ref is not None:
            got = "".join(labels.values())
            if sha256(got.encode()) != ref["labels"]:
                matched = False
                failed.add("predict")
                want = ref["label_codes"]
                bad = [(i, sid) for i, sid in enumerate(labels)
                       if i >= len(want) or got[i] != want[i]]
                for i, sid in bad[:MAX_MISMATCH_ROWS]:
                    log(f"MISMATCH {self.name} entry={k} prediction row {i} "
                        f"{sid}: pred {got[i]!r}, reference "
                        f"{want[i] if i < len(want) else '<missing>'!r}")
                log_more(log, self.name, len(bad))
                if len(want) > len(got):
                    log(f"MISMATCH {self.name} entry={k}: {len(want) - len(got)} "
                        "prediction rows missing")
            if sha256(report) != ref["report"]:
                matched = False
                failed.add("evaluate")
                log(f"MISMATCH {self.name} entry={k} evaluate report:\n"
                    f"{report.decode()}reference:\n{ref['report_text']}")
        accuracy = json.loads(report)["accuracy"] if report else None
        return len(codes), len(failed), [] if accuracy is None else [accuracy], matched


def log_more(log, name: str, n_bad: int) -> None:
    if n_bad > MAX_MISMATCH_ROWS:
        log(f"MISMATCH {name}: {n_bad - MAX_MISMATCH_ROWS} more mismatching rows")


_PRED_CODES = {"1": "+", "-1": "-", "0": "0"}


def read_labels(path: Path) -> dict[str, str]:
    """Subject id -> rejection-aware label code, in file order."""
    if not path.exists():
        return {}
    with open(path, newline="", encoding="utf-8") as fh:
        return {row["subject_id"]: _PRED_CODES.get(row["pred"], "?")
                for row in csv.DictReader(fh)}


def call_cli(label: str, argv: list[str], tracer=None) -> int:
    """``cli.main`` in-process, its progress lines kept off our stdout; when
    tracing, a span named after the command wraps the call."""
    from healthindex import cli

    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            return cli.main(argv)
        with tracer.span(f"cli.{label}"):
            return cli.main(argv)


@contextlib.contextmanager
def root_span(tracer):
    """One operation's root span; later operations get a new ``tracer.op``."""
    if tracer is None:
        yield
        return
    with tracer.span("bench.op"):
        yield
    tracer.op += 1


def workloads(toy: bool = False) -> dict:
    from healthindex import ExperimentSpec, SimConfig

    if toy:
        small = SimConfig(d=6, n_per_class=12, informative_k=3, label_observed_fraction=1.0)
        spec = ExperimentSpec(sim=small, c_grid=(1.5, 3.0), cv_folds=3, chi_steps=20,
                              train_ratios=(0.5,), label_ratios=(0.2, 0.5))
        return {
            "sweep_cv": SweepWorkload("sweep_cv", spec, pool=2, min_units=1, trace_units=1),
            "sweep_tall": SweepWorkload("sweep_tall", spec, pool=2, min_units=1,
                                        trace_units=1),
            "cli_large": CliWorkload("cli_large", n_per_class=15, d=5, pool=2, inputs=1,
                                     informative_k=3),
        }
    tall = SimConfig(d=20, n_per_class=150, informative_k=8, label_observed_fraction=1.0)
    return {
        "sweep_cv": SweepWorkload("sweep_cv", ExperimentSpec(), pool=24, min_units=5,
                                  trace_units=2),
        "sweep_tall": SweepWorkload("sweep_tall", ExperimentSpec(sim=tall), pool=16,
                                    min_units=4, trace_units=2),
        "cli_large": CliWorkload("cli_large", n_per_class=1000, d=90, pool=12, inputs=3),
    }


# ---------------------------------------------------------------------------
# machine record


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine() -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": _git_commit(),
    }


def import_seconds() -> list[float]:
    """Time ``import healthindex`` in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import healthindex; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip()))
    return samples


# ---------------------------------------------------------------------------
# runs


def pool_order(seed: int, pool: int) -> list[int]:
    order = list(range(pool))
    random.Random(seed).shuffle(order)
    return order


def load_references(name: str):
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text()).get(name, {})


class Checker:
    """Compares every output with its reference and tallies the result."""

    def __init__(self, workload, refs, strict: bool):
        self.workload, self.refs, self.strict = workload, refs, strict
        self.attempted = self.failed = 0
        self.correct = True
        self.accuracies: list[float] = []

    def log(self, message: str) -> None:
        print(message, file=sys.stderr)

    def add(self, outputs, count_accuracy: bool) -> None:
        for output in outputs:
            key = str(output["key"])
            ref = self.refs.get(key)
            if ref is None and self.strict:
                self.log(f"MISMATCH {self.workload.name}: no reference for entry {key}")
                self.correct = False
            attempted, failed, accuracies, matched = self.workload.check(output, ref, self.log)
            self.attempted += attempted
            self.failed += failed
            self.correct = self.correct and matched and failed == 0
            if count_accuracy:
                self.accuracies.extend(accuracies)


def run_plain(wl, order, seconds, work, checker):
    setup_times, inputs = [], []
    for k in order[:wl.inputs]:
        t0 = time.perf_counter()
        inputs.append(wl.setup(k, work))
        setup_times.append(time.perf_counter() - t0)
    unit_times, command_times = [], {}
    start = time.perf_counter()
    while len(unit_times) < wl.min_units or time.perf_counter() - start < seconds:
        outputs = []
        unit_times.append(wl.run_unit(inputs[len(unit_times) % len(inputs)], work, outputs))
        checker.add(outputs, count_accuracy=len(unit_times) <= wl.min_units)
        for output in outputs:
            for label, t in output.get("times", {}).items():
                command_times.setdefault(label, []).append(t)
    return setup_times, unit_times, command_times


def run_traced(wl, order, work, checker, trace_path):
    tracer = spans.Tracer()
    patches = spans.healthindex_patches(tracer)
    n_units = wl.trace_units
    inputs = {}
    for k in order[:n_units]:
        with tracer.installed(patches), tracer.span("bench.setup"):
            inputs[k] = wl.setup(k, work, tracer)
    traced = untraced = 0.0
    for j, k in enumerate(order[:n_units]):
        for with_trace in ((False, True) if j % 2 == 0 else (True, False)):
            outputs = []
            if with_trace:
                with tracer.installed(patches):
                    traced += wl.run_unit(inputs[k], work, outputs, tracer)
            else:
                untraced += wl.run_unit(inputs[k], work, outputs)
            checker.add(outputs, count_accuracy=False)
    tracer.dump(trace_path)
    selfs = spans.self_times(tracer.spans)
    self_sum, root_sum = spans.root_check(tracer.spans, selfs)
    if abs(self_sum - root_sum) > 1e-9 * max(1.0, root_sum):
        checker.log(f"TRACE self times sum to {self_sum!r} s, roots to {root_sum!r} s")
        checker.correct = False
    metrics = spans.layer_metrics(tracer.spans, n_units)
    metrics["trace.traced_s"] = traced / n_units
    metrics["trace.untraced_s"] = untraced / n_units
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    details = {"spans": len(tracer.spans), "self_sum_s": self_sum, "root_sum_s": root_sum,
               "trace_file": str(trace_path.relative_to(ROOT))}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_cv", "sweep_tall", "cli_large"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs and no reference check (self-check only)")
    args = parser.parse_args(argv)

    if not (SRC / "healthindex").is_dir():
        print(f"error: no healthindex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import healthindex  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import healthindex: {exc}", file=sys.stderr)
        return 2

    wl = workloads(toy=args.toy)[args.workload]
    refs = {} if args.toy else load_references(args.workload)
    if not args.toy and not refs:
        print(f"error: no references for {args.workload} in {REFERENCES}", file=sys.stderr)
        return 2
    checker = Checker(wl, refs, strict=not args.toy)
    order = pool_order(args.seed, wl.pool)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    work.mkdir()
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "machine": machine()}
    try:
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics, extra = run_traced(wl, order, work, checker, trace_path)
            details.update(extra)
            values = {name: (v, layer_unit(name)) for name, v in metrics.items()}
        else:
            imports = import_seconds()
            setup_times, unit_times, command_times = run_plain(
                wl, order, args.seconds, work, checker)
            measured = {
                "setup_s": statistics.median(imports) + statistics.median(setup_times),
                "wall_s": statistics.median(unit_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": 1.0 - checker.failed / max(checker.attempted, 1),
                "mean_accuracy": (statistics.fmean(checker.accuracies)
                                  if checker.accuracies else 0.0),
            }
            values = {name: (v, E2E_UNITS[name]) for name, v in measured.items()}
            details.update(import_s=imports, setup_samples_s=setup_times,
                           unit_samples_s=unit_times, accuracy_samples=len(checker.accuracies),
                           command_median_s={label: statistics.median(t)
                                             for label, t in command_times.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": checker.correct and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
