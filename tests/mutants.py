"""Mutation checks: small wrong changes to the program that named tests must
catch.

Each entry of MUTANTS names a file under ``src/healthindex``, an exact
snippet of it, the snippet's replacement and the tests expected to fail.
For each mutant the script copies ``src``, ``tests``, ``perfbench`` (whose
references some tests compare) and ``pyproject.toml`` to a fresh temporary
directory, replaces the snippet (which must occur
exactly once) and runs the mutant's tests there. The copy is needed because
pytest's ``pythonpath = ["src"]`` would otherwise import the unmutated
package first. A mutant is killed when one of its tests fails.

Before any mutant, the union of the named tests runs on an unmutated copy
and must pass, so a failure can only come from the mutant. The script prints
one line per mutant, then the survivors, and exits 1 if any mutant survives
or an entry is broken (its snippet is not found exactly once, or pytest
cannot run its tests). Not collected by pytest; run it from anywhere as

    python tests/mutants.py [name ...]    (default: every mutant)

It needs the standard library only; the tests it runs need numpy, pytest and
hypothesis.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PYTEST = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/healthindex
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest ids relative to the repository root


MUTANTS = (
    Mutant(
        "index_signs_tie_to_minus",
        "predictor.py",
        "return np.where(means >= 0.0, 1, -1)",
        "return np.where(means > 0.0, 1, -1)",
        ("tests/test_predictor.py::TestPredict",),
    ),
    Mutant(
        # a second (rows, d) matrix beside the one the loader allocated
        "load_panel_copies_the_matrix",
        "panel.py",
        "observations=standardization.transform(features, out=features),",
        "observations=standardization.transform(features),",
        ("tests/test_memory.py::test_train_uqchi_peak", "tests/test_memory.py::test_predict_peak"),
    ),
    Mutant(
        # a missing or empty standardization made predict score raw features
        "model_standardization_optional",
        "cli.py",
        """        standardization = json_field(payload, "standardization", Standardization.from_dict)
        if standardization.mean.shape[0] != model.d:
            raise DimensionMismatch(f"standardization holds {standardization.mean.shape[0]} "
                                    f"features, d is {model.d}")
""",
        """        standardization = None
        if payload.get("standardization"):
            standardization = json_field(payload, "standardization", Standardization.from_dict)
            if standardization.mean.shape[0] != model.d:
                raise DimensionMismatch(f"standardization holds {standardization.mean.shape[0]} "
                                        f"features, d is {model.d}")
""",
        ("tests/test_cli.py::TestTrainPredictEvaluate::test_malformed_model_field_exits_2",),
    ),
    Mutant(
        # a repeated grid entry logs each of its runs twice under one cell key
        "repeated_grid_entry_accepted",
        "harness.py",
        'for name in ("c_grid", "label_ratios", "train_ratios", "rejection_rates", "baselines"):',
        "for name in ():",
        ("tests/test_harness.py::TestExperimentSpec::test_validation",
         "tests/test_cli.py::TestSweep::test_bad_sweep_flag_exits_2"),
    ),
    Mutant(
        "reject_by_rate_rounds_up",
        "predictor.py",
        "abstained[order[: math.floor(rate * len(preds))]] = True",
        "abstained[order[: math.ceil(rate * len(preds))]] = True",
        ("tests/test_predictor.py::TestRejectByRate::test_floor_count_least_confident",
         "tests/test_references.py::test_entry_zero_matches_references"),
    ),
    Mutant(
        # a NaN norm, from overflow, would certify its fold
        "nan_norm_certifies",
        "med_core.py",
        "certified = pg_norm[moving] <= tol",
        "certified = ~(pg_norm[moving] > tol)",
        ("tests/test_med_core.py::TestSolveDual::test_overflowing_problem_is_not_certified",
         "tests/test_med_core.py::TestSolveFolds::test_overflowing_fold_raises"),
    ),
    Mutant(
        # a fold with no acceptable point on either arc reported as one at the cap
        "stuck_reads_as_capped",
        "med_core.py",
        "elif stuck[f]:",
        "elif False:",
        ("tests/test_med_core.py::TestSolveFolds::test_stuck_fold_names_the_stall",),
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(workdir: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return subprocess.run([sys.executable, *PYTEST, *tests], cwd=workdir, env=env,
                          capture_output=True, text=True)


def run(mutant: Mutant) -> str:
    """'killed', 'SURVIVED', or what is broken about the entry."""
    with tempfile.TemporaryDirectory(prefix="healthindex-mutant-") as tmp:
        workdir = Path(tmp)
        _copy(workdir)
        path = workdir / "src" / "healthindex" / mutant.file
        text = path.read_text()
        if text.count(mutant.snippet) != 1:
            return f"broken: snippet found {text.count(mutant.snippet)} times in {mutant.file}"
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        code = _pytest(workdir, mutant.tests).returncode
    # pytest exits 1 when a test failed; 0 when all passed; else it could not run them
    return {0: "SURVIVED", 1: "killed"}.get(code, f"broken: pytest exited {code}")


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    chosen = [m for m in MUTANTS if not names or m.name in names]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="healthindex-unmutated-") as tmp:
        _copy(Path(tmp))
        tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
        proc = _pytest(Path(tmp), tests)
    if proc.returncode != 0:
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="")
        print(f"the named tests fail on the unmutated program (pytest exited {proc.returncode})")
        return 1
    failed = []
    for mutant in chosen:
        outcome = run(mutant)
        print(f"{mutant.name}: {outcome}", flush=True)
        if outcome != "killed":
            failed.append(mutant.name)
    print(f"{len(chosen) - len(failed)} of {len(chosen)} killed in "
          f"{time.perf_counter() - start:.0f} s")
    if failed:
        print(f"not killed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
