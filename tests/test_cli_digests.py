"""Every file a fixed simulate -> train -> predict -> evaluate CLI run writes
has the SHA-256 stored in ``tests/cli_digests.json``.

The run is the seed-5, 200-subject, d = 90 panel; a uqchi and a chi model;
uqchi predictions with no rejection, a rejection rate and a threshold; chi
predictions; and the evaluate report. It catches any change in the last bits of what the
program writes. It runs in a subprocess with one BLAS thread and skips when
the numpy or BLAS build differs from the one the digests were made with.

numpy's bundled OpenBLAS picks its kernel from the CPU when it loads, and
the last bits of the models follow the kernel, so the file holds one set of
digests per kernel (``solver_draws.openblas_kernel`` names it). The test
compares the set of the kernel it runs on and skips, naming the kernel,
when there is none.

After a change that moves the outputs on purpose, remake the digests with
``python tests/test_cli_digests.py --write`` once per kernel, forcing each
with ``OPENBLAS_CORETYPE`` (SkylakeX, Haswell, Sandybridge and Prescott,
whose kernel the query names Katmai); each run replaces its own kernel's set.

``--keep DIR`` runs the CLI in ``DIR`` (created if missing, and refused if
it holds anything) and leaves the files there. Kept runs of the old and the
new program under the same kernel show how far a re-pin moved each number,
for example the largest relative difference of the model weights.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("cli_digests.json")

# the CLI runs in order; "@name" stands for the file ``name`` in the work directory
_STEPS = [
    ["simulate", "--out", "@panel.csv", "--echo", "@echo.json",
     "--n-per-class", "100", "--d", "90", "--seed", "5"],
    ["train", "--panel", "@panel.csv", "--out", "@uqchi.json", "--method", "uqchi"],
    ["train", "--panel", "@panel.csv", "--out", "@chi.json", "--method", "chi"],
    ["predict", "--model", "@uqchi.json", "--panel", "@panel.csv", "--out", "@predictions.csv"],
    ["predict", "--model", "@uqchi.json", "--panel", "@panel.csv", "--out", "@rate.csv",
     "--reject-rate", "0.4"],
    ["predict", "--model", "@uqchi.json", "--panel", "@panel.csv", "--out", "@threshold.csv",
     "--reject-threshold", "0.7"],
    ["predict", "--model", "@chi.json", "--panel", "@panel.csv", "--out", "@chi_predictions.csv"],
    ["evaluate", "--predictions", "@rate.csv", "--truth", "@panel.csv", "--out", "@report.json"],
]


def _build() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip()}


def _run(workdir: Path) -> dict:
    """The SHA-256 of every file the CLI steps write into ``workdir``."""
    from healthindex.cli import main

    for args in _STEPS:
        if main([str(workdir / a[1:]) if a[:1] == "@" else a for a in args]) != 0:
            raise SystemExit(f"healthindex {' '.join(args)} failed")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(workdir.iterdir())}


def test_cli_outputs_match_the_stored_digests():
    stored = json.loads(DIGESTS.read_text())
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    here = json.loads(proc.stdout.splitlines()[-1])
    differ = [k for k in ("numpy", "blas") if here["build"][k] != stored["build"][k]]
    if differ:
        pytest.skip("digests made on another build: " + ", ".join(
            f"{k} {here['build'][k]} here, {stored['build'][k]} in the digests" for k in differ))
    if here["kernel"] not in stored["kernels"]:
        pytest.skip(f"no digests for the OpenBLAS kernel {here['kernel']} numpy runs here")
    assert here["files"] == stored["kernels"][here["kernel"]]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the digests of the CLI run as JSON.")
    parser.add_argument("--write", action="store_true",
                        help="store them as the running kernel's set in cli_digests.json")
    parser.add_argument("--keep", metavar="DIR", help="run in DIR and keep the files written")
    opts = parser.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: its last bits may depend on threads
    sys.path.insert(0, str(ROOT / "src"))
    from solver_draws import openblas_kernel

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(opts.keep or tmp)
        workdir.mkdir(parents=True, exist_ok=True)
        if any(workdir.iterdir()):  # every file in it is digested
            raise SystemExit(f"--keep {workdir}: the directory is not empty")
        result = {"build": _build(), "kernel": openblas_kernel(), "files": _run(workdir)}
    if opts.write:
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        if stored.get("build") != result["build"]:  # another build's sets no longer apply
            stored = {"build": result["build"], "kernels": {}}
        stored["kernels"][result["kernel"]] = result["files"]
        DIGESTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
