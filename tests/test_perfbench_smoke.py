"""Each benchmark workload runs traced on toy inputs and checks out.

A traced run wraps every module-level name the benchmark's tracer patches
(``harness.evaluate``, ``chi_baseline.save_model``, ...), so renaming or
deleting one of them fails here instead of in the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["sweep_cv", "sweep_tall", "cli_large"])
def test_toy_traced_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--toy", "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
