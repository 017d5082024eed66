"""Entry 0 of every benchmark workload reproduces its stored reference outputs
(``perfbench/references.json``) byte for byte.

Each workload runs in a subprocess with one BLAS thread, as the benchmark
runs it. The test skips when the numpy or BLAS build differs from the one
the references were made with, since their last bits may then differ.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# prints {"skip": reason} or {"outputs": n, "mismatches": [key, ...]}
_SCRIPT = """
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run  # sets one BLAS thread before numpy loads

name = sys.argv[3]
refs = json.loads(run.REFERENCES.read_text())
made, here = refs["_meta"]["machine"], run.machine()
differ = [k for k in ("numpy", "blas") if made[k] != here[k]]
if differ:
    print(json.dumps({"skip": ", ".join(f"{k} {here[k]} here, {made[k]} in the references"
                                        for k in differ)}))
    sys.exit(0)
wl = run.workloads()[name]
outputs = []
with tempfile.TemporaryDirectory() as tmp:
    wl.run_unit(wl.setup(0, Path(tmp)), Path(tmp), outputs)
bad = [str(o["key"]) for o in outputs if wl.reference(o) != refs[name].get(str(o["key"]))]
print(json.dumps({"outputs": len(outputs), "mismatches": bad}))
"""


@pytest.mark.parametrize("workload", ["sweep_cv", "sweep_tall", "cli_large"])
def test_entry_zero_matches_references(workload):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src"), workload],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    if "skip" in result:
        pytest.skip(f"references made on another build: {result['skip']}")
    assert result["outputs"] > 0
    assert result["mismatches"] == []
