"""Tier-1 under each OpenBLAS kernel that numpy's bundled OpenBLAS can be
forced to.

numpy's OpenBLAS picks its kernel from the CPU when it loads, and
``OPENBLAS_CORETYPE`` overrides the pick. This script runs the tier-1 suite
once per kernel, each in a fresh interpreter with that kernel forced and one
BLAS thread, prints one line per kernel (pytest's summary, then any failed
test ids) and exits 1 if any run failed. A kernel needs the instructions it
uses: forcing ``SkylakeX`` on a CPU without AVX-512 crashes its run. Not
collected by pytest; run it from anywhere as

    python tests/kernels.py [kernel ...]    (default: SkylakeX Haswell Sandybridge Prescott)

It needs the standard library only; the suite it runs needs numpy and pytest.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Prescott")
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def run_tier1(kernel: str) -> tuple[bool, str, list[str]]:
    """(passed, pytest's summary line, failed test ids) of one tier-1 run."""
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines() or [f"no output (exit {proc.returncode})"]
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode == 0, lines[-1].strip("= "), failed


if __name__ == "__main__":
    all_passed = True
    for kernel in sys.argv[1:] or KERNELS:
        passed, summary, failed = run_tier1(kernel)
        all_passed &= passed
        print(f"{kernel}: {'passed' if passed else 'FAILED'}: {summary}", flush=True)
        for line in failed:
            print(f"    {line}", flush=True)
    sys.exit(0 if all_passed else 1)
