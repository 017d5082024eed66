"""Certification draws: how many random dual problems ``solve_dual`` fails to
certify at its default tol.

Each draw is 1000 instances from ``np.random.default_rng(seed)``: N in
5..300, d in 1..40, entries N(0, 1) times a scale 10^U(-3, 3), and c from
{1.2, 1.5, 3, 10, 100}. At large scales with N > d the rounding noise of
the projected gradient exceeds the 1e-8 certificate (ROADMAP item 5), so
some instances raise ``NonConvergence``; a solver change must not raise the
count. Not collected by pytest; run it as

    python tests/solver_draws.py [seed ...]      (default: 7 11)

It prints one line per seed: the failure count, the total lambda-loop
iterations of the certified solves, the wall time and the OpenBLAS kernel
numpy runs (the counts depend on it; ``unknown`` when numpy's bundled
OpenBLAS or its kernel query is absent).
"""

import ctypes
import os
import sys
import time
import warnings
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from healthindex.errors import NonConvergence  # noqa: E402
from healthindex.med_core import DualProblem, solve_dual  # noqa: E402

C_VALUES = (1.2, 1.5, 3.0, 10.0, 100.0)


def instances(seed: int, count: int = 1000):
    """(aggregates, c) of each instance of one draw, in draw order."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(5, 301))
        d = int(rng.integers(1, 41))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        c = float(rng.choice(C_VALUES))
        yield rng.normal(size=(n, d)) * scale, c


def openblas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS picked for this CPU at load time
    (``OPENBLAS_CORETYPE`` overrides it), e.g. ``SkylakeX``."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_-*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def run_draw(seed: int) -> tuple[list[int], int]:
    """Indices of the instances that fail to certify, and the iterations of
    the rest."""
    failed, iterations = [], 0
    for i, (aggs, c) in enumerate(instances(seed)):
        try:
            iterations += solve_dual(DualProblem(aggs, c)).iterations
        except NonConvergence:
            failed.append(i)
    return failed, iterations


if __name__ == "__main__":
    warnings.simplefilter("ignore")
    kernel = openblas_kernel()
    for seed in [int(s) for s in sys.argv[1:]] or [7, 11]:
        t0 = time.perf_counter()
        failed, iterations = run_draw(seed)
        print(
            f"default_rng({seed}): {len(failed)} of 1000 fail to certify; "
            f"{iterations} iterations in the rest; {time.perf_counter() - t0:.1f} s; "
            f"OpenBLAS kernel {kernel}"
        )
