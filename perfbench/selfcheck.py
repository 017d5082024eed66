"""Toy-size self-check of the benchmark; runs in seconds.

    python3 perfbench/selfcheck.py

Checks the self-time arithmetic on hand-built span trees, then runs every
workload on tiny inputs with and without tracing and checks that each run
prints exactly the metrics BENCHMARK.json names, each with its unit, and
that traced counts repeat exactly from one run to the next.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import spans


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": {}}


def check_self_times() -> None:
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9] > b1 [5, 6], b2 [7, 8.5]
    tree = [
        span("root", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0),
        span("a1", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
        span("b1", 5.0, 6.0, 3),
        span("b2", 7.0, 8.5, 3),
    ]
    selfs = spans.self_times(tree)
    assert selfs == [3.0, 2.0, 1.0, 1.5, 1.0, 1.5], selfs
    assert spans.root_check(tree, selfs) == (10.0, 10.0)
    # overlapping children count once: [1, 3] and [2, 4] cover 3 of [0, 5]
    overlap = [span("p", 0.0, 5.0, None), span("c", 1.0, 3.0, 0), span("c", 2.0, 4.0, 0)]
    assert spans.self_times(overlap)[0] == 2.0
    # a child running past its parent is clipped to the parent's interval
    spill = [span("p", 0.0, 2.0, None), span("c", 1.0, 3.0, 0)]
    assert spans.self_times(spill)[0] == 1.0


def toy_run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--toy",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n"
                             f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_self_times()
    print("PASS self-time arithmetic")
    failures = 0
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = toy_run(w["name"], trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if got != want:
                problems.append(f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, units differ on "
                                f"{sorted(n for n in set(want) & set(got) if want[n] != got[n])}")
            if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
                problems.append(f"run not clean: {result}")
            if trace:
                m = {name: v["value"] for name, v in result["metrics"].items()}
                ratio = m["trace.traced_s"] / m["trace.untraced_s"] - 1.0
                if abs(ratio - m["trace.overhead_frac"]) > 1e-12:
                    problems.append("trace.overhead_frac disagrees with the traced times")
                again = toy_run(w["name"], trace)["metrics"]
                moved = [name for name, v in result["metrics"].items()
                         if run.layer_unit(name) in ("count", "ratio", "bytes")
                         and not name.startswith("trace.") and again[name] != v]
                if moved:
                    problems.append(f"counts differ between two runs: {moved}")
            status = "FAIL" if problems else "PASS"
            failures += bool(problems)
            print(f"{status} {w['name']} trace={trace}" + "".join(f"\n  {p}" for p in problems))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
