"""Regenerate references.json: the outputs every benchmark input must reproduce.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/make_references.py [workload ...]

Each named workload (default: all) is run once on every entry of its input
pool; other workloads' entries in the file are kept.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main(names) -> int:
    sys.path.insert(0, str(run.SRC))
    table = run.workloads()
    refs = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.is_file() else {}
    run.WORK.mkdir(exist_ok=True)
    work = run.WORK / "references"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        for name in names or list(table):
            wl = table[name]
            entries = {}
            for k in range(wl.pool):
                outputs = []
                wl.run_unit(wl.setup(k, work), work, outputs)
                for output in outputs:
                    entries[str(output["key"])] = wl.reference(output)
                print(f"{name}: entry {k + 1}/{wl.pool}", file=sys.stderr)
            refs[name] = entries
        refs["_meta"] = {"machine": run.machine()}
        run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
