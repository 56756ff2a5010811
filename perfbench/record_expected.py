#!/usr/bin/env python3
"""Record the gate's expectation for workloads at the default seed.

    python3 perfbench/record_expected.py [WORKLOAD ...]

Runs `ctlab run` once per workload (all of them when none is named) and
writes `perfbench/expected/<workload>.json`.  Only record from a commit whose
artifacts are known to be right: the gate compares every later run with it.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import gate
from run import DEADLINE_S, DEFAULT_SEED, EXPECTED, WORK, WORKLOADS, run_ctlab


def main(argv) -> int:
    for workload in argv or sorted(WORKLOADS):
        run_dir = WORK / f"record-{workload}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        deadline = time.perf_counter() + DEADLINE_S
        *_, rc = run_ctlab(workload, DEFAULT_SEED, run_dir, deadline)
        if rc != 0:
            print(f"{workload}: ctlab exited with {rc}", file=sys.stderr)
            return 1
        snap = gate.snapshot(run_dir / "out")
        shutil.rmtree(run_dir)
        path = EXPECTED / f"{workload}.json"
        path.write_text(json.dumps({"seed": DEFAULT_SEED, **snap}, indent=1) + "\n")
        print(f"{workload}: wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
