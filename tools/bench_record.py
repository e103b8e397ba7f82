"""Record one benchmark snapshot as BENCH_<label>.json.

Runs `bench/run.py` once per workload that BENCHMARK.json declares, one
after another, at a fixed seed and duration so that snapshots compare, and
writes the environment (python and numpy versions, core count), each
workload's correct/attempted/failed counts and end-to-end metrics, and
src_lines, the `wc -l` total over src/authfusion/*.py:

    python3 tools/bench_record.py 7                 # writes BENCH_7.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 9001
SECONDS = 20.0


def run_workload(workload: str) -> dict:
    """The JSON object on the last stdout line of one untraced run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", repr(SECONDS)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench/run.py --workload {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def src_lines() -> int:
    """Lines in the package source, counted as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "authfusion").glob("*.py"))


def record() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    workloads = {}
    for w in spec["workloads"]:
        result = run_workload(w["name"])
        workloads[w["name"]] = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: result["metrics"][name] for name in names},
        }
    return {
        "seed": SEED,
        "seconds": SECONDS,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "workloads": workloads,
        "src_lines": src_lines(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="written as BENCH_<label>.json in the repository root")
    args = parser.parse_args(argv)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record(), indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
