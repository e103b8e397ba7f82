"""Record one benchmark snapshot as BENCH_<label>.json.

Runs `bench/run.py` RUNS times per workload that BENCHMARK.json declares,
round-robin across the workloads so that a slow spell of the host spreads
over all of them, at a fixed seed and duration so that snapshots compare.
Writes the environment (python and numpy versions, core count), each
workload's correct/attempted/failed counts over its runs, each end-to-end
metric as the median of its runs (`value`) with its `min`, `max` and
`runs`, and src_lines, the `wc -l` total over src/authfusion/*.py:

    python3 tools/bench_record.py 7                 # writes BENCH_7.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 9001
SECONDS = 20.0
RUNS = 3


def run_workload(workload: str, root: Path = ROOT, seconds: float = SECONDS) -> dict:
    """The JSON object on the last stdout line of one untraced run of the
    checkout at root."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", repr(seconds)],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench/run.py --workload {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def src_lines() -> int:
    """Lines in the package source, counted as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "authfusion").glob("*.py"))


def summary(samples: list[dict]) -> dict:
    """One metric over its runs: the median as value, with the spread."""
    values = [sample["value"] for sample in samples]
    return {"value": statistics.median(values), "unit": samples[0]["unit"],
            "min": min(values), "max": max(values), "runs": len(values)}


def record() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    order = [w["name"] for w in spec["workloads"]]
    results: dict[str, list[dict]] = {name: [] for name in order}
    for _ in range(RUNS):
        for name in order:
            results[name].append(run_workload(name))
    workloads = {}
    for name, runs in results.items():
        workloads[name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {metric: summary([r["metrics"][metric] for r in runs]) for metric in names},
        }
    return {
        "seed": SEED,
        "seconds": SECONDS,
        "runs": RUNS,
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
