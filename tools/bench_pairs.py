"""Compare two checkouts over alternating pairs of benchmark runs.

    python3 tools/bench_pairs.py --parent ../base --change . \
        --workload population monitoring --pairs 10 --seconds 20

Each pair runs `bench/run.py` once in each checkout, at the same seed and
duration, and swaps which side runs first from one pair to the next so
that a slow spell of the host falls on both. For each workload and each
end-to-end metric that BENCHMARK.json (read from the change) declares, it
prints both medians, the parent's interquartile range, the pairs the
change won (ties count for neither side) and a verdict:

  worse       the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the runs of either side spread, by interquartile range,
              wider than the bound, and not every run of the change reads
              better than every run of the parent;
  better      the change won at least nine tenths of the pairs and its
              median is better by more than the parent's interquartile
              range;
  same        none of these.

It stops at the first run that exits non-zero, and exits 1 if any run
was incorrect or failed an operation, 0 otherwise, whatever the verdicts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_record import run_workload


def iqr(values: list[float]) -> float:
    """The interquartile range, 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[int, str]:
    """(pairs the change won, verdict) for one metric's paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gain = sign * (c_med - p_med)  # > 0 when the change's median is better
    if p_med and -gain / abs(p_med) > bound:
        return wins, "worse"
    spread = max(iqr(parent), iqr(change)) / abs(p_med) if p_med else 0.0
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not every_run_better:
        return wins, "unresolved"
    if wins >= 0.9 * len(parent) and gain > iqr(parent):
        return wins, "better"
    return wins, "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", help="workloads to run (default: all in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's run_seconds)")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[tuple[str, str], list[dict]] = {(w, side): [] for w in workloads for side in sides}
    errors = []
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                result = run_workload(workload, sides[side], seconds)
                if not result["correct"] or result["failed"]:
                    errors.append(f"{side} {workload} pair {pair + 1}: correct={result['correct']}, "
                                  f"failed={result['failed']} of {result['attempted']}")
                runs[(workload, side)].append(result)
            print(f"pair {pair + 1}/{args.pairs} {workload} done", file=sys.stderr, flush=True)

    header = ("workload", "metric", "parent", "change", "change/parent", "parent IQR", "wins", "verdict")
    rows = []
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in runs[(workload, "parent")]]
            change = [r["metrics"][name]["value"] for r in runs[(workload, "change")]]
            wins, call = verdict(parent, change, metric["better"], metric["bound"])
            p_med, c_med = statistics.median(parent), statistics.median(change)
            rows.append((workload, name, f"{p_med:.4g}", f"{c_med:.4g}",
                         f"{c_med / p_med:.3f}" if p_med else "-", f"{iqr(parent):.3g}",
                         f"{wins}/{len(parent)}", call))
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip())
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
