"""Command-line front end: catalog inspection, analytic sweeps, policy
decisions, and session simulation.

Exit codes form a total contract so scripts can branch on them:
0 success (a grant, for `decide`), 1 I/O failure, 2 configuration or
validation failure, 3 authentication denied. Errors never map onto the
deny code; denial is an outcome, not a failure.

Every file the tool writes gets a manifest alongside it (sha256 over the
output bytes, the seed, tool version, and config paths) so a run can be
reproduced and its artifacts verified. Manifests contain no timestamps;
reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import secrets
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

from . import __version__, configio
from .catalog import DEFAULT_CATALOG, Factor, catalog_to_yaml, load_catalog
from .errors import AuthFusionError
from .fusion import StrategyKind, decide, load_evidence, load_policy
from .reliability import SWEEP_STRATEGIES, sweep, sweep_to_csv
from .session import load_scenario, report_summary, report_to_csv, run_simulation

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_DENY = 3


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written next to every output file."""

    command: str
    config_paths: Mapping[str, str] = field(default_factory=dict)
    parameters: Mapping[str, Any] = field(default_factory=dict)
    seed: int | None = None
    tool_version: str = __version__
    outputs: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _digest(data: bytes) -> dict[str, Any]:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _write_with_manifest(files: Mapping[Path, str], manifest: RunManifest, manifest_path: Path | None = None) -> None:
    """Write each file's UTF-8 bytes, then the manifest with their digests
    added, at manifest_path or, for a lone file, beside it."""
    if manifest_path is None:
        (path,) = files
        manifest_path = path.with_name(path.name + ".manifest.json")
    data = {path: content.encode() for path, content in files.items()}
    for path, raw in data.items():
        path.write_bytes(raw)
    outputs = {**manifest.outputs, **{path.name: _digest(raw) for path, raw in data.items()}}
    manifest_path.write_bytes(replace(manifest, outputs=outputs).to_json().encode())


def _load_catalog_arg(path: str | None) -> tuple[Factor, ...]:
    if path is None:
        return DEFAULT_CATALOG
    return load_catalog(configio.read_text(path))


# -- catalog ----------------------------------------------------------------


def cmd_catalog(args: argparse.Namespace) -> int:
    catalog = _load_catalog_arg(args.catalog)
    if args.action == "validate":
        # load_catalog already raised on any schema violation
        print(f"catalog OK ({len(catalog)} factors)")
        return EXIT_OK
    if args.action == "export":
        text = catalog_to_yaml(catalog)
        if args.out is None:
            sys.stdout.write(text)
        else:
            manifest = RunManifest(
                command="catalog export",
                config_paths={"catalog": args.catalog or "<built-in>"},
            )
            _write_with_manifest({Path(args.out): text}, manifest)
        return EXIT_OK

    header = ("ID", "NAME", "CATEGORY", "ACTION", "DURATION", "FAR", "FRR")
    rows = [
        (
            f.id,
            f.name,
            f.category_code,
            f.action.code,
            f.duration.band.code,
            "%g" % f.far,
            "%g" % f.frr,
        )
        for f in catalog
    ]
    widths = [max(len(r[c]) for r in (header, *rows)) for c in range(len(header))]
    for row in (header, *rows):
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return EXIT_OK


# -- sweep ------------------------------------------------------------------


def _parse_n_range(text: str) -> range:
    # without "..", hi is empty and fails to parse like any other bad bound
    lo, _, hi = text.partition("..")
    try:
        return range(int(lo), int(hi) + 1)
    except ValueError:
        raise AuthFusionError(f"n-range must look like 1..7, got {text!r}") from None


def cmd_sweep(args: argparse.Namespace) -> int:
    strategies = tuple(s.strip() for s in args.strategies.split(","))
    rows = sweep(args.far, args.frr, _parse_n_range(args.n_range), strategies)
    text = sweep_to_csv(rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        manifest = RunManifest(
            command="sweep",
            parameters={
                "far": args.far,
                "frr": args.frr,
                "n_range": args.n_range,
                "strategies": list(strategies),
            },
        )
        _write_with_manifest({Path(args.out): text}, manifest)
    return EXIT_OK


# -- decide -----------------------------------------------------------------


def cmd_decide(args: argparse.Namespace) -> int:
    catalog = _load_catalog_arg(args.catalog)
    policy = load_policy(configio.read_text(args.policy))
    records = load_evidence(configio.read_text(args.evidence))
    decision = decide(records, policy, catalog)

    print(f"decision: {'granted' if decision.granted else 'denied'}")
    strategy = policy.strategy
    if strategy.kind is StrategyKind.WEIGHTED:
        print(f"score: {decision.score!r}")
        print(f"threshold: {strategy.threshold!r}")
    else:
        print(f"passed: {decision.passed_count} of {len(records)} (need {strategy.passes_needed(len(records))})")
    print("contributions:")
    for factor_id, value in decision.contributing:
        print(f"  {factor_id}: {value!r}")
    return EXIT_OK if decision.granted else EXIT_DENY


# -- simulate ---------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario_path = Path(args.scenario)
    scenario = load_scenario(configio.read_text(scenario_path))

    def resolve(given: str | None, rel: str | None) -> str | None:
        """The path given on the command line, else the scenario's own, relative to it."""
        return given or (str(scenario_path.parent / rel) if rel else None)

    catalog_path = resolve(args.catalog, scenario.catalog_path)
    catalog = _load_catalog_arg(catalog_path)
    policy_path = resolve(args.policy, scenario.policy_path)
    if policy_path is None:
        raise AuthFusionError("no policy: pass --policy or set policy_path in the scenario")
    policy = load_policy(configio.read_text(policy_path))

    seed = args.seed
    if seed is None:
        seed = secrets.randbits(32)
    print(f"seed: {seed}")

    report = run_simulation(scenario, catalog, policy, args.trials, seed, workers=args.workers)
    csv_text = report_to_csv(report)
    summary_text = report_summary(report)

    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest(
            command="simulate",
            config_paths={
                "scenario": str(scenario_path),
                "catalog": catalog_path or "<built-in>",
                "policy": str(policy_path),
            },
            # workers is an execution detail with no effect on results;
            # recording it would break byte-identity across parallelism
            parameters={"trials": args.trials},
            seed=seed,
        )
        files = {out_dir / "report.csv": csv_text, out_dir / "summary.txt": summary_text}
        _write_with_manifest(files, manifest, out_dir / "manifest.json")
    sys.stdout.write(csv_text if args.format == "csv" else summary_text)
    return EXIT_OK


# -- parser -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="authfusion",
        description="Multi-factor fusion: catalog, analytics, decisions, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="inspect, export, or validate a factor catalog")
    p_cat.add_argument("action", choices=("list", "export", "validate"))
    p_cat.add_argument("--catalog", help="catalog YAML (default: built-in)")
    p_cat.add_argument("--out", help="output path for export")
    p_cat.set_defaults(func=cmd_catalog)

    p_sweep = sub.add_parser("sweep", help="tabulate composite FAR/FRR against factor count")
    p_sweep.add_argument("--far", type=float, default=0.0003, help="per-factor FAR (default 0.0003)")
    p_sweep.add_argument("--frr", type=float, default=0.02, help="per-factor FRR (default 0.02)")
    p_sweep.add_argument("--n-range", default="1..7", help="factor counts, e.g. 1..7")
    p_sweep.add_argument(
        "--strategies", default=",".join(SWEEP_STRATEGIES),
        help="comma list from: " + ", ".join(SWEEP_STRATEGIES),
    )
    p_sweep.add_argument("--out", help="CSV output path (default: stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_dec = sub.add_parser("decide", help="evaluate a policy against evidence records")
    p_dec.add_argument("--policy", required=True, help="policy YAML")
    p_dec.add_argument("--evidence", required=True, help="evidence YAML")
    p_dec.add_argument("--catalog", help="catalog YAML (default: built-in)")
    p_dec.set_defaults(func=cmd_decide)

    p_sim = sub.add_parser("simulate", help="run sessions against a scenario")
    p_sim.add_argument("--scenario", required=True, help="scenario YAML")
    p_sim.add_argument("--policy", help="policy YAML (overrides scenario policy_path)")
    p_sim.add_argument("--catalog", help="catalog YAML (overrides scenario catalog_path)")
    p_sim.add_argument("--trials", type=int, default=10_000)
    p_sim.add_argument("--seed", type=int, help="RNG seed (default: random, printed)")
    p_sim.add_argument("--out", help="output directory for report.csv, summary.txt, manifest.json")
    p_sim.add_argument("--format", choices=("csv", "summary"), default="summary")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AuthFusionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
