"""authfusion benchmark: one closed-loop workload per invocation.

    python3 bench/run.py --workload population --seed 1 --seconds 12 --trace 0

Run from the repository root; the program is imported from ./src. Each
workload is one deployment (catalog, policy, scenario; see inputs.py) and
one round of operations over it: session simulation, time_to_grant, a
stream of device-side decisions, a sweep through the CLI, a batch of
exact weighted compositions and a Monte Carlo estimate. Rounds repeat
until --seconds have passed. Every output is checked against values the
benchmark computes itself (oracle.py, checks.py).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the rounds run under span wrappers (spans.py) and the metrics
are per-layer self times and call counts per round, plus the tracing
overhead against untraced rounds of the same run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import yaml

import checks
import inputs
import oracle
import spans

SETUP_REPEATS = 7
MIN_ROUNDS = 3
SETUP_SCRIPT = """\
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import authfusion
from authfusion import catalog, fusion, session
d = Path(sys.argv[2])
cat = catalog.load_catalog((d / "catalog.yaml").read_text())
pol = fusion.load_policy((d / "policy.yaml").read_text())
sc = session.load_scenario((d / "scenario.yaml").read_text())
problems = session.validate_scenario(sc, cat, pol)
if problems:
    raise SystemExit("; ".join(problems))
# the one-time work a fresh simulate pays: plan and cached score tables
session.run_simulation(sc, cat, pol, 1, 0)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "sessions_per_s": "sessions/s",
    "time_to_grant_s": "s",
    "decisions_per_s": "1/s",
    "sweep_s": "s",
    "exact_weighted_s": "s",
    "mc_trials_per_s": "trials/s",
    "peak_rss_mb": "MB",
}


def _load_program(root: Path):
    src = root / "src"
    if not (src / "authfusion" / "__init__.py").is_file():
        raise SystemExit(f"error: no authfusion package under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import authfusion
    from authfusion import catalog, cli, context, fusion, reliability, session, trust

    if Path(authfusion.__file__).resolve().parent != (src / "authfusion").resolve():
        raise SystemExit(f"error: imported authfusion from {authfusion.__file__}, not {src}")
    return src, SimpleNamespace(catalog=catalog, cli=cli, context=context, fusion=fusion,
                                reliability=reliability, session=session, trust=trust)


def _op_seed(seed: int, r: int, salt: int) -> int:
    return (seed * 1009 + r) * 8 + salt


class Workload:
    """One deployment, its oracle values and the operations of a round."""

    def __init__(self, dep: inputs.Deployment, lib, work: Path, seed: int):
        self.dep, self.lib, self.work, self.seed = dep, lib, work, seed
        self.paths = dep.write(work / "config")
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {k: [] for k in END_TO_END_UNITS}
        self.round_times: list[float] = []
        self.spent = 0.0  # seconds inside timed operations
        self.first_report: dict[str, bytes] | None = None

    # -- set-up ---------------------------------------------------------

    def measure_setup(self, src: Path) -> None:
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_SCRIPT, str(src), str(self.paths["catalog"].parent)],
                capture_output=True, text=True, timeout=120,
            )
            elapsed = perf_counter() - start
            if proc.returncode != 0:
                raise SystemExit(f"error: set-up failed: {proc.stderr.strip()[-2000:]}")
            self.samples["setup_s"].append(elapsed)

    def prepare(self) -> None:
        lib, dep = self.lib, self.dep
        self.catalog = lib.catalog.load_catalog(self.paths["catalog"].read_text())
        self.policy = lib.fusion.load_policy(self.paths["policy"].read_text())
        self.scenario = lib.session.load_scenario(self.paths["scenario"].read_text())
        self.scope = [f for f in self.catalog if f.id in dep.weights]
        fielded = set(dep.scenario_factors)
        self.fielded = [f for f in self.scope if f.id in fielded]
        self.model = oracle.session_model(dep)
        self.rule_rates = oracle.rule_rates(dep)
        self.weighted_want = [oracle.weighted_expect(c) for c in dep.weighted_cases]
        self.sweep_want = oracle.sweep_table(dep.sweep_far, dep.sweep_frr, dep.sweep_n)
        checks.median_basic_time(self.model)  # refuses a median on a boundary

    # -- operations -----------------------------------------------------

    def _run(self, metric: str, op, *args) -> None:
        self.attempted += 1
        try:
            op(metric, *args)
        except checks.VacuousCheck:
            raise  # a fault in the benchmark's inputs, not in the program
        except Exception:  # an op that raises is a failed op, not a crash
            self.failed += 1
            traceback.print_exc(file=sys.stderr)

    def _check(self, failures: list[str]) -> None:
        self.failures += failures
        for msg in failures:
            print(f"CHECK FAILED [{self.dep.workload}]: {msg}", file=sys.stderr)

    def _record(self, metric: str, elapsed: float, units: int | None = None, calls: int = 1) -> None:
        """A timing sample: seconds per call, or units of work per second."""
        self.spent += elapsed
        self.samples[metric].append(elapsed / calls if units is None else units / elapsed)

    def op_simulate(self, metric: str, r: int) -> None:
        dep, lib = self.dep, self.lib
        seed = _op_seed(self.seed, r, 0)
        if dep.sim_via_cli:
            out_dir = self.work / "simulate"
            files = self._cli_simulate(seed, dep.sim_workers, out_dir)
            if self.first_report is None:
                self.first_report = files
            self._check(checks.check_manifest(
                {k: files[k] for k in ("report.csv", "summary.txt")}, files["manifest.json"].decode()))
            self._check(checks.check_report(files["report.csv"].decode(), self.model, dep.sim_trials, seed))
            return
        start = perf_counter()
        report = lib.session.run_simulation(self.scenario, self.catalog, self.policy,
                                            dep.sim_trials, seed, workers=dep.sim_workers)
        csv_text = lib.session.report_to_csv(report)
        lib.session.report_summary(report)
        self._record(metric, perf_counter() - start, dep.sim_trials)
        self._check(checks.check_report(csv_text, self.model, dep.sim_trials, seed))

    def _cli_simulate(self, seed: int, workers: int, out_dir: Path, timed: bool = True) -> dict[str, bytes]:
        argv = ["simulate", "--scenario", str(self.paths["scenario"]), "--trials",
                str(self.dep.sim_trials), "--seed", str(seed), "--out", str(out_dir),
                "--workers", str(workers), "--format", "csv"]
        stdout = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = self.lib.cli.main(argv)
        elapsed = perf_counter() - start
        if code != 0:
            raise RuntimeError(f"authfusion simulate exited {code}")
        if timed:
            self._record("sessions_per_s", elapsed, self.dep.sim_trials)
        files = {name: (out_dir / name).read_bytes()
                 for name in ("report.csv", "summary.txt", "manifest.json")}
        if not stdout.getvalue().endswith(files["report.csv"].decode()):
            self._check(["simulate stdout does not carry report.csv"])
        return files

    def op_time_to_grant(self, metric: str, r: int) -> None:
        dep = self.dep
        seed = _op_seed(self.seed, r, 1)
        start = perf_counter()
        timing = self.lib.session.time_to_grant(self.scenario, self.catalog, self.policy,
                                                trials=dep.ttg_trials, seed=seed)
        self._record(metric, perf_counter() - start)
        fields = {name: getattr(timing, name) for name in (
            "trials", "basic_grants", "full_grants", "median_time_to_basic",
            "median_time_to_full", "median_active_phase", "over_budget", "degenerate")}
        self._check(checks.check_timing(fields, self.model, dep.ttg_trials,
                                        self.scenario.config.usability_budget))

    def decide_stream(self, r: int) -> list[tuple[dict, dict[str, int], dict[str, float]]]:
        """Device-side attempts: a context, an outcome and a source trust
        per factor, drawn per attempt."""
        rng = random.Random(f"decide:{self.seed}:{r}")
        ids = [f.id for f in self.scope]
        stream = []
        for _ in range(self.dep.decide_attempts):
            cond = {
                "gloves_worn": rng.random() < 0.3,
                "darkness": rng.random() < 0.3,
                "precipitation": rng.random() < 0.2,
                "noise_level": "high" if rng.random() < 0.3 else "low",
            }
            outcomes = {fid: int(rng.random() < 0.8) for fid in ids}
            trust = {fid: rng.choice((1.0, 0.8, 0.6, 0.3)) for fid in ids}
            stream.append((cond, outcomes, trust))
        return stream

    def op_decide(self, metric: str, r: int) -> None:
        lib, dep = self.lib, self.dep
        stream = self.decide_stream(r)
        results = []
        start = perf_counter()
        for cond, outcomes, trust in stream:
            ctx = lib.context.ContextState(conditions=cond)
            weights = lib.trust.effective_weights(self.policy, self.scope, ctx)
            records = [lib.fusion.EvidenceRecord(fid, d, trust=trust[fid])
                       for fid, d in outcomes.items() if weights[fid] > 0.0]
            decision = lib.fusion.decide(records, self.policy.with_weights(weights), self.catalog)
            results.append((weights, decision))
        self._record(metric, perf_counter() - start, len(stream))
        self._check(self._check_decisions(stream, results))

    def _check_decisions(self, stream, results) -> list[str]:
        dep = self.dep
        by_id = dep.by_id
        scope = [by_id[f.id] for f in self.scope]
        counting = {"all": None, "any": 1, "kofn": dep.k}
        out: list[str] = []
        for (cond, outcomes, trust), (weights, decision) in zip(stream, results):
            want_w = oracle.effective_weights(
                dep.weights if dep.strategy == "weighted" else {f.id: 1.0 for f in scope}, scope, cond)
            if dict(weights) != want_w:
                out.append(f"effective_weights under {cond}: {dict(weights)} != {want_w}")
                break
            used = [fid for fid in outcomes if want_w[fid] > 0.0]
            passed = sum(outcomes[fid] for fid in used)
            if dep.strategy == "weighted":
                score = math.fsum(
                    float(outcomes[fid]) * by_id[fid].mu * trust[fid] * want_w[fid] for fid in used)
                want = (score > dep.threshold, score, passed)
            else:
                need = counting[dep.strategy] or len(used)
                want = (passed >= need, None, passed)
            got = (decision.granted, decision.score, decision.passed_count)
            if got != want:
                out.append(f"decide under {cond}: {got} != {want}")
                break
        return out

    def op_sweep(self, metric: str, r: int) -> None:
        dep = self.dep
        out_path = self.work / "sweep.csv"
        argv = ["sweep", "--far", repr(dep.sweep_far), "--frr", repr(dep.sweep_frr),
                "--n-range", f"1..{dep.sweep_n}", "--out", str(out_path)]
        start = perf_counter()
        code = self.lib.cli.main(argv)
        elapsed = perf_counter() - start
        if code != 0:
            raise RuntimeError(f"authfusion sweep exited {code}")
        self._record(metric, elapsed)
        data = out_path.read_bytes()
        manifest = out_path.with_name(out_path.name + ".manifest.json").read_text()
        self._check(checks.check_manifest({out_path.name: data}, manifest))
        self._check(checks.check_sweep(data.decode(), self.sweep_want))

    def op_weighted(self, metric: str, r: int) -> None:
        compose = self.lib.reliability.compose_weighted
        batch = self.dep.weighted_batch
        start = perf_counter()
        results = [compose(list(case.rows), case.threshold)
                   for _ in range(batch) for case in self.dep.weighted_cases]
        self._record(metric, perf_counter() - start, calls=batch)
        first = results[: len(self.weighted_want)]
        if results != first * batch:
            self._check(["compose_weighted gave different results for the same inputs"])
        for got, want in zip(first, self.weighted_want):
            self._check(checks.check_weighted(
                (got.far, got.frr, got.far_underflow, got.frr_underflow), want))

    def op_monte_carlo(self, metric: str, r: int) -> None:
        dep = self.dep
        seed = _op_seed(self.seed, r, 2)
        start = perf_counter()
        est = self.lib.reliability.monte_carlo_rates(
            self.fielded, self.policy, dep.mc_trials, seed, trust=dict(dep.trust))
        self._record(metric, perf_counter() - start, dep.mc_trials)
        self._check(checks.check_mc({
            "far_events": est.far.events, "far_value": est.far.value, "far_trials": est.far.trials,
            "frr_events": est.frr.events, "frr_value": est.frr.value, "frr_trials": est.frr.trials,
        }, dep.mc_trials, *self.rule_rates))

    def round(self, r: int) -> float:
        """One round; returns the seconds its operations took."""
        spent = self.spent
        self._run("sessions_per_s", self.op_simulate, r)
        self._run("time_to_grant_s", self.op_time_to_grant, r)
        self._run("decisions_per_s", self.op_decide, r)
        self._run("sweep_s", self.op_sweep, r)
        self._run("exact_weighted_s", self.op_weighted, r)
        self._run("mc_trials_per_s", self.op_monte_carlo, r)
        return self.spent - spent

    # -- once-per-run identity checks -------------------------------------

    def identity_checks(self) -> None:
        dep, lib = self.dep, self.lib
        if dep.sim_via_cli and self.first_report is not None:
            # round 0 ran at sim_workers; the same seed at 1 worker
            self.attempted += 1
            one = self._cli_simulate(_op_seed(self.seed, 0, 0), 1, self.work / "simulate-1", timed=False)
            if one != self.first_report:
                self._check([f"simulate outputs differ between 1 and {dep.sim_workers} workers"])
        if dep.moved_change_trials:
            # a change past the session horizon must change nothing
            self.attempted += 1
            seed = _op_seed(self.seed, 0, 3)
            late = [(1e6, upd) for _, upd in dep.changes]
            texts = []
            for changes in (late, []):
                sc = lib.session.load_scenario(yaml.safe_dump(dep.scenario_dict(changes), sort_keys=False))
                report = lib.session.run_simulation(sc, self.catalog, self.policy,
                                                    dep.moved_change_trials, seed)
                texts.append(lib.session.report_to_csv(report))
            if texts[0] != texts[1]:
                self._check(["a context change past the horizon changed the report"])
            self._check(checks.check_report(texts[1], oracle.session_model(dep, changes=[]),
                                            dep.moved_change_trials, seed))


def _time_rounds(wl: Workload, first: int, seconds: float) -> int:
    start = perf_counter()
    r = first
    while r - first < MIN_ROUNDS or perf_counter() - start < seconds:
        wl.round_times.append(wl.round(r))
        r += 1
    return r


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src, lib = _load_program(root)
    results = root / "bench" / "results"
    work = results / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        dep = inputs.build(args.workload, args.seed)
        wl = Workload(dep, lib, work, args.seed)
        wl.measure_setup(src)
        wl.prepare()
        wl.round(0)  # warm-up: caches fill and lazy set-up finishes untimed
        wl.round_times.clear()
        wl.samples = {k: (v if k == "setup_s" else []) for k, v in wl.samples.items()}
        if args.trace:
            # a third of the run untraced, the rest under the wrappers
            r = _time_rounds(wl, 1, args.seconds / 3.0)
            untraced = list(wl.round_times)
            wl.round_times.clear()
            tracer = spans.Tracer()
            spans.instrument(tracer, lib)
            try:
                end = _time_rounds(wl, r, args.seconds * 2.0 / 3.0)
            finally:
                tracer.unpatch()
            tracer.write(results / f"trace-{args.workload}-{args.seed}.jsonl")
            metrics = spans.layer_metrics(tracer, end - r)
            metrics["trace.overhead_ratio"] = (
                statistics.median(wl.round_times) / statistics.median(untraced) - 1.0, "ratio")
        else:
            _time_rounds(wl, 1, args.seconds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {name: (statistics.median(wl.samples[name]), unit)
                       for name, unit in END_TO_END_UNITS.items() if name != "peak_rss_mb"}
            metrics["peak_rss_mb"] = (peak, "MB")
        wl.identity_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": not wl.failures,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
