"""In-memory span recorder for the traced run.

Wrappers replace public names in the authfusion modules for the length of
the traced rounds. Each call records a span (id, name, start, end,
parent); a span's self time is its duration minus the time of the spans
it directly caused. Totals per name are kept for every call; raw spans
are kept up to a cap and written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, keep: int = 50_000):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []
        self.keep = keep
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def wrap(self, fn, name: str, count=None):
        """fn wrapped so each call records a span under name; count, if
        given, maps the call's (args, kwargs) to units of work done."""
        local, lock = self._local, self._lock

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                with lock:
                    self.calls[name] = self.calls.get(name, 0) + 1
                    self.total[name] = self.total.get(name, 0.0) + duration
                    self.self_time[name] = self.self_time.get(name, 0.0) + duration - frame[1]
                    if count is not None:
                        self.counts[name] = self.counts.get(name, 0) + count(args, kwargs)
                    if len(self.spans) < self.keep:
                        self.spans.append((span_id, name, start, end, parent))

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def instrument(tracer: Tracer, lib) -> None:
    """Wrap the public names the benchmark drives, plus SessionMachine.step
    and the names session imports, in every namespace they are called
    through."""
    cli, catalog, fusion, reliability, session, trust = (
        lib.cli, lib.catalog, lib.fusion, lib.reliability, lib.session, lib.trust)
    tracer.patch(cli, "main", "cli.main")
    for owner, attr in ((cli, "load_catalog"), (cli, "load_policy"), (cli, "load_scenario"),
                        (catalog, "load_catalog"), (fusion, "load_policy"),
                        (session, "load_scenario")):
        tracer.patch(owner, attr, "configio.load")
    tracer.patch(session, "validate_scenario", "session.validate_scenario")
    for owner in (session, cli):
        tracer.patch(owner, "run_simulation", "session.run_simulation")
        tracer.patch(owner, "report_to_csv", "session.render")
        tracer.patch(owner, "report_summary", "session.render")
    tracer.patch(session, "time_to_grant", "session.time_to_grant")
    tracer.patch(session.SessionMachine, "step", "session.step")
    for owner in (session, fusion):
        tracer.patch(owner, "decide", "fusion.decide")
    for owner in (session, trust):
        tracer.patch(owner, "effective_weights", "trust.effective_weights")
    for owner in (session, trust, catalog):
        tracer.patch(owner, "gate_factors", "catalog.gate_factors")
    for owner in (reliability, cli):
        tracer.patch(owner, "sweep", "reliability.sweep")
        tracer.patch(owner, "sweep_to_csv", "reliability.sweep_to_csv")
    for name in ("compose_all", "compose_any", "compose_kofn", "compose_weighted"):
        tracer.patch(reliability, name, f"reliability.{name}")
    tracer.patch(reliability, "monte_carlo_rates", "reliability.monte_carlo_rates",
                 count=lambda args, kwargs: kwargs["trials"] if "trials" in kwargs else args[2])


# (metric, span name, what): "self" and "total" are seconds per round,
# "calls" and "count" are per round too
LAYER_METRICS = (
    ("cli.main_s", "cli.main", "total"),
    ("cli.self_s", "cli.main", "self"),
    ("configio.load_s", "configio.load", "self"),
    ("session.validate_scenario_s", "session.validate_scenario", "self"),
    ("session.validate_scenario_calls", "session.validate_scenario", "calls"),
    ("session.run_simulation_s", "session.run_simulation", "self"),
    ("session.render_s", "session.render", "self"),
    ("session.time_to_grant_s", "session.time_to_grant", "self"),
    ("session.step_calls", "session.step", "calls"),
    ("session.step_s", "session.step", "self"),
    ("fusion.decide_calls", "fusion.decide", "calls"),
    ("fusion.decide_s", "fusion.decide", "self"),
    ("trust.effective_weights_calls", "trust.effective_weights", "calls"),
    ("trust.effective_weights_s", "trust.effective_weights", "self"),
    ("catalog.gate_factors_calls", "catalog.gate_factors", "calls"),
    ("catalog.gate_factors_s", "catalog.gate_factors", "self"),
    ("reliability.sweep_s", "reliability.sweep", "self"),
    ("reliability.compose_all_s", "reliability.compose_all", "self"),
    ("reliability.compose_any_s", "reliability.compose_any", "self"),
    ("reliability.compose_kofn_s", "reliability.compose_kofn", "self"),
    ("reliability.sweep_to_csv_s", "reliability.sweep_to_csv", "self"),
    ("reliability.compose_weighted_s", "reliability.compose_weighted", "self"),
    ("reliability.monte_carlo_rates_s", "reliability.monte_carlo_rates", "self"),
    ("reliability.mc_trials", "reliability.monte_carlo_rates", "count"),
)


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    source = {"self": tracer.self_time, "total": tracer.total,
              "calls": tracer.calls, "count": tracer.counts}
    out = {}
    for metric, name, what in LAYER_METRICS:
        value = source[what].get(name, 0) / rounds
        out[metric] = (value, "s" if what in ("self", "total") else "count")
    return out
