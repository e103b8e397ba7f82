"""Three-phase authentication sessions and a population simulator.

A session moves forward through pre-authentication (passive evidence
only, can unlock a Basic tier early), active authentication (the policy
decision that grants Full access), and continuous monitoring (periodic
behavior validation that can revoke). The machine itself is a pure
transition function over immutable states; all randomness lives in the
simulator, which samples factor outcomes from their FAR/FRR and feeds
them in as events.

Every event time in a simulated session is fixed in advance, and context
changes happen at fixed offsets, so the simulation plan resolves the
context in force at each event once. The simulator then tallies the
sampled outcomes with array arithmetic alone; the test suite holds it to
the reports SessionMachine.step produces over the same samples. Sampling
is sharded with per-shard derived seeds and a fixed-order reduction,
making reports byte-stable for a given seed at any worker count.

Scenarios, catalogs and policies compare and hash by value, so the
validated plan is built once per distinct deployment: run_simulation and
time_to_grant keep the last PLAN_MEMO_SIZE plans (a constant) keyed on
(scenario, tuple(catalog), policy). A hit skips the scenario's checks
too, since they are a pure function of that key and a failure is never
kept. One-shot runs in a fresh process miss and pay the full build.
Each machine gates its catalog once per distinct set of conditions and
keeps the result, and the plan resolves each context stretch once.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from itertools import accumulate
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from . import configio
from .catalog import ActionMode, Factor, catalog_index, gate_factors
from .configio import FrozenMap
from .context import DEFAULT_CONTEXT_RULES, ContextRule, ContextState, SessionPhase
from .errors import AuthFusionError, ConfigError, EvaluationError
from .fusion import EvidenceRecord, Policy, StrategyKind, _weighted_terms, decide
from .reliability import _fmt17, _passes_per_row, _run_shards, _uniform_blocks, _weighted_above
from .trust import effective_weights

_PRE = SessionPhase.PRE_AUTHENTICATION
_ACT = SessionPhase.ACTIVE_AUTHENTICATION
_MON = SessionPhase.CONTINUOUS_MONITORING


class GrantTier(Enum):
    BASIC = "basic"
    FULL = "full"


class Terminal(Enum):
    GRANTED = "granted"
    DENIED = "denied"
    REVOKED = "revoked"


@dataclass(frozen=True)
class ArrivalOfEvidence:
    record: EvidenceRecord

    @property
    def at(self) -> float:
        return self.record.observed_at


@dataclass(frozen=True)
class Tick:
    at: float


@dataclass(frozen=True)
class PhaseTimeout:
    """Deadline for one phase; ignored unless the session is in it."""

    at: float
    phase: SessionPhase


@dataclass(frozen=True)
class MonitorConfig:
    """Continuous-monitoring operating point.

    The (window, detection_accuracy) pair states the probability that an
    impostor is flagged within one window. Checks run every
    check_interval seconds (defaults to the window), with the per-check
    probability derived so the per-window rate is preserved; false_alarm
    is the per-window probability of flagging the legitimate user.
    """

    window: float = 150.0
    detection_accuracy: float = 0.95
    check_interval: float | None = None
    false_alarm: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.window < math.inf:
            raise ConfigError("window must be finite and positive", field="monitor.window")
        if not 0.0 < self.detection_accuracy < 1.0:
            raise ConfigError("detection_accuracy must lie in (0, 1)", field="monitor.detection_accuracy")
        if not 0.0 <= self.false_alarm < 1.0:
            raise ConfigError("false_alarm must lie in [0, 1)", field="monitor.false_alarm")
        if self.check_interval is None:
            object.__setattr__(self, "check_interval", self.window)
        if not 0.0 < self.check_interval < math.inf:
            raise ConfigError("check_interval must be finite and positive", field="monitor.check_interval")

    def _per_check(self, per_window: float) -> float:
        ratio = self.check_interval / self.window
        # one check per window means the per-window rate verbatim, with no
        # 1 - (1 - x) round trip to smudge it
        if ratio == 1.0:
            return per_window
        return 1.0 - (1.0 - per_window) ** ratio

    @property
    def per_check_detection(self) -> float:
        return self._per_check(self.detection_accuracy)

    @property
    def per_check_false_alarm(self) -> float:
        return self._per_check(self.false_alarm)


@dataclass(frozen=True)
class SessionConfig:
    """Session-level knobs: thresholds, evidence lifetime, horizons.

    t_basic defaults to half the full-grant threshold (T/2 for weighted
    policies, half the effective pass count for counting ones).
    Pre-authentication evidence older than staleness_horizon at the start
    of active authentication is discarded. monitoring_horizon bounds the
    monitored part of a simulated session and defaults to one window.
    """

    t_basic: float | None = None
    staleness_horizon: float = 300.0
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    monitoring_horizon: float | None = None
    usability_budget: float = 2.0

    def __post_init__(self):
        if self.t_basic is not None:
            configio.non_negative(self.t_basic, "session", "t_basic")
        configio.non_negative(self.staleness_horizon, "session", "staleness_horizon")
        if self.monitoring_horizon is not None and not self.monitoring_horizon > 0.0:
            raise ConfigError("monitoring_horizon must be positive", field="session.monitoring_horizon")
        if not self.usability_budget > 0.0:
            raise ConfigError("usability_budget must be positive", field="session.usability_budget")

    @property
    def horizon(self) -> float:
        return self.monitoring_horizon if self.monitoring_horizon is not None else self.monitor.window

    @property
    def n_checks(self) -> int:
        """Monitoring checks per session: one each check_interval up to the horizon."""
        n = self.horizon / self.monitor.check_interval + 1e-9
        # past 2**53 checks, consecutive check times stop being distinct floats
        if not n < 2**53 + 1:
            raise ConfigError("more than 2**53 monitoring checks", field="session.monitoring_horizon")
        return math.floor(n)


# Resolutions one machine keeps, least recently used dropped first.
RESOLUTION_MEMO_SIZE = 64


def _resolution(catalog: Sequence[Factor], scope_ids: frozenset[str], rules: Sequence[ContextRule],
                conditions: Mapping[str, Any]) -> dict[SessionPhase, tuple[str, ...]]:
    """The ids whose evidence each phase scores under conditions, in
    catalog order: the passive-capable usable ones before the decision,
    the usable ones in scope_ids that it expects, and the usable ones
    after it. One gate with no phase serves all three, since a phase only
    drops the factors that cannot run in it."""
    usable = gate_factors(catalog, ContextState(conditions=conditions), rules).available
    return {
        _PRE: tuple(f.id for f in usable if _PRE in f.phases and f.action is not ActionMode.ACTIVE),
        _ACT: tuple(f.id for f in usable if _ACT in f.phases and f.id in scope_ids),
        _MON: tuple(f.id for f in usable if _MON in f.phases),
    }


@dataclass(frozen=True)
class SessionState:
    """Immutable session snapshot. step() returns a new one."""

    phase: SessionPhase = _PRE
    score: float = 0.0
    grant_tier: GrantTier | None = None
    elapsed: float = 0.0
    evidence: tuple[EvidenceRecord, ...] = ()
    flagged: tuple[bool, ...] = ()  # aligned with evidence: recorded, never scored
    terminal: Terminal | None = None
    basic_granted_at: float | None = None
    full_granted_at: float | None = None
    monitor_started_at: float | None = None
    revoked_at: float | None = None


class SessionMachine:
    """Pure transition function over SessionState, bound to one catalog,
    policy, and session config.

    Phase rules: pre-authentication scores only passive-capable factors
    usable in that phase and can raise the tier to Basic; the active
    decision runs once every expected factor has reported or the phase
    times out, with absent factors counted as failed checks; monitoring
    revokes on any failed validation from a monitoring-capable factor,
    and a session that reaches its monitoring deadline ends Granted.
    Evidence from factors outside the current phase's usable set is
    recorded but flagged and never scored. The machine keeps its last
    RESOLUTION_MEMO_SIZE resolutions in a memo that does not refer to it.
    """

    def __init__(
        self,
        catalog: Sequence[Factor],
        policy: Policy,
        *,
        ctx: ContextState | None = None,
        config: SessionConfig | None = None,
        rules: Sequence[ContextRule] = DEFAULT_CONTEXT_RULES,
    ):
        self._catalog = tuple(catalog)
        self._index = catalog_index(self._catalog)
        self._policy = policy
        self._ctx = ctx if ctx is not None else ContextState.nominal()
        self._config = config if config is not None else SessionConfig()
        self._rules = tuple(rules)
        self._weighted = policy.strategy.kind is StrategyKind.WEIGHTED
        if self._weighted:
            # factors outside the weights map are simply out of scope
            self._scope = tuple(f for f in self._catalog if f.id in policy.weights)
            if not self._scope:
                raise ConfigError("policy weights cover no catalog factor", field="weights")
        else:
            self._scope = self._catalog
        self._scope_ids = frozenset(f.id for f in self._scope)
        # keyed on ctx.conditions: a list-valued condition resolves uncached
        self._resolve = configio.memoized(RESOLUTION_MEMO_SIZE)(partial(_resolution, self._catalog, self._scope_ids, self._rules))
        self._resolve_thresholds()

    # -- static context-dependent sets -------------------------------------

    def expected_factors(self, ctx: ContextState | None = None) -> tuple[str, ...]:
        """Factors whose evidence the active-phase decision waits for."""
        ctx = ctx if ctx is not None else self._ctx
        return self._resolve(ctx.conditions)[_ACT]

    def _weights(self, ctx: ContextState) -> Mapping[str, float]:
        """The scope's weights adapted to ctx's conditions (phase aside)."""
        return effective_weights(self._policy, self._scope, ContextState(conditions=ctx.conditions), self._rules)

    def _resolve_thresholds(self) -> None:
        if self._weighted:
            full = self._policy.strategy.threshold
            bound = f"the full threshold {full}"
        else:
            k_eff = self._policy.strategy.passes_needed(len(self.expected_factors(self._ctx)))
            full = float(k_eff)
            bound = f"the effective pass count {k_eff}"
        basic = self._config.t_basic if self._config.t_basic is not None else full / 2.0
        if full > 0.0 and basic >= full:
            raise ConfigError(f"t_basic={basic} must stay below {bound}", field="session.t_basic")
        self.t_basic = basic
        self.t_full = full

    # -- transitions --------------------------------------------------------

    def initial_state(self) -> SessionState:
        return SessionState()

    def step(self, state: SessionState, event, ctx: ContextState | None = None) -> SessionState:
        """Apply one event. Terminal states absorb everything."""
        ctx = ctx if ctx is not None else self._ctx
        if state.terminal is not None:
            return state
        at = float(event.at)
        if at < state.elapsed:
            raise EvaluationError(
                f"event at t={at} precedes the session clock t={state.elapsed}"
            )
        if isinstance(event, Tick):
            return replace(state, elapsed=at)
        if isinstance(event, ArrivalOfEvidence):
            return self._arrival(state, event.record, ctx, at)
        if isinstance(event, PhaseTimeout):
            if event.phase is not state.phase:
                return replace(state, elapsed=at)
            if state.phase is _PRE:
                return self._begin_active(state, at)
            if state.phase is _ACT:
                return self._decide_full(replace(state, elapsed=at), ctx, at)
            return replace(state, elapsed=at, terminal=Terminal.GRANTED)
        raise EvaluationError(f"unsupported event type {type(event).__name__}")

    def run(self, events: Sequence, ctx: ContextState | None = None) -> SessionState:
        state = self.initial_state()
        for event in events:
            state = self.step(state, event, ctx)
        return state

    def _arrival(self, state: SessionState, rec: EvidenceRecord, ctx: ContextState, at: float) -> SessionState:
        if rec.factor_id not in self._index:
            raise ConfigError(f"evidence references unknown factor '{rec.factor_id}'", field=rec.factor_id)
        scoring = self._resolve(ctx.conditions)[state.phase]
        scorable = rec.factor_id in scoring
        state = replace(
            state,
            elapsed=at,
            evidence=state.evidence + (rec,),
            flagged=state.flagged + (not scorable,),
        )
        if not scorable:
            return state

        if state.phase is _PRE:
            score = self._aggregate(self._latest(state), ctx)
            state = replace(state, score=score)
            if state.grant_tier is None and score > self.t_basic:
                state = replace(state, grant_tier=GrantTier.BASIC, basic_granted_at=at)
            return state
        if state.phase is _ACT:
            latest = self._latest(state)
            state = replace(state, score=self._aggregate(latest, ctx))
            if all(fid in latest for fid in scoring):
                return self._decide_full(state, ctx, at)
            return state
        # monitoring: any failed validation revokes on the spot
        if rec.decision == 0:
            return replace(state, terminal=Terminal.REVOKED, revoked_at=at)
        return state

    def _begin_active(self, state: SessionState, at: float) -> SessionState:
        # pre-auth evidence past the staleness horizon never reaches decide()
        cutoff = at - self._config.staleness_horizon
        kept = [
            (rec, flag)
            for rec, flag in zip(state.evidence, state.flagged)
            if rec.observed_at >= cutoff
        ]
        return replace(
            state,
            phase=_ACT,
            elapsed=at,
            evidence=tuple(rec for rec, _ in kept),
            flagged=tuple(flag for _, flag in kept),
        )

    def _decide_full(self, state: SessionState, ctx: ContextState, at: float) -> SessionState:
        expected = self.expected_factors(ctx)
        if not expected:
            return replace(state, terminal=Terminal.DENIED)
        latest = self._latest(state)
        records = [
            latest.get(fid, EvidenceRecord(factor_id=fid, decision=0, observed_at=at))
            for fid in expected
        ]
        policy = self._policy.with_weights(self._weights(ctx)) if self._weighted else self._policy
        decision = decide(records, policy, self._catalog)
        score = decision.score if decision.score is not None else float(decision.passed_count)
        if not decision.granted:
            return replace(state, score=score, terminal=Terminal.DENIED)
        return replace(
            state,
            phase=_MON,
            score=score,
            grant_tier=GrantTier.FULL,
            full_granted_at=at,
            monitor_started_at=at,
        )

    def _latest(self, state: SessionState) -> dict[str, EvidenceRecord]:
        latest: dict[str, EvidenceRecord] = {}
        for rec, flag in zip(state.evidence, state.flagged):
            if not flag:
                latest[rec.factor_id] = rec
        return latest

    def _aggregate(self, latest: Mapping[str, EvidenceRecord], ctx: ContextState) -> float:
        if not self._weighted:
            return float(sum(rec.decision for rec in latest.values()))
        # evidence outside the scope carries no weight
        in_scope = [rec for fid, rec in latest.items() if fid in self._scope_ids]
        terms = _weighted_terms(in_scope, self._index, self._weights(ctx), self._policy.use_likelihood)
        return math.fsum(t for _, t in terms)


# ---------------------------------------------------------------------------
# Scenarios


@dataclass(frozen=True)
class Scenario:
    """Population and environment description for a simulation run.

    factors limits which catalog factors produce evidence (None means
    every factor the policy can score). takeover models a post-grant
    impostor: sessions authenticate with legitimate-user rates but
    monitoring validates against impostor behavior. context_changes apply
    condition updates mid-session at the given offsets.
    """

    name: str = "scenario"
    adversary_fraction: float = 0.0
    takeover: bool = False
    factors: tuple[str, ...] | None = None
    trust: Mapping[str, float] = field(default_factory=dict)
    conditions: Mapping[str, Any] = field(default_factory=dict)
    context_changes: tuple[tuple[float, Mapping[str, Any]], ...] = ()
    monitor_factor: str | None = None
    config: SessionConfig = field(default_factory=SessionConfig)
    policy_path: str | None = None
    catalog_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "trust", FrozenMap(self.trust))
        object.__setattr__(self, "conditions", FrozenMap(self.conditions))
        object.__setattr__(
            self,
            "context_changes",
            tuple((float(at), FrozenMap(updates)) for at, updates in self.context_changes),
        )
        if self.factors is not None:
            object.__setattr__(self, "factors", tuple(self.factors))

    def initial_context(self) -> ContextState:
        return ContextState(conditions=dict(self.conditions))


def _value_problems(scenario: Scenario) -> Iterator[tuple[tuple, str]]:
    """(key path, message) for each scenario value that breaks its rule:
    adversary_fraction and each trust value lie in [0, 1], and change
    times are finite, >= 0 and non-decreasing. The plan applies changes in
    list order, so a time that breaks it would hold back every change
    listed after it."""
    for path, value in [(("adversary_fraction",), scenario.adversary_fraction),
                        *((("trust", fid), tau) for fid, tau in scenario.trust.items())]:
        try:
            configio.unit_interval(value, *path)
        except ConfigError as exc:
            yield path, exc.message
    latest = 0.0
    for i, (at, _) in enumerate(scenario.context_changes):
        path = ("context", "changes", i, "at")
        if not math.isfinite(at):
            yield path, f"context change at t={at} is not a finite time"
        elif at < 0.0:
            yield path, f"context change at t={at} precedes the session start"
        elif at < latest:
            yield path, f"context change at t={at} comes before the change at t={latest}; change times must be non-decreasing"
        else:
            latest = at


def load_scenario(source: str) -> Scenario:
    """Parse a scenario file (YAML text); errors carry field paths and lines."""
    root = configio.load_root(source, "scenario")
    root.reject_unknown(
        {
            "schema_version", "name", "adversary_fraction", "takeover", "factors",
            "trust", "context", "monitor", "session", "monitor_factor",
            "policy_path", "catalog_path",
        }
    )

    factors = None
    if "factors" in root.data:
        raw = root.require("factors", list)
        if not all(isinstance(x, str) for x in raw):
            raise root.error("factors", "must be a list of factor ids")
        factors = tuple(raw)

    tsec = root.section("trust")
    trust = {} if tsec is None else {fid: tsec.require(fid, float) for fid in tsec.data}

    conditions: dict[str, Any] = {}
    changes: list[tuple[float, dict[str, Any]]] = []
    csec = root.section("context")
    if csec is not None:
        csec.reject_unknown({"initial", "changes"})
        isec = csec.section("initial")
        if isec is not None:
            conditions = dict(isec.data)
        for entry in csec.items("changes") if "changes" in csec.data else []:
            entry.reject_unknown({"at", "set"})
            at = entry.require("at", float)
            setsec = entry.section("set", required=True)
            changes.append((at, dict(setsec.data)))

    monitor = MonitorConfig()
    msec = root.section("monitor")
    if msec is not None:
        with msec.checking():
            monitor = MonitorConfig(**msec.fields(
                window=float, detection_accuracy=float, check_interval=float, false_alarm=float))

    config = SessionConfig(monitor=monitor)
    ssec = root.section("session")
    if ssec is not None:
        with ssec.checking():
            config = SessionConfig(monitor=monitor, **ssec.fields(
                t_basic=float, staleness_horizon=float, monitoring_horizon=float, usability_budget=float))

    scenario = Scenario(
        name=root.get("name", str, "scenario"),
        adversary_fraction=root.get("adversary_fraction", float, 0.0),
        takeover=root.get("takeover", bool, False),
        factors=factors,
        trust=trust,
        conditions=conditions,
        context_changes=tuple(changes),
        monitor_factor=root.get("monitor_factor", str),
        config=config,
        policy_path=root.get("policy_path", str),
        catalog_path=root.get("catalog_path", str),
    )
    for path, message in _value_problems(scenario):
        raise ConfigError(message, field=configio.dotted(path), line=root.lines.get(path))  # the first, at its line
    return scenario


def validate_scenario(scenario: Scenario, catalog: Sequence[Factor], policy: Policy) -> list[str]:
    """Every problem found, as messages; empty means runnable. Once the
    static checks pass, the one left to report is the plan build's error."""
    try:
        _plan_memo(scenario, tuple(catalog), policy)
    except AuthFusionError as exc:
        return getattr(exc, "problems", None) or [str(exc)]
    return []


def _static_problems(scenario: Scenario, catalog: Sequence[Factor], policy: Policy) -> list[str]:
    """The problems found without building the plan."""
    problems = [f"{message} ({configio.dotted(path)})" for path, message in _value_problems(scenario)]
    ids = {f.id for f in catalog}
    if scenario.factors is not None:
        if not scenario.factors:
            problems.append("factors list is empty")
        seen: set[str] = set()
        for fid in scenario.factors:
            if fid not in ids:
                problems.append(f"unknown factor '{fid}'")
            elif fid in seen:
                problems.append(f"factor '{fid}' listed twice")
            seen.add(fid)
    for fid in scenario.trust:
        if fid not in ids:
            problems.append(f"trust entry for unknown factor '{fid}'")
    if scenario.monitor_factor is not None:
        if scenario.monitor_factor not in ids:
            problems.append(f"unknown monitor_factor '{scenario.monitor_factor}'")
        else:
            factor = next(f for f in catalog if f.id == scenario.monitor_factor)
            if _MON not in factor.phases:
                problems.append(f"monitor_factor '{scenario.monitor_factor}' is not monitoring-capable")
    if policy.strategy.kind is StrategyKind.WEIGHTED:
        for fid in scenario.factors or ():
            if fid in ids and fid not in policy.weights:
                problems.append(f"policy assigns no weight to scenario factor '{fid}'")
    return problems


# ---------------------------------------------------------------------------
# Simulation plan: the per-session event layout and the context at each event


@dataclass(frozen=True)
class _Firing:
    factor_id: str
    at: float
    trust: float
    far: float
    frr: float


@dataclass(frozen=True)
class _Score:
    """The sum of weights over the passing columns among cols, at `at`."""

    at: float
    cols: tuple[int, ...]
    weights: tuple[float, ...]  # empty for counting rules, which count passes


@dataclass(frozen=True)
class _Plan:
    """Per-session event layout, resolved against the context in force at
    each event. Firings are scheduled from the initial context; column j
    of the sampled outcomes is firing j of pre + active, and fresh pre
    evidence is not prompted again. Each firing carries its factor's FAR
    and FRR, so sampling reads the plan alone. pre_scores is the score
    after each scorable pre arrival in dispatch order; basic keeps each
    context stretch's last, and highest, one. The decision lands at the
    first scorable active arrival that completes the expected set, else
    at active_end; late holds (column, scorable) for active arrivals
    dispatched after it.

    Monitoring runs n_checks checks of monitor_factor (none without
    one), check c at check_time(c). scorable holds the half-open
    [start, stop) runs of check indices at which the context in force
    lets monitor_factor score; the others are recorded, never scored.
    Nothing in the plan is held per check, so its size does not grow
    with n_checks."""

    pre: tuple[_Firing, ...]
    active: tuple[_Firing, ...]
    pre_end: float
    active_end: float
    pre_scores: tuple[_Score, ...]
    basic: tuple[_Score, ...]
    decision: _Score
    late: tuple[tuple[int, bool], ...]
    interval: float
    n_checks: int
    scorable: tuple[tuple[int, int], ...]
    monitor_factor: str | None
    weighted: bool
    threshold: float  # a Full grant takes a score, or pass count, above it
    t_basic: float

    def check_time(self, c: int) -> float:
        return self.active_end + (c + 1) * self.interval


def _context_timeline(scenario: Scenario) -> list[tuple[float, ContextState]]:
    timeline = [(0.0, scenario.initial_context())]
    for at, updates in scenario.context_changes:
        timeline.append((at, timeline[-1][1].with_updates(updates)))
    return timeline


def _build_plan(scenario: Scenario, catalog: Sequence[Factor], policy: Policy) -> tuple[SessionMachine, _Plan]:
    timeline = _context_timeline(scenario)
    machine = SessionMachine(catalog, policy, ctx=timeline[0][1], config=scenario.config)
    index = machine._index
    if machine._weighted:
        machine._weights(timeline[0][1])  # fails if the initial context leaves no usable factor
    resolved = [machine._resolve(now.conditions) for _, now in timeline]
    # stretch i starts at the running max of the change times up to i, so
    # the stretch in force at t follows every change up to and including t
    starts_at = list(accumulate((at for at, _ in timeline), max))

    def stretch_at(at: float) -> int:
        return bisect_right(starts_at, at) - 1

    if scenario.factors is not None:
        chosen = [index[fid] for fid in scenario.factors]
    else:
        chosen = list(machine._scope)
    chosen_ids = {f.id for f in chosen}

    def firing(f: Factor, at: float) -> _Firing:
        return _Firing(f.id, at, scenario.trust.get(f.id, 1.0), f.far, f.frr)

    pre = tuple(firing(f, f.duration.seconds) for f in chosen if f.id in resolved[0][_PRE])
    pre_end = max((x.at for x in pre), default=0.0)

    # pre evidence that will still be fresh at the phase transition covers
    # its factor; the rest must be produced during active authentication
    cutoff = pre_end - scenario.config.staleness_horizon
    fresh = {x.factor_id for x in pre if x.at >= cutoff}
    needed = [fid for fid in resolved[0][_ACT] if fid not in fresh]
    active = tuple(
        firing(index[fid], pre_end + index[fid].duration.seconds)
        for fid in needed
        if fid in chosen_ids
    )
    active_end = pre_end + max((index[fid].duration.seconds for fid in needed), default=0.0)
    firings = pre + active
    mu_tau = [index[x.factor_id].vendor_accuracy * x.trust for x in firings]

    def score(at: float, stretch: int, cols) -> _Score:
        cols = tuple(sorted(cols))
        if not (machine._weighted and cols):
            return _Score(at, cols, ())
        phi = machine._weights(timeline[stretch][1])
        return _Score(at, cols, tuple(mu_tau[c] * phi.get(firings[c].factor_id, 0.0) for c in cols))

    # each scorable pre arrival rescores the scorable evidence so far under
    # the weights in force; they are non-negative, so within one context
    # stretch the score never falls
    scored, pre_scores, basic = [], [], {}
    for col in sorted(range(len(pre)), key=lambda c: pre[c].at):
        stretch = stretch_at(pre[col].at)
        if pre[col].factor_id in resolved[stretch][_PRE]:
            scored.append(col)
            pre_scores.append(score(pre[col].at, stretch, scored))
            basic[stretch] = pre_scores[-1]

    present = {pre[c].factor_id: c for c in scored if pre[c].at >= cutoff}
    order = sorted(range(len(active)), key=lambda j: active[j].at)
    decided_at, late = active_end, []
    for pos, j in enumerate(order):
        wanted = resolved[stretch_at(active[j].at)][_ACT]
        if active[j].factor_id in wanted:
            present[active[j].factor_id] = len(pre) + j
            if all(fid in present for fid in wanted):
                decided_at, late = active[j].at, order[pos + 1:]
                break
    decided_in = stretch_at(decided_at)
    decided_on = resolved[decided_in][_ACT]

    monitor_factor = scenario.monitor_factor
    mon_ids = resolved[0][_MON]
    if monitor_factor is not None and monitor_factor not in mon_ids:
        raise ConfigError(
            f"monitor_factor '{monitor_factor}' is unusable in the monitoring phase under this context",
            field="monitor_factor",
        )
    if monitor_factor is None:
        monitor_factor = next((f.id for f in chosen if f.id in mon_ids), None)
    n_checks = scenario.config.n_checks if monitor_factor else 0

    plan = _Plan(
        pre=pre,
        active=active,
        pre_end=pre_end,
        active_end=active_end,
        pre_scores=tuple(pre_scores),
        basic=tuple(basic.values()),
        decision=score(decided_at, decided_in, [present[fid] for fid in decided_on if fid in present]),
        late=tuple((len(pre) + j, active[j].factor_id in resolved[stretch_at(active[j].at)][_MON]) for j in late),
        interval=scenario.config.monitor.check_interval,
        n_checks=n_checks,
        scorable=(),
        monitor_factor=monitor_factor,
        weighted=machine._weighted,
        # at least k passes is more than k - 1; with nothing expected,
        # every strategy denies: all takes one pass too
        threshold=(policy.strategy.threshold if machine._weighted
                   else max(policy.strategy.passes_needed(len(decided_on)), 1) - 1),
        t_basic=machine.t_basic,
    )
    # context stretch i covers the checks timed from its start up to the next one
    starts = [bisect_left(range(n_checks), at, key=plan.check_time) for at in starts_at]
    scorable = tuple(
        (lo, hi)
        for lo, hi, ids in zip(starts, starts[1:] + [n_checks], resolved)
        if lo < hi and monitor_factor in ids[_MON]
    )
    return machine, replace(plan, scorable=scorable)


def _sample_shard(child: np.random.SeedSequence, size: int, plan: _Plan, scenario: Scenario):
    """Draw one shard's randomness in a fixed order: population, one uniform
    per scheduled firing, one per session for monitoring. Only the bool
    pass matrix is held: the firings' uniforms are drawn one reused block
    at a time, and a block's adversary rows are compared again in place.

    Scorable checks fail independently at the session's per-check rate
    q, so the rank of the first failure among them is geometric, drawn
    by inversion as floor(log1p(-u) / log1p(-q)) (Devroye, Non-Uniform
    Random Variate Generation, 1986, X.2). first holds that failure's
    check index, or n_checks when no scorable check fails."""
    rng = np.random.default_rng(child)
    adversary = rng.random(size) < scenario.adversary_fraction
    firings = plan.pre + plan.active
    legit, far = np.array([1.0 - x.frr for x in firings]), np.array([x.far for x in firings])
    passes = np.empty((size, len(firings)), dtype=bool)
    for lo, u in _uniform_blocks(rng, size, len(firings)):
        hi = lo + len(u)
        np.less(u, legit, out=passes[lo:hi])
        np.less(u, far, out=passes[lo:hi], where=adversary[lo:hi, None])
    if not plan.scorable:
        return adversary, passes, np.full(size, plan.n_checks, dtype=np.int64)

    monitor = scenario.config.monitor
    impostor = adversary | scenario.takeover
    rates = (monitor.per_check_detection, monitor.per_check_false_alarm)
    q = np.where(impostor, *rates)
    # q = 1 takes no log: u < q gives it rank 0 below
    log_keep = np.where(impostor, *(math.log1p(-p) if p < 1.0 else -math.inf for p in rates))
    u = rng.random(size)
    rank = np.divide(np.log1p(-u), log_keep, out=np.full(size, np.inf), where=q > 0.0)
    # rank 0 exactly when u < q, the comparison a lone check makes; a
    # session with q = 0 never fails
    np.floor(rank, out=rank)
    np.maximum(rank, 1.0, out=rank)
    rank *= u >= q

    # a rank counts scorable checks only: past the end of a stretch it also
    # skips the unscorable checks before the next one, and past the last
    # scorable check it means none
    rank = np.minimum(rank, float(plan.n_checks)).astype(np.int64)
    first, ranked = rank + plan.scorable[0][0], 0
    for (start, stop), (after, _) in zip(plan.scorable, plan.scorable[1:]):
        ranked += stop - start
        first += (after - stop) * (rank >= ranked)
    first[first >= plan.scorable[-1][1]] = plan.n_checks
    return adversary, passes, first


@dataclass
class _Tally:
    sessions: int = 0
    adversaries: int = 0
    false_grants: int = 0
    false_denials: int = 0
    basic_grants: int = 0
    full_grants: int = 0
    revocations: int = 0
    false_revocations: int = 0
    full_time_sum: float = 0.0
    latencies: Counter = field(default_factory=Counter)
    firings: Counter = field(default_factory=Counter)


def _above(plan: _Plan, passes: np.ndarray, point: _Score, threshold: float) -> np.ndarray:
    """Per session: the score at point (fsum-rounded weighted sum, or pass count) > threshold."""
    if plan.weighted:
        return _weighted_above(passes[:, list(point.cols)], point.weights, threshold)
    return _passes_per_row(passes, point.cols) > threshold


def _first_basic(plan: _Plan, passes: np.ndarray, points: Sequence[_Score]) -> np.ndarray:
    """Per session, the first point beating t_basic; len(points) if none."""
    first = np.full(len(passes), len(points))
    for i in reversed(range(len(points))):
        first[_above(plan, passes, points[i], plan.t_basic)] = i
    return first


def _vector_tally(plan: _Plan, adversary, passes, first) -> _Tally:
    size = len(adversary)
    basic = _first_basic(plan, passes, plan.basic) < len(plan.basic)
    grant = _above(plan, passes, plan.decision, plan.threshold)
    decided_at = plan.decision.at

    tally = _Tally()
    tally.sessions = size
    tally.adversaries = int(adversary.sum())
    tally.basic_grants = int(basic.sum())
    tally.full_grants = int(grant.sum())
    tally.false_grants = int((grant & adversary).sum())
    tally.false_denials = int((~grant & ~adversary).sum())
    tally.full_time_sum = tally.full_grants * decided_at

    firings = plan.pre + plan.active
    late = [col for col, _ in plan.late]
    for col, x in enumerate(firings):
        if col not in late:
            phase = _PRE if col < len(plan.pre) else _ACT
            tally.firings[(phase.value, x.factor_id)] += size

    # after the decision, in dispatch order: late active arrivals, then the
    # monitoring checks. A granted session stays live up to its first
    # scorable failure, which revokes it; pos numbers that event in this
    # order, len(late) + n_checks meaning none.
    pos = first + len(late)
    for e in reversed(range(len(late))):
        col, ok = plan.late[e]
        if ok:
            pos[~passes[:, col]] = e
    revoked = grant & (pos < len(late) + plan.n_checks)
    tally.revocations = int(revoked.sum())
    tally.false_revocations = int((revoked & ~adversary).sum())
    events, counts = np.unique(pos[revoked], return_counts=True)
    cut = dict(zip(events.tolist(), counts.tolist()))
    live = tally.full_grants
    for e, col in enumerate(late):
        if live:
            tally.firings[(_ACT.value, firings[col].factor_id)] += live
        live -= cut.get(e, 0)
    # a session checks up to and including the check that revokes it
    checked = (tally.full_grants - tally.revocations) * plan.n_checks
    for e, n in cut.items():
        c = e - len(late)
        if c < 0:
            tally.latencies[firings[late[e]].at - decided_at] += n
        else:
            tally.latencies[plan.check_time(c) - decided_at] += n
            checked += n * (c + 1)
    if checked:
        tally.firings[(_MON.value, plan.monitor_factor)] += checked
    return tally


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class SimulationReport:
    """Aggregate outcome of a batch of simulated sessions.

    false_grants counts adversary sessions that ever reached Full access
    (revocation afterwards does not undo the grant); false_denials counts
    legitimate sessions denied at active authentication. Revocation
    latency is measured from the start of monitoring.
    """

    sessions_run: int
    adversary_sessions: int
    legitimate_sessions: int
    false_grants: int
    false_denials: int
    basic_grants: int
    full_grants: int
    revocations: int
    false_revocations: int
    mean_time_to_full_grant: float | None
    revocation_latency_distribution: Mapping[float, int]
    factor_firings: Mapping[str, Mapping[str, int]]
    seed: int

    def __post_init__(self):
        object.__setattr__(
            self,
            "revocation_latency_distribution",
            FrozenMap(sorted(self.revocation_latency_distribution.items())),
        )
        object.__setattr__(
            self,
            "factor_firings",
            FrozenMap(
                {
                    phase: FrozenMap(sorted(counts.items()))
                    for phase, counts in sorted(self.factor_firings.items())
                }
            ),
        )
        checks = [
            self.sessions_run == self.adversary_sessions + self.legitimate_sessions,
            0 <= self.false_grants <= self.adversary_sessions,
            0 <= self.false_denials <= self.legitimate_sessions,
            self.false_grants <= self.full_grants <= self.sessions_run,
            self.revocations <= self.full_grants,
            self.false_revocations <= self.revocations,
            self.basic_grants <= self.sessions_run,
        ]
        if not all(checks):
            raise EvaluationError("inconsistent simulation tallies")


def _combine(tallies: Sequence[_Tally], seed: int) -> SimulationReport:
    sessions = sum(t.sessions for t in tallies)
    adversaries = sum(t.adversaries for t in tallies)
    full_grants = sum(t.full_grants for t in tallies)
    total_time = math.fsum(t.full_time_sum for t in tallies)
    latency: Counter = Counter()
    firings: Counter = Counter()
    for t in tallies:
        latency.update(t.latencies)
        firings.update(t.firings)
    nested: dict[str, dict[str, int]] = {}
    for (phase, fid), count in firings.items():
        nested.setdefault(phase, {})[fid] = count
    return SimulationReport(
        sessions_run=sessions,
        adversary_sessions=adversaries,
        legitimate_sessions=sessions - adversaries,
        false_grants=sum(t.false_grants for t in tallies),
        false_denials=sum(t.false_denials for t in tallies),
        basic_grants=sum(t.basic_grants for t in tallies),
        full_grants=full_grants,
        revocations=sum(t.revocations for t in tallies),
        false_revocations=sum(t.false_revocations for t in tallies),
        mean_time_to_full_grant=total_time / full_grants if full_grants else None,
        revocation_latency_distribution=dict(latency),
        factor_firings=nested,
        seed=seed,
    )


# Validated plans kept by value, least recently used dropped first.
PLAN_MEMO_SIZE = 32


@configio.memoized(PLAN_MEMO_SIZE)
def _plan_memo(scenario: Scenario, catalog: tuple[Factor, ...], policy: Policy) -> _Plan:
    """The validated plan, kept for the last PLAN_MEMO_SIZE distinct
    (scenario, catalog, policy) keys. Those objects compare and hash by
    value over every field, so an equal deployment loaded afresh (a second
    CLI run in one process) hits too. A hit skips the static checks as
    well as _build_plan: both are pure functions of the key, and a key
    whose checks or build failed is never kept, so it raises again on
    every call. A key that cannot be hashed (a list-valued condition) is
    validated and planned afresh."""
    if problems := _static_problems(scenario, catalog, policy):
        error = ConfigError("scenario invalid: " + "; ".join(problems))
        error.problems = problems  # for validate_scenario, which lists them
        raise error
    return _build_plan(scenario, catalog, policy)[1]


def run_simulation(
    scenario: Scenario,
    catalog: Sequence[Factor],
    policy: Policy,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> SimulationReport:
    """Simulate `trials` sessions and aggregate. Deterministic for a given
    seed at any worker count."""
    plan = _plan_memo(scenario, tuple(catalog), policy)
    tallies = _run_shards(trials, np.random.SeedSequence(seed), workers,
                          lambda child, size: _vector_tally(plan, *_sample_shard(child, size, plan, scenario)))
    return _combine(tallies, seed)


@dataclass(frozen=True)
class GrantTiming:
    """Elapsed-time summary for Basic and Full grants.

    over_budget flags a median active-phase duration above the usability
    budget; degenerate flags a run that produced no Full grant at all.
    """

    trials: int
    basic_grants: int
    full_grants: int
    median_time_to_basic: float | None
    median_time_to_full: float | None
    median_active_phase: float | None
    usability_budget: float
    over_budget: bool
    degenerate: bool


def _counted_median(values: Sequence[float], counts: np.ndarray) -> float:
    """statistics.median of counts[i] copies of each values[i], for
    non-decreasing values and a positive total, without listing them."""
    total = int(counts.sum())
    cum = np.cumsum(counts)
    low, high = (values[int(np.searchsorted(cum, k, side="right"))] for k in ((total - 1) // 2, total // 2))
    return low if total % 2 else (low + high) / 2


def time_to_grant(
    scenario: Scenario,
    catalog: Sequence[Factor],
    policy: Policy,
    *,
    trials: int = 2000,
    seed: int = 0,
) -> GrantTiming:
    """Simulate trials and summarize grant timing. Full grants land at
    the plan's decision time; Basic at the first pre-authentication
    arrival whose score beats t_basic."""
    plan = _plan_memo(scenario, tuple(catalog), policy)
    points = len(plan.pre_scores)

    def run_shard(child: np.random.SeedSequence, size: int):
        _, passes, _ = _sample_shard(child, size, plan, scenario)
        first = _first_basic(plan, passes, plan.pre_scores)
        granted = _above(plan, passes, plan.decision, plan.threshold)
        return np.bincount(first, minlength=points + 1)[:points], int(granted.sum())

    shards = _run_shards(trials, np.random.SeedSequence(seed), 1, run_shard)
    # Basic grants per pre arrival: memory stays flat in trials
    counts = sum((c for c, _ in shards), np.zeros(points, dtype=np.int64))
    basics = int(counts.sum())
    fulls = sum(n for _, n in shards)
    # one numeric type for every time, as numpy's sampled arrays hold them
    arrival = np.array([x.at for x in plan.pre_scores]).tolist()
    # every Full grant lands at the same plan-time decision
    median_active = plan.decision.at - plan.pre_end if fulls else None
    budget = scenario.config.usability_budget
    return GrantTiming(
        trials=trials,
        basic_grants=basics,
        full_grants=fulls,
        median_time_to_basic=_counted_median(arrival, counts) if basics else None,
        median_time_to_full=plan.decision.at if fulls else None,
        median_active_phase=median_active,
        usability_budget=budget,
        over_budget=median_active is not None and median_active > budget,
        degenerate=not fulls,
    )


def report_to_csv(report: SimulationReport) -> str:
    """Flatten a report into metric,value rows; stable order, 17
    significant digits, so equal reports render byte-identically."""
    rows = [
        ("sessions_run", str(report.sessions_run)),
        ("adversary_sessions", str(report.adversary_sessions)),
        ("legitimate_sessions", str(report.legitimate_sessions)),
        ("false_grants", str(report.false_grants)),
        ("false_denials", str(report.false_denials)),
        ("basic_grants", str(report.basic_grants)),
        ("full_grants", str(report.full_grants)),
        ("revocations", str(report.revocations)),
        ("false_revocations", str(report.false_revocations)),
        (
            "mean_time_to_full_grant",
            "" if report.mean_time_to_full_grant is None else _fmt17(report.mean_time_to_full_grant),
        ),
        ("seed", str(report.seed)),
    ]
    for latency, count in report.revocation_latency_distribution.items():
        rows.append((f"revocation_latency[{_fmt17(latency)}]", str(count)))
    for phase, counts in report.factor_firings.items():
        for fid, count in counts.items():
            rows.append((f"firings[{phase}][{fid}]", str(count)))
    return "metric,value\n" + "\n".join(f"{k},{v}" for k, v in rows) + "\n"


def report_summary(report: SimulationReport) -> str:
    lines = [
        f"sessions: {report.sessions_run} "
        f"({report.adversary_sessions} adversary, {report.legitimate_sessions} legitimate)",
        f"grants: {report.full_grants} full, {report.basic_grants} basic",
        f"false grants: {report.false_grants}; false denials: {report.false_denials}",
        f"revocations: {report.revocations} ({report.false_revocations} false alarms)",
    ]
    if report.mean_time_to_full_grant is not None:
        lines.append(f"mean time to full grant: {report.mean_time_to_full_grant:.3f} s")
    if report.revocation_latency_distribution:
        parts = ", ".join(
            f"{latency:g}s: {count}" for latency, count in report.revocation_latency_distribution.items()
        )
        lines.append(f"revocation latency: {parts}")
    return "\n".join(lines) + "\n"
