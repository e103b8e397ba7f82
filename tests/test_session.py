"""Session machine transitions, scenario handling, and the simulator."""

import gc
import math
import os
import random
import statistics
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from authfusion import reliability, session
from authfusion.catalog import (
    CAPS_PIN,
    DEFAULT_CATALOG,
    ActionMode,
    DurationBand,
    DurationClass,
    Factor,
    FactorCategory,
    catalog_to_yaml,
    load_catalog,
)
from authfusion.context import ContextState, SessionPhase
from authfusion.errors import AuthFusionError, ConfigError, EvaluationError
from authfusion.fusion import EvidenceRecord, Policy, Strategy
from authfusion.session import (
    ArrivalOfEvidence,
    GrantTier,
    GrantTiming,
    MonitorConfig,
    PhaseTimeout,
    Scenario,
    SessionConfig,
    SessionMachine,
    SessionState,
    SimulationReport,
    Terminal,
    Tick,
    _build_plan,
    _combine,
    _counted_median,
    _sample_shard,
    load_scenario,
    report_summary,
    report_to_csv,
    run_simulation,
    time_to_grant,
    validate_scenario,
)
from session_reference import check_times, machine_tally

PRE = SessionPhase.PRE_AUTHENTICATION
ACT = SessionPhase.ACTIVE_AUTHENTICATION
MON = SessionPhase.CONTINUOUS_MONITORING

BY_ID = {f.id: f for f in DEFAULT_CATALOG}
# token: passive, pre+active+monitoring, 0.5s; facial: pre+active, 8s;
# pin_code: active-only, 0.5s
CATALOG3 = [BY_ID["token"], BY_ID["facial"], BY_ID["pin_code"]]
W_POLICY = Policy(Strategy.weighted(2.5), {"token": 1.0, "facial": 1.0, "pin_code": 1.0})


def ev(fid, decision, at, trust=1.0):
    return ArrivalOfEvidence(
        EvidenceRecord(factor_id=fid, decision=decision, trust=trust, observed_at=at)
    )


def test_full_grant_trace():
    m = SessionMachine(CATALOG3, W_POLICY)
    assert m.t_basic == 1.25
    assert m.t_full == 2.5
    assert m.expected_factors() == ("token", "facial", "pin_code")

    s = m.initial_state()
    assert (s.phase, s.score, s.grant_tier, s.terminal) == (PRE, 0.0, None, None)

    s = m.step(s, ev("token", 1, 0.5))
    assert s.score == 1.0
    assert s.grant_tier is None

    s = m.step(s, ev("facial", 1, 8.0))
    assert s.score == 2.0
    assert s.grant_tier is GrantTier.BASIC
    assert s.basic_granted_at == 8.0

    s = m.step(s, PhaseTimeout(at=8.0, phase=PRE))
    assert s.phase is ACT
    assert len(s.evidence) == 2

    # fresh pre-auth evidence already covers token and facial, so the one
    # remaining expected factor completes the decision
    s = m.step(s, ev("pin_code", 1, 8.5))
    assert s.phase is MON
    assert s.grant_tier is GrantTier.FULL
    assert s.score == 3.0
    assert s.full_granted_at == 8.5
    assert s.monitor_started_at == 8.5
    assert s.terminal is None

    s = m.step(s, ev("token", 1, 100.0))
    assert s.terminal is None

    s = m.step(s, PhaseTimeout(at=158.5, phase=MON))
    assert s.terminal is Terminal.GRANTED
    assert s.revoked_at is None


def test_monitoring_failure_revokes_immediately():
    m = SessionMachine(CATALOG3, W_POLICY)
    s = m.run(
        [
            ev("token", 1, 0.5),
            ev("facial", 1, 8.0),
            PhaseTimeout(at=8.0, phase=PRE),
            ev("pin_code", 1, 8.5),
            ev("token", 0, 100.0),
        ]
    )
    assert s.terminal is Terminal.REVOKED
    assert s.revoked_at == 100.0
    assert s.revoked_at - s.monitor_started_at == 91.5
    # the grant itself is not undone by the revocation
    assert s.grant_tier is GrantTier.FULL


def test_active_timeout_scores_missing_factors_as_failures():
    m = SessionMachine(CATALOG3, W_POLICY)
    s = m.run(
        [
            ev("token", 1, 0.5),
            ev("facial", 1, 8.0),
            PhaseTimeout(at=8.0, phase=PRE),
            PhaseTimeout(at=20.0, phase=ACT),
        ]
    )
    assert s.terminal is Terminal.DENIED
    assert s.score == 2.0
    assert s.grant_tier is GrantTier.BASIC


def test_basic_tier_is_only_granted_during_pre_auth():
    m = SessionMachine(CATALOG3, W_POLICY)
    s = m.run(
        [
            PhaseTimeout(at=0.0, phase=PRE),
            ev("token", 1, 0.5),
            ev("facial", 1, 8.0),  # crosses t_basic, but the phase is active
        ]
    )
    assert s.phase is ACT
    assert s.score == 2.0
    assert s.grant_tier is None
    s = m.step(s, PhaseTimeout(at=9.0, phase=ACT))
    assert s.terminal is Terminal.DENIED
    assert s.basic_granted_at is None


def test_any_policy_fillers_do_not_block_grant():
    m = SessionMachine(CATALOG3, Policy(Strategy.any_check()))
    assert m.t_basic == 0.5
    s = m.run(
        [
            ev("token", 1, 0.5),
            PhaseTimeout(at=8.0, phase=PRE),
            PhaseTimeout(at=16.0, phase=ACT),
        ]
    )
    # token passed pre-auth and stays fresh; one pass satisfies any
    assert s.grant_tier is GrantTier.FULL
    assert s.basic_granted_at == 0.5


def test_all_policy_requires_every_expected_factor():
    m = SessionMachine(CATALOG3, Policy(Strategy.all_checks()))
    s = m.run(
        [
            ev("token", 1, 0.5),
            ev("facial", 1, 8.0),
            PhaseTimeout(at=8.0, phase=PRE),
            PhaseTimeout(at=16.0, phase=ACT),
        ]
    )
    assert s.terminal is Terminal.DENIED


def test_no_expected_factors_denies():
    m = SessionMachine([BY_ID["geo_location"]], Policy(Strategy.all_checks()))
    assert m.expected_factors() == ()
    s = m.run([PhaseTimeout(at=60.0, phase=PRE), PhaseTimeout(at=60.0, phase=ACT)])
    assert s.terminal is Terminal.DENIED


def test_timeout_for_another_phase_only_advances_the_clock():
    m = SessionMachine(CATALOG3, W_POLICY)
    s = m.step(m.initial_state(), ev("token", 1, 0.5))
    s = m.step(s, PhaseTimeout(at=5.0, phase=ACT))
    assert s.phase is PRE
    assert s.elapsed == 5.0
    s = m.step(s, PhaseTimeout(at=6.0, phase=MON))
    assert s.phase is PRE
    s = m.step(s, PhaseTimeout(at=7.0, phase=PRE))
    assert s.phase is ACT


def test_stale_pre_evidence_is_dropped_at_the_transition():
    config = SessionConfig(staleness_horizon=10.0)
    m = SessionMachine(CATALOG3, W_POLICY, config=config)
    s = m.run(
        [
            ev("token", 1, 0.5),
            ev("facial", 1, 30.0),
            PhaseTimeout(at=30.0, phase=PRE),
        ]
    )
    # cutoff is 20.0: the token sample is stale, the facial one survives
    assert tuple(rec.factor_id for rec in s.evidence) == ("facial",)
    s = m.step(s, PhaseTimeout(at=31.0, phase=ACT))
    assert s.terminal is Terminal.DENIED
    assert s.score == 1.0


def test_staleness_boundary_is_inclusive():
    config = SessionConfig(staleness_horizon=10.0)
    m = SessionMachine(CATALOG3, W_POLICY, config=config)
    s = m.run(
        [
            ev("token", 1, 20.0),  # exactly at the cutoff for a 30.0 transition
            ev("facial", 1, 30.0),
            PhaseTimeout(at=30.0, phase=PRE),
        ]
    )
    assert tuple(rec.factor_id for rec in s.evidence) == ("token", "facial")


def test_events_never_rewind_the_clock():
    m = SessionMachine(CATALOG3, W_POLICY)
    s = m.step(m.initial_state(), ev("token", 1, 8.0))
    with pytest.raises(EvaluationError):
        m.step(s, Tick(at=3.0))


def test_terminal_states_absorb_everything():
    m = SessionMachine(CATALOG3, W_POLICY)
    s = m.run([PhaseTimeout(at=0.0, phase=PRE), PhaseTimeout(at=0.0, phase=ACT)])
    assert s.terminal is Terminal.DENIED
    after = m.step(s, ev("token", 1, 50.0))
    assert after is s
    # absorbed events are exempt from the clock check too
    assert m.step(s, Tick(at=0.0)) is s


def test_unknown_factor_evidence_is_rejected():
    m = SessionMachine(CATALOG3, W_POLICY)
    with pytest.raises(ConfigError):
        m.step(m.initial_state(), ev("sonar", 1, 1.0))


def test_out_of_phase_evidence_is_recorded_but_never_scored():
    m = SessionMachine(CATALOG3, W_POLICY)
    # pin_code needs user action, so it cannot produce pre-auth evidence
    s = m.step(m.initial_state(), ev("pin_code", 1, 0.5))
    assert s.score == 0.0
    assert s.flagged == (True,)
    assert s.grant_tier is None

    s = m.run(
        [
            ev("token", 1, 0.5),
            ev("facial", 1, 8.0),
            PhaseTimeout(at=8.0, phase=PRE),
            ev("pin_code", 1, 8.5),
        ]
    )
    assert s.phase is MON
    # facial is not monitoring-capable: its failure cannot revoke
    s2 = m.step(s, ev("facial", 0, 50.0))
    assert s2.terminal is None
    assert s2.flagged[-1] is True
    # token is monitoring-capable: its failure revokes
    s3 = m.step(s, ev("token", 0, 50.0))
    assert s3.terminal is Terminal.REVOKED


def test_tick_only_advances_time():
    m = SessionMachine(CATALOG3, W_POLICY)
    s = m.step(m.initial_state(), Tick(at=4.0))
    assert s.phase is PRE
    assert s.elapsed == 4.0
    assert s.score == 0.0


def test_context_override_gates_evidence():
    m = SessionMachine(CATALOG3, W_POLICY)
    dark = ContextState.nominal(darkness=True)
    s = m.step(m.initial_state(), ev("facial", 1, 8.0), ctx=dark)
    assert s.flagged == (True,)
    assert s.score == 0.0


def test_machine_rejects_bad_configurations():
    with pytest.raises(ConfigError):
        SessionMachine(CATALOG3 + [BY_ID["token"]], W_POLICY)
    with pytest.raises(ConfigError):
        SessionMachine(CATALOG3, Policy(Strategy.weighted(1.0), {"sonar": 1.0}))
    with pytest.raises(ConfigError):
        SessionMachine(CATALOG3, W_POLICY, config=SessionConfig(t_basic=2.5))
    with pytest.raises(ConfigError):
        SessionMachine(CATALOG3, Policy(Strategy.k_of_n(2)), config=SessionConfig(t_basic=2.0))


def test_counting_threshold_defaults():
    m = SessionMachine(CATALOG3, Policy(Strategy.k_of_n(2)))
    assert m.t_basic == 1.0
    assert m.t_full == 2.0
    m = SessionMachine(CATALOG3, Policy(Strategy.all_checks()))
    assert m.t_full == 3.0


def test_phase_and_tier_are_monotone_over_random_traces():
    rng = random.Random(20260401)
    phase_rank = {PRE: 0, ACT: 1, MON: 2}
    tier_rank = {None: 0, GrantTier.BASIC: 1, GrantTier.FULL: 2}
    policies = [
        W_POLICY,
        Policy(Strategy.any_check()),
        Policy(Strategy.all_checks()),
        Policy(Strategy.k_of_n(2)),
    ]
    for _ in range(200):
        m = SessionMachine(CATALOG3, policies[rng.randrange(len(policies))])
        state = m.initial_state()
        t = 0.0
        granted_basic_at = None
        for _ in range(14):
            t += rng.uniform(0.0, 5.0)
            roll = rng.random()
            if roll < 0.6:
                event = ev(
                    rng.choice(("token", "facial", "pin_code")),
                    rng.randrange(2),
                    t,
                )
            elif roll < 0.9:
                event = PhaseTimeout(at=t, phase=rng.choice((PRE, ACT, MON)))
            else:
                event = Tick(at=t)
            nxt = m.step(state, event)
            if state.terminal is not None:
                assert nxt is state
                continue
            assert nxt.elapsed >= state.elapsed
            assert phase_rank[nxt.phase] >= phase_rank[state.phase]
            assert tier_rank[nxt.grant_tier] >= tier_rank[state.grant_tier]
            if granted_basic_at is not None:
                assert nxt.basic_granted_at == granted_basic_at
            granted_basic_at = nxt.basic_granted_at
            if nxt.terminal is Terminal.REVOKED:
                assert nxt.revoked_at is not None
                assert nxt.grant_tier is GrantTier.FULL
            state = nxt


def test_monitor_config_per_check_math():
    m = MonitorConfig(window=150.0, detection_accuracy=0.95)
    assert m.check_interval == 150.0
    # at one check per window the per-check rate is the per-window rate
    assert m.per_check_detection == 0.95
    assert m.per_check_false_alarm == 0.01

    rng = random.Random(5)
    for _ in range(50):
        p = rng.uniform(0.01, 0.9)
        ratio = rng.choice([0.25, 0.5, 2.0])
        cfg = MonitorConfig(window=100.0, detection_accuracy=p, check_interval=100.0 * ratio)
        q = cfg.per_check_detection
        # the per-window miss probability is preserved across cadences
        # (the 1 - q round trip here costs a little relative precision)
        assert math.isclose((1.0 - q) ** (1.0 / ratio), 1.0 - p, rel_tol=1e-9)


def test_monitor_config_validation():
    with pytest.raises(ConfigError):
        MonitorConfig(window=0.0)
    with pytest.raises(ConfigError):
        MonitorConfig(detection_accuracy=1.0)
    with pytest.raises(ConfigError):
        MonitorConfig(false_alarm=1.0)
    with pytest.raises(ConfigError):
        MonitorConfig(check_interval=0.0)


def test_session_config_validation_and_horizon():
    assert SessionConfig().horizon == 150.0
    assert SessionConfig(monitoring_horizon=450.0).horizon == 450.0
    with pytest.raises(ConfigError):
        SessionConfig(t_basic=-0.1)
    with pytest.raises(ConfigError):
        SessionConfig(staleness_horizon=-1.0)
    with pytest.raises(ConfigError):
        SessionConfig(monitoring_horizon=0.0)
    with pytest.raises(ConfigError):
        SessionConfig(usability_budget=0.0)
    # 2**53 checks is the most whose times stay distinct floats
    per_second = MonitorConfig(check_interval=1.0)
    assert SessionConfig(monitor=per_second, monitoring_horizon=2.0**53).n_checks == 2**53
    for horizon in (2.0**53 + 2.0, math.inf):
        config = SessionConfig(monitor=per_second, monitoring_horizon=horizon)
        with pytest.raises(ConfigError, match="2\\*\\*53"):
            config.n_checks


SCENARIO_YAML = """\
schema_version: 1
name: weighted-night
adversary_fraction: 0.25
takeover: true
factors: [token, facial, pin_code]
trust:
  token: 0.8
context:
  initial:
    darkness: true
  changes:
    - at: 5.0
      set: {noise_level: high}
monitor:
  window: 100.0
  detection_accuracy: 0.9
  check_interval: 50.0
  false_alarm: 0.02
session:
  t_basic: 0.75
  staleness_horizon: 120.0
  monitoring_horizon: 250.0
  usability_budget: 3.0
monitor_factor: token
policy_path: policy.yaml
catalog_path: catalog.yaml
"""


def test_load_scenario_full_document():
    sc = load_scenario(SCENARIO_YAML)
    assert sc.name == "weighted-night"
    assert sc.adversary_fraction == 0.25
    assert sc.takeover is True
    assert sc.factors == ("token", "facial", "pin_code")
    assert sc.trust == {"token": 0.8}
    assert sc.conditions == {"darkness": True}
    assert sc.context_changes == ((5.0, {"noise_level": "high"}),)
    assert sc.monitor_factor == "token"
    assert sc.policy_path == "policy.yaml"
    assert sc.catalog_path == "catalog.yaml"
    cfg = sc.config
    assert cfg.t_basic == 0.75
    assert cfg.staleness_horizon == 120.0
    assert cfg.monitoring_horizon == 250.0
    assert cfg.usability_budget == 3.0
    assert cfg.horizon == 250.0
    assert cfg.monitor.window == 100.0
    assert cfg.monitor.check_interval == 50.0
    assert math.isclose(cfg.monitor.per_check_detection, 1.0 - 0.1**0.5, rel_tol=1e-12)


def test_load_scenario_defaults():
    sc = load_scenario("schema_version: 1\n")
    assert sc.name == "scenario"
    assert sc.adversary_fraction == 0.0
    assert sc.takeover is False
    assert sc.factors is None
    assert sc.trust == {}
    assert sc.context_changes == ()
    assert sc.config.monitor.window == 150.0
    assert sc.config.horizon == 150.0


def test_load_scenario_errors_carry_lines():
    with pytest.raises(ConfigError) as err:
        load_scenario("schema_version: 1\nadversary_fraction: 1.5\n")
    assert err.value.line == 2

    with pytest.raises(ConfigError):
        load_scenario("schema_version: 1\nfactors: [token, 3]\n")

    with pytest.raises(ConfigError) as err:
        load_scenario("schema_version: 1\ntrust:\n  token: 1.5\n")
    assert err.value.line == 3

    bad_order = (
        "schema_version: 1\n"
        "context:\n"
        "  changes:\n"
        "    - {at: 9.0, set: {darkness: true}}\n"
        "    - {at: 5.0, set: {darkness: false}}\n"
    )
    with pytest.raises(ConfigError) as err:
        load_scenario(bad_order)
    assert "non-decreasing" in str(err.value)

    with pytest.raises(ConfigError):
        load_scenario("schema_version: 1\ncontext:\n  changes:\n    - {at: 5.0}\n")
    with pytest.raises(ConfigError):
        load_scenario("schema_version: 1\nwarp_speed: 9\n")
    with pytest.raises(ConfigError):
        load_scenario("schema_version: 1\nmonitor:\n  window: -5\n")
    with pytest.raises(ConfigError):
        load_scenario("schema_version: 99\n")


def test_validate_scenario_reports_every_problem():
    sc = Scenario(
        adversary_fraction=1.5,
        factors=("token", "token", "sonar", "voice"),
        trust={"ghost": 0.5},
        monitor_factor="facial",
        context_changes=((-1.0, {"darkness": True}),),
    )
    problems = validate_scenario(sc, DEFAULT_CATALOG, W_POLICY)
    text = "\n".join(problems)
    assert "adversary_fraction" in text
    assert "unknown factor 'sonar'" in text
    assert "'token' listed twice" in text
    assert "trust entry for unknown factor 'ghost'" in text
    assert "not monitoring-capable" in text
    assert "no weight to scenario factor 'voice'" in text
    assert "precedes the session start" in text


@pytest.mark.parametrize(
    "at, message",
    [
        (".nan", "context change at t=nan is not a finite time"),
        (".inf", "context change at t=inf is not a finite time"),
        ("-1.0", "context change at t=-1.0 precedes the session start"),
        ("3.0", "context change at t=3.0 comes before the change at t=9.0; "
                "change times must be non-decreasing"),
    ],
)
def test_load_scenario_rejects_bad_change_times_at_their_line(at, message):
    text = (
        "schema_version: 1\n"
        "context:\n"
        "  changes:\n"
        "    - {at: 9.0, set: {darkness: true}}\n"
        f"    - {{at: {at}, set: {{darkness: false}}}}\n"
        "    - {at: 12.0, set: {gloves_worn: true}}\n"
    )
    with pytest.raises(ConfigError) as err:
        load_scenario(text)
    assert err.value.line == 5
    assert err.value.field == "context.changes[1].at"
    assert message in str(err.value)


def test_validate_scenario_rejects_bad_change_times():
    # built in code, so no loader saw the times; the plan applies changes
    # in list order, so each of these would hold back the change after it
    base = Scenario(factors=("token", "facial", "pin_code"))
    for changes, message in (
        (((10.0, {"noise_level": "high"}), (5.0, {"darkness": True})),
         "context change at t=5.0 comes before the change at t=10.0"),
        (((math.nan, {"noise_level": "high"}), (5.0, {"darkness": True})),
         "context change at t=nan is not a finite time"),
        (((math.inf, {"noise_level": "high"}),), "context change at t=inf is not a finite time"),
    ):
        scenario = replace(base, context_changes=changes)
        problems = validate_scenario(scenario, DEFAULT_CATALOG, W_POLICY)
        assert len(problems) == 1 and problems[0].startswith(message), problems
        with pytest.raises(ConfigError, match="scenario invalid"):
            run_simulation(scenario, DEFAULT_CATALOG, W_POLICY, 10, seed=5)
    ordered = replace(base, context_changes=((5.0, {"darkness": True}), (5.0, {"noise_level": "high"})))
    assert validate_scenario(ordered, DEFAULT_CATALOG, W_POLICY) == []


def test_validate_scenario_runs_the_static_checks_once(monkeypatch):
    calls = 0
    static = session._static_problems

    def counted(*args):
        nonlocal calls
        calls += 1
        return static(*args)

    monkeypatch.setattr(session, "_static_problems", counted)
    # an invalid key is never kept, so every call misses the plan memo
    problems = validate_scenario(Scenario(factors=("token", "nope")), DEFAULT_CATALOG, Policy(Strategy.k_of_n(2)))
    assert problems == ["unknown factor 'nope'"]
    assert calls == 1


def test_validate_scenario_checks_the_machine_builds():
    sc = Scenario(config=SessionConfig(t_basic=2.5))
    problems = validate_scenario(sc, CATALOG3, W_POLICY)
    assert any("t_basic" in p for p in problems)


def test_values_built_in_code_meet_the_loaders_rules():
    # a trust above 1 would let a factor count for more than a pass, raising the full grants
    scenario = Scenario(factors=("token", "facial", "pin_code"), trust={"pin_code": 5.0})
    assert validate_scenario(scenario, DEFAULT_CATALOG, W_POLICY) == ["must lie in [0, 1], got 5.0 (trust.pin_code)"]
    with pytest.raises(ConfigError, match="scenario invalid"):
        run_simulation(scenario, DEFAULT_CATALOG, W_POLICY, 10, seed=1)
    # a NaN t_basic lets no session reach Basic; an infinite window gives NaN per-check rates
    for build, field in ((lambda: SessionConfig(t_basic=math.nan), "session.t_basic"),
                         (lambda: SessionConfig(staleness_horizon=math.inf), "session.staleness_horizon"),
                         (lambda: MonitorConfig(window=math.inf), "monitor.window")):
        with pytest.raises(ConfigError) as err:
            build()
        assert err.value.field == field


def test_validate_scenario_clean():
    sc = Scenario(factors=("token", "facial", "pin_code"), trust={"token": 0.8})
    assert validate_scenario(sc, DEFAULT_CATALOG, W_POLICY) == []
    assert validate_scenario(Scenario(factors=()), DEFAULT_CATALOG, W_POLICY) == [
        "factors list is empty"
    ]


def test_validate_scenario_reports_what_the_plan_build_refuses():
    gloves = {"gloves_worn": True}
    monitoring_fingerprint = replace(BY_ID["fingerprint"], phases=frozenset((ACT, MON)))
    for scenario, catalog, policy, message in (
        (Scenario(conditions=gloves), [BY_ID["fingerprint"]],
         Policy(Strategy.weighted(0.5), {"fingerprint": 1.0}), "context excludes every factor"),
        (Scenario(conditions=gloves, monitor_factor="fingerprint"), [BY_ID["token"], monitoring_fingerprint],
         Policy(Strategy.any_check()), "unusable in the monitoring phase under this context"),
        (Scenario(config=SessionConfig(monitor=MonitorConfig(check_interval=1e-300), monitoring_horizon=1e308)),
         CATALOG3, W_POLICY, "more than 2**53 monitoring checks"),
    ):
        problems = validate_scenario(scenario, catalog, policy)
        assert len(problems) == 1 and message in problems[0], problems
        with pytest.raises(AuthFusionError) as err:
            run_simulation(scenario, catalog, policy, 10, 0)
        assert str(err.value) == problems[0]
        with pytest.raises(AuthFusionError) as err:
            time_to_grant(scenario, catalog, policy, trials=10)
        assert str(err.value) == problems[0]


def test_validate_scenario_is_empty_exactly_when_the_simulation_runs():
    # scanners that also monitor, so that gloves can take a monitor_factor away
    catalog = [replace(f, phases=f.phases | {MON}) if f.id in ("fingerprint", "hand_geometry", "vein_recognition")
               else f for f in DEFAULT_CATALOG]
    monitors = {f.id for f in catalog if MON in f.phases}
    rng = random.Random(1)
    refused = Counter()
    for case in range(40):
        scenario, policy = _random_case(rng)
        scenario = replace(
            scenario,
            conditions={name: on for name, _, on in rng.sample(TOGGLES, rng.randint(0, 3))},
            monitor_factor=rng.choice((None, *(f for f in scenario.factors if f in monitors), *scenario.factors)),
            config=replace(scenario.config, t_basic=rng.choice((None, None, 40.0))),
        )
        problems = validate_scenario(scenario, catalog, policy)
        try:
            run_simulation(scenario, catalog, policy, 10, 0)
        except AuthFusionError as exc:
            if str(exc).startswith("scenario invalid: "):
                assert str(exc) == "scenario invalid: " + "; ".join(problems), case
                refused["static"] += 1
            else:
                assert problems == [str(exc)], case
                refused["build"] += 1
        else:
            assert problems == [], case
    assert refused["static"] >= 5 and refused["build"] >= 5, refused


def test_run_simulation_argument_errors():
    sc = Scenario(factors=("token", "facial", "pin_code"))
    with pytest.raises(ConfigError):
        run_simulation(sc, CATALOG3, W_POLICY, trials=0, seed=1)
    with pytest.raises(ConfigError):
        run_simulation(Scenario(factors=("sonar",)), CATALOG3, W_POLICY, trials=10, seed=1)


def test_simulation_structural_counts():
    sc = Scenario(adversary_fraction=0.2)
    report = run_simulation(sc, CATALOG3, W_POLICY, trials=5000, seed=11)
    assert report.sessions_run == 5000
    assert report.adversary_sessions + report.legitimate_sessions == 5000
    assert report.seed == 11
    # every session fires the passive factors in pre-auth and prompts the
    # one remaining factor in active authentication
    assert report.factor_firings["pre_authentication"] == {"token": 5000, "facial": 5000}
    assert report.factor_firings["active_authentication"] == {"pin_code": 5000}
    assert report.false_grants <= report.adversary_sessions
    assert 0 < report.full_grants < 5000
    assert report.mean_time_to_full_grant == 8.5


# the default context rules, as (condition, off value, on value)
TOGGLES = (
    ("gloves_worn", False, True),
    ("darkness", False, True),
    ("precipitation", False, True),
    ("noise_level", "low", "high"),
)


def _phase_of(plan, at):
    if at <= plan.pre_end:
        return "pre"
    return "active" if at <= plan.active_end else "monitoring"


def _random_case(rng):
    ids = [f.id for f in DEFAULT_CATALOG]
    subset = rng.sample(ids, rng.randint(2, 6))
    kind = rng.choice(("all", "any", "kofn", "weighted"))
    if kind == "weighted":
        weights = {fid: round(rng.uniform(0.25, 2.0), 3) for fid in subset}
        threshold = round(rng.uniform(0.3, 0.9) * sum(weights.values()), 3)
        policy = Policy(Strategy.weighted(threshold), weights)
    elif kind == "kofn":
        policy = Policy(Strategy.k_of_n(rng.randint(1, len(subset))))
    elif kind == "all":
        policy = Policy(Strategy.all_checks())
    else:
        policy = Policy(Strategy.any_check())
    window = rng.choice((60.0, 150.0))
    monitor = MonitorConfig(
        window=window,
        detection_accuracy=rng.choice((0.9, 0.95)),
        check_interval=rng.choice((None, window / 2.0)),
        false_alarm=rng.choice((0.0, 0.02)),
    )
    config = SessionConfig(
        staleness_horizon=rng.choice((300.0, 5.0)),
        monitor=monitor,
        monitoring_horizon=rng.choice((None, 2.5 * window)),
    )
    trusted = rng.sample(subset, min(2, len(subset)))
    scenario = Scenario(
        name="prop",
        adversary_fraction=rng.choice((0.0, 0.3, 1.0)),
        takeover=rng.random() < 0.2,
        factors=tuple(subset),
        trust={fid: rng.choice((1.0, 0.8, 0.5)) for fid in trusted},
        config=config,
    )

    # 0-2 flips of a default-rule condition, in any phase, sometimes on an
    # event's exact time; flipping one condition twice switches its
    # factors off and back on
    _, plan = _build_plan(scenario, DEFAULT_CATALOG, policy)
    events = [x.at for x in plan.pre + plan.active] + check_times(plan)
    bounds = {"pre": (0.0, plan.pre_end), "active": (plan.pre_end, plan.active_end),
              "monitoring": (plan.active_end, plan.active_end + scenario.config.horizon)}
    offsets = []
    for _ in range(rng.randint(0, 2)):
        lo, hi = bounds[rng.choice([p for p, (lo, hi) in bounds.items() if hi > lo])]
        inside = [t for t in events if lo < t <= hi]
        offsets.append(rng.choice(inside) if inside and rng.random() < 0.3 else rng.uniform(lo, hi))
    toggle = rng.choice(TOGGLES)
    state = {name: off for name, off, _ in TOGGLES}
    changes = []
    for at in sorted(offsets):
        name, off, on = toggle if rng.random() < 0.6 else rng.choice(TOGGLES)
        state[name] = on if state[name] == off else off
        changes.append((at, {name: state[name]}))
    return replace(scenario, context_changes=tuple(changes)), policy


def _reference(scenario, policy, trials, seed, catalog=DEFAULT_CATALOG):
    """SessionMachine, plan and the draws run_simulation makes for a
    single-shard run."""
    machine, plan = _build_plan(scenario, catalog, policy)
    child = np.random.SeedSequence(seed).spawn(1)[0]
    return machine, plan, _sample_shard(child, trials, plan, scenario)


def _machine_report(scenario, policy, trials, seed, catalog=DEFAULT_CATALOG):
    machine, plan, draws = _reference(scenario, policy, trials, seed, catalog)
    return _combine([machine_tally(plan, scenario, machine, *draws)], seed)


def _machine_timing(scenario, policy, trials, seed, catalog=DEFAULT_CATALOG):
    # step every session through SessionMachine, keeping its last state
    machine, plan, draws = _reference(scenario, policy, trials, seed, catalog)
    finals = []
    step = machine.step

    def recording_step(state, event, ctx=None):
        finals[-1] = step(state, event, ctx=ctx)
        return finals[-1]

    machine.initial_state = lambda: finals.append(None) or SessionState()
    machine.step = recording_step
    machine_tally(plan, scenario, machine, *draws)
    basics = [s.basic_granted_at for s in finals if s.basic_granted_at is not None]
    fulls = [s.full_granted_at for s in finals if s.full_granted_at is not None]
    active = statistics.median([t - plan.pre_end for t in fulls]) if fulls else None
    budget = scenario.config.usability_budget
    return GrantTiming(
        trials=trials,
        basic_grants=len(basics),
        full_grants=len(fulls),
        median_time_to_basic=statistics.median(basics) if basics else None,
        median_time_to_full=statistics.median(fulls) if fulls else None,
        median_active_phase=active,
        usability_budget=budget,
        over_budget=active is not None and active > budget,
        degenerate=not fulls,
    )


def test_engines_agree_on_random_scenarios():
    # run_simulation must reproduce the stepped machine bit for bit over
    # the same draws, context changes included
    rng = random.Random(424242)
    changed, phases, switched_back = 0, set(), False
    for case in range(16):
        scenario, policy = _random_case(rng)
        seed = rng.getrandbits(32)
        report = run_simulation(scenario, DEFAULT_CATALOG, policy, trials=2000, seed=seed)
        reference = _machine_report(scenario, policy, 2000, seed)
        assert report == reference, f"case {case} diverged"
        assert report_to_csv(report) == report_to_csv(reference)
        _, plan = _build_plan(scenario, DEFAULT_CATALOG, policy)
        changes = scenario.context_changes
        changed += bool(changes)
        phases.update(_phase_of(plan, at) for at, _ in changes)
        switched_back |= len(changes) == 2 and changes[0][1].keys() == changes[1][1].keys()
    assert changed >= 8
    assert phases == {"pre", "active", "monitoring"}
    assert switched_back


def test_time_to_grant_agrees_with_the_machine():
    rng = random.Random(515151)
    for case in range(16):
        scenario, policy = _random_case(rng)
        seed = rng.getrandbits(32)
        timing = time_to_grant(scenario, DEFAULT_CATALOG, policy, trials=400, seed=seed)
        assert timing == _machine_timing(scenario, policy, 400, seed), f"case {case} diverged"


def test_context_changes_around_the_decision_agree_with_the_machine():
    # darkness after facial's pre sample zeroes its weight, so Basic can
    # be won in the first stretch only. Gloves then drop a fingerprint
    # reader that also monitors from the expected set, so the decision
    # lands at pin_code; they come off before the reader arrives, whose
    # late failure revokes, and later blank out a stretch of checks.
    fingerprint = replace(
        BY_ID["fingerprint"], duration=BY_ID["password"].duration, phases=frozenset((ACT, MON))
    )
    catalog = [BY_ID["token"], BY_ID["facial"], BY_ID["ecg"], BY_ID["pin_code"], fingerprint]
    ids = tuple(f.id for f in catalog)
    scenario = Scenario(
        adversary_fraction=0.3,
        factors=ids,
        monitor_factor="fingerprint",
        context_changes=(
            (10.0, {"darkness": True}),
            (30.2, {"gloves_worn": True}),
            (34.0, {"gloves_worn": False}),
            (100.0, {"gloves_worn": True}),
            (200.0, {"gloves_worn": False}),
        ),
        config=SessionConfig(
            t_basic=1.9,
            monitor=MonitorConfig(window=60.0, check_interval=30.0, false_alarm=0.2),
            monitoring_horizon=300.0,
        ),
    )
    weighted = Policy(Strategy.weighted(2.0), {fid: 1.0 for fid in ids})
    for policy in (weighted, Policy(Strategy.all_checks()), Policy(Strategy.k_of_n(2))):
        _, plan = _build_plan(scenario, catalog, policy)
        assert plan.decision.at == 30.5 < plan.active_end == 38.0
        assert plan.late == ((4, True),)
        assert plan.scorable == ((0, 2), (5, 10)) and len(plan.basic) == 2
        report = run_simulation(scenario, catalog, policy, trials=3000, seed=8)
        assert report == _machine_report(scenario, policy, 3000, 8, catalog)
        assert report.revocation_latency_distribution.get(7.5, 0) > 0
        timing = time_to_grant(scenario, catalog, policy, trials=500, seed=9)
        assert timing == _machine_timing(scenario, policy, 500, 9, catalog)


def test_change_times_on_stretch_boundaries_agree_with_the_machine():
    # token arrives at 0.5, voice and facial at 8.0 (the end of pre),
    # pin_code and fingerprint at 8.5 (the decision), and checks run at
    # 38.5, 68.5, ...: changes at t=0, several at one instant, and changes
    # exactly on an arrival or a check must all follow every change up to
    # and including that time, as the stepped machine does
    catalog = [BY_ID[fid] for fid in ("token", "facial", "pin_code", "fingerprint", "voice")]
    ids = tuple(f.id for f in catalog)
    config = SessionConfig(
        monitor=MonitorConfig(window=60.0, check_interval=30.0, false_alarm=0.2),
        monitoring_horizon=120.0,
    )
    changes = (
        ((0.0, {"darkness": True}),),
        ((8.0, {"darkness": True}), (8.0, {"gloves_worn": True}), (8.0, {"darkness": False})),
        ((0.5, {"darkness": True}), (8.5, {"gloves_worn": True}),
         (38.5, {"darkness": False, "gloves_worn": False})),
    )
    policies = (Policy(Strategy.weighted(1.5), {fid: 1.0 for fid in ids}), Policy(Strategy.k_of_n(2)))
    for context_changes in changes:
        scenario = Scenario(adversary_fraction=0.3, factors=ids, monitor_factor="token",
                            context_changes=context_changes, config=config)
        for policy in policies:
            report = run_simulation(scenario, catalog, policy, trials=2000, seed=3)
            assert report == _machine_report(scenario, policy, 2000, 3, catalog), context_changes
            timing = time_to_grant(scenario, catalog, policy, trials=300, seed=4)
            assert timing == _machine_timing(scenario, policy, 300, 4, catalog), context_changes


def test_shard_pool_is_clamped(monkeypatch):
    sizes = []

    class RecordingPool:
        # records the requested size and runs the shards inline
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(reliability, "ThreadPoolExecutor", RecordingPool)
    sc = Scenario(factors=("token", "facial", "pin_code"))
    run_simulation(sc, CATALOG3, W_POLICY, trials=3 * 65_536 + 1, seed=4, workers=10**9)
    reliability.monte_carlo_rates(CATALOG3, W_POLICY, 65_537, seed=4, workers=10**9)
    expected = [min(n, os.cpu_count() or 1) for n in (4, 2, 2)]
    assert sizes == [n for n in expected if n > 1]


def test_simulation_is_deterministic_across_workers():
    sc = Scenario(adversary_fraction=0.1)
    a = run_simulation(sc, CATALOG3, W_POLICY, trials=150_000, seed=77)
    b = run_simulation(sc, CATALOG3, W_POLICY, trials=150_000, seed=77, workers=4)
    assert a == b
    assert report_to_csv(a) == report_to_csv(b)
    c = run_simulation(sc, CATALOG3, W_POLICY, trials=150_000, seed=78)
    assert a != c


@pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
def test_sampled_passes_equal_a_per_session_threshold_matrix(fraction):
    # the in-place sampler against the matrix of per-session thresholds
    # it replaces, drawn again from the same child seed
    scenario = Scenario(adversary_fraction=fraction)
    policy = Policy(Strategy.k_of_n(3))
    _, plan = _build_plan(scenario, DEFAULT_CATALOG, policy)
    firings = plan.pre + plan.active
    assert len(firings) > 3
    child = np.random.SeedSequence(23).spawn(1)[0]
    adversary, passes, _ = _sample_shard(child, 5000, plan, scenario)
    rng = np.random.default_rng(child)
    adv = rng.random(5000) < fraction
    u = rng.random((5000, len(firings)))
    far = np.array([BY_ID[x.factor_id].far for x in firings])
    legit = np.array([1.0 - BY_ID[x.factor_id].frr for x in firings])
    assert np.array_equal(adversary, adv)
    assert np.array_equal(passes, u < np.where(adv[:, None], far, legit))


def test_sampled_passes_equal_the_threshold_matrix_across_blocks():
    # a shard of 14 firings that spans three and a bit draw blocks, so
    # every block's adversary rows line up with its own sessions
    scenario = Scenario(adversary_fraction=0.3)
    _, plan = _build_plan(scenario, DEFAULT_CATALOG, Policy(Strategy.k_of_n(3)))
    firings = plan.pre + plan.active
    size = 3 * len(next(reliability._uniform_blocks(np.random.default_rng(0), 1 << 16, len(firings)))[1]) + 1
    child = np.random.SeedSequence(23).spawn(1)[0]
    adversary, passes, _ = _sample_shard(child, size, plan, scenario)
    rng = np.random.default_rng(child)
    adv = rng.random(size) < 0.3
    u = rng.random((size, len(firings)))
    far = np.array([x.far for x in firings])
    legit = np.array([1.0 - x.frr for x in firings])
    assert np.array_equal(adversary, adv)
    assert np.array_equal(passes, u < np.where(adv[:, None], far, legit))


def test_a_sampled_shard_holds_only_its_bool_pass_matrix():
    # one 2^16-session shard of 13 firings: the float draws come one reused
    # block at a time, where a sessions x firings float matrix is 6.8 MB
    scenario = Scenario(adversary_fraction=0.25, factors=tuple(f.id for f in DEFAULT_CATALOG[:13]))
    _, plan = _build_plan(scenario, DEFAULT_CATALOG, Policy(Strategy.k_of_n(3)))
    assert len(plan.pre + plan.active) == 13
    child = np.random.SeedSequence(29).spawn(1)[0]
    tracemalloc.start()
    try:
        _sample_shard(child, 1 << 16, plan, scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


@pytest.mark.parametrize("cols", [13, 16])
def test_exact_weighted_equals_the_int64_matmul_index(cols):
    # the weighted grant rule against a table of exactly rounded subset sums,
    # one per pass mask, indexed by the int64 matmul; thresholds are scores
    # the plain float sum rounds differently, so rows sit on exact ties that
    # only fsum settles, and their float neighbours sit just off them
    rng = np.random.default_rng(cols)
    passes = rng.random((4000, cols)) < 0.5
    weights = tuple(rng.uniform(0.1, 2.0, cols).tolist())
    table = np.array([math.fsum(w for j, w in enumerate(weights) if mask >> j & 1) for mask in range(1 << cols)])
    scores = table[passes.astype(np.int64) @ (1 << np.arange(cols, dtype=np.int64))]
    rounded_apart = np.flatnonzero(passes @ np.asarray(weights) != scores)
    assert len(rounded_apart) >= 3
    for t in scores[rounded_apart[:3]].tolist():
        for threshold in (np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)):
            want = scores > threshold
            assert np.array_equal(reliability._weighted_above(passes, weights, threshold), want), threshold
            assert want.any() and not want.all()


def test_weighted_tally_over_more_than_16_firings_matches_the_machine():
    # two copies of the catalog, every weight 0.1 at T = 1.2 and t_basic =
    # 0.3: decide grants at 12 passes (fsum of twelve 0.1 is above 1.2) and
    # Basic at 4, so many sessions sit on a float tie at either point
    catalog = [replace(f, id=f"{f.id}_{i}", far=0.45, frr=0.55) for i in range(2) for f in DEFAULT_CATALOG]
    policy = Policy(Strategy.weighted(1.2), {f.id: 0.1 for f in catalog})
    scenario = Scenario(adversary_fraction=0.3, config=SessionConfig(t_basic=0.3))
    machine, plan, (adversary, passes, first) = _reference(scenario, policy, 1500, 61, catalog)
    assert len(plan.pre + plan.active) >= 17 and len(plan.decision.cols) >= 17
    counts = passes[:, list(plan.decision.cols)].sum(axis=1)
    assert (counts == 12).any() and (counts == 11).any()
    report = run_simulation(scenario, catalog, policy, trials=1500, seed=61)
    assert report == _machine_report(scenario, policy, 1500, 61, catalog)
    assert 0 < report.full_grants < report.sessions_run


def test_context_change_runs_on_the_machine_engine():
    # a change that touches nothing in this catalog must not alter results
    noop = Scenario(
        factors=("token", "facial", "pin_code"),
        context_changes=((6.0, {"noise_level": "high"}),),
    )
    plain = Scenario(factors=("token", "facial", "pin_code"))
    a = run_simulation(noop, CATALOG3, W_POLICY, trials=3000, seed=5)
    b = run_simulation(plain, CATALOG3, W_POLICY, trials=3000, seed=5)
    assert a == b


def test_context_change_can_alter_outcomes():
    darkening = Scenario(
        factors=("token", "facial", "pin_code"),
        context_changes=((5.0, {"darkness": True}),),
    )
    report = run_simulation(darkening, CATALOG3, W_POLICY, trials=3000, seed=5)
    baseline = run_simulation(
        Scenario(factors=("token", "facial", "pin_code")),
        CATALOG3,
        W_POLICY,
        trials=3000,
        seed=5,
    )
    # facial still fires but is no longer scorable after the change, so
    # the grant rule effectively shifts while the prompts stay the same
    for phase in ("pre_authentication", "active_authentication"):
        assert report.factor_firings[phase] == baseline.factor_firings[phase]
    assert report.full_grants != baseline.full_grants


def test_takeover_revocation_rate_matches_detection_accuracy():
    # legitimate credentials, impostor behavior: with one check per window
    # the revocation fraction is the per-window detection accuracy
    sc = Scenario(takeover=True, factors=("token", "facial", "pin_code"))
    report = run_simulation(sc, CATALOG3, W_POLICY, trials=20_000, seed=3)
    fraction = report.revocations / report.full_grants
    assert abs(fraction - 0.95) < 0.01
    assert report.false_revocations == report.revocations  # no adversaries here
    assert set(report.revocation_latency_distribution) == {150.0}


def _six_sigma(n, p):
    """Binomial(n, p) count bracket; refused when it would admit zero."""
    mean, half = n * p, 6.0 * math.sqrt(n * p * (1.0 - p))
    if mean - half <= 0.0:
        raise ValueError(f"bracket {mean:.1f} +- {half:.1f} admits zero events")
    return mean - half, mean + half


def test_first_failure_histogram_follows_the_scorable_checks():
    # 240 checks a second after the decision at t=1; gloves blank the
    # fingerprint checks timed in [100.5, 150.5), indices 99-148, and from
    # 230.5 on, indices 229-239. A check fails at rate q, so revocation at
    # a scorable check with s scorable checks before it has probability
    # q(1-q)^s, and blanked ones none.
    fingerprint = replace(BY_ID["fingerprint"], phases=frozenset((MON,)))
    catalog = [BY_ID["token"], BY_ID["pin_code"], fingerprint]
    q = 0.002
    scenario = Scenario(
        takeover=True,
        factors=("token", "pin_code"),
        monitor_factor="fingerprint",
        context_changes=(
            (100.5, {"gloves_worn": True}), (150.5, {"gloves_worn": False}), (230.5, {"gloves_worn": True})
        ),
        config=SessionConfig(
            monitor=MonitorConfig(window=1.0, detection_accuracy=q),
            monitoring_horizon=240.0,
        ),
    )
    policy = Policy(Strategy.any_check())
    _, plan = _build_plan(scenario, catalog, policy)
    assert (plan.n_checks, plan.scorable) == (240, ((0, 99), (149, 229)))
    report = run_simulation(scenario, catalog, policy, trials=1 << 17, seed=31)
    bins = report.revocation_latency_distribution
    assert set(bins) <= {float(c + 1) for c in range(240)}
    scorable = [c for start, stop in plan.scorable for c in range(start, stop)]
    for c in range(240):
        if c not in scorable:
            assert bins.get(float(c + 1), 0) == 0, f"blanked check {c} revoked"
        else:
            lo, hi = _six_sigma(report.full_grants, q * (1.0 - q) ** scorable.index(c))
            assert lo <= bins.get(float(c + 1), 0) <= hi, f"check {c}"
    with pytest.raises(ValueError, match="admits zero"):
        _six_sigma(report.full_grants, 1e-5)


def test_certain_detection_revokes_at_the_first_scorable_check():
    # 1 - 0.05 ** (150 / 10) rounds to a per-check rate of exactly 1, so
    # every takeover falls at the first check gloves leave scorable
    fingerprint = replace(BY_ID["fingerprint"], phases=frozenset((MON,)))
    catalog = [BY_ID["token"], BY_ID["pin_code"], fingerprint]
    scenario = Scenario(
        takeover=True,
        factors=("token", "pin_code"),
        monitor_factor="fingerprint",
        context_changes=((100.0, {"gloves_worn": True}), (200.0, {"gloves_worn": False})),
        config=SessionConfig(monitor=MonitorConfig(window=10.0, check_interval=150.0), monitoring_horizon=600.0),
    )
    assert scenario.config.monitor.per_check_detection == 1.0
    with np.errstate(all="raise"):
        report = run_simulation(scenario, catalog, Policy(Strategy.any_check()), trials=5000, seed=4)
    assert report.revocations == report.full_grants > 0
    assert report.revocation_latency_distribution == {300.0: report.full_grants}


def test_zero_false_alarm_never_revokes():
    sc = Scenario(
        factors=("token", "facial", "pin_code"),
        config=SessionConfig(
            monitor=MonitorConfig(check_interval=10.0, false_alarm=0.0), monitoring_horizon=600.0
        ),
    )
    with np.errstate(all="raise"):
        report = run_simulation(sc, CATALOG3, W_POLICY, trials=70_000, seed=12)
    assert report.full_grants > 0
    assert report.revocations == report.false_revocations == 0
    assert report.factor_firings["continuous_monitoring"]["token"] == 60 * report.full_grants


def test_million_check_schedule_runs_in_bounded_memory():
    # the sessions x checks draw this replaced needed ~0.5 TB per shard here
    code = (
        "import resource\n"
        "from authfusion.catalog import DEFAULT_CATALOG\n"
        "from authfusion.fusion import Policy, Strategy\n"
        "from authfusion.session import MonitorConfig, Scenario, SessionConfig, run_simulation\n"
        "by_id = {f.id: f for f in DEFAULT_CATALOG}\n"
        "catalog = [by_id['token'], by_id['facial'], by_id['pin_code']]\n"
        "policy = Policy(Strategy.weighted(2.5), {'token': 1.0, 'facial': 1.0, 'pin_code': 1.0})\n"
        "config = SessionConfig(monitor=MonitorConfig(check_interval=1.0), monitoring_horizon=1.0e6)\n"
        "for takeover in (True, False):\n"
        "    sc = Scenario(takeover=takeover, factors=('token', 'facial', 'pin_code'), config=config)\n"
        "    report = run_simulation(sc, catalog, policy, trials=1 << 17, seed=3)\n"
        "    print(report.revocations, report.full_grants)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = os.path.dirname(os.path.dirname(reliability.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=300, check=True).stdout.split()
    takeover, legit = (int(out[0]), int(out[1])), (int(out[2]), int(out[3]))
    # impostors are all caught; legitimate users meet a false alarm within
    # 10^6 checks at 1 - 0.99^(1/150) each almost surely
    assert takeover[0] == takeover[1] > 0 and legit[0] == legit[1] > 0
    assert int(out[4]) < 300 * 1024  # ru_maxrss is in KiB on Linux


def test_report_consistency_is_enforced():
    with pytest.raises(EvaluationError):
        SimulationReport(
            sessions_run=10,
            adversary_sessions=2,
            legitimate_sessions=8,
            false_grants=3,
            false_denials=0,
            basic_grants=0,
            full_grants=2,
            revocations=0,
            false_revocations=0,
            mean_time_to_full_grant=None,
            revocation_latency_distribution={},
            factor_firings={},
            seed=0,
        )


def test_report_csv_rendering():
    report = SimulationReport(
        sessions_run=10,
        adversary_sessions=2,
        legitimate_sessions=8,
        false_grants=1,
        false_denials=4,
        basic_grants=5,
        full_grants=3,
        revocations=2,
        false_revocations=1,
        mean_time_to_full_grant=8.5,
        revocation_latency_distribution={150.0: 1, 50.0: 1},
        factor_firings={"pre_authentication": {"token": 10}},
        seed=9,
    )
    text = report_to_csv(report)
    lines = text.splitlines()
    assert lines[0] == "metric,value"
    assert "sessions_run,10" in lines
    assert "mean_time_to_full_grant,8.5" in lines
    assert "revocation_latency[50],1" in lines
    assert "firings[pre_authentication][token],10" in lines
    assert text.endswith("\n")
    # distributions come out sorted regardless of construction order
    assert list(report.revocation_latency_distribution) == [50.0, 150.0]

    summary = report_summary(report)
    assert "sessions: 10 (2 adversary, 8 legitimate)" in summary
    assert "revocations: 2 (1 false alarms)" in summary


def test_time_to_grant_medians():
    sc = Scenario(factors=("token", "facial", "pin_code"))
    timing = time_to_grant(sc, CATALOG3, W_POLICY, trials=400, seed=1)
    assert timing.trials == 400
    assert timing.median_time_to_basic == 8.0
    assert timing.median_time_to_full == 8.5
    assert timing.median_active_phase == 0.5
    assert timing.usability_budget == 2.0
    assert timing.over_budget is False
    assert timing.degenerate is False
    assert 0 < timing.full_grants <= 400


def test_time_to_grant_degenerate_run():
    sc = Scenario(adversary_fraction=1.0, factors=("token", "facial", "pin_code"))
    timing = time_to_grant(sc, CATALOG3, W_POLICY, trials=60, seed=2)
    assert timing.degenerate is True
    assert timing.full_grants == 0
    assert timing.median_time_to_full is None
    assert timing.over_budget is False


def test_counted_median_equals_the_median_of_the_listed_times():
    rng = random.Random(13)
    parities = set()
    for _ in range(600):
        n = rng.randint(1, 7)
        values = sorted(rng.choice((0.5, 1.0, 1.0, 2.5, 8.0, 8.0, 60.0)) for _ in range(n))  # ties
        counts = np.array([rng.choice((0, 0, 1, 2, 3, 8)) for _ in range(n)], dtype=np.int64)
        counts[rng.randrange(n)] += 1
        listed = [v for v, c in zip(values, counts.tolist()) for _ in range(c)]
        got, want = _counted_median(values, counts), statistics.median(listed)
        assert (type(got), repr(got)) == (type(want), repr(want))
        parities.add(len(listed) % 2)
    assert parities == {0, 1}
    # distinct middle values at an even total take their mean
    assert _counted_median([1.0, 2.0], np.array([1, 1])) == 1.5


# -- the plan memo: equal deployments share one validated plan ---------------

MEMO_POLICY = Policy(Strategy.weighted(1.5), {"token": 1.0, "facial": 1.0, "pin_code": 1.0})


@pytest.fixture
def builds(monkeypatch):
    """The arguments of every _build_plan call, from an empty memo."""
    calls = []
    build = session._build_plan

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(session, "_build_plan", counted)
    session._plan_memo.cache_clear()
    yield calls
    session._plan_memo.cache_clear()


def _csv(scenario, catalog=CATALOG3, policy=MEMO_POLICY, seed=11):
    return report_to_csv(run_simulation(scenario, catalog, policy, 3000, seed))


def test_a_deployment_loaded_twice_reuses_its_plan(builds):
    first = _csv(load_scenario(SCENARIO_YAML))
    catalog = load_catalog(catalog_to_yaml(CATALOG3))
    policy = Policy(Strategy.weighted(1.5), {"pin_code": 1.0, "facial": 1.0, "token": 1.0})
    again = _csv(load_scenario(SCENARIO_YAML), catalog, policy)
    timing = time_to_grant(load_scenario(SCENARIO_YAML), catalog, policy, trials=500, seed=3)
    assert len(builds) == 1
    session._plan_memo.cache_clear()
    assert _csv(load_scenario(SCENARIO_YAML)) == first == again
    assert time_to_grant(load_scenario(SCENARIO_YAML), catalog, policy, trials=500, seed=3) == timing
    assert len(builds) == 2


def _scenario_changes(sc):
    return {
        "name": "other",
        "adversary_fraction": 0.5,
        "takeover": False,
        "factors": ("token", "pin_code"),
        "trust": {"token": 0.6},
        "conditions": {"darkness": False},
        "context_changes": ((6.0, {"noise_level": "high"}),),
        "monitor_factor": None,
        "config": replace(sc.config, usability_budget=4.0),
        "policy_path": "other.yaml",
        "catalog_path": "other.yaml",
    }


CONFIG_CHANGES = {
    "t_basic": 0.5,
    "staleness_horizon": 60.0,
    "monitor": MonitorConfig(),
    "monitoring_horizon": 200.0,
    "usability_budget": 4.0,
}
MONITOR_CHANGES = {"window": 120.0, "detection_accuracy": 0.8, "check_interval": 25.0, "false_alarm": 0.05}
POLICY_CHANGES = {
    "strategy": Strategy.weighted(1.0),
    "weights": {"token": 1.0, "facial": 1.0, "pin_code": 2.0},
    "use_likelihood": True,
}
FACTOR_CHANGES = {  # applied to token, except the id, which voice changes
    "id": "voice2",
    "name": "Token 2",
    "category": frozenset({FactorCategory.OWNERSHIP, FactorCategory.BEHAVIOR}),
    "action": ActionMode.EITHER,
    "duration": DurationClass(DurationBand.SHORT, 0.25),
    "far": 0.001,
    "frr": 0.05,
    "vendor_accuracy": 0.9,
    "capabilities": CAPS_PIN,
    "phases": frozenset({ACT, MON}),
}


def _one_field_changes():
    """(what, scenario, catalog, policy) per field of each key object, each
    differing from the base deployment in that one field."""
    sc = load_scenario(SCENARIO_YAML)
    catalog = CATALOG3 + [BY_ID["voice"]]
    tables = [
        (Scenario, _scenario_changes(sc), lambda v: (replace(sc, **v), catalog, MEMO_POLICY)),
        (SessionConfig, CONFIG_CHANGES,
         lambda v: (replace(sc, config=replace(sc.config, **v)), catalog, MEMO_POLICY)),
        (MonitorConfig, MONITOR_CHANGES,
         lambda v: (replace(sc, config=replace(sc.config, monitor=replace(sc.config.monitor, **v))),
                    catalog, MEMO_POLICY)),
        (Policy, POLICY_CHANGES, lambda v: (sc, catalog, replace(MEMO_POLICY, **v))),
        (Factor, FACTOR_CHANGES,
         lambda v: (sc, [replace(f, **v) if f.id == ("voice" if "id" in v else "token") else f
                         for f in catalog], MEMO_POLICY)),
    ]
    yield "base", sc, catalog, MEMO_POLICY
    for cls, changes, build in tables:
        # a field added later must be given a change here too
        assert set(changes) == {f.name for f in fields(cls)}, cls.__name__
        for name, value in changes.items():
            yield f"{cls.__name__}.{name}", *build({name: value})


def test_changing_any_one_field_misses_the_memo(builds):
    (_, *base), *changed = _one_field_changes()
    for what, *deployment in changed:
        assert deployment != base, what
        session._plan_memo.cache_clear()
        _csv(*base)
        before = len(builds)
        hit_or_miss = _csv(*deployment)
        assert len(builds) == before + 1, f"{what} hit the memo"
        session._plan_memo.cache_clear()
        assert _csv(*deployment) == hit_or_miss, what


def _trust(v):
    return Scenario(factors=("token", "facial", "pin_code"), trust={"token": v}), CATALOG3, MEMO_POLICY


def _weight(v):
    return Scenario(), CATALOG3, Policy(Strategy.weighted(1.5), {"token": v, "facial": 1.0, "pin_code": 1.0})


def _condition(v):
    return Scenario(conditions={"darkness": v}, takeover=True), CATALOG3, MEMO_POLICY


@pytest.mark.parametrize("build, first, second", [
    (_trust, -0.0, 0.0), (_trust, 1, 1.0), (_weight, 1, 1.0), (_weight, 0.0, -0.0),
    (_condition, True, 1), (_condition, False, 0.0),
])
def test_values_that_compare_equal_give_one_report_hit_or_miss(builds, build, first, second):
    one = _csv(*build(first))
    hit = _csv(*build(second))
    assert len(builds) == 1
    session._plan_memo.cache_clear()
    assert _csv(*build(second)) == hit == one
    assert len(builds) == 2


def test_the_plan_memo_stays_within_its_bound(builds):
    for i in range(session.PLAN_MEMO_SIZE + 5):
        run_simulation(Scenario(name=f"s{i}"), CATALOG3, MEMO_POLICY, 1, 0)
    info = session._plan_memo.cache_info()
    assert info.maxsize == session.PLAN_MEMO_SIZE
    assert info.currsize == session.PLAN_MEMO_SIZE
    assert len(builds) == session.PLAN_MEMO_SIZE + 5


def test_a_list_valued_condition_still_simulates(builds):
    listed = load_scenario("schema_version: 1\ncontext:\n  initial:\n    zones: [a, b]\n")
    with pytest.raises(TypeError):
        hash(listed)
    reports = [_csv(listed) for _ in range(2)]
    assert len(builds) == 2  # no memo for a key that cannot be hashed
    assert reports[0] == reports[1] == _csv(Scenario())


def test_failed_validation_is_never_kept(builds):
    bad = Scenario(factors=("token", "nope"))
    for _ in range(2):
        with pytest.raises(ConfigError, match="unknown factor 'nope'"):
            run_simulation(bad, CATALOG3, MEMO_POLICY, 10, 0)
    assert session._plan_memo.cache_info().currsize == 0


def test_equal_deployments_hash_equal():
    """Two deployments built apart, with values that compare equal but
    differ in type or sign, compare and hash equal."""
    def deployment(zero, one, yes):
        sc = load_scenario(SCENARIO_YAML)
        sc = replace(sc, trust={"token": 0.8, "facial": zero}, conditions={"darkness": yes, "x": one})
        catalog = load_catalog(catalog_to_yaml(CATALOG3))
        policy = Policy(Strategy.weighted(1.5), {"token": one, "facial": 1.0, "pin_code": 1.0})
        return sc, tuple(catalog), policy, sc.config, sc.config.monitor, sc.initial_context()

    for a, b in zip(deployment(0.0, 1.0, True), deployment(-0.0, 1, 1)):
        assert a == b
        assert hash(a) == hash(b)


def test_validate_scenario_runs_the_static_checks_once_on_a_miss_and_never_on_a_hit(builds, monkeypatch):
    calls = []
    static = session._static_problems
    monkeypatch.setattr(session, "_static_problems", lambda *args: calls.append(args) or static(*args))
    policy = Policy(Strategy.k_of_n(2))
    assert validate_scenario(Scenario(), DEFAULT_CATALOG, policy) == []
    assert len(calls) == 1
    assert validate_scenario(Scenario(), DEFAULT_CATALOG, policy) == []
    assert len(calls) == 1


# -- one resolution per set of conditions -------------------------------------


@pytest.fixture
def gates(monkeypatch):
    """The context of every gate_factors call that session makes."""
    calls = []
    gate = session.gate_factors

    def counted(catalog, ctx, rules):
        calls.append(ctx)
        return gate(catalog, ctx, rules)

    monkeypatch.setattr(session, "gate_factors", counted)
    return calls


def _session_events(rng):
    return [ev("token", rng.randint(0, 1), 0.5), ev("facial", rng.randint(0, 1), 8.0),
            PhaseTimeout(8.0, PRE), ev("pin_code", rng.randint(0, 1), 8.5),
            ev("facial", rng.randint(0, 1), 16.0), PhaseTimeout(20.0, ACT),
            ev("token", rng.randint(0, 1), 100.0), PhaseTimeout(200.0, MON)]


def test_a_machine_gates_once_per_set_of_conditions(gates):
    m = SessionMachine(CATALOG3, W_POLICY)
    rng = random.Random(5)
    # equal conditions built afresh for every session
    sessions = [(_session_events(rng), {"darkness": i % 2 == 1}) for i in range(40)]
    finals = [m.run(events, ContextState(dict(conditions))) for events, conditions in sessions]
    assert len(gates) == 2
    assert {ctx.conditions["darkness"] for ctx in gates} == {False, True}
    for (events, conditions), final in zip(sessions, finals):
        assert SessionMachine(CATALOG3, W_POLICY).run(events, ContextState(conditions)) == final
    assert {final.terminal for final in finals} == set(Terminal)


def test_a_machine_keeps_at_most_its_bound_of_resolutions(gates):
    m = SessionMachine(CATALOG3, Policy(Strategy.k_of_n(2)))
    for i in range(session.RESOLUTION_MEMO_SIZE + 5):
        assert m.expected_factors(ContextState.nominal(zone=i)) == ("token", "facial", "pin_code")
    info = m._resolve.cache_info()
    assert info.maxsize == info.currsize == session.RESOLUTION_MEMO_SIZE
    assert len(gates) == 1 + session.RESOLUTION_MEMO_SIZE + 5  # one for the machine's own context


def test_a_dropped_machine_is_freed_without_the_cyclic_collector():
    gc.disable()
    try:
        m = SessionMachine(CATALOG3, W_POLICY)
        for dark in (False, True):
            m.expected_factors(ContextState.nominal(darkness=dark))
        assert m._resolve.cache_info().currsize == 2
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        gc.enable()


def test_a_list_valued_condition_steps_uncached(gates):
    m = SessionMachine(CATALOG3, W_POLICY)
    events = _session_events(random.Random(8))
    listed = ContextState.nominal(darkness=True, zones=["a", "b"])
    first = m.run(events, listed)
    per_run = len(gates)
    assert m.run(events, listed) == first == m.run(events, ContextState.nominal(darkness=True))
    assert m._resolve.cache_info().currsize == 1  # the hashable context only
    assert len(gates) == 2 * per_run + 1 and per_run > 1


def test_the_plan_gates_once_per_context_stretch(gates):
    scenario = Scenario(context_changes=((5.0, {"darkness": True}), (9.0, {"gloves_worn": True})))
    _build_plan(scenario, DEFAULT_CATALOG, Policy(Strategy.k_of_n(2)))
    assert [(ctx.conditions["darkness"], ctx.conditions["gloves_worn"]) for ctx in gates] == [
        (False, False), (True, False), (True, True)]
