"""The stepped reference the simulator's tally is held to.

machine_tally replays every sampled session event by event through
SessionMachine.step, under the context in force at each event, and
counts what the final states show. It is slow and shares nothing with
session._vector_tally but the plan and the draws.
"""

import math
from typing import Any

from authfusion.context import SessionPhase
from authfusion.fusion import EvidenceRecord
from authfusion.session import (
    ArrivalOfEvidence,
    PhaseTimeout,
    Terminal,
    _context_timeline,
    _Tally,
)

PRE = SessionPhase.PRE_AUTHENTICATION
ACT = SessionPhase.ACTIVE_AUTHENTICATION
MON = SessionPhase.CONTINUOUS_MONITORING


def check_times(plan):
    return [plan.check_time(c) for c in range(plan.n_checks)]


def machine_tally(plan, scenario, machine, adversary, passes, first):
    """Tally over the draws of session._sample_shard: passes[i, col] is
    firing col's outcome, and check c fails in session i iff c == first[i]."""
    timeline = _context_timeline(scenario)
    n_pre = len(plan.pre)
    monitor_trust = scenario.trust.get(plan.monitor_factor, 1.0)

    # (time, kind, payload) template; instantiated with sampled outcomes per row
    events: list[tuple[float, str, Any]] = []
    for col, x in enumerate(plan.pre):
        events.append((x.at, "evidence", (x, col, PRE)))
    events.append((plan.pre_end, "timeout", PRE))
    for col, x in enumerate(plan.active):
        events.append((x.at, "evidence", (x, n_pre + col, ACT)))
    events.append((plan.active_end, "timeout", ACT))
    for c, t in enumerate(check_times(plan)):
        events.append((t, "check", c))
    events.append((plan.active_end + scenario.config.horizon, "timeout", MON))
    # chronological dispatch; stable sort keeps arrivals ahead of the
    # phase timeout they share a timestamp with
    events.sort(key=lambda e: e[0])

    tally = _Tally()
    tally.sessions = len(adversary)
    tally.adversaries = int(adversary.sum())
    full_times: list[float] = []

    for i in range(len(adversary)):
        state = machine.initial_state()
        ctx_idx = 0
        for at, kind, payload in events:
            while ctx_idx + 1 < len(timeline) and timeline[ctx_idx + 1][0] <= at:
                ctx_idx += 1
            ctx = timeline[ctx_idx][1]
            if kind == "timeout":
                event = PhaseTimeout(at=at, phase=payload)
            elif kind == "evidence":
                x, col, phase = payload
                event = ArrivalOfEvidence(
                    EvidenceRecord(
                        factor_id=x.factor_id,
                        decision=int(passes[i, col]),
                        trust=x.trust,
                        observed_at=at,
                    )
                )
            else:
                event = ArrivalOfEvidence(
                    EvidenceRecord(
                        factor_id=plan.monitor_factor,
                        decision=0 if payload == first[i] else 1,
                        trust=monitor_trust,
                        observed_at=at,
                    )
                )
            live = state.terminal is None
            if live and kind == "evidence":
                tally.firings[(payload[2].value, payload[0].factor_id)] += 1
            elif live and kind == "check" and state.phase is MON:
                tally.firings[(MON.value, plan.monitor_factor)] += 1
            state = machine.step(state, event, ctx=ctx)

        adv = bool(adversary[i])
        if state.basic_granted_at is not None:
            tally.basic_grants += 1
        if state.full_granted_at is not None:
            tally.full_grants += 1
            full_times.append(state.full_granted_at)
            if adv:
                tally.false_grants += 1
        elif not adv:
            tally.false_denials += 1
        if state.terminal is Terminal.REVOKED:
            tally.revocations += 1
            if not adv:
                tally.false_revocations += 1
            tally.latencies[state.revoked_at - state.monitor_started_at] += 1
    tally.full_time_sum = math.fsum(full_times)
    return tally
