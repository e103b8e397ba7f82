"""Expected values the benchmark computes apart from the program.

Nothing here imports authfusion. The session model re-derives, from the
documented semantics, what a batch of sessions must produce: the event
layout from factor durations, context gating from the documented default
rules, weight renormalization, the strict weighted threshold with absent
expected factors counted as failed, and the monitoring draw. Rates come
from exhaustive enumeration over factor outcomes; sweep rows from closed
forms; weighted compositions from brute force or binomial tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from inputs import ACT, MON, PRE, Deployment, WeightedCase

# The documented default context rules: (condition, value, effect,
# factor ids). "capability" consults environmental_robustness: a factor
# without it is excluded (no factor here is rated "partial").
DEFAULT_RULES = (
    ("gloves_worn", True, "exclude", ("fingerprint", "hand_geometry", "vein_recognition")),
    ("darkness", True, "capability", ("facial", "ocular")),
    ("precipitation", True, "capability", ("facial", "ocular")),
    ("noise_level", "high", "penalize", ("voice",)),
)
NOMINAL = {
    "gloves_worn": False,
    "darkness": False,
    "precipitation": False,
    "noise_level": "low",
    "setting": "indoor",
    "time_of_day": "day",
}
PENALTY = 0.5


def gate(factors, conditions: dict, phase: str | None = None) -> tuple[list, set, set]:
    """(available factors in order, excluded ids, penalized ids)."""
    cond = dict(NOMINAL, **conditions)
    excluded: set[str] = set()
    penalized: set[str] = set()
    for name, value, effect, ids in DEFAULT_RULES:
        if cond[name] != value:
            continue
        for f in factors:
            if f.id not in ids:
                continue
            if effect == "exclude" or (effect == "capability" and not f.robust):
                excluded.add(f.id)
            elif effect == "penalize":
                penalized.add(f.id)
    if phase is not None:
        excluded |= {f.id for f in factors if phase not in f.phases}
    return [f for f in factors if f.id not in excluded], excluded, penalized - excluded


def effective_weights(weights: dict, factors, conditions: dict) -> dict[str, float]:
    """Excluded factors drop to 0, penalized ones are halved, and the rest
    is rescaled so the configured total is kept."""
    available, _, penalized = gate(factors, conditions)
    adjusted = {f.id: weights[f.id] * (PENALTY if f.id in penalized else 1.0) for f in available}
    total = math.fsum(weights[f.id] for f in factors)
    kept = math.fsum(adjusted.values())
    scale = total / kept if kept > 0.0 else 0.0
    out = {f.id: 0.0 for f in factors}
    for fid, phi in adjusted.items():
        out[fid] = phi * scale
    return out


# ---------------------------------------------------------------------------
# Session model


@dataclass
class SessionModel:
    pre: list[tuple[str, float]]  # (factor id, arrival time), plan order
    pre_end: float
    t_full: float  # when every Full grant lands
    p_grant: dict[bool, float]  # keyed by "is adversary"
    p_basic: dict[bool, float]
    basic_times: dict[bool, dict[float, float]]  # P(basic at t)
    counted_before_decision: list[str]  # active firings every session makes
    counted_after_decision: list[str]  # active firings only live sessions make
    monitor_factor: str | None
    n_checks: int
    interval: float
    q: dict[bool, float]  # per-check failure for a granted session, by adversary
    adversary_fraction: float


def per_check(per_window: float, interval: float, window: float) -> float:
    ratio = interval / window
    if ratio == 1.0:
        return per_window
    return 1.0 - (1.0 - per_window) ** ratio


def _ctx_at(timeline, t: float) -> dict:
    cond = timeline[0][1]
    for at, c in timeline:
        if at <= t:
            cond = c
    return cond


def session_model(dep: Deployment, changes=None) -> SessionModel:
    changes = dep.changes if changes is None else changes
    by_id = dep.by_id
    catalog = dep.factors
    weighted = dep.strategy == "weighted"
    scope = [f for f in catalog if f.id in dep.weights] if weighted else list(catalog)
    scope_ids = {f.id for f in scope}
    timeline = [(0.0, dict(dep.initial))]
    for at, upd in changes:
        timeline.append((at, dict(timeline[-1][1], **upd)))
    ctx0 = timeline[0][1]

    def usable(cond, phase) -> list[str]:
        ids = [f.id for f in gate(catalog, cond, phase)[0]]
        if phase == PRE:
            ids = [fid for fid in ids if by_id[fid].action != "active"]
        return ids

    def expected(cond) -> list[str]:
        ok = set(usable(cond, ACT))
        return [f.id for f in catalog if f.id in ok and f.id in scope_ids]

    def weights_at(cond) -> dict[str, float]:
        if not weighted:
            return {}
        return effective_weights(dep.weights, scope, cond)

    tau = lambda fid: dep.trust.get(fid, 1.0)  # noqa: E731
    chosen = list(dep.scenario_factors)

    # the event layout: the plan is fixed from the initial context
    pre_ok = set(usable(ctx0, PRE))
    pre = [(fid, by_id[fid].seconds) for fid in chosen if fid in pre_ok]
    pre_end = max((t for _, t in pre), default=0.0)
    cutoff = pre_end - 300.0
    fresh = {fid for fid, t in pre if t >= cutoff}
    exp0 = expected(ctx0)
    needed = [fid for fid in exp0 if fid not in fresh]
    active = [(fid, pre_end + by_id[fid].seconds) for fid in needed if fid in chosen]
    active_end = pre_end + max((by_id[fid].seconds for fid in needed), default=0.0)

    # the decision lands at the first scorable active arrival that
    # completes the expected set, else at the active timeout
    # (events sharing a time keep their plan order)
    have = {fid for fid, t in pre if fid in usable(_ctx_at(timeline, t), PRE)}
    arrivals = sorted(active, key=lambda x: x[1])
    decision_at, decision_pos = active_end, len(arrivals)
    for pos, (fid, t) in enumerate(arrivals):
        cond = _ctx_at(timeline, t)
        if fid not in expected(cond):
            continue
        have.add(fid)
        if all(e in have for e in expected(cond)):
            decision_at, decision_pos = t, pos
            break
    cond_d = _ctx_at(timeline, decision_at)
    exp_d = expected(cond_d)
    scored_pre = {fid for fid, t in pre if fid in usable(_ctx_at(timeline, t), PRE)}
    scored_act = {fid for fid, t in arrivals[: decision_pos + 1]
                  if fid in expected(_ctx_at(timeline, t))}
    present = [fid for fid in exp_d if fid in scored_pre or fid in scored_act]
    w_d = weights_at(cond_d)

    def grants(passing: set[str]) -> bool:
        if not exp_d:
            return False
        if weighted:
            score = math.fsum(by_id[f].mu * tau(f) * w_d[f] for f in present if f in passing)
            return score > dep.threshold
        passed = sum(1 for f in present if f in passing)
        if dep.strategy == "all":
            return passed == len(exp_d)
        if dep.strategy == "any":
            return passed >= 1
        return passed >= dep.k

    p_grant = {}
    for adv in (True, False):
        p = [by_id[f].far if adv else 1.0 - by_id[f].frr for f in present]
        p_grant[adv] = _enumerate(p, lambda bits: grants({f for f, b in zip(present, bits) if b}))

    # Basic: pre-phase arrivals in time order, scored under the context then
    if weighted:
        full = dep.threshold
        t_basic = dep.t_basic if dep.t_basic is not None else full / 2.0
    else:
        k_eff = {"all": len(exp0), "any": 1}.get(dep.strategy, dep.k)
        t_basic = dep.t_basic if dep.t_basic is not None else k_eff / 2.0
    order = sorted(range(len(pre)), key=lambda i: pre[i][1])

    def basic_time(bits) -> float | None:
        latest: dict[str, int] = {}
        for i in order:
            fid, t = pre[i]
            cond = _ctx_at(timeline, t)
            if fid not in usable(cond, PRE):
                continue
            latest[fid] = bits[i]
            if weighted:
                w = weights_at(cond)
                score = math.fsum(by_id[f].mu * tau(f) * w.get(f, 0.0) for f, b in latest.items() if b)
            else:
                score = float(sum(latest.values()))
            if score > t_basic:
                return t
        return None

    p_basic, basic_times = {}, {}
    for adv in (True, False):
        probs = [by_id[f].far if adv else 1.0 - by_id[f].frr for f, _ in pre]
        dist: dict[float, list[float]] = {}
        for bits in product((0, 1), repeat=len(pre)):
            t = basic_time(bits)
            if t is not None:
                dist.setdefault(t, []).append(_mass(probs, bits))
        basic_times[adv] = {t: math.fsum(v) for t, v in sorted(dist.items())}
        p_basic[adv] = math.fsum(basic_times[adv].values())

    # monitoring
    mon_ok = set(usable(ctx0, MON))
    mf = dep.monitor_factor
    if mf is None:
        mf = next((fid for fid in chosen if fid in mon_ok), None)
    interval = dep.check_interval if dep.check_interval is not None else dep.window
    horizon = dep.monitoring_horizon if dep.monitoring_horizon is not None else dep.window
    n_checks = int(math.floor(horizon / interval + 1e-9)) if mf is not None else 0
    q_d = per_check(dep.detection, interval, dep.window)
    q_f = per_check(dep.false_alarm, interval, dep.window)
    if n_checks:
        last = active_end + n_checks * interval
        if any(decision_at < at <= last for at, _ in changes):
            raise ValueError("the session model covers no context change during monitoring")
        if mf not in usable(_ctx_at(timeline, active_end + interval), MON):
            raise ValueError("the monitor factor must stay scorable")

    return SessionModel(
        pre=pre,
        pre_end=pre_end,
        t_full=decision_at,
        p_grant=p_grant,
        p_basic=p_basic,
        basic_times=basic_times,
        counted_before_decision=[fid for fid, _ in arrivals[: decision_pos + 1]],
        counted_after_decision=[fid for fid, _ in arrivals[decision_pos + 1:]],
        monitor_factor=mf,
        n_checks=n_checks,
        interval=interval,
        q={True: q_d, False: q_d if dep.takeover else q_f},
        adversary_fraction=dep.adversary_fraction,
    )


def _mass(probs, bits) -> float:
    return math.prod(p if b else 1.0 - p for p, b in zip(probs, bits))


def _enumerate(probs, event) -> float:
    """P(event) over independent Bernoulli outcomes, by enumeration."""
    return math.fsum(_mass(probs, bits) for bits in product((0, 1), repeat=len(probs)) if event(bits))


# ---------------------------------------------------------------------------
# Closed forms for the analytics layer


def _tail_logs(n: int, log_p: float, log_q: float, k: int, upper: bool) -> list[float]:
    js = range(k, n + 1) if upper else range(0, k)
    return [math.log(math.comb(n, j)) + j * log_p + (n - j) * log_q for j in js]


def binom_tail_log10(n: int, log_p: float, log_q: float, k: int, upper: bool) -> float:
    """log10 P(X >= k) (upper) or log10 P(X < k), X ~ Bin(n, p), given
    ln p and ln q = ln(1 - p) taken from the source rates."""
    logs = _tail_logs(n, log_p, log_q, k, upper)
    top = max(logs)
    return (top + math.log(math.fsum(math.exp(x - top) for x in logs))) / math.log(10.0)


def binom_tail(n: int, log_p: float, log_q: float, k: int, upper: bool) -> float:
    return math.fsum(math.exp(x) for x in _tail_logs(n, log_p, log_q, k, upper))


@dataclass(frozen=True)
class RateExpect:
    """A closed-form rate by its log10, which stays finite where the
    value itself falls below the float range."""

    log10: float
    product_form: bool  # a pure product, whose log10 the program recovers

    @property
    def value(self) -> float:
        return 10.0 ** self.log10 if self.log10 > -300.0 else 0.0


@dataclass(frozen=True)
class SweepExpect:
    n: int
    strategy: str
    k: int
    far: RateExpect
    frr: RateExpect


def _one_minus_power(n: int, p: float) -> RateExpect:
    # 1 - (1 - p)^n, the chance that at least one of n checks trips
    return RateExpect(math.log10(-math.expm1(n * math.log1p(-p))), False)


def sweep_expect(far: float, frr: float, n: int) -> list[SweepExpect]:
    """all / any / balanced rows for n homogeneous factors, in output order."""
    k = n // 2 + 1
    adv = (math.log(far), math.log1p(-far))
    leg = (math.log1p(-frr), math.log(frr))
    return [
        SweepExpect(n, "all", n, RateExpect(n * math.log10(far), True), _one_minus_power(n, frr)),
        SweepExpect(n, "any", 1, _one_minus_power(n, far), RateExpect(n * math.log10(frr), True)),
        SweepExpect(
            n, "balanced", k,
            RateExpect(binom_tail_log10(n, *adv, k, upper=True), False),
            RateExpect(binom_tail_log10(n, *leg, k, upper=False), False),
        ),
    ]


def sweep_table(far: float, frr: float, n_hi: int) -> list[SweepExpect]:
    return [row for n in range(1, n_hi + 1) for row in sweep_expect(far, frr, n)]


def weighted_expect(case: WeightedCase) -> tuple[float, float]:
    """(far, frr) of sum(delta*mu*tau*phi) > T: binomial tails when every
    row is the same, brute force otherwise (n <= 16)."""
    rows = case.rows
    n = len(rows)
    if len(set(rows)) == 1:
        far, frr, mu, tau, phi = rows[0]
        k = math.floor(case.threshold / (mu * tau * phi)) + 1
        return (
            binom_tail(n, math.log(far), math.log1p(-far), k, upper=True),
            binom_tail(n, math.log1p(-frr), math.log(frr), k, upper=False),
        )
    if n > 16:
        raise ValueError("brute force is limited to n <= 16")
    weights = [mu * tau * phi for _, _, mu, tau, phi in rows]
    grant = lambda bits: math.fsum(w for w, b in zip(weights, bits) if b) > case.threshold  # noqa: E731
    far = _enumerate([r[0] for r in rows], grant)
    frr = _enumerate([1.0 - r[1] for r in rows], lambda bits: not grant(bits))
    return far, frr


def rule_rates(dep: Deployment) -> tuple[float, float]:
    """Composite (far, frr) of the deployment's policy over the factors
    its scenario fields, as monte_carlo_rates sees them (no context,
    scenario trust)."""
    fielded = set(dep.scenario_factors)
    factors = [f for f in dep.factors if f.id in dep.weights and f.id in fielded]
    if dep.strategy == "weighted":
        weights = [f.mu * dep.trust.get(f.id, 1.0) * dep.weights[f.id] for f in factors]
        grant = lambda bits: math.fsum(w for w, b in zip(weights, bits) if b) > dep.threshold  # noqa: E731
    else:
        need = {"all": len(factors), "any": 1}.get(dep.strategy, dep.k)
        grant = lambda bits: sum(bits) >= need  # noqa: E731
    far = _enumerate([f.far for f in factors], grant)
    frr = _enumerate([1.0 - f.frr for f in factors], lambda bits: not grant(bits))
    return far, frr
