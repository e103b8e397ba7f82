"""Workload inputs: one deployment per workload, generated from the seed.

A deployment is a factor catalog, a fusion policy and a session scenario,
written as the YAML files the authfusion CLI reads, plus the sizes of the
operations one benchmark round runs over it. The seed moves factor rates,
weights and trust within narrow bands and seeds every draw; the shapes
(factor counts, durations, trial counts) never depend on it, so the work
per round is the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

PRE = "pre_authentication"
ACT = "active_authentication"
MON = "continuous_monitoring"

WORKLOADS = ("population", "monitoring", "context-drive", "analytics")


@dataclass(frozen=True)
class FactorSpec:
    id: str
    action: str  # active | passive | either
    seconds: float
    phases: tuple[str, ...]
    far: float
    frr: float
    mu: float = 1.0
    robust: bool = True  # environmental_robustness capability

    @property
    def band(self) -> str:
        if self.seconds < 1.0:
            return "short"
        return "medium" if self.seconds <= 15.0 else "long"


@dataclass(frozen=True)
class WeightedCase:
    """One compose_weighted call: (far, frr, mu, tau, phi) rows and T."""

    rows: tuple[tuple[float, float, float, float, float], ...]
    threshold: float


@dataclass
class Deployment:
    workload: str
    factors: list[FactorSpec]
    strategy: str  # weighted | kofn | all | any
    weights: dict[str, float]
    threshold: float | None = None
    k: int | None = None
    scenario_factors: tuple[str, ...] = ()
    adversary_fraction: float = 0.0
    takeover: bool = False
    trust: dict[str, float] = field(default_factory=dict)
    initial: dict = field(default_factory=dict)
    changes: list[tuple[float, dict]] = field(default_factory=list)
    window: float = 150.0
    detection: float = 0.95
    check_interval: float | None = None
    false_alarm: float = 0.01
    t_basic: float | None = None
    monitoring_horizon: float | None = None
    monitor_factor: str | None = None
    # sizes of one round
    sim_trials: int = 0
    sim_workers: int = 1
    sim_via_cli: bool = False
    ttg_trials: int = 0
    decide_attempts: int = 0
    sweep_far: float = 0.0003
    sweep_frr: float = 0.02
    sweep_n: int = 80
    weighted_cases: list[WeightedCase] = field(default_factory=list)
    weighted_batch: int = 1  # passes over weighted_cases per timed sample
    mc_trials: int = 0
    # context-drive only: run the change moved past the horizon once per run
    moved_change_trials: int = 0

    @property
    def by_id(self) -> dict[str, FactorSpec]:
        return {f.id: f for f in self.factors}

    def scenario_dict(self, changes: list[tuple[float, dict]] | None = None) -> dict:
        changes = self.changes if changes is None else changes
        doc: dict = {
            "schema_version": 1,
            "name": self.workload,
            "adversary_fraction": self.adversary_fraction,
            "takeover": self.takeover,
            "factors": list(self.scenario_factors),
        }
        if self.trust:
            doc["trust"] = dict(self.trust)
        context: dict = {}
        if self.initial:
            context["initial"] = dict(self.initial)
        if changes:
            context["changes"] = [{"at": at, "set": dict(s)} for at, s in changes]
        if context:
            doc["context"] = context
        monitor = {"window": self.window, "detection_accuracy": self.detection,
                   "false_alarm": self.false_alarm}
        if self.check_interval is not None:
            monitor["check_interval"] = self.check_interval
        doc["monitor"] = monitor
        session: dict = {}
        if self.t_basic is not None:
            session["t_basic"] = self.t_basic
        if self.monitoring_horizon is not None:
            session["monitoring_horizon"] = self.monitoring_horizon
        if session:
            doc["session"] = session
        if self.monitor_factor is not None:
            doc["monitor_factor"] = self.monitor_factor
        doc["policy_path"] = "policy.yaml"
        doc["catalog_path"] = "catalog.yaml"
        return doc

    def catalog_dict(self) -> dict:
        yes = "yes"
        return {
            "schema_version": 1,
            "factors": [
                {
                    "id": f.id,
                    "name": f.id,
                    "category": ["biometric"],
                    "action": f.action,
                    "duration": {"band": f.band, "seconds": f.seconds},
                    "far": f.far,
                    "frr": f.frr,
                    "vendor_accuracy": f.mu,
                    "capabilities": {
                        "non_text_input": yes,
                        "short_contact_time": yes,
                        "stringent_usability": yes,
                        "environmental_robustness": yes if f.robust else "no",
                        "high_security_level": yes,
                    },
                    "phases": list(f.phases),
                }
                for f in self.factors
            ],
        }

    def policy_dict(self) -> dict:
        doc: dict = {"schema_version": 1, "strategy": self.strategy}
        if self.strategy == "weighted":
            doc["threshold"] = self.threshold
        if self.strategy == "kofn":
            doc["k"] = self.k
        doc["weights"] = dict(self.weights)
        return doc

    def write(self, directory: Path) -> dict[str, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "catalog": directory / "catalog.yaml",
            "policy": directory / "policy.yaml",
            "scenario": directory / "scenario.yaml",
        }
        paths["catalog"].write_text(yaml.safe_dump(self.catalog_dict(), sort_keys=False))
        paths["policy"].write_text(yaml.safe_dump(self.policy_dict(), sort_keys=False))
        paths["scenario"].write_text(yaml.safe_dump(self.scenario_dict(), sort_keys=False))
        return paths


def _jitter(rng: random.Random, value: float, spread: float = 0.1) -> float:
    return value * (1.0 + rng.uniform(-spread, spread))


def _population(rng: random.Random) -> Deployment:
    # 14 factors the policy weighs and the active phase expects; d14 is
    # never in the scenario, so every decision counts it as a failed check.
    # Durations are distinct so event order never rests on a tie.
    factors = []
    pre_seconds = (0.3, 0.6, 2.0, 4.0)
    act_seconds = (0.2, 0.4, 0.5, 0.7, 0.9, 1.5, 2.5, 3.0, 5.0)
    for i, sec in enumerate(pre_seconds + act_seconds + (7.0,)):
        pre = i < len(pre_seconds)
        factors.append(FactorSpec(
            id=f"d{i + 1:02d}",
            action="passive" if pre else "active",
            seconds=sec,
            phases=(PRE, ACT) if pre else (ACT,),
            far=_jitter(rng, 0.30),
            frr=_jitter(rng, 0.05),
            mu=rng.choice((1.0, 0.95, 0.9)),
        ))
    factors.append(FactorSpec("m_gait", "passive", 20.0, (MON,), 0.3, 0.02))
    weighted = [f.id for f in factors if f.id.startswith("d")]
    weights = {fid: round(rng.uniform(0.8, 1.2), 6) for fid in weighted}
    trust = {fid: 0.8 for fid in weighted[::5]}
    scores = [f.mu * trust.get(f.id, 1.0) * weights[f.id] for f in factors if f.id in weights]
    pre_total = sum(scores[: len(pre_seconds)])
    return Deployment(
        workload="population",
        factors=factors,
        strategy="weighted",
        weights=weights,
        threshold=round(0.615 * sum(scores), 6),
        scenario_factors=tuple(weighted[:-1]),
        adversary_fraction=0.25,
        trust=trust,
        t_basic=round(0.6 * pre_total, 6),
        monitor_factor="m_gait",
        sim_trials=1 << 21,
        sim_workers=2,
        sim_via_cli=True,
        ttg_trials=80,
        decide_attempts=600,
        weighted_batch=60,
        mc_trials=200_000,
    )


def _monitoring(rng: random.Random) -> Deployment:
    factors = [
        FactorSpec("token", "passive", 0.5, (PRE, ACT), _jitter(rng, 0.1), _jitter(rng, 0.02)),
        FactorSpec("pin_code", "active", 0.6, (ACT,), _jitter(rng, 0.1), _jitter(rng, 0.02)),
        FactorSpec("password", "active", 8.0, (ACT,), _jitter(rng, 0.1), _jitter(rng, 0.02)),
        FactorSpec("behavior", "passive", 60.0, (MON,), 0.3, 0.02),
    ]
    ids = ("token", "pin_code", "password")
    return Deployment(
        workload="monitoring",
        factors=factors,
        strategy="kofn",
        k=2,
        weights={fid: 1.0 for fid in ids},
        scenario_factors=ids,
        takeover=True,
        detection=_jitter(rng, 0.95, 0.01),
        check_interval=1.0,
        monitoring_horizon=240.0,
        t_basic=0.5,
        monitor_factor="behavior",
        sim_trials=1 << 18,
        ttg_trials=60,
        decide_attempts=1500,
        weighted_batch=250,
        mc_trials=400_000,
    )


def _context_drive(rng: random.Random) -> Deployment:
    # ids match the default context rules: gloves exclude fingerprint,
    # darkness excludes the non-robust facial and ocular factors
    factors = [
        FactorSpec("token", "passive", 0.5, (PRE, ACT, MON), _jitter(rng, 0.35), _jitter(rng, 0.12)),
        FactorSpec("voice", "either", 2.0, (PRE, ACT), _jitter(rng, 0.35), _jitter(rng, 0.12)),
        FactorSpec("facial", "either", 6.0, (PRE, ACT), _jitter(rng, 0.35), _jitter(rng, 0.12), robust=False),
        FactorSpec("pin_code", "active", 0.7, (ACT,), _jitter(rng, 0.35), _jitter(rng, 0.12)),
        FactorSpec("password", "active", 9.0, (ACT,), _jitter(rng, 0.35), _jitter(rng, 0.12)),
        FactorSpec("fingerprint", "either", 0.4, (ACT,), _jitter(rng, 0.35), _jitter(rng, 0.12)),
        FactorSpec("ocular", "active", 4.0, (ACT,), _jitter(rng, 0.35), _jitter(rng, 0.12), robust=False),
    ]
    ids = tuple(f.id for f in factors)
    weights = {fid: round(rng.uniform(0.9, 1.1), 6) for fid in ids}
    return Deployment(
        workload="context-drive",
        factors=factors,
        strategy="weighted",
        weights=weights,
        threshold=round(0.62 * sum(weights.values()), 6),
        scenario_factors=ids,
        adversary_fraction=0.3,
        trust={"voice": 0.8},
        changes=[(5.0, {"darkness": True, "gloves_worn": True})],
        false_alarm=0.1,
        t_basic=round(0.2 * sum(weights.values()), 6),
        sim_trials=2000,
        ttg_trials=600,
        decide_attempts=3000,
        weighted_batch=150,
        mc_trials=400_000,
        moved_change_trials=4000,
    )


def _analytics(rng: random.Random) -> Deployment:
    factors = [
        FactorSpec(f"a{i + 1}", "passive" if i < 2 else "active", sec,
                   (PRE, ACT) if i < 2 else (ACT,), _jitter(rng, 0.15), _jitter(rng, 0.1))
        for i, sec in enumerate((0.3, 0.6, 0.2, 0.4, 0.8, 2.0, 3.0))
    ]
    ids = tuple(f.id for f in factors)
    cases = []
    # brute-force checkable: heterogeneous rates and weights at n=16
    rows = tuple(
        (_jitter(rng, 0.2, 0.5), _jitter(rng, 0.05, 0.5), 1.0, 1.0, round(rng.uniform(0.5, 1.5), 6))
        for _ in range(16)
    )
    cases.append(WeightedCase(rows, round(0.6 * sum(r[4] for r in rows), 6)))
    # equal weights up to the n=25 cap: binomial tails
    for n in (24, 25):
        far, frr = _jitter(rng, 0.2), _jitter(rng, 0.05)
        cases.append(WeightedCase(tuple((far, frr, 1.0, 1.0, 1.0) for _ in range(n)), n // 2 + 0.5))
    return Deployment(
        workload="analytics",
        factors=factors,
        strategy="kofn",
        k=4,
        weights={fid: 1.0 for fid in ids},
        scenario_factors=ids,
        adversary_fraction=0.3,
        t_basic=0.5,
        sim_trials=1 << 18,
        ttg_trials=200,
        decide_attempts=1000,
        sweep_far=_jitter(rng, 0.0003),
        sweep_frr=_jitter(rng, 0.02),
        sweep_n=192,
        weighted_cases=cases,
        weighted_batch=2,
        mc_trials=2_000_000,
    )


def companion_cases(dep: Deployment) -> list[WeightedCase]:
    """compose_weighted over the deployment's own weighted factors."""
    trust = dep.trust
    rows = tuple(
        (f.far, f.frr, f.mu, trust.get(f.id, 1.0), dep.weights[f.id])
        for f in dep.factors
        if f.id in dep.weights
    )
    if dep.strategy == "weighted":
        threshold = dep.threshold
    else:
        # unit weights at k - 0.5 reproduce the counting rule
        threshold = (dep.k if dep.strategy == "kofn" else len(rows)) - 0.5
        rows = tuple((r[0], r[1], 1.0, 1.0, 1.0) for r in rows)
    return [WeightedCase(rows, threshold)]


def build(workload: str, seed: int) -> Deployment:
    rng = random.Random(f"{workload}:{seed}")
    dep = {
        "population": _population,
        "monitoring": _monitoring,
        "context-drive": _context_drive,
        "analytics": _analytics,
    }[workload](rng)
    if not dep.weighted_cases:
        dep.weighted_cases = companion_cases(dep)
    return dep
