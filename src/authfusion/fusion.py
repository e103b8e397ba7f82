"""Fusion policies and the grant/deny decision function.

Combines per-factor validation outcomes into one decision under a
configured strategy: pass-all, pass-any, k-of-n counting, or the weighted
threshold rule

    sum over i of (delta_i * mu_i * tau_i * phi_i) > T

where delta is the factor's binary outcome, mu the vendor accuracy from
the catalog, tau the trust in the evidence source, and phi the policy
weight. The comparison is strict: a score equal to T denies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from . import configio
from .catalog import Factor
from .errors import ConfigError, EvaluationError


class StrategyKind(Enum):
    ALL = "all"
    ANY = "any"
    KOFN = "kofn"
    WEIGHTED = "weighted"


@dataclass(frozen=True)
class Strategy:
    """Fusion rule: which combination of factor outcomes grants access."""

    kind: StrategyKind
    k: int | None = None
    threshold: float | None = None

    def __post_init__(self):
        if self.kind is StrategyKind.KOFN:
            if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
                raise ConfigError("k must be a positive integer", field="strategy.k")
        elif self.k is not None:
            raise ConfigError(f"k is only meaningful for kofn, not {self.kind.value}", field="strategy.k")
        if self.kind is StrategyKind.WEIGHTED:
            if self.threshold is None:
                raise ConfigError("weighted needs a threshold", field="strategy.threshold")
            configio.non_negative(self.threshold, "strategy", "threshold")
        elif self.threshold is not None:
            raise ConfigError(
                f"threshold is only meaningful for weighted, not {self.kind.value}",
                field="strategy.threshold",
            )

    @classmethod
    def all_checks(cls) -> "Strategy":
        return cls(StrategyKind.ALL)

    @classmethod
    def any_check(cls) -> "Strategy":
        return cls(StrategyKind.ANY)

    @classmethod
    def k_of_n(cls, k: int) -> "Strategy":
        return cls(StrategyKind.KOFN, k=k)

    @classmethod
    def weighted(cls, threshold: float) -> "Strategy":
        return cls(StrategyKind.WEIGHTED, threshold=float(threshold))

    def passes_needed(self, n: int) -> int:
        """The pass count a counting strategy over n factors grants at: all
        n, any one, or k. Every counting rule grants iff passes >= this."""
        return {StrategyKind.ALL: n, StrategyKind.ANY: 1}.get(self.kind, self.k)


@dataclass(frozen=True)
class Policy:
    """Strategy plus per-factor weights.

    weights carries phi for every factor the policy may score; counting
    strategies ignore it. When use_likelihood is set and a record carries
    a likelihood, the weighted score uses that value in place of the
    binary delta (records without one fall back to delta).
    """

    strategy: Strategy
    weights: Mapping[str, float] = field(default_factory=dict)
    use_likelihood: bool = False

    def __post_init__(self):
        for fid, phi in self.weights.items():
            if not isinstance(phi, (int, float)) or isinstance(phi, bool):
                raise ConfigError("weight must be a number", field=f"weights.{fid}")
            configio.non_negative(phi, "weights", fid)
        configio.finite_sum(self.weights.values(), "weights")
        object.__setattr__(self, "weights", configio.FrozenMap(self.weights))

    def with_weights(self, weights: Mapping[str, float]) -> "Policy":
        return Policy(self.strategy, dict(weights), self.use_likelihood)


@dataclass(frozen=True)
class EvidenceRecord:
    """One factor's validation outcome within a session.

    decision is the binary outcome delta; likelihood optionally preserves
    the continuous match score a vendor collapsed into that bit; trust is
    tau for the evidence source; observed_at is seconds from session start.
    """

    factor_id: str
    decision: int
    likelihood: float | None = None
    trust: float = 1.0
    observed_at: float = 0.0

    def __post_init__(self):
        if self.decision not in (0, 1):
            raise ConfigError("decision must be 0 or 1", field=f"{self.factor_id}.decision")
        object.__setattr__(self, "decision", int(self.decision))
        if self.likelihood is not None:
            configio.unit_interval(self.likelihood, self.factor_id, "likelihood")
        configio.unit_interval(self.trust, self.factor_id, "trust")
        if not math.isfinite(self.observed_at):
            raise ConfigError("observed_at must be finite", field=f"{self.factor_id}.observed_at")


@dataclass(frozen=True)
class Decision:
    """Outcome of one policy evaluation.

    score is None for counting strategies. contributing pairs each factor
    with its additive effect on the aggregate: delta for counting rules,
    delta*mu*tau*phi for the weighted rule.
    """

    granted: bool
    score: float | None
    passed_count: int
    contributing: tuple[tuple[str, float], ...]


def decide(records: Sequence[EvidenceRecord], policy: Policy, catalog: Sequence[Factor]) -> Decision:
    """Evaluate evidence against a policy. Pure: no state, no randomness.

    Unknown or duplicated factor ids raise ConfigError; an empty record
    list raises EvaluationError so callers can distinguish "no evidence"
    from an actual deny. A k-of-n policy with fewer records than k denies
    (absent factors count as failed checks, never as passes).
    """
    if not records:
        raise EvaluationError("no evidence records to evaluate")
    by_id = {f.id: f for f in catalog}
    seen: set[str] = set()
    for rec in records:
        if rec.factor_id not in by_id:
            raise ConfigError(f"evidence references unknown factor '{rec.factor_id}'", field=rec.factor_id)
        if rec.factor_id in seen:
            raise ConfigError(f"duplicate evidence for factor '{rec.factor_id}'", field=rec.factor_id)
        seen.add(rec.factor_id)

    passed = sum(rec.decision for rec in records)
    if policy.strategy.kind is StrategyKind.WEIGHTED:
        contributions = []
        for rec in records:
            if rec.factor_id not in policy.weights:
                raise ConfigError(f"policy assigns no weight to factor '{rec.factor_id}'", field=rec.factor_id)
            delta = float(rec.decision)
            if policy.use_likelihood and rec.likelihood is not None:
                delta = rec.likelihood
            mu = by_id[rec.factor_id].vendor_accuracy
            contributions.append((rec.factor_id, delta * mu * rec.trust * policy.weights[rec.factor_id]))
        score = math.fsum(c for _, c in contributions)
        return Decision(
            granted=score > policy.strategy.threshold,
            score=score,
            passed_count=passed,
            contributing=tuple(contributions),
        )

    contributions = [(rec.factor_id, float(rec.decision)) for rec in records]
    granted = passed >= policy.strategy.passes_needed(len(records))
    return Decision(granted=granted, score=None, passed_count=passed, contributing=tuple(contributions))


_REL_TOL = 1e-12


def equivalent_kofn(policy: Policy, n: int, mu: float = 1.0, tau: float = 1.0) -> int | None:
    """Map a weighted policy onto a counting rule, when one exists.

    If every factor's product mu*tau*phi is the same value w, the score is
    w times the pass count, so "score > T" is "at least k passes" for
    k = smallest integer with k*w > T. Returns that k, or None when the
    products differ, exceed no k within n, or are all zero. mu and tau
    default to 1 and apply uniformly; heterogeneous vendor accuracy or
    trust breaks the reduction by definition. They follow compose_weighted's
    rules: mu in (0, 1], tau in [0, 1].
    """
    if policy.strategy.kind is not StrategyKind.WEIGHTED:
        raise ConfigError("equivalent_kofn requires a weighted-threshold policy", field="strategy")
    if n < 1:
        raise ConfigError("n must be at least 1", field="n")
    configio.positive_fraction(mu, "mu")
    configio.unit_interval(tau, "tau")
    products = [mu * tau * phi for phi in policy.weights.values()]
    if not products:
        return None
    w = products[0]
    for p in products[1:]:
        if not math.isclose(p, w, rel_tol=_REL_TOL, abs_tol=_REL_TOL):
            return None
    if w <= 0:
        return None
    threshold = policy.strategy.threshold
    k = math.floor(threshold / w) + 1
    # guard the floor against floating-point division drift
    while k * w <= threshold:
        k += 1
    while k > 1 and (k - 1) * w > threshold:
        k -= 1
    return k if k <= n else None


# ---------------------------------------------------------------------------
# Config file loading

_STRATEGY_FIELDS = {"schema_version", "strategy", "k", "threshold", "weights", "use_likelihood"}


def load_policy(source: str) -> Policy:
    """Parse a policy file (YAML text); errors carry field paths and lines."""
    data, lines = configio.load_document(source, what="policy")
    root = configio.Section(data, lines, what="policy")
    configio.check_schema_version(root)
    root.reject_unknown(_STRATEGY_FIELDS)
    tag = root.require("strategy", str)
    try:
        kind = StrategyKind(tag)
    except ValueError:
        valid = ", ".join(s.value for s in StrategyKind)
        raise root.error("strategy", f"'{tag}' is not one of: {valid}") from None

    k = root.require("k", int) if kind is StrategyKind.KOFN else root.get("k", int)
    weighted = kind is StrategyKind.WEIGHTED
    threshold = root.require("threshold", float) if weighted else root.get("threshold", float)
    weights: dict[str, float] = {}
    wsec = root.section("weights", required=weighted)
    if wsec is not None:
        weights = {fid: float(wsec.require(fid, float)) for fid in wsec.data}
        if not weights:
            raise root.error("weights", "weights map must not be empty")
    with root.checking():
        strategy = Strategy(kind, k=k, threshold=None if threshold is None else float(threshold))
        return Policy(strategy, weights, use_likelihood=bool(root.get("use_likelihood", bool, False)))


def load_evidence(source: str) -> list[EvidenceRecord]:
    """Parse an evidence file (YAML text) into records, validating ranges."""
    data, lines = configio.load_document(source, what="evidence")
    root = configio.Section(data, lines, what="evidence")
    configio.check_schema_version(root)
    root.reject_unknown({"schema_version", "records"})
    records = []
    for sec in root.items("records"):
        sec.reject_unknown({"factor_id", "decision", "likelihood", "trust", "observed_at"})
        likelihood = sec.get("likelihood", float)
        with sec.checking():
            records.append(
                EvidenceRecord(
                    factor_id=sec.require("factor_id", str),
                    decision=sec.require("decision"),
                    likelihood=None if likelihood is None else float(likelihood),
                    trust=float(sec.get("trust", float, 1.0)),
                    observed_at=float(sec.get("observed_at", float, 0.0)),
                )
            )
    if not records:
        raise root.error("records", "evidence declares no records")
    return records
