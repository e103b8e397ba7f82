"""Trust levels for evidence sources and context-driven weight adaptation.

Evidence arrives from sources the device owns, knows, or has never seen;
tau expresses how much a source's word is worth. The default mapping only
fixes the ordering owned > familiar > social_friend > stranger; the
numeric levels and the familiarity promotion threshold are calibration
choices and can be overridden in config.

effective_weights adapts a policy's factor weights phi to the current
context: excluded factors drop to zero, degraded ones are penalized, and
the remainder is renormalized so the configured weight total (and with it
the meaning of the system threshold T) is preserved.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from . import configio
from .catalog import Factor, gate_factors
from .context import DEFAULT_CONTEXT_RULES, ContextRule, ContextState
from .errors import ConfigError, NoUsableFactorsError
from .fusion import Policy, StrategyKind, _require_weights


class SourceClass(Enum):
    OWNED = "owned"
    FAMILIAR = "familiar"
    SOCIAL_FRIEND = "social_friend"
    STRANGER = "stranger"


DEFAULT_TRUST_LEVELS: Mapping[SourceClass, float] = configio.FrozenMap({
    SourceClass.OWNED: 1.0,
    SourceClass.FAMILIAR: 0.8,
    SourceClass.SOCIAL_FRIEND: 0.6,
    SourceClass.STRANGER: 0.3,
})

PROMOTION_THRESHOLD = 10


@dataclass(frozen=True)
class TrustModel:
    """Numeric tau per source class plus the familiarity promotion rule."""

    levels: Mapping[SourceClass, float] = field(default_factory=lambda: DEFAULT_TRUST_LEVELS)
    promotion_threshold: int = PROMOTION_THRESHOLD

    def __post_init__(self):
        for cls in SourceClass:
            if cls not in self.levels:
                raise ConfigError(f"trust level missing for class '{cls.value}'", field=f"levels.{cls.value}")
            configio.unit_interval(self.levels[cls], "levels", cls.value)
        if self.promotion_threshold < 1:
            raise ConfigError("promotion_threshold must be at least 1", field="promotion_threshold")
        object.__setattr__(self, "levels", configio.FrozenMap(self.levels))


DEFAULT_TRUST_MODEL = TrustModel()


@dataclass(frozen=True)
class TrustAssignment:
    source_id: str
    source_class: SourceClass
    level: float
    interactions_seen: int = 0

    def __post_init__(self):
        configio.unit_interval(self.level, self.source_id, "level")
        if self.interactions_seen < 0:
            raise ConfigError("interactions_seen must be non-negative", field=f"{self.source_id}.interactions_seen")


def assign_trust(
    source_id: str,
    source_class: SourceClass,
    history: int = 0,
    model: TrustModel = DEFAULT_TRUST_MODEL,
) -> TrustAssignment:
    """Resolve a source's tau from its declared class and interaction history.

    history counts distinct successful sessions involving the source; a
    stranger seen in at least model.promotion_threshold of them is treated
    as familiar from then on.
    """
    effective = source_class
    if source_class is SourceClass.STRANGER and history >= model.promotion_threshold:
        effective = SourceClass.FAMILIAR
    return TrustAssignment(
        source_id=source_id,
        source_class=effective,
        level=model.levels[effective],
        interactions_seen=history,
    )


def parse_trust_model(sec: configio.Section) -> TrustModel:
    """Build a TrustModel from a config section (usable inline in scenarios)."""
    sec.reject_unknown({"levels", "promotion_threshold"})
    levels = dict(DEFAULT_TRUST_LEVELS)
    lsec = sec.section("levels")
    if lsec is not None:
        for key in lsec.data:
            cls = lsec.member(key, SourceClass, key)
            levels[cls] = lsec.require(key, float)
    threshold = sec.get("promotion_threshold", int, PROMOTION_THRESHOLD)
    with sec.checking():
        return TrustModel(levels=levels, promotion_threshold=threshold)


def load_trust_model(source: str) -> TrustModel:
    root = configio.load_root(source, "trust model")
    del root.data["schema_version"]  # what remains is the model's own section
    return parse_trust_model(root)


class TrustStore:
    """Append-only log of per-source session outcomes.

    Events are ("success" | "failure", source_id, timestamp) triples; the
    success count per source feeds the familiarity promotion. Backed by a
    JSONL file when given a path, otherwise in-memory. Single writer;
    compact() folds history into a snapshot record that replaces the log.

    A crash can cut the final line short. Loading skips such a torn line
    with a warning, and the next record() rewrites the log without it;
    loading itself never writes. Any other corrupt line is a ConfigError
    with its line number. compact() and that repair swap in a new file,
    so a crash leaves the old log or the new one, never a truncated one.
    """

    _EVENTS = ("success", "failure")

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        self._counts: dict[str, dict[str, int]] = {}
        self._mend: str | None = None  # the log's intact text, when its tail needs mending
        if self._path is not None and self._path.exists():
            self._replay(configio.read_text(self._path))

    def _replay(self, text: str) -> None:
        lines = text.split("\n")
        for number, raw in enumerate(lines, 1):
            if not raw.strip():
                continue
            try:
                entry = json.loads(raw)
                if "snapshot" in entry:
                    self._counts = {sid: dict(counts) for sid, counts in entry["snapshot"].items()}
                elif entry["event"] in self._EVENTS:
                    self._tally(entry["source_id"], entry["event"])
                else:
                    raise ValueError(f"unknown event {entry['event']!r}")
            except (ValueError, TypeError, KeyError, AttributeError) as exc:
                if number < len(lines) or not isinstance(exc, json.JSONDecodeError):
                    raise ConfigError(f"corrupt trust log entry: {exc}", field=str(self._path), line=number) from exc
                warnings.warn(f"{self._path}: skipped torn final line {number}", stacklevel=3)
                lines[-1] = ""
        # a last line without its newline would swallow the next append
        if text and not text.endswith("\n"):
            self._mend = "".join(line + "\n" for line in lines if line.strip())

    def _rewrite(self, text: str) -> None:
        tmp = self._path.with_name(self._path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._path)
        self._mend = None

    def _tally(self, source_id: str, event: str) -> None:
        per_source = self._counts.setdefault(source_id, {})
        per_source[event] = per_source.get(event, 0) + 1

    def record(self, source_id: str, event: str, timestamp: float) -> None:
        if event not in self._EVENTS:
            raise ConfigError(f"event must be one of {self._EVENTS}, got '{event}'", field="event")
        self._tally(source_id, event)
        if self._path is None:
            return
        line = json.dumps({"source_id": source_id, "event": event, "timestamp": timestamp}, sort_keys=True)
        if self._mend is not None:
            self._rewrite(self._mend + line + "\n")
        else:
            with self._path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    def successes(self, source_id: str) -> int:
        return self._counts.get(source_id, {}).get("success", 0)

    def compact(self) -> None:
        """Fold the event log into one snapshot line."""
        if self._path is None:
            return
        self._rewrite(json.dumps({"snapshot": self._counts}, sort_keys=True) + "\n")

    def assignment(
        self,
        source_id: str,
        source_class: SourceClass,
        model: TrustModel = DEFAULT_TRUST_MODEL,
    ) -> TrustAssignment:
        return assign_trust(source_id, source_class, self.successes(source_id), model)


# ---------------------------------------------------------------------------
# Context-adaptive weights

PENALTY_MULTIPLIER = 0.5


def effective_weights(
    policy: Policy,
    catalog: Sequence[Factor],
    ctx: ContextState,
    rules: Sequence[ContextRule] = DEFAULT_CONTEXT_RULES,
    penalty: float = PENALTY_MULTIPLIER,
) -> Mapping[str, float]:
    """Adapt policy weights to the context; total weight is conserved.

    Context-excluded factors get weight 0 and penalized ones are scaled by
    `penalty`; surviving weights are then renormalized so their sum equals
    the configured total, keeping the threshold T comparable across
    contexts. Weighted policies must assign a weight to every catalog
    factor; counting policies default each factor to weight 1. The last 64
    results are memoized by value (a -0.0 weight can come back as 0.0) and
    read-only; with_weights takes those that met the policy rule unchecked.
    """
    return _adapted_weights(policy, tuple(catalog), ctx, tuple(rules), penalty)


@configio.memoized(64)  # as many as a session machine keeps resolutions
def _adapted_weights(policy: Policy, catalog: tuple, ctx: ContextState, rules: tuple, penalty: float) -> Mapping[str, float]:
    configio.positive_fraction(penalty, "penalty")
    if policy.strategy.kind is StrategyKind.WEIGHTED:
        _require_weights((f.id for f in catalog), policy.weights)
        configured = {f.id: policy.weights[f.id] for f in catalog}
    else:
        configured = {f.id: 1.0 for f in catalog}

    gate = gate_factors(catalog, ctx, rules)
    if not gate.available:
        raise NoUsableFactorsError(f"context excludes every factor ({len(catalog)} configured)")

    adjusted = {
        f.id: configured[f.id] * (penalty if f.id in gate.penalized else 1.0)
        for f in gate.available
    }
    total_configured = math.fsum(configured.values())
    total_adjusted = math.fsum(adjusted.values())
    if total_configured > 0.0 and total_adjusted == 0.0:
        raise NoUsableFactorsError("every remaining factor carries zero weight")
    scale = total_configured / total_adjusted if total_adjusted > 0.0 else 0.0

    out = {f.id: 0.0 for f in catalog}
    for fid, phi in adjusted.items():
        out[fid] = phi * scale
    try:
        return policy.with_weights(out).weights
    except ConfigError:  # an overflowed weight, refused where with_weights is given it
        return configio.FrozenMap(out)
