"""Session phases and environmental context.

A ContextState is an immutable snapshot of the conditions under which an
authentication attempt happens (weather, lighting, what the user is
wearing) plus the phase the session is in. Context rules translate those
conditions into factor availability: a rule can knock a factor out
entirely or mark it for weight reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

from .configio import FrozenMap
from .errors import ConfigError


class SessionPhase(Enum):
    PRE_AUTHENTICATION = "pre_authentication"
    ACTIVE_AUTHENTICATION = "active_authentication"
    CONTINUOUS_MONITORING = "continuous_monitoring"


# Conditions every context snapshot declares. The set is open: scenarios
# may add their own named flags, but these are always present.
DEFAULT_CONDITIONS: Mapping[str, Any] = FrozenMap(
    {
        "gloves_worn": False,
        "darkness": False,
        "precipitation": False,
        "noise_level": "low",
        "setting": "indoor",
        "time_of_day": "day",
    }
)


@dataclass(frozen=True)
class ContextState:
    """Immutable context snapshot passed into gating and decisions.

    Equal snapshots compare and hash equal, and so do their conditions,
    which a session machine keys its resolved factor sets on."""

    conditions: Mapping[str, Any] = field(default_factory=dict)
    phase: SessionPhase | None = None

    def __post_init__(self):
        # another snapshot's conditions already hold the defaults: keep
        # them, and with them their computed hash
        held = self.conditions
        if not (isinstance(held, FrozenMap) and held.keys() >= DEFAULT_CONDITIONS.keys()):
            object.__setattr__(self, "conditions", FrozenMap({**DEFAULT_CONDITIONS, **held}))

    @classmethod
    def nominal(cls, phase: SessionPhase | None = None, **overrides: Any) -> "ContextState":
        return cls(conditions=overrides, phase=phase)

    def condition(self, name: str) -> Any:
        """Look up a condition; a missing one means the context is partial."""
        try:
            return self.conditions[name]
        except KeyError:
            raise ConfigError(f"context does not declare condition '{name}'", field=name) from None

    def with_updates(self, updates: Mapping[str, Any]) -> "ContextState":
        conditions = FrozenMap({**self.conditions, **updates}) if updates else self.conditions
        return ContextState(conditions=conditions, phase=self.phase)


class RuleEffect(Enum):
    EXCLUDE = "exclude"
    PENALIZE = "penalize"
    # Consult a tristate capability flag: "no" excludes, "partial" penalizes.
    BY_CAPABILITY = "by_capability"


@dataclass(frozen=True)
class ContextRule:
    """When `condition == value`, apply `effect` to the listed factors.

    With effect=BY_CAPABILITY, `capability` names the tristate flag to
    consult for each factor in scope instead of acting unconditionally.
    An empty `applies_to` puts every factor in scope.
    """

    condition: str
    value: Any = True
    effect: RuleEffect = RuleEffect.EXCLUDE
    capability: str | None = None
    applies_to: tuple[str, ...] = ()

    def __post_init__(self):
        if self.effect is RuleEffect.BY_CAPABILITY and not self.capability:
            raise ConfigError("by_capability rule needs a capability name", field=self.condition)
        if self.effect is not RuleEffect.BY_CAPABILITY and self.capability:
            raise ConfigError("capability only applies to by_capability rules", field=self.condition)

    def triggered(self, ctx: ContextState) -> bool:
        return ctx.condition(self.condition) == self.value


# Shipped defaults. Gloves physically block contact scanners; darkness and
# precipitation defeat camera-based recognition unless the factor is rated
# robust; loud environments degrade audio capture.
DEFAULT_CONTEXT_RULES: tuple[ContextRule, ...] = (
    ContextRule(
        condition="gloves_worn",
        effect=RuleEffect.EXCLUDE,
        applies_to=("fingerprint", "hand_geometry", "vein_recognition"),
    ),
    ContextRule(
        condition="darkness",
        effect=RuleEffect.BY_CAPABILITY,
        capability="environmental_robustness",
        applies_to=("facial", "ocular"),
    ),
    ContextRule(
        condition="precipitation",
        effect=RuleEffect.BY_CAPABILITY,
        capability="environmental_robustness",
        applies_to=("facial", "ocular"),
    ),
    ContextRule(
        condition="noise_level",
        value="high",
        effect=RuleEffect.PENALIZE,
        applies_to=("voice",),
    ),
)
