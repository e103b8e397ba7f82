"""Authentication factor catalog.

Models each authentication method as a statistical factor: what kind of
secret or trait it checks, whether the user has to do anything, how long
it takes, its false-acceptance and false-rejection rates, and a set of
capability flags used by context gating. Ships a built-in catalog of 14
factors covering the common device-authentication methods, each defaulted
to FAR=0.03% and FRR=2% so composite results are directly comparable;
override per factor in a catalog file for real deployments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Mapping, Sequence

import yaml

from . import configio
from .context import DEFAULT_CONTEXT_RULES, ContextRule, ContextState, RuleEffect, SessionPhase
from .errors import ConfigError

SCHEMA_VERSION = 1


class FactorCategory(Enum):
    KNOWLEDGE = "knowledge"
    OWNERSHIP = "ownership"
    BIOMETRIC = "biometric"
    BEHAVIOR = "behavior"

    @property
    def code(self) -> str:
        return _CATEGORY_CODES[self]


_CATEGORY_CODES = {
    FactorCategory.KNOWLEDGE: "K",
    FactorCategory.OWNERSHIP: "O",
    FactorCategory.BIOMETRIC: "BI",
    FactorCategory.BEHAVIOR: "BE",
}
_CATEGORY_ORDER = list(FactorCategory)


class ActionMode(Enum):
    ACTIVE = "active"
    PASSIVE = "passive"
    EITHER = "either"

    @property
    def code(self) -> str:
        return {"active": "A", "passive": "P", "either": "A/P"}[self.value]


class DurationBand(Enum):
    SHORT = "short"    # under 1 s
    MEDIUM = "medium"  # 1-15 s
    LONG = "long"      # over 15 s

    @property
    def code(self) -> str:
        return self.value[0].upper()


# (lower, upper, lower_inclusive, upper_inclusive) in seconds
_BAND_BOUNDS = {
    DurationBand.SHORT: (0.0, 1.0, False, False),
    DurationBand.MEDIUM: (1.0, 15.0, True, True),
    DurationBand.LONG: (15.0, float("inf"), False, False),
}

# Class midpoints/floors used by the simulator's clock.
REPRESENTATIVE_SECONDS = {
    DurationBand.SHORT: 0.5,
    DurationBand.MEDIUM: 8.0,
    DurationBand.LONG: 60.0,
}


@dataclass(frozen=True)
class DurationClass:
    """Duration class plus a representative completion time in seconds."""

    band: DurationBand
    seconds: float

    def __post_init__(self):
        lo, hi, lo_inc, hi_inc = _BAND_BOUNDS[self.band]
        ok = (self.seconds >= lo if lo_inc else self.seconds > lo) and (
            self.seconds <= hi if hi_inc else self.seconds < hi
        )
        if not ok:
            raise ConfigError(
                f"representative duration {self.seconds}s lies outside the "
                f"'{self.band.value}' class",
                field="duration.seconds",
            )

    @classmethod
    def short(cls) -> "DurationClass":
        return cls(DurationBand.SHORT, REPRESENTATIVE_SECONDS[DurationBand.SHORT])

    @classmethod
    def medium(cls) -> "DurationClass":
        return cls(DurationBand.MEDIUM, REPRESENTATIVE_SECONDS[DurationBand.MEDIUM])

    @classmethod
    def long(cls, seconds: float | None = None) -> "DurationClass":
        return cls(DurationBand.LONG, REPRESENTATIVE_SECONDS[DurationBand.LONG] if seconds is None else seconds)


class Tristate(Enum):
    YES = "yes"
    NO = "no"
    PARTIAL = "partial"


_CAPABILITY_FIELDS = (
    "non_text_input",
    "short_contact_time",
    "stringent_usability",
    "environmental_robustness",
    "high_security_level",
)


@dataclass(frozen=True)
class CapabilityFlags:
    """How well a method copes with each deployment constraint."""

    non_text_input: Tristate
    short_contact_time: Tristate
    stringent_usability: Tristate
    environmental_robustness: Tristate
    high_security_level: Tristate

    def flag(self, name: str) -> Tristate:
        if name not in _CAPABILITY_FIELDS:
            raise ConfigError(f"unknown capability flag '{name}'", field=name)
        return getattr(self, name)

    @classmethod
    def all_yes(cls) -> "CapabilityFlags":
        return cls(*(Tristate.YES,) * 5)


@dataclass(frozen=True)
class Factor:
    """One authentication method, modeled statistically.

    far/frr are the per-attempt error rates; vendor_accuracy is the
    device-reported reliability multiplier applied in weighted decisions.
    phases lists the session phases during which the factor can produce
    evidence.
    """

    id: str
    name: str
    category: frozenset[FactorCategory]
    action: ActionMode
    duration: DurationClass
    far: float
    frr: float
    vendor_accuracy: float = 1.0
    capabilities: CapabilityFlags = field(default_factory=CapabilityFlags.all_yes)
    phases: frozenset[SessionPhase] = frozenset({SessionPhase.ACTIVE_AUTHENTICATION})

    def __post_init__(self):
        object.__setattr__(self, "category", frozenset(self.category))
        object.__setattr__(self, "phases", frozenset(self.phases))
        if not self.id:
            raise ConfigError("factor id must be non-empty", field="id")
        if not self.category:
            raise ConfigError("category set must be non-empty", field=f"{self.id}.category")
        configio.unit_interval(self.far, self.id, "far")
        configio.unit_interval(self.frr, self.id, "frr")
        configio.positive_fraction(self.vendor_accuracy, self.id, "vendor_accuracy")
        if not self.phases:
            raise ConfigError("phases must be non-empty", field=f"{self.id}.phases")
        if self.action is ActionMode.PASSIVE and not self.phases & {
            SessionPhase.PRE_AUTHENTICATION,
            SessionPhase.CONTINUOUS_MONITORING,
        }:
            raise ConfigError(
                "passive-only factors must be usable in the pre-authentication "
                "or continuous-monitoring phase",
                field=f"{self.id}.phases",
            )

    def __hash__(self) -> int:
        # equal factors share an id, and a str keeps its hash: one lookup
        # where the generated hash would walk all ten fields every time
        return hash(self.id)

    @property
    def category_code(self) -> str:
        return "/".join(c.code for c in _CATEGORY_ORDER if c in self.category)


# Capability rows shared by families of methods. The values mirror the
# usual trade-offs: tokens and PINs are robust but weak alone, contact
# scanners and cameras are strong but environment-sensitive, and so on.
CAPS_TOKEN = CapabilityFlags(Tristate.YES, Tristate.YES, Tristate.NO, Tristate.YES, Tristate.NO)
CAPS_PIN = CapabilityFlags(Tristate.NO, Tristate.YES, Tristate.NO, Tristate.YES, Tristate.NO)
CAPS_CONTACT_SCANNER = CapabilityFlags(Tristate.YES, Tristate.YES, Tristate.PARTIAL, Tristate.NO, Tristate.YES)
CAPS_CAMERA = CapabilityFlags(Tristate.YES, Tristate.NO, Tristate.YES, Tristate.NO, Tristate.YES)
CAPS_AUDIO = CapabilityFlags(Tristate.YES, Tristate.NO, Tristate.PARTIAL, Tristate.YES, Tristate.PARTIAL)
CAPS_WEARABLE = CapabilityFlags(Tristate.YES, Tristate.YES, Tristate.NO, Tristate.NO, Tristate.YES)
CAPS_BEHAVIOR = CapabilityFlags(Tristate.YES, Tristate.NO, Tristate.YES, Tristate.NO, Tristate.YES)

# Illustrative per-factor rates; every default factor uses the same pair so
# that composed results for n factors are directly comparable.
DEFAULT_FAR = 0.0003
DEFAULT_FRR = 0.02

_PRE = SessionPhase.PRE_AUTHENTICATION
_ACT = SessionPhase.ACTIVE_AUTHENTICATION
_MON = SessionPhase.CONTINUOUS_MONITORING

_K = FactorCategory.KNOWLEDGE
_O = FactorCategory.OWNERSHIP
_BI = FactorCategory.BIOMETRIC
_BE = FactorCategory.BEHAVIOR


def _factor(fid, name, cats, action, duration, caps, phases):
    return Factor(
        id=fid,
        name=name,
        category=frozenset(cats),
        action=action,
        duration=duration,
        far=DEFAULT_FAR,
        frr=DEFAULT_FRR,
        vendor_accuracy=1.0,
        capabilities=caps,
        phases=frozenset(phases),
    )


DEFAULT_CATALOG: tuple[Factor, ...] = (
    _factor("pin_code", "PIN code", {_K}, ActionMode.ACTIVE, DurationClass.short(), CAPS_PIN, {_ACT}),
    _factor("password", "Password", {_K}, ActionMode.ACTIVE, DurationClass.medium(), CAPS_PIN, {_ACT}),
    _factor("token", "Token", {_O}, ActionMode.PASSIVE, DurationClass.short(), CAPS_TOKEN, {_PRE, _ACT, _MON}),
    _factor("voice", "Voice", {_BI, _BE}, ActionMode.EITHER, DurationClass.medium(), CAPS_AUDIO, {_PRE, _ACT}),
    _factor("facial", "Facial", {_BI}, ActionMode.EITHER, DurationClass.medium(), CAPS_CAMERA, {_PRE, _ACT}),
    _factor("ocular", "Ocular-based", {_BI}, ActionMode.ACTIVE, DurationClass.medium(), CAPS_CONTACT_SCANNER, {_ACT}),
    _factor("fingerprint", "Fingerprint", {_BI}, ActionMode.EITHER, DurationClass.short(), CAPS_CONTACT_SCANNER, {_ACT}),
    _factor("hand_geometry", "Hand geometry", {_BI}, ActionMode.EITHER, DurationClass.short(), CAPS_CONTACT_SCANNER, {_ACT}),
    _factor("geo_location", "Geographical location", {_BE}, ActionMode.PASSIVE, DurationClass.long(), CAPS_WEARABLE, {_PRE, _MON}),
    _factor("vein_recognition", "Vein recognition", {_BI}, ActionMode.EITHER, DurationClass.short(), CAPS_CONTACT_SCANNER, {_ACT}),
    _factor("thermal_image", "Thermal image", {_BI, _BE}, ActionMode.PASSIVE, DurationClass.medium(), CAPS_CAMERA, {_PRE, _ACT}),
    _factor("behavior_patterns", "Behavior patterns", {_BE}, ActionMode.PASSIVE, DurationClass.long(), CAPS_BEHAVIOR, {_PRE, _MON}),
    _factor("weight", "Weight", {_BI}, ActionMode.PASSIVE, DurationClass.short(), CAPS_WEARABLE, {_ACT, _MON}),
    # Sensor sources class the capture as anywhere from sub-second to a
    # full rhythm strip; we encode the conservative long class at 30 s.
    _factor("ecg", "ECG recognition", {_BI, _BE}, ActionMode.PASSIVE, DurationClass.long(30.0), CAPS_WEARABLE, {_PRE, _MON}),
)


def default_catalog() -> list[Factor]:
    """A fresh list view of the built-in catalog."""
    return list(DEFAULT_CATALOG)


# ---------------------------------------------------------------------------
# Catalog file parsing / serialization


def load_catalog(source: str) -> list[Factor]:
    """Parse a catalog file (YAML text) into validated factors.

    Any schema violation raises ConfigError naming the offending field and
    line; nothing is returned partially.
    """
    data, lines = configio.load_document(source, what="catalog")
    root = configio.Section(data, lines, what="catalog")
    configio.check_schema_version(root)
    root.reject_unknown({"schema_version", "factors"})
    factors = [_parse_factor(entry) for entry in root.items("factors")]
    if not factors:
        raise root.error("factors", "catalog declares no factors")
    with root.checking():
        catalog_index(factors)
    return factors


_FACTOR_FIELDS = {
    "id", "name", "category", "action", "duration", "far", "frr",
    "vendor_accuracy", "capabilities", "phases",
}


def _parse_factor(sec: configio.Section) -> Factor:
    sec.reject_unknown(_FACTOR_FIELDS)
    fid = sec.require("id", str)
    category = _parse_enum_set(sec, "category", FactorCategory)
    action = _parse_enum(sec, "action", ActionMode)
    duration = _parse_duration(sec)
    phases = _parse_phases(sec, action)
    caps = _parse_capabilities(sec.section("capabilities"))
    with sec.checking():
        return Factor(
            id=fid,
            name=sec.get("name", str, fid),
            category=category,
            action=action,
            duration=duration,
            far=float(sec.get("far", float, DEFAULT_FAR)),
            frr=float(sec.get("frr", float, DEFAULT_FRR)),
            vendor_accuracy=float(sec.get("vendor_accuracy", float, 1.0)),
            capabilities=caps,
            phases=phases,
        )


def _parse_enum(sec: configio.Section, key: str, enum_cls) -> Any:
    raw = sec.require(key, str)
    try:
        return enum_cls(raw)
    except ValueError:
        valid = ", ".join(e.value for e in enum_cls)
        raise sec.error(key, f"'{raw}' is not one of: {valid}") from None


def _parse_enum_set(sec: configio.Section, key: str, enum_cls) -> frozenset:
    raw = sec.require(key, list)
    out = set()
    for i, item in enumerate(raw):
        if not isinstance(item, str):
            raise sec.error(key, f"entry {i} must be a string")
        try:
            out.add(enum_cls(item))
        except ValueError:
            valid = ", ".join(e.value for e in enum_cls)
            raise sec.error(key, f"'{item}' is not one of: {valid}") from None
    if not out:
        raise sec.error(key, "must list at least one entry")
    return frozenset(out)


def _parse_duration(sec: configio.Section) -> DurationClass:
    raw = sec.require("duration")
    if isinstance(raw, str):
        try:
            band = DurationBand(raw)
        except ValueError:
            raise sec.error("duration", f"'{raw}' is not one of: short, medium, long") from None
        return DurationClass(band, REPRESENTATIVE_SECONDS[band])
    dsec = sec.section("duration")
    dsec.reject_unknown({"band", "seconds"})
    band = _parse_enum(dsec, "band", DurationBand)
    seconds = float(dsec.get("seconds", float, REPRESENTATIVE_SECONDS[band]))
    with dsec.checking():
        return DurationClass(band, seconds)


def _parse_phases(sec: configio.Section, action: ActionMode) -> frozenset[SessionPhase]:
    if "phases" not in sec.data:
        if action is ActionMode.PASSIVE:
            return frozenset({_PRE, _ACT})
        return frozenset({_ACT})
    return _parse_enum_set(sec, "phases", SessionPhase)


def _parse_tristate(sec: configio.Section, key: str) -> Tristate:
    raw = sec.data[key]
    if isinstance(raw, bool):  # YAML reads bare yes/no as booleans
        return Tristate.YES if raw else Tristate.NO
    if isinstance(raw, str):
        try:
            return Tristate(raw)
        except ValueError:
            pass
    raise sec.error(key, f"'{raw}' is not one of: yes, no, partial")


def _parse_capabilities(sec: configio.Section | None) -> CapabilityFlags:
    if sec is None:
        return CapabilityFlags.all_yes()
    sec.reject_unknown(set(_CAPABILITY_FIELDS))
    values = {}
    for name in _CAPABILITY_FIELDS:
        if name not in sec.data:
            raise sec.error(None, f"missing capability flag '{name}'")
        values[name] = _parse_tristate(sec, name)
    return CapabilityFlags(**values)


def catalog_to_yaml(factors: Sequence[Factor]) -> str:
    """Serialize a catalog to the documented file format."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "factors": [
            {
                "id": f.id,
                "name": f.name,
                "category": sorted(c.value for c in f.category),
                "action": f.action.value,
                "duration": {"band": f.duration.band.value, "seconds": f.duration.seconds},
                "far": f.far,
                "frr": f.frr,
                "vendor_accuracy": f.vendor_accuracy,
                "capabilities": {name: f.capabilities.flag(name).value for name in _CAPABILITY_FIELDS},
                "phases": sorted(p.value for p in f.phases),
            }
            for f in factors
        ],
    }
    return yaml.safe_dump(doc, sort_keys=False)


def catalog_index(factors: Iterable[Factor]) -> dict[str, Factor]:
    out: dict[str, Factor] = {}
    for i, f in enumerate(factors):
        if f.id in out:
            raise ConfigError(f"duplicate factor id '{f.id}'", field=f"factors[{i}].id")
        out[f.id] = f
    return out


# ---------------------------------------------------------------------------
# Context gating

# Gate results kept by value, least recently used dropped first: the
# distinct (catalog, context, rules) a process gates are few.
GATE_MEMO_SIZE = 256


@dataclass(frozen=True)
class GateResult:
    """Outcome of applying context rules and phase membership."""

    available: tuple[Factor, ...]
    excluded: frozenset[str]
    penalized: frozenset[str]


def gate_factors(
    catalog: Sequence[Factor],
    ctx: ContextState,
    rules: Sequence[ContextRule] = DEFAULT_CONTEXT_RULES,
) -> GateResult:
    """Apply phase membership and context rules to a catalog.

    Excluded factors are unusable in this context; penalized ones stay
    available but are flagged for weight reduction. The result is a pure
    function of the values passed, kept for the last GATE_MEMO_SIZE
    distinct ones; a context that cannot be hashed (a list-valued
    condition) is gated afresh.
    """
    return _gate(tuple(catalog), ctx, tuple(rules))


@configio.memoized(GATE_MEMO_SIZE)
def _gate(catalog: tuple[Factor, ...], ctx: ContextState, rules: tuple[ContextRule, ...]) -> GateResult:
    excluded: set[str] = set()
    penalized: set[str] = set()
    ids = {f.id for f in catalog}
    for rule in rules:
        if not rule.triggered(ctx):
            continue
        in_scope = [f for f in catalog if not rule.applies_to or f.id in rule.applies_to]
        for f in in_scope:
            if rule.effect is RuleEffect.EXCLUDE:
                excluded.add(f.id)
            elif rule.effect is RuleEffect.PENALIZE:
                penalized.add(f.id)
            else:
                flag = f.capabilities.flag(rule.capability)
                if flag is Tristate.NO:
                    excluded.add(f.id)
                elif flag is Tristate.PARTIAL:
                    penalized.add(f.id)
    if ctx.phase is not None:
        for f in catalog:
            if ctx.phase not in f.phases:
                excluded.add(f.id)
    available = tuple(f for f in catalog if f.id not in excluded)
    return GateResult(
        available=available,
        excluded=frozenset(excluded & ids),
        penalized=frozenset((penalized & ids) - excluded),
    )


def available_factors(
    catalog: Sequence[Factor],
    ctx: ContextState,
    rules: Sequence[ContextRule] = DEFAULT_CONTEXT_RULES,
) -> list[Factor]:
    """Subset of the catalog compatible with the context; order preserved."""
    return list(gate_factors(catalog, ctx, rules).available)
