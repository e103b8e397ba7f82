import random

import pytest

from authfusion import catalog
from authfusion.catalog import (
    ActionMode,
    DEFAULT_CATALOG,
    DurationBand,
    DurationClass,
    Factor,
    FactorCategory,
    Tristate,
    catalog_index,
    catalog_to_yaml,
    gate_factors,
    load_catalog,
)
from authfusion.context import DEFAULT_CONTEXT_RULES, ContextRule, ContextState, SessionPhase
from authfusion.errors import ConfigError


def test_default_catalog_shape():
    assert len(DEFAULT_CATALOG) == 14
    ids = [f.id for f in DEFAULT_CATALOG]
    assert len(set(ids)) == 14
    for f in DEFAULT_CATALOG:
        assert 0.0 <= f.far <= 1.0
        assert 0.0 <= f.frr <= 1.0
        assert f.phases


def test_default_catalog_known_rows():
    index = catalog_index(DEFAULT_CATALOG)
    vein = index["vein_recognition"]
    assert vein.name == "Vein recognition"
    assert vein.category_code == "BI"
    assert vein.action.code == "A/P"
    assert vein.duration.band is DurationBand.SHORT

    voice = index["voice"]
    assert voice.category == frozenset({FactorCategory.BIOMETRIC, FactorCategory.BEHAVIOR})
    assert voice.category_code == "BI/BE"

    pin = index["pin_code"]
    assert pin.action is ActionMode.ACTIVE
    assert SessionPhase.ACTIVE_AUTHENTICATION in pin.phases
    assert SessionPhase.PRE_AUTHENTICATION not in pin.phases


def test_duration_band_bounds():
    assert DurationClass.short().seconds == 0.5
    assert DurationClass.medium().seconds == 8.0
    assert DurationClass.long().seconds == 60.0
    assert DurationClass.long(30.0).seconds == 30.0
    with pytest.raises(ConfigError):
        DurationClass(DurationBand.SHORT, 2.0)  # short means under 1 s
    with pytest.raises(ConfigError):
        DurationClass(DurationBand.MEDIUM, 0.5)
    with pytest.raises(ConfigError):
        DurationClass(DurationBand.LONG, 10.0)


def test_factor_rate_validation():
    base = DEFAULT_CATALOG[0]
    with pytest.raises(ConfigError):
        Factor(
            id="x", name="X", category=base.category, action=base.action,
            duration=base.duration, far=1.5, frr=0.02,
            capabilities=base.capabilities, phases=base.phases,
        )
    with pytest.raises(ConfigError):
        Factor(
            id="x", name="X", category=base.category, action=base.action,
            duration=base.duration, far=0.0003, frr=0.02, vendor_accuracy=0.0,
            capabilities=base.capabilities, phases=base.phases,
        )


def test_passive_factor_needs_passive_phase():
    base = catalog_index(DEFAULT_CATALOG)["token"]
    with pytest.raises(ConfigError):
        Factor(
            id="x", name="X", category=base.category, action=ActionMode.PASSIVE,
            duration=base.duration, far=0.0003, frr=0.02,
            capabilities=base.capabilities,
            phases=frozenset({SessionPhase.ACTIVE_AUTHENTICATION}),
        )


def test_yaml_round_trip():
    text = catalog_to_yaml(DEFAULT_CATALOG)
    loaded = load_catalog(text)
    assert list(loaded) == list(DEFAULT_CATALOG)


def test_load_catalog_reports_field_and_line():
    text = catalog_to_yaml(DEFAULT_CATALOG).replace("far: 0.0003", "far: 1.5", 1)
    with pytest.raises(ConfigError) as err:
        load_catalog(text)
    assert "far" in str(err.value)
    assert "line" in str(err.value)


def test_load_catalog_rejects_duplicate_ids():
    text = catalog_to_yaml(DEFAULT_CATALOG).replace("id: password", "id: pin_code", 1)
    with pytest.raises(ConfigError) as err:
        load_catalog(text)
    assert "pin_code" in str(err.value)


def test_load_catalog_rejects_unknown_fields():
    text = catalog_to_yaml(DEFAULT_CATALOG) + "\nextra_top_level: 1\n"
    with pytest.raises(ConfigError):
        load_catalog(text)


def test_load_catalog_requires_schema_version():
    with pytest.raises(ConfigError):
        load_catalog("factors: []\n")


def test_minimal_factor_entry_defaults():
    text = (
        "schema_version: 1\n"
        "factors:\n"
        "  - id: lone\n"
        "    name: Lone\n"
        "    category: [biometric]\n"
        "    action: passive\n"
        "    duration: short\n"
    )
    (factor,) = load_catalog(text)
    assert factor.far == 0.0003 and factor.frr == 0.02
    assert factor.vendor_accuracy == 1.0
    # passive factors default to approach-time usability
    assert factor.phases == frozenset(
        {SessionPhase.PRE_AUTHENTICATION, SessionPhase.ACTIVE_AUTHENTICATION}
    )
    assert factor.capabilities.all_yes()


def test_tristate_accepts_bools_and_strings():
    text = (
        "schema_version: 1\n"
        "factors:\n"
        "  - id: lone\n"
        "    name: Lone\n"
        "    category: [biometric]\n"
        "    action: active\n"
        "    duration: medium\n"
        "    capabilities:\n"
        "      non_text_input: true\n"
        "      short_contact_time: no\n"
        "      stringent_usability: partial\n"
        "      environmental_robustness: false\n"
        "      high_security_level: yes\n"
    )
    (factor,) = load_catalog(text)
    caps = factor.capabilities
    assert caps.non_text_input is Tristate.YES
    assert caps.short_contact_time is Tristate.NO
    assert caps.stringent_usability is Tristate.PARTIAL
    assert caps.environmental_robustness is Tristate.NO
    assert caps.high_security_level is Tristate.YES


def test_gloves_exclude_contact_scanners():
    ctx = ContextState.nominal(gloves_worn=True)
    gate = gate_factors(DEFAULT_CATALOG, ctx)
    assert {"fingerprint", "hand_geometry", "vein_recognition"} <= gate.excluded
    assert "facial" not in gate.excluded


def test_darkness_consults_robustness_capability():
    ctx = ContextState.nominal(darkness=True)
    gate = gate_factors(DEFAULT_CATALOG, ctx)
    # camera methods are not rated for darkness; excluded outright
    assert "facial" in gate.excluded
    assert "ocular" in gate.excluded
    assert "fingerprint" not in gate.excluded


def test_noise_penalizes_voice():
    ctx = ContextState.nominal(noise_level="high")
    gate = gate_factors(DEFAULT_CATALOG, ctx)
    assert "voice" in gate.penalized
    assert "voice" not in gate.excluded


def test_phase_gating():
    ctx = ContextState.nominal(phase=SessionPhase.PRE_AUTHENTICATION)
    ids = {f.id for f in gate_factors(DEFAULT_CATALOG, ctx).available}
    assert "pin_code" not in ids  # no typing while the user approaches
    assert "token" in ids
    ctx = ContextState.nominal(phase=SessionPhase.CONTINUOUS_MONITORING)
    ids = {f.id for f in gate_factors(DEFAULT_CATALOG, ctx).available}
    assert ids == {"token", "geo_location", "behavior_patterns", "weight", "ecg"}


def test_gate_result_partition_is_consistent():
    random.seed(20240814)
    conditions = ["gloves_worn", "darkness", "precipitation"]
    for _ in range(50):
        overrides = {c: random.random() < 0.5 for c in conditions}
        if random.random() < 0.5:
            overrides["noise_level"] = random.choice(["low", "high"])
        ctx = ContextState.nominal(**overrides)
        gate = gate_factors(DEFAULT_CATALOG, ctx)
        available = {f.id for f in gate.available}
        assert not available & gate.excluded
        assert gate.penalized <= available
        assert available | gate.excluded == {f.id for f in DEFAULT_CATALOG}


# -- the gate memo ------------------------------------------------------------


@pytest.fixture
def gate_memo():
    catalog._gate.cache_clear()
    yield catalog._gate
    catalog._gate.cache_clear()


def test_equal_contexts_share_one_gate(gate_memo):
    first = gate_factors(DEFAULT_CATALOG, ContextState.nominal(SessionPhase.ACTIVE_AUTHENTICATION, darkness=True))
    loaded = load_catalog(catalog_to_yaml(DEFAULT_CATALOG))
    again = gate_factors(loaded, ContextState({"darkness": 1}, SessionPhase.ACTIVE_AUTHENTICATION),
                         list(DEFAULT_CONTEXT_RULES))
    info = gate_memo.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    gate_memo.cache_clear()
    fresh = gate_factors(loaded, ContextState({"darkness": 1}, SessionPhase.ACTIVE_AUTHENTICATION))
    assert again == first == fresh
    assert "facial" in fresh.excluded


def test_the_gate_memo_stays_within_its_bound(gate_memo):
    for i in range(catalog.GATE_MEMO_SIZE + 10):
        gate_factors(DEFAULT_CATALOG, ContextState.nominal(zone=i))
    info = gate_memo.cache_info()
    assert info.maxsize == catalog.GATE_MEMO_SIZE
    assert info.currsize == catalog.GATE_MEMO_SIZE


def test_a_list_valued_condition_gates_uncached(gate_memo):
    ctx = ContextState.nominal(gloves_worn=True, zones=["a", "b"])
    rules = DEFAULT_CONTEXT_RULES + (ContextRule("zones", value=["a", "b"], applies_to=("pin_code",)),)
    got = gate_factors(DEFAULT_CATALOG, ctx, rules)
    assert gate_memo.cache_info().currsize == 0
    assert got.excluded == {"fingerprint", "hand_geometry", "vein_recognition", "pin_code"}


def test_a_failed_gate_is_never_kept(gate_memo):
    rules = (ContextRule("undeclared"),)
    for _ in range(2):
        with pytest.raises(ConfigError, match="undeclared"):
            gate_factors(DEFAULT_CATALOG, ContextState.nominal(), rules)
    assert gate_memo.cache_info().currsize == 0


def test_equal_factors_and_rules_hash_equal():
    loaded = load_catalog(catalog_to_yaml(DEFAULT_CATALOG))
    for a, b in zip(DEFAULT_CATALOG, loaded):
        assert a == b and hash(a) == hash(b)
    assert ContextRule("darkness", value=True) == ContextRule("darkness", value=1)
    assert hash(ContextRule("darkness", value=True)) == hash(ContextRule("darkness", value=1))
