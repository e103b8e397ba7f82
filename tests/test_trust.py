"""Trust assignment, the interaction store, and context-adaptive weights."""

import json
import math
import random
import warnings

import pytest

from authfusion import trust
from authfusion.catalog import DEFAULT_CATALOG
from authfusion.context import ContextState, SessionPhase
from authfusion.errors import ConfigError, NoUsableFactorsError
from authfusion.fusion import EvidenceRecord, Policy, Strategy, decide
from authfusion.trust import (
    DEFAULT_TRUST_LEVELS,
    PROMOTION_THRESHOLD,
    SourceClass,
    TrustModel,
    TrustStore,
    assign_trust,
    effective_weights,
    load_trust_model,
)

BY_ID = {f.id: f for f in DEFAULT_CATALOG}


def weighted_policy(weights, threshold=1.0):
    return Policy(Strategy.weighted(threshold), dict(weights))


def test_default_levels():
    assert DEFAULT_TRUST_LEVELS[SourceClass.OWNED] == 1.0
    assert DEFAULT_TRUST_LEVELS[SourceClass.FAMILIAR] == 0.8
    assert DEFAULT_TRUST_LEVELS[SourceClass.SOCIAL_FRIEND] == 0.6
    assert DEFAULT_TRUST_LEVELS[SourceClass.STRANGER] == 0.3
    # ordering is the contract even if the numbers get recalibrated
    levels = [DEFAULT_TRUST_LEVELS[c] for c in SourceClass]
    assert levels == sorted(levels, reverse=True)
    assert PROMOTION_THRESHOLD == 10


def test_assign_trust_per_class():
    for cls in SourceClass:
        a = assign_trust("dev-1", cls)
        assert a.level == DEFAULT_TRUST_LEVELS[cls]
        assert a.source_class is cls
        assert a.interactions_seen == 0


def test_stranger_promotion_at_threshold():
    before = assign_trust("watch-7", SourceClass.STRANGER, history=9)
    assert before.source_class is SourceClass.STRANGER
    assert before.level == 0.3
    at = assign_trust("watch-7", SourceClass.STRANGER, history=10)
    assert at.source_class is SourceClass.FAMILIAR
    assert at.level == 0.8
    assert at.interactions_seen == 10
    # promotion only ever moves strangers; other classes keep their tau
    rich_history = assign_trust("phone-1", SourceClass.SOCIAL_FRIEND, history=500)
    assert rich_history.source_class is SourceClass.SOCIAL_FRIEND
    assert rich_history.level == 0.6


def test_assign_trust_rejects_negative_history():
    with pytest.raises(ConfigError):
        assign_trust("dev-1", SourceClass.OWNED, history=-1)


def test_trust_model_validation():
    with pytest.raises(ConfigError):
        TrustModel(levels={SourceClass.OWNED: 1.0})
    bad = dict(DEFAULT_TRUST_LEVELS)
    bad[SourceClass.STRANGER] = 1.5
    with pytest.raises(ConfigError):
        TrustModel(levels=bad)
    with pytest.raises(ConfigError):
        TrustModel(promotion_threshold=0)


def test_custom_promotion_threshold():
    model = TrustModel(promotion_threshold=3)
    assert assign_trust("x", SourceClass.STRANGER, 2, model).level == 0.3
    assert assign_trust("x", SourceClass.STRANGER, 3, model).level == 0.8


def test_store_counts_only_successes_toward_promotion():
    store = TrustStore()
    for i in range(9):
        store.record("band-2", "success", timestamp=float(i))
    for i in range(50):
        store.record("band-2", "failure", timestamp=100.0 + i)
    assert store.successes("band-2") == 9
    assert store.assignment("band-2", SourceClass.STRANGER).level == 0.3
    store.record("band-2", "success", timestamp=200.0)
    promoted = store.assignment("band-2", SourceClass.STRANGER)
    assert promoted.source_class is SourceClass.FAMILIAR
    assert promoted.level == 0.8


def test_store_rejects_unknown_event():
    store = TrustStore()
    with pytest.raises(ConfigError):
        store.record("band-2", "timeout", timestamp=0.0)


def test_store_jsonl_roundtrip(tmp_path):
    path = tmp_path / "trust.jsonl"
    store = TrustStore(path)
    store.record("ring-1", "success", timestamp=1.0)
    store.record("ring-1", "success", timestamp=2.0)
    store.record("ring-1", "failure", timestamp=3.0)
    store.record("hub-9", "success", timestamp=4.0)

    lines = path.read_text().splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert first == {"event": "success", "source_id": "ring-1", "timestamp": 1.0}

    reopened = TrustStore(path)
    assert reopened.successes("ring-1") == 2
    assert reopened.successes("hub-9") == 1
    assert reopened.successes("never-seen") == 0


def test_store_compact_preserves_counts(tmp_path):
    path = tmp_path / "trust.jsonl"
    store = TrustStore(path)
    for i in range(12):
        store.record("watch-3", "success", timestamp=float(i))
    store.record("watch-3", "failure", timestamp=99.0)
    store.compact()
    assert len(path.read_text().splitlines()) == 1

    reopened = TrustStore(path)
    assert reopened.successes("watch-3") == 12
    # appends after a compact land on top of the snapshot
    reopened.record("watch-3", "success", timestamp=100.0)
    assert TrustStore(path).successes("watch-3") == 13


def test_store_skips_a_torn_final_line(tmp_path):
    path = tmp_path / "trust.jsonl"
    store = TrustStore(path)
    for i in range(3):
        store.record("ring-1", "success", timestamp=float(i))
    intact = path.read_text()
    path.write_text(intact + '{"event": "succ')
    with pytest.warns(UserWarning, match="torn final line 4"):
        reopened = TrustStore(path)
    assert reopened.successes("ring-1") == 3
    assert path.read_text() == intact + '{"event": "succ'
    reopened.record("ring-1", "success", timestamp=9.0)
    assert path.read_text().startswith(intact) and path.read_text().count("\n") == 4
    assert TrustStore(path).successes("ring-1") == 4


def test_store_loads_a_read_only_log(tmp_path):
    # loading never writes, even when the tail needs mending
    logs = {
        "torn.jsonl": '{"event": "success", "source_id": "ring-1", "timestamp": 1.0}\n{"event": "succ',
        "unended.jsonl": '{"event": "success", "source_id": "ring-1", "timestamp": 1.0}',
    }
    for name, text in logs.items():
        (tmp_path / name).write_text(text)
        (tmp_path / name).chmod(0o444)
    tmp_path.chmod(0o555)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stores = [TrustStore(tmp_path / name) for name in logs]
        assert [s.successes("ring-1") for s in stores] == [1, 1]
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == logs
    finally:
        tmp_path.chmod(0o755)


def test_store_keeps_a_final_record_that_lost_its_newline(tmp_path):
    path = tmp_path / "trust.jsonl"
    path.write_text('{"event": "success", "source_id": "ring-1", "timestamp": 1.0}')
    store = TrustStore(path)
    assert store.successes("ring-1") == 1
    store.record("ring-1", "success", timestamp=2.0)
    assert TrustStore(path).successes("ring-1") == 2


def test_store_corrupt_line_is_a_config_error(tmp_path):
    path = tmp_path / "trust.jsonl"
    good = '{"event": "success", "source_id": "ring-1", "timestamp": 1.0}\n'
    for bad in ('{"event": "succ\n', '{"source_id": "ring-1"}\n', '{"event": "lost", "source_id": "x"}\n', "[1]\n"):
        path.write_text(good + bad + good)
        with pytest.raises(ConfigError) as err:
            TrustStore(path)
        assert err.value.line == 2
    path.write_bytes(b"\xff\xfe" + good.encode())
    with pytest.raises(ConfigError, match="not UTF-8"):
        TrustStore(path)


def test_store_compact_swaps_in_a_new_file(tmp_path, monkeypatch):
    path = tmp_path / "trust.jsonl"
    store = TrustStore(path)
    for i in range(5):
        store.record("watch-3", "success", timestamp=float(i))
    log = path.read_text()

    def crash(src, dst):
        raise OSError("crashed before the swap")

    monkeypatch.setattr(trust.os, "replace", crash)
    with pytest.raises(OSError):
        store.compact()
    assert path.read_text() == log
    monkeypatch.undo()
    store.compact()
    assert len(path.read_text().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trust.jsonl"]
    assert TrustStore(path).successes("watch-3") == 5


def test_store_without_existing_file(tmp_path):
    store = TrustStore(tmp_path / "fresh.jsonl")
    assert store.successes("anything") == 0
    assert store.assignment("anything", SourceClass.STRANGER).level == 0.3


def test_load_trust_model_overrides():
    model = load_trust_model(
        "schema_version: 1\n"
        "promotion_threshold: 4\n"
        "levels:\n"
        "  stranger: 0.25\n"
        "  social_friend: 0.5\n"
    )
    assert model.levels[SourceClass.STRANGER] == 0.25
    assert model.levels[SourceClass.SOCIAL_FRIEND] == 0.5
    assert model.levels[SourceClass.OWNED] == 1.0
    assert model.promotion_threshold == 4


def test_load_trust_model_rejects_unknown_class():
    text = "schema_version: 1\nlevels:\n  enemy: 0.1\n"
    with pytest.raises(ConfigError) as err:
        load_trust_model(text)
    assert "enemy" in str(err.value)
    assert err.value.line == 3


def test_load_trust_model_rejects_bad_values():
    with pytest.raises(ConfigError):
        load_trust_model("schema_version: 1\nlevels:\n  owned: 1.5\n")
    with pytest.raises(ConfigError):
        load_trust_model("schema_version: 1\npromotion_threshold: 0\n")
    with pytest.raises(ConfigError):
        load_trust_model("schema_version: 1\ndecay: fast\n")


def test_effective_weights_excluded_factor_redistributes():
    catalog = [BY_ID["token"], BY_ID["voice"], BY_ID["facial"], BY_ID["fingerprint"]]
    policy = weighted_policy({f.id: 1.0 for f in catalog}, threshold=2.0)
    out = effective_weights(policy, catalog, ContextState.nominal(gloves_worn=True))
    assert out["fingerprint"] == 0.0
    assert out["token"] == out["voice"] == out["facial"] == 4.0 / 3.0
    assert math.isclose(math.fsum(out.values()), 4.0, rel_tol=1e-12)


def test_effective_weights_penalty_conserves_total():
    catalog = [BY_ID["token"], BY_ID["voice"], BY_ID["facial"]]
    policy = weighted_policy({"token": 1.0, "voice": 2.0, "facial": 1.0})
    out = effective_weights(policy, catalog, ContextState.nominal(noise_level="high"))
    # voice is halved pre-normalization, so it loses share but not everything
    assert 0.0 < out["voice"] < 2.0
    assert out["token"] > 1.0
    assert math.isclose(math.fsum(out.values()), 4.0, rel_tol=1e-12)
    assert math.isclose(out["voice"] / out["token"], 1.0, rel_tol=1e-12)


def test_effective_weights_counting_policy_defaults_to_unit_weights():
    catalog = [BY_ID["token"], BY_ID["facial"], BY_ID["fingerprint"]]
    policy = Policy(Strategy.k_of_n(2))
    out = effective_weights(policy, catalog, ContextState.nominal())
    assert out == {"token": 1.0, "facial": 1.0, "fingerprint": 1.0}
    gloved = effective_weights(policy, catalog, ContextState.nominal(gloves_worn=True))
    assert gloved["fingerprint"] == 0.0
    assert math.isclose(math.fsum(gloved.values()), 3.0, rel_tol=1e-12)


def test_effective_weights_nothing_left():
    catalog = [BY_ID["fingerprint"], BY_ID["vein_recognition"]]
    policy = weighted_policy({"fingerprint": 1.0, "vein_recognition": 1.0})
    with pytest.raises(NoUsableFactorsError):
        effective_weights(policy, catalog, ContextState.nominal(gloves_worn=True))


def test_effective_weights_survivors_carry_no_weight():
    catalog = [BY_ID["fingerprint"], BY_ID["token"]]
    policy = weighted_policy({"fingerprint": 1.0, "token": 0.0})
    with pytest.raises(NoUsableFactorsError):
        effective_weights(policy, catalog, ContextState.nominal(gloves_worn=True))


def test_effective_weights_penalty_validation():
    catalog = [BY_ID["token"]]
    policy = weighted_policy({"token": 1.0})
    ctx = ContextState.nominal()
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ConfigError):
            effective_weights(policy, catalog, ctx, penalty=bad)
    assert effective_weights(policy, catalog, ctx, penalty=1.0) == {"token": 1.0}


def test_effective_weights_requires_every_weight():
    catalog = [BY_ID["token"], BY_ID["facial"]]
    policy = weighted_policy({"token": 1.0})
    with pytest.raises(ConfigError):
        effective_weights(policy, catalog, ContextState.nominal())


def _random_conditions(rng):
    return {
        "gloves_worn": rng.random() < 0.4,
        "darkness": rng.random() < 0.4,
        "precipitation": rng.random() < 0.3,
        "noise_level": "high" if rng.random() < 0.4 else "low",
    }


def test_weight_conservation_property():
    # whatever the context knocks out, the total effective weight matches
    # the configured total, so a fixed threshold keeps its meaning
    rng = random.Random(20260814)
    full = list(DEFAULT_CATALOG)
    for _ in range(300):
        catalog = rng.sample(full, rng.randint(3, len(full)))
        weights = {f.id: rng.uniform(0.1, 3.0) for f in catalog}
        policy = weighted_policy(weights, threshold=2.0)
        ctx = ContextState.nominal(**_random_conditions(rng))
        try:
            out = effective_weights(policy, catalog, ctx)
        except NoUsableFactorsError:
            continue
        assert set(out) == set(weights)
        assert math.isclose(
            math.fsum(out.values()), math.fsum(weights.values()), rel_tol=1e-12
        )
        for fid, phi in out.items():
            assert phi >= 0.0
            if phi == 0.0:
                continue
            assert weights[fid] > 0.0


def test_memoized_weights_match_a_fresh_computation():
    # 3 policies x 2 scopes x 30 contexts visited at random: more keys than
    # the memo keeps, so entries are hit, evicted and computed again
    rng = random.Random(20261020)
    full = list(DEFAULT_CATALOG)
    scopes = [rng.sample(full, rng.randint(3, len(full))) for _ in range(2)]
    policies = [
        weighted_policy({f.id: rng.uniform(0.1, 3.0) for f in full}, threshold=2.0),
        Policy(Strategy.weighted(1.5), {f.id: rng.uniform(0.1, 3.0) for f in full}, use_likelihood=True),
        Policy(Strategy.k_of_n(2)),
    ]
    conditions = [_random_conditions(rng) for _ in range(15)]
    phased = [(c, phase) for c in conditions for phase in (None, rng.choice(list(SessionPhase)))]
    cases = [(rng.choice(policies), rng.choice(scopes), rng.choice(phased)) for _ in range(300)]
    assert len({(p, tuple(s), ContextState(c, ph)) for p, s, (c, ph) in cases}) > 64

    def adapted(policy, scope, conditions, phase):
        try:  # a context built afresh: the memo keys on its value
            return effective_weights(policy, scope, ContextState(dict(conditions), phase))
        except NoUsableFactorsError:
            return None

    trust._adapted_weights.cache_clear()
    memoized = [adapted(p, s, *c) for p, s, c in cases]
    info = trust._adapted_weights.cache_info()
    assert info.hits > 0 and info.currsize == info.maxsize == 64
    for (policy, scope, phased_conditions), weights in zip(cases, memoized):
        trust._adapted_weights.cache_clear()
        fresh = adapted(policy, scope, *phased_conditions)
        if weights is None:
            assert fresh is None
            continue
        assert [(k, v.hex()) for k, v in weights.items()] == [(k, v.hex()) for k, v in fresh.items()]
        records = [EvidenceRecord(fid, rng.randint(0, 1), likelihood=rng.random(), trust=rng.random())
                   for fid, phi in weights.items() if phi > 0.0]
        checked = Policy(policy.strategy, dict(weights), policy.use_likelihood)
        assert decide(records, policy.with_weights(weights), scope) == decide(records, checked, scope)


def test_an_overflowed_weight_comes_back_and_with_weights_refuses_it():
    # the renormalizing scale 1e300 / 1e-10 overflows to inf
    catalog = [BY_ID["fingerprint"], BY_ID["token"]]
    policy = weighted_policy({"fingerprint": 1e300, "token": 1e-10})
    for _ in range(2):  # computed, then answered again
        out = effective_weights(policy, catalog, ContextState.nominal(gloves_worn=True))
        assert dict(out) == {"fingerprint": 0.0, "token": math.inf}
        with pytest.raises(ConfigError, match=r"^weights\.token: must be finite and non-negative, got inf$"):
            policy.with_weights(out)


def test_the_decide_stream_gates_once_per_set_of_conditions(monkeypatch):
    calls = []
    gate = trust.gate_factors

    def counted(catalog, ctx, rules):
        calls.append(ctx)
        return gate(catalog, ctx, rules)

    monkeypatch.setattr(trust, "gate_factors", counted)
    trust._adapted_weights.cache_clear()
    policy = weighted_policy({f.id: 1.0 for f in DEFAULT_CATALOG}, threshold=3.0)
    rng = random.Random(9001)
    drawn = set()
    for _ in range(200):
        # the benchmark's decide stream: 2^4 sets of conditions, each built afresh
        conditions = {
            "gloves_worn": rng.random() < 0.3,
            "darkness": rng.random() < 0.3,
            "precipitation": rng.random() < 0.2,
            "noise_level": "high" if rng.random() < 0.3 else "low",
        }
        drawn.add(tuple(conditions.values()))
        weights = effective_weights(policy, DEFAULT_CATALOG, ContextState(conditions))
        assert policy.with_weights(weights).weights is weights
    assert len(calls) == len(drawn) <= 16

    # a call that raises keeps nothing, so it gates again the next time
    size = trust._adapted_weights.cache_info().currsize
    gloved = [BY_ID["fingerprint"], BY_ID["vein_recognition"]]
    for _ in range(2):
        with pytest.raises(NoUsableFactorsError):
            effective_weights(policy, gloved, ContextState.nominal(gloves_worn=True))
        assert trust._adapted_weights.cache_info().currsize == size
    assert len(calls) == len(drawn) + 2
