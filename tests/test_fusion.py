import math
import random

import numpy as np
import pytest

from authfusion import configio
from authfusion.catalog import (
    ActionMode,
    CAPS_PIN,
    DEFAULT_CATALOG,
    DurationClass,
    Factor,
    FactorCategory,
)
from authfusion.context import SessionPhase
from authfusion.errors import ConfigError, EvaluationError
from authfusion.fusion import (
    EvidenceRecord,
    Policy,
    Strategy,
    StrategyKind,
    decide,
    equivalent_kofn,
    load_evidence,
    load_policy,
)


def make_factor(fid, mu=1.0):
    return Factor(
        id=fid,
        name=fid,
        category=frozenset({FactorCategory.KNOWLEDGE}),
        action=ActionMode.ACTIVE,
        duration=DurationClass.short(),
        far=0.0003,
        frr=0.02,
        vendor_accuracy=mu,
        capabilities=CAPS_PIN,
        phases=frozenset({SessionPhase.ACTIVE_AUTHENTICATION}),
    )


WORKED_CATALOG = [make_factor("a", 0.9), make_factor("b", 0.8), make_factor("c", 0.95)]
WORKED_RECORDS = [
    EvidenceRecord(factor_id="a", decision=1, trust=1.0),
    EvidenceRecord(factor_id="b", decision=0, trust=0.5),
    EvidenceRecord(factor_id="c", decision=1, trust=1.0),
]
WORKED_WEIGHTS = {"a": 1.0, "b": 1.0, "c": 0.5}


def test_weighted_worked_example_grants():
    policy = Policy(strategy=Strategy.weighted(1.0), weights=WORKED_WEIGHTS)
    decision = decide(WORKED_RECORDS, policy, WORKED_CATALOG)
    assert decision.granted
    assert decision.score == 1.375  # 0.9 + 0 + 0.475
    assert decision.passed_count == 2
    assert dict(decision.contributing) == {"a": 0.9, "b": 0.0, "c": 0.475}


def test_weighted_tie_denies():
    policy = Policy(strategy=Strategy.weighted(1.375), weights=WORKED_WEIGHTS)
    decision = decide(WORKED_RECORDS, policy, WORKED_CATALOG)
    assert not decision.granted
    assert decision.score == 1.375


def test_counting_strategies():
    catalog = [make_factor(f"f{i}") for i in range(7)]
    records = [
        EvidenceRecord(factor_id=f"f{i}", decision=1 if i < 4 else 0) for i in range(7)
    ]
    assert decide(records, Policy(strategy=Strategy.k_of_n(4)), catalog).granted
    assert not decide(records, Policy(strategy=Strategy.k_of_n(5)), catalog).granted
    assert not decide(records, Policy(strategy=Strategy.all_checks()), catalog).granted
    assert decide(records, Policy(strategy=Strategy.any_check()), catalog).granted
    all_pass = [EvidenceRecord(factor_id=f"f{i}", decision=1) for i in range(7)]
    assert decide(all_pass, Policy(strategy=Strategy.all_checks()), catalog).granted
    # the one pass-count rule every counting engine applies
    strategies = (Strategy.all_checks(), Strategy.any_check(), Strategy.k_of_n(4))
    assert [s.passes_needed(7) for s in strategies] == [7, 1, 4]


def test_k_beyond_record_count_denies():
    catalog = [make_factor("a"), make_factor("b")]
    records = [
        EvidenceRecord(factor_id="a", decision=1),
        EvidenceRecord(factor_id="b", decision=1),
    ]
    # only two factors present: 3-of-n cannot be met, but it is not an error
    assert not decide(records, Policy(strategy=Strategy.k_of_n(3)), catalog).granted


def test_decide_error_cases():
    policy = Policy(strategy=Strategy.all_checks())
    with pytest.raises(EvaluationError):
        decide([], policy, WORKED_CATALOG)
    with pytest.raises(ConfigError):
        decide([EvidenceRecord(factor_id="ghost", decision=1)], policy, WORKED_CATALOG)
    with pytest.raises(ConfigError):
        decide(
            [
                EvidenceRecord(factor_id="a", decision=1),
                EvidenceRecord(factor_id="a", decision=0),
            ],
            policy,
            WORKED_CATALOG,
        )
    weighted = Policy(strategy=Strategy.weighted(1.0), weights={"a": 1.0})
    with pytest.raises(ConfigError):
        decide(
            [
                EvidenceRecord(factor_id="a", decision=1),
                EvidenceRecord(factor_id="c", decision=1),
            ],
            weighted,
            WORKED_CATALOG,
        )


def test_use_likelihood_substitution():
    policy = Policy(strategy=Strategy.weighted(0.5), weights={"a": 1.0}, use_likelihood=True)
    catalog = [make_factor("a")]
    rec = EvidenceRecord(factor_id="a", decision=1, likelihood=0.4)
    decision = decide([rec], policy, catalog)
    assert decision.score == 0.4
    assert not decision.granted
    # records without a likelihood fall back to the binary outcome
    rec2 = EvidenceRecord(factor_id="a", decision=1)
    assert decide([rec2], policy, catalog).granted


def test_strategy_validation():
    with pytest.raises(ConfigError):
        Strategy(kind=StrategyKind.KOFN)  # k required
    with pytest.raises(ConfigError):
        Strategy.k_of_n(0)
    with pytest.raises(ConfigError):
        Strategy.weighted(-1.0)
    with pytest.raises(ConfigError):
        Strategy(kind=StrategyKind.ALL, k=3)  # k is meaningless here
    with pytest.raises(ConfigError):
        Policy(strategy=Strategy.weighted(1.0), weights={"a": -0.5})


def test_policy_rejects_weights_whose_sum_overflows():
    # each weight is finite, but decide's fsum of both would raise OverflowError
    with pytest.raises(ConfigError, match="weights: sum of weights must be finite"):
        Policy(Strategy.weighted(1.0), {"a": 1e308, "b": 1e308})
    assert Policy(Strategy.weighted(1.0), {"a": 1e308, "b": 1e307}).weights["a"] == 1e308


def test_evidence_record_validation():
    with pytest.raises(ConfigError):
        EvidenceRecord(factor_id="a", decision=2)
    with pytest.raises(ConfigError):
        EvidenceRecord(factor_id="a", decision=1, likelihood=1.5)
    with pytest.raises(ConfigError):
        EvidenceRecord(factor_id="a", decision=1, trust=-0.1)


def test_only_a_policy_skips_its_own_weight_rule():
    # a policy's weights pass unchecked into another policy; nothing else does
    for bad in (configio.FrozenMap({"a": -1.0}), {"a": math.inf}, {"a": True}):
        with pytest.raises(ConfigError):
            Policy(Strategy.weighted(1.0), bad)
    policy = Policy(Strategy.weighted(1.0), {"a": 1.0})
    with pytest.raises(ConfigError, match="weights.a: must be finite and non-negative"):
        policy.with_weights({"a": -1.0})
    assert policy.with_weights(policy.weights).weights is policy.weights
    for decision in (True, np.int64(1), 1):
        record = EvidenceRecord("x", decision)
        assert record.decision == 1 and type(record.decision) is int
    with pytest.raises(ConfigError):
        EvidenceRecord("x", 2)


def random_setup(rng, n):
    catalog = [make_factor(f"f{i}", mu=rng.uniform(0.5, 1.0)) for i in range(n)]
    records = [
        EvidenceRecord(
            factor_id=f"f{i}",
            decision=rng.randint(0, 1),
            trust=rng.uniform(0.0, 1.0),
        )
        for i in range(n)
    ]
    weights = {f"f{i}": rng.uniform(0.0, 2.0) for i in range(n)}
    return catalog, records, weights


def test_scaling_invariance():
    rng = random.Random(101)
    for _ in range(10_000):
        n = rng.randint(1, 6)
        catalog, records, weights = random_setup(rng, n)
        threshold = rng.uniform(0.0, 3.0)
        scale = rng.uniform(0.01, 100.0)
        base = decide(records, Policy(strategy=Strategy.weighted(threshold), weights=weights), catalog)
        scaled = decide(
            records,
            Policy(
                strategy=Strategy.weighted(threshold * scale),
                weights={k: w * scale for k, w in weights.items()},
            ),
            catalog,
        )
        assert base.granted == scaled.granted


def test_monotone_under_delta_flips():
    rng = random.Random(202)
    strategies = [
        Strategy.all_checks(),
        Strategy.any_check(),
    ]
    for _ in range(10_000):
        n = rng.randint(2, 6)
        catalog, records, weights = random_setup(rng, n)
        strategy = rng.choice(strategies + [Strategy.k_of_n(rng.randint(1, n)), Strategy.weighted(rng.uniform(0, 3))])
        policy = Policy(strategy=strategy, weights=weights)
        before = decide(records, policy, catalog)
        flip = rng.randrange(n)
        if records[flip].decision == 1:
            continue
        bumped = list(records)
        bumped[flip] = EvidenceRecord(
            factor_id=records[flip].factor_id, decision=1, trust=records[flip].trust
        )
        after = decide(bumped, policy, catalog)
        if before.granted:
            assert after.granted


def test_score_equal_to_threshold_denies():
    rng = random.Random(303)
    for _ in range(2_000):
        n = rng.randint(1, 5)
        catalog, records, weights = random_setup(rng, n)
        policy = Policy(strategy=Strategy.weighted(0.0), weights=weights)
        score = decide(records, policy, catalog).score
        # re-run with T set exactly to the achieved score: must deny
        pinned = Policy(strategy=Strategy.weighted(score), weights=weights)
        assert not decide(records, pinned, catalog).granted


def test_equivalent_kofn_examples():
    policy = Policy(strategy=Strategy.weighted(3.5), weights={f"f{i}": 1.0 for i in range(7)})
    assert equivalent_kofn(policy, 7) == 4

    half = Policy(strategy=Strategy.weighted(2.0), weights={f"f{i}": 0.5 for i in range(7)})
    assert equivalent_kofn(half, 7, mu=1.0, tau=1.0) == 5

    ragged = Policy(strategy=Strategy.weighted(3.5), weights={"f0": 1.0, "f1": 2.0})
    assert equivalent_kofn(ragged, 2) is None


def test_equivalent_kofn_unreachable_threshold():
    policy = Policy(strategy=Strategy.weighted(7.5), weights={f"f{i}": 1.0 for i in range(7)})
    assert equivalent_kofn(policy, 7) is None  # needs 8 passes out of 7


def test_equivalent_kofn_holds_mu_and_tau_to_compose_weighted_rules():
    # mu lies in (0, 1] like vendor accuracy, tau in [0, 1] like trust
    policy = Policy(strategy=Strategy.weighted(2.5), weights={f"f{i}": 1.0 for i in range(3)})
    for mu, tau, field in ((5.0, 1.0, "mu"), (math.nan, 1.0, "mu"), (1.0, -1.0, "tau")):
        with pytest.raises(ConfigError) as err:
            equivalent_kofn(policy, 3, mu=mu, tau=tau)
        assert err.value.field == field


def test_equivalent_kofn_matches_decide():
    rng = random.Random(404)
    for _ in range(2_000):
        n = rng.randint(1, 8)
        w = rng.choice([0.25, 0.5, 1.0, 2.0])
        threshold = rng.uniform(0.0, w * n)
        weights = {f"f{i}": w for i in range(n)}
        policy = Policy(strategy=Strategy.weighted(threshold), weights=weights)
        k = equivalent_kofn(policy, n)
        if k is None:
            continue
        catalog = [make_factor(f"f{i}") for i in range(n)]
        passes = rng.randint(0, n)
        records = [
            EvidenceRecord(factor_id=f"f{i}", decision=1 if i < passes else 0)
            for i in range(n)
        ]
        weighted = decide(records, policy, catalog)
        counting = decide(records, Policy(strategy=Strategy.k_of_n(k)), catalog)
        assert weighted.granted == counting.granted


def test_load_policy_round_trip():
    text = (
        "schema_version: 1\n"
        "strategy: weighted\n"
        "threshold: 1.0\n"
        "weights:\n"
        "  a: 1.0\n"
        "  b: 1.0\n"
        "  c: 0.5\n"
    )
    policy = load_policy(text)
    assert policy.strategy.kind is StrategyKind.WEIGHTED
    assert policy.strategy.threshold == 1.0
    assert dict(policy.weights) == WORKED_WEIGHTS

    counting = load_policy("schema_version: 1\nstrategy: kofn\nk: 4\n")
    assert counting.strategy.k == 4


def test_load_policy_errors():
    with pytest.raises(ConfigError):
        load_policy("schema_version: 1\nstrategy: kofn\n")  # k missing
    with pytest.raises(ConfigError):
        load_policy("schema_version: 1\nstrategy: all\nk: 2\n")
    with pytest.raises(ConfigError):
        load_policy("schema_version: 1\nstrategy: weighted\n")  # threshold missing
    with pytest.raises(ConfigError):
        load_policy("schema_version: 1\nstrategy: sometimes\n")
    err = None
    try:
        load_policy("schema_version: 1\nstrategy: weighted\nthreshold: 1\nweights:\n  a: -2\n")
    except ConfigError as exc:
        err = str(exc)
    assert err and "a" in err and "line" in err


def test_load_evidence():
    text = (
        "schema_version: 1\n"
        "records:\n"
        "  - factor_id: a\n"
        "    decision: true\n"
        "  - factor_id: b\n"
        "    decision: 0\n"
        "    trust: 0.5\n"
        "    likelihood: 0.7\n"
        "    observed_at: 3.5\n"
    )
    records = load_evidence(text)
    assert [r.decision for r in records] == [1, 0]
    assert records[0].trust == 1.0
    assert records[1].trust == 0.5
    assert records[1].likelihood == 0.7
    assert records[1].observed_at == 3.5
    with pytest.raises(ConfigError):
        load_evidence("schema_version: 1\nrecords:\n  - factor_id: a\n    decision: 3\n")
