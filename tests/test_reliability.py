import itertools
import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import authfusion.reliability as reliability
from authfusion.catalog import DEFAULT_CATALOG
from authfusion.errors import CapacityError, ConfigError, EvaluationError
from authfusion.fusion import EvidenceRecord, Policy, Strategy, decide, equivalent_kofn
from authfusion.reliability import (
    EXACT_WEIGHTED_LIMIT,
    Population,
    SWEEP_CSV_HEADER,
    compose_all,
    compose_any,
    compose_kofn,
    compose_weighted,
    majority_k,
    monte_carlo_rates,
    pass_count_distribution,
    sweep,
    sweep_to_csv,
)

from oracles import enum_rates, kofn_grant, pass_count_pmf, weighted_grant, weighted_rates_numpy

# the reference operating point: seven factors at FAR 0.03%, FRR 2%
SEVEN = [(0.0003, 0.02)] * 7


def random_pairs(rng, n, lo=0.0, hi=1.0):
    return [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]


# -- closed-form anchors ------------------------------------------------------


def test_compose_all_seven_factor_anchor():
    rates = compose_all(SEVEN)
    assert math.isclose(rates.frr, 1.0 - 0.98**7, rel_tol=1e-12)
    assert rates.frr > 0.12
    assert math.isclose(rates.far, 0.0003**7, rel_tol=1e-12)


def test_compose_any_seven_factor_anchor():
    rates = compose_any(SEVEN)
    assert math.isclose(rates.far, 1.0 - (1.0 - 0.0003) ** 7, rel_tol=1e-12)
    assert math.isclose(rates.frr, 0.02**7, rel_tol=1e-12)


def test_single_factor_identity():
    for fn in (compose_all, compose_any):
        rates = fn([(0.0003, 0.02)])
        assert rates.far == 0.0003
        assert rates.frr == 0.02
    rates = compose_kofn([(0.0003, 0.02)], 1)
    assert (rates.far, rates.frr) == (0.0003, 0.02)


def test_kofn_majority_seven_factor_case():
    rates = compose_kofn(SEVEN, 4)
    oracle_far, oracle_frr = enum_rates(SEVEN, kofn_grant(4))
    assert math.isclose(rates.far, oracle_far, rel_tol=1e-9)
    assert math.isclose(rates.frr, oracle_frr, rel_tol=1e-9)
    # regime anchors for the majority strategy at n=7
    assert 0.0003 / rates.far >= 1e8
    assert 0.02 / rates.frr >= 1e3


def test_kofn_three_factor_example():
    pairs = [(0.0, 0.1), (0.0, 0.2), (0.0, 0.3)]
    rates = compose_kofn(pairs, 2)
    # P(fewer than 2 pass | legit): enumeration gives 0.098
    assert math.isclose(rates.frr, 0.098, rel_tol=1e-12)


def test_empty_factor_list_is_an_evaluation_error():
    for fn in (compose_all, compose_any):
        with pytest.raises(EvaluationError):
            fn([])
    with pytest.raises(EvaluationError):
        compose_kofn([], 1)


def test_rates_out_of_range_rejected():
    with pytest.raises(ConfigError):
        compose_all([(1.5, 0.0)])
    with pytest.raises(ConfigError):
        compose_kofn([(0.1, -0.2)], 1)


def test_out_of_range_errors_name_the_rate_as_given():
    # compose_any swaps the roles internally, but checks the pairs as passed
    for fn in (compose_all, compose_any, lambda pairs: compose_kofn(pairs, 1)):
        with pytest.raises(ConfigError) as err:
            fn([(0.1, 0.2), (0.1, 1.5)])
        assert err.value.field == "factors[1].frr"


def test_kofn_k_out_of_range():
    pairs = random_pairs(random.Random(1), 4)
    for bad in (0, 5, -1):
        with pytest.raises(ConfigError):
            compose_kofn(pairs, bad)


# -- oracle agreement on random heterogeneous inputs --------------------------


def test_kofn_matches_enumeration_oracle():
    rng = random.Random(31337)
    for _ in range(60):
        n = rng.randint(1, 10)
        k = rng.randint(1, n)
        pairs = random_pairs(rng, n)
        rates = compose_kofn(pairs, k)
        oracle_far, oracle_frr = enum_rates(pairs, kofn_grant(k))
        assert math.isclose(rates.far, oracle_far, rel_tol=1e-9, abs_tol=1e-300)
        assert math.isclose(rates.frr, oracle_frr, rel_tol=1e-9, abs_tol=1e-300)


def test_boundary_k_equals_compose_all_and_any_exactly():
    rng = random.Random(777)
    for _ in range(100):
        n = rng.randint(1, 10)
        pairs = random_pairs(rng, n)
        top = compose_kofn(pairs, n)
        allr = compose_all(pairs)
        assert (top.far, top.frr) == (allr.far, allr.frr)
        bottom = compose_kofn(pairs, 1)
        anyr = compose_any(pairs)
        assert (bottom.far, bottom.frr) == (anyr.far, anyr.frr)


def test_any_all_duality_is_exact():
    rng = random.Random(888)
    for _ in range(200):
        pairs = random_pairs(rng, rng.randint(1, 9))
        swapped = [(frr, far) for far, frr in pairs]
        a = compose_any(pairs)
        b = compose_all(swapped)
        assert (a.far, a.frr) == (b.frr, b.far)


def test_kofn_monotone_in_k():
    rng = random.Random(999)
    for _ in range(40):
        n = rng.randint(2, 9)
        pairs = random_pairs(rng, n)
        results = [compose_kofn(pairs, k) for k in range(1, n + 1)]
        for lo, hi in zip(results, results[1:]):
            assert hi.far <= lo.far + 1e-15
            assert hi.frr >= lo.frr - 1e-15


def test_all_monotone_in_n_homogeneous():
    far, frr = 0.0003, 0.02
    prev = None
    for n in range(1, 8):
        rates = compose_all([(far, frr)] * n)
        if prev is not None:
            assert rates.far <= prev.far
            assert rates.frr >= prev.frr
        prev = rates


def test_pass_count_distribution_properties():
    rng = random.Random(4242)
    for _ in range(50):
        probs = [rng.random() for _ in range(rng.randint(1, 9))]
        dist = pass_count_distribution(probs, Population.LEGITIMATE)
        assert abs(math.fsum(dist.probs) - 1.0) <= 1e-12
        assert all(p >= 0.0 for p in dist.probs)
        oracle = pass_count_pmf(probs)
        for mine, ref in zip(dist.probs, oracle):
            assert math.isclose(mine, ref, rel_tol=1e-9, abs_tol=1e-15)
        k = rng.randint(0, len(probs))
        assert math.isclose(
            dist.at_least(k) + dist.below(k), 1.0, rel_tol=0, abs_tol=1e-12
        )


# -- weighted exact mode -------------------------------------------------------


def quints(pairs, weights):
    # mu and tau folded to 1; phi carries the whole weight
    return [(far, frr, 1.0, 1.0, w) for (far, frr), w in zip(pairs, weights)]


def test_weighted_matches_enumeration_oracle():
    rng = random.Random(555)
    for _ in range(40):
        n = rng.randint(1, 12)
        pairs = random_pairs(rng, n)
        weights = [rng.uniform(0.0, 2.0) for _ in range(n)]
        total = math.fsum(weights)
        threshold = rng.uniform(0.0, total if total > 0 else 1.0)
        rates = compose_weighted(quints(pairs, weights), threshold)
        oracle_far, oracle_frr = enum_rates(pairs, weighted_grant(weights, threshold))
        assert math.isclose(rates.far, oracle_far, rel_tol=1e-9, abs_tol=1e-300)
        assert math.isclose(rates.frr, oracle_frr, rel_tol=1e-9, abs_tol=1e-300)


# dyadic weights sum exactly, so no threshold below ties under rounding
DYADIC = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 15, 16])
@pytest.mark.parametrize("zeros", ["none", "some", "all"])
def test_weighted_half_split_matches_numpy_enumeration(n, zeros):
    rng = random.Random(f"split:{n}:{zeros}")
    pairs = [(rng.choice([0.0, 1.0, rng.random()]), rng.choice([0.0, 1.0, rng.random()])) for _ in range(n)]
    weights = [rng.choice(DYADIC[1:]) for _ in range(n)]
    if zeros == "some":
        weights = [w if rng.random() < 0.5 else 0.0 for w in weights]
    elif zeros == "all":
        weights = [0.0] * n
    total = sum(weights)
    tie = sum(w for w in weights if rng.random() < 0.5)
    for threshold in (0.0, -0.75, total, tie, total / 2 + 0.125):
        rates = compose_weighted(quints(pairs, weights), threshold)
        want_far, want_frr = weighted_rates_numpy(pairs, weights, threshold)
        assert math.isclose(rates.far, want_far, rel_tol=1e-9, abs_tol=1e-300), threshold
        assert math.isclose(rates.frr, want_frr, rel_tol=1e-9, abs_tol=1e-300), threshold


# float sums of these round, so a naive subset sum can tie with T in float
# arithmetic but not under fsum, and the other way round
NON_DYADIC = (0.05, 0.1, 0.15, 0.2, 0.3, 1 / 3, 0.4, 0.6, 0.7)


def tie_thresholds(rng, weights):
    # subset sums of the weights, summed naively in several orders and by fsum
    subset = [w for w in weights if rng.random() < 0.5]
    return (sum(weights), sum(reversed(weights)), sum(subset), sum(sorted(subset)), math.fsum(subset))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 9, 15, 16])
def test_weighted_half_split_matches_fsum_enumeration_at_ties(n):
    rng = random.Random(f"ties:{n}")
    for _ in range(12 if n <= 9 else 1):
        pairs = [(rng.choice([0.0, 1.0, rng.random()]), rng.choice([0.0, 1.0, rng.random()])) for _ in range(n)]
        weights = [rng.choice(NON_DYADIC) if rng.random() < 0.85 else 0.0 for _ in range(n)]
        for threshold in tie_thresholds(rng, weights):
            rates = compose_weighted(quints(pairs, weights), threshold)
            want_far, want_frr = weighted_rates_numpy(pairs, weights, threshold)
            assert math.isclose(rates.far, want_far, rel_tol=1e-9, abs_tol=1e-300), (weights, threshold)
            assert math.isclose(rates.frr, want_frr, rel_tol=1e-9, abs_tol=1e-300), (weights, threshold)


@pytest.mark.parametrize("weight, threshold, k", [(0.1, 1.2, 12), (1 / 3, 4.0, 13)])
def test_equal_weights_at_a_float_tie_compose_to_the_equivalent_kofn(weight, threshold, k):
    # n * w sums tie with T in float arithmetic for some pass counts; under
    # fsum the rule is exactly k-of-n, with k from equivalent_kofn
    assert equivalent_kofn(Policy(Strategy.weighted(threshold), {"f": weight}), 25) == k
    pairs = [(0.3, 0.2)] * 25
    rates = compose_weighted(quints(pairs, [weight] * 25), threshold)
    counting = compose_kofn(pairs, k)
    assert math.isclose(rates.far, counting.far, rel_tol=1e-12)
    assert math.isclose(rates.frr, counting.frr, rel_tol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 17, 25])
def test_class_path_agrees_with_meet_in_the_middle(n):
    # two independent exact engines on the same inputs: at most three weight
    # classes, zero weights among them, thresholds at float ties
    rng = random.Random(f"classes:{n}")
    for _ in range(30 if n <= 12 else 6):
        classes = rng.sample(NON_DYADIC + (0.0,), rng.randint(1, 3))
        weights = [rng.choice(classes) for _ in range(n)]
        pairs = [(rng.choice([0.0, 1.0, rng.random()]), rng.choice([0.0, 1.0, rng.random()])) for _ in range(n)]
        for threshold in tie_thresholds(rng, weights):
            by_class = reliability._class_tails(weights, pairs, threshold)
            halves = reliability._weighted_tails(weights, pairs, threshold)
            case = (weights, pairs, threshold)
            assert math.isclose(by_class.far, halves.far, rel_tol=1e-12), case
            assert math.isclose(by_class.frr, halves.frr, rel_tol=1e-12), case
            assert (by_class.far_underflow, by_class.frr_underflow) == (halves.far_underflow, halves.frr_underflow), case


@pytest.mark.parametrize("n", [EXACT_WEIGHTED_LIMIT + 1, 40, 200, 452])
def test_equal_weights_past_the_old_cap_compose_to_kofn(n):
    # 452 is the largest single class within the pass-matrix cell bound
    rng = random.Random(f"past-cap:{n}")
    pairs = [(rng.choice([0.0, 1.0, rng.random()]), rng.choice([0.0, 1.0, rng.random()])) for _ in range(n)]
    k = rng.randint(2, n - 1)
    cases = [(1.0, k - 0.5, k)]
    # float ties: n * w sums tie with T for some pass counts, as at n = 25
    for weight, threshold in ((0.1, 1.2), (1 / 3, 4.0)):
        cases.append((weight, threshold, equivalent_kofn(Policy(Strategy.weighted(threshold), {"f": weight}), n)))
    for weight, threshold, k in cases:
        rates = compose_weighted(quints(pairs, [weight] * n), threshold)
        counting = compose_kofn(pairs, k)
        assert math.isclose(rates.far, counting.far, rel_tol=1e-12), (weight, threshold)
        assert math.isclose(rates.frr, counting.frr, rel_tol=1e-12), (weight, threshold)
        assert (rates.far_underflow, rates.frr_underflow) == (counting.far_underflow, counting.frr_underflow)


@pytest.mark.parametrize("weights, threshold, granted", [
    ((0.05, 0.1, 0.15), 0.3, False),
    ((0.15, 0.15, 0.05), 0.35, False),
    ((0.05, 0.3, 0.3), 0.6499999999999999, True),
])
def test_weighted_rates_follow_decide_when_every_factor_passes(weights, threshold, granted):
    # every factor passes for certain, so FAR is 1 iff decide grants the
    # all-pass evidence, for the exact and the Monte Carlo rates alike
    factors = [replace(f, far=1.0, frr=0.0) for f in DEFAULT_CATALOG[:3]]
    policy = Policy(Strategy.weighted(threshold), {f.id: w for f, w in zip(factors, weights)})
    records = [EvidenceRecord(factor_id=f.id, decision=1) for f in factors]
    assert decide(records, policy, factors).granted is granted
    exact = compose_weighted(quints([(1.0, 0.0)] * 3, weights), threshold)
    assert (exact.far, exact.frr) == (float(granted), float(not granted))
    for mode in (monte_carlo_rates(factors, policy, 1000, seed=3),
                 compose_weighted(quints([(1.0, 0.0)] * 3, weights), threshold, mode="monte-carlo", trials=1000, seed=3)):
        assert (mode.far.value, mode.frr.value) == (float(granted), float(not granted))


def test_weighted_above_equals_a_per_row_fsum_at_ties():
    rng = np.random.default_rng(31)
    float_misses = 0
    for _ in range(60):
        n = int(rng.integers(1, 18))
        weights = rng.choice(NON_DYADIC + (0.0,), n).tolist()
        passes = rng.random((3000, n)) < rng.random(n)
        row = passes[int(rng.integers(3000))]
        threshold = rng.choice([sum(w for w, p in zip(weights, row) if p), sum(weights), -0.5])
        want = np.array([math.fsum(w for w, p in zip(weights, r) if p) > threshold for r in passes.tolist()])
        assert np.array_equal(reliability._weighted_above(passes, weights, threshold), want), (weights, threshold)
        float_misses += int(np.count_nonzero((passes @ np.array(weights) > threshold) != want))
    # the float estimate alone would get ties wrong, so the cases test the exact path
    assert float_misses > 0


def count_half_outcomes(monkeypatch):
    calls = [0]
    half_outcomes = reliability._half_outcomes

    def counted(weights, pairs):
        calls[0] += 1
        return half_outcomes(weights, pairs)

    monkeypatch.setattr(reliability, "_half_outcomes", counted)
    return calls


def test_weighted_enumerates_each_half_once(monkeypatch):
    # distinct weights: prod(n_c + 1) = 2^n outgrows 2^ceil(n/2) from n = 2 on,
    # so meet-in-the-middle runs, one enumeration per half
    calls = count_half_outcomes(monkeypatch)
    for n in (2, 7, EXACT_WEIGHTED_LIMIT):
        calls[0] = 0
        compose_weighted([(0.0003, 0.02, 1.0, 1.0, 1.0 + i / 64) for i in range(n)], n / 2)
        assert calls[0] == 2, n


def test_equal_weights_take_the_class_path(monkeypatch):
    # one weight class: n + 1 <= 2^ceil(n/2) pass counts for n = 1 and n >= 3,
    # so no half is enumerated
    calls = count_half_outcomes(monkeypatch)
    for n in (1, 3, 7, EXACT_WEIGHTED_LIMIT):
        compose_weighted([(0.0003, 0.02, 1.0, 1.0, 1.0)] * n, n / 2)
        assert calls[0] == 0, n


def test_weighted_equals_kofn_at_half_offset_threshold():
    rng = random.Random(666)
    for _ in range(40):
        n = rng.randint(1, 12)
        k = rng.randint(1, n)
        pairs = random_pairs(rng, n)
        counting = compose_kofn(pairs, k)
        weighted = compose_weighted(quints(pairs, [1.0] * n), k - 0.5)
        assert math.isclose(weighted.far, counting.far, rel_tol=1e-9, abs_tol=1e-300)
        assert math.isclose(weighted.frr, counting.frr, rel_tol=1e-9, abs_tol=1e-300)


def test_weighted_degenerate_zero_policy():
    rates = compose_weighted([(0.2, 0.1, 1.0, 1.0, 0.0)] * 3, 0.0)
    assert rates.far == 0.0
    assert rates.frr == 1.0


def test_weighted_single_factor_identity():
    rates = compose_weighted([(0.0003, 0.02, 1.0, 1.0, 1.0)], 0.5)
    assert (rates.far, rates.frr) == (0.0003, 0.02)


def test_weighted_capacity_error_directs_to_monte_carlo():
    # distinct weights past n = 25 have 2^26 pass-count vectors, too many to compose exactly
    entries = [(0.1, 0.1, 1.0, 1.0, 1.0 + i / 64) for i in range(EXACT_WEIGHTED_LIMIT + 1)]
    with pytest.raises(CapacityError) as err:
        compose_weighted(entries, 3.0)
    assert "monte-carlo" in str(err.value)
    # one class of 453: 454 count vectors, but 454 x 453 cells exceed 2^13 x 25
    with pytest.raises(CapacityError, match="monte-carlo"):
        compose_weighted([(0.1, 0.1, 1.0, 1.0, 1.0)] * 453, 3.0)
    # the escape hatch itself works
    est = compose_weighted(entries, 3.0, mode="monte-carlo", trials=20_000, seed=9)
    assert 0.0 <= est.far.value <= 1.0
    assert est.far.half_width > 0.0


def test_weighted_rejects_weights_whose_sum_overflows():
    # the tie band and the exact sum both need a finite total weight
    for rows in ([(0.1, 0.1, 1e200, 1e200, 1.0)], [(0.1, 0.1, 1.0, 1.0, 1e308)] * 2):
        for mode in ("exact", "monte-carlo"):
            with pytest.raises(ConfigError):
                compose_weighted(rows, 1.0, mode=mode, trials=10)


def test_weighted_monte_carlo_mode_matches_monte_carlo_rates():
    # one estimator behind both entry points: the same factors, weights
    # mu*tau*phi and seed give the same estimate
    factors = [
        replace(f, far=0.1 + 0.05 * i, frr=0.2 - 0.03 * i, vendor_accuracy=0.7 + 0.05 * i)
        for i, f in enumerate(DEFAULT_CATALOG[:5])
    ]
    phi = {f.id: 0.5 + 0.25 * i for i, f in enumerate(factors)}
    tau = {factors[0].id: 0.8, factors[3].id: 0.6}
    policy = Policy(Strategy.weighted(1.7), phi)
    entries = [(f.far, f.frr, f.vendor_accuracy, tau.get(f.id, 1.0), phi[f.id]) for f in factors]
    for trials, workers in ((50_000, 1), (140_000, 2)):
        via_compose = compose_weighted(entries, 1.7, mode="monte-carlo", trials=trials, seed=21, workers=workers)
        via_rates = monte_carlo_rates(factors, policy, trials, seed=21, trust=tau, workers=workers)
        assert via_compose == via_rates
        assert via_compose.far.events > 0 and via_compose.frr.events > 0
    # and both hold tau to EvidenceRecord's rule, [0, 1]
    for bad in (math.inf, math.nan, 5.0):
        with pytest.raises(ConfigError, match="trust"):
            monte_carlo_rates(factors, policy, 1000, seed=21, trust={factors[3].id: bad})
        with pytest.raises(ConfigError, match="tau"):
            compose_weighted([(*e[:3], bad, e[4]) for e in entries], 1.7, mode="monte-carlo", trials=1000)


def test_weighted_tie_mass_goes_to_deny():
    # two unit weights, threshold exactly 1: a single pass (score 1) denies
    pairs = [(0.5, 0.5), (0.5, 0.5)]
    rates = compose_weighted(quints(pairs, [1.0, 1.0]), 1.0)
    # grant only when both pass
    assert math.isclose(rates.far, 0.25, rel_tol=1e-12)
    assert math.isclose(rates.frr, 0.75, rel_tol=1e-12)


# -- underflow policy ----------------------------------------------------------


def test_underflow_reported_as_zero_with_flag():
    tiny = [(1e-30, 0.02)] * 11  # product 1e-330 underflows
    rates = compose_all(tiny)
    assert rates.far == 0.0
    assert rates.far_underflow
    assert not rates.frr_underflow
    kofn = compose_kofn([(1e-200, 0.02)] * 4, 2)
    assert (kofn.far, kofn.far_underflow, kofn.frr_underflow) == (0.0, True, False)
    kofn = compose_kofn([(0.02, 1e-200)] * 4, 3)
    assert (kofn.frr, kofn.frr_underflow, kofn.far_underflow) == (0.0, True, False)
    # weighted: every check must pass (far) or fail (frr), 1e-400 collapses to 0
    weighted = compose_weighted(quints([(1e-100, 0.02)] * 4, [1.0, 2.0, 1.0, 0.5]), 4.0)
    assert (weighted.far, weighted.far_underflow, weighted.frr_underflow) == (0.0, True, False)
    weighted = compose_weighted(quints([(0.02, 1e-100)] * 4, [1.0, 2.0, 1.0, 0.5]), 0.25)
    assert (weighted.frr, weighted.frr_underflow, weighted.far_underflow) == (0.0, True, False)


def test_weighted_underflow_flag_comes_from_the_rates_not_the_masses():
    # every half mass of the all-pass outcome underflows (1e-400), so only
    # the source rates can tell that >= 4 passes is possible
    tiny = quints([(1e-200, 0.02)] * 4, [1.0] * 4)
    for threshold in (3.5, 2.5):
        weighted = compose_weighted(tiny, threshold)
        assert (weighted.far, weighted.far_underflow, weighted.frr_underflow) == (0.0, True, False)
        assert compose_kofn([(1e-200, 0.02)] * 4, int(threshold + 0.5)).far_underflow
    assert compose_all([(1e-200, 0.02)] * 4).far_underflow
    weighted = compose_weighted(quints([(0.02, 1e-200)] * 4, [1.0] * 4), 0.5)
    assert (weighted.frr, weighted.frr_underflow, weighted.far_underflow) == (0.0, True, False)
    # the same shapes with one factor that can never pass (far) or never
    # fail (frr): the event is impossible, not underflowed
    weighted = compose_weighted(quints([(1e-200, 0.02)] * 3 + [(0.0, 0.02)], [1.0] * 4), 3.5)
    assert (weighted.far, weighted.far_underflow) == (0.0, False)
    weighted = compose_weighted(quints([(0.02, 1e-200)] * 3 + [(0.02, 0.0)], [1.0] * 4), 0.5)
    assert (weighted.frr, weighted.frr_underflow) == (0.0, False)


def test_weighted_underflow_flags_match_an_outcome_enumeration():
    # a zero event is flagged iff some outcome whose every branch has a
    # positive rate lands in it; dyadic weights keep the scores exact
    rng = random.Random(808)
    for _ in range(300):
        n = rng.randint(1, 8)
        pairs = [(rng.choice([0.0, 1.0, 1e-200, rng.random()]), rng.choice([0.0, 1.0, 1e-200, rng.random()])) for _ in range(n)]
        weights = [rng.choice(DYADIC) for _ in range(n)]
        threshold = rng.choice([-0.25, 0.0, sum(weights), sum(w for w in weights if rng.random() < 0.5)])
        rates = compose_weighted(quints(pairs, weights), threshold)
        far_possible = frr_possible = False
        for outcome in itertools.product((False, True), repeat=n):
            granted = weighted_grant(weights, threshold)(outcome)
            if granted and all((far if o else 1.0 - far) > 0.0 for o, (far, _) in zip(outcome, pairs)):
                far_possible = True
            if not granted and all((1.0 - frr if o else frr) > 0.0 for o, (_, frr) in zip(outcome, pairs)):
                frr_possible = True
        assert rates.far_underflow == (rates.far == 0.0 and far_possible), (pairs, weights, threshold)
        assert rates.frr_underflow == (rates.frr == 0.0 and frr_possible), (pairs, weights, threshold)


def test_exact_zero_is_not_flagged_as_underflow():
    rates = compose_all([(0.0, 0.02)] * 3)
    assert rates.far == 0.0
    assert not rates.far_underflow
    anyr = compose_any([(0.1, 0.0)] * 3)
    assert anyr.frr == 0.0
    assert not anyr.frr_underflow
    # only three factors can pass, so >= 4 passes is impossible
    kofn = compose_kofn([(0.0, 0.1)] * 2 + [(0.1, 0.1)] * 3, 4)
    assert (kofn.far, kofn.far_underflow) == (0.0, False)
    # three factors pass for certain, so < 3 passes is impossible
    kofn = compose_kofn([(0.1, 0.0)] * 3 + [(0.1, 0.1)] * 2, 3)
    assert (kofn.frr, kofn.frr_underflow) == (0.0, False)
    # weighted: the factors that can pass reach at most 3.5 <= T
    weighted = compose_weighted(quints([(0.1, 0.1), (0.0, 0.1), (0.1, 0.1), (0.0, 0.1)], [1.0, 2.0, 2.5, 1.0]), 3.5)
    assert (weighted.far, weighted.far_underflow) == (0.0, False)
    # weighted: a factor that passes for certain already exceeds T
    weighted = compose_weighted(quints([(0.1, 0.1), (0.1, 0.1), (0.1, 0.0), (0.1, 0.1)], [1.0, 2.0, 2.5, 1.0]), 2.0)
    assert (weighted.frr, weighted.frr_underflow) == (0.0, False)


# -- Monte Carlo ---------------------------------------------------------------


def test_monte_carlo_matches_closed_form_for_all_strategy():
    factors = list(DEFAULT_CATALOG[:7])
    closed = compose_all([(f.far, f.frr) for f in factors])
    est = monte_carlo_rates(factors, Policy(strategy=Strategy.all_checks()), 200_000, seed=12)
    sigma = math.sqrt(closed.frr * (1 - closed.frr) / 200_000)
    assert abs(est.frr.value - closed.frr) <= 3 * sigma


def test_monte_carlo_deterministic_and_worker_independent():
    factors = list(DEFAULT_CATALOG[:5])
    policy = Policy(strategy=Strategy.k_of_n(3))
    a = monte_carlo_rates(factors, policy, 150_000, seed=77)
    b = monte_carlo_rates(factors, policy, 150_000, seed=77)
    c = monte_carlo_rates(factors, policy, 150_000, seed=77, workers=4)
    assert a == b == c
    d = monte_carlo_rates(factors, policy, 150_000, seed=78)
    assert d != a


@pytest.mark.parametrize("cols", [0, 1, 7, 300])
def test_passes_per_row_equals_row_sum(cols):
    rng = np.random.default_rng(cols)
    passes = rng.random((1000, cols)) < rng.random(cols)
    counts = reliability._passes_per_row(passes)
    assert counts.shape == (1000,)
    assert np.array_equal(counts, passes.sum(axis=1))


def _block_rows(cols):
    # the generator's block height for cols columns: its first block's rows
    return len(next(reliability._uniform_blocks(np.random.default_rng(0), 1 << 20, cols))[1])


@pytest.mark.parametrize("cols", [0, 1, 3, 13, 300])
@pytest.mark.parametrize("shift", [None, -1, 0, 1])
def test_uniform_blocks_are_the_draws_of_one_call(cols, shift):
    # a shard of 1 row, a block's rows -1/+0/+1, or 2^16 rows; the state
    # afterwards matches too, so a draw made next (monitoring) is unchanged
    sizes = [1, 1 << 16] if shift is None else [_block_rows(cols) + shift]
    for size in sizes:
        rng, want = np.random.default_rng(size), np.random.default_rng(size)
        whole = want.random((size, cols))
        rows = 0
        for lo, block in reliability._uniform_blocks(rng, size, cols):
            assert lo == rows and len(block) > 0
            assert np.array_equal(block, whole[lo:lo + len(block)])
            rows += len(block)
        assert rows == size
        assert rng.bit_generator.state == want.bit_generator.state
        assert rng.random() == want.random()


def test_monte_carlo_holds_one_block_per_shard():
    # a whole-shard draw over 300 factors would hold 2^16 x 300 floats,
    # 157 MB; numpy reports its buffers to tracemalloc
    factors = [replace(DEFAULT_CATALOG[i % 14], id=f"f{i}") for i in range(300)]
    tracemalloc.start()
    try:
        monte_carlo_rates(factors, Policy(Strategy.k_of_n(150)), 1 << 16, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _recount(pairs, rule, trials, seed):
    # the estimator's shards and draws, scored by a short-axis reduce
    full, rem = divmod(trials, 1 << 16)
    sizes = [1 << 16] * full + ([rem] if rem else [])
    counts = []
    for seq, probs in zip(np.random.SeedSequence(seed).spawn(2),
                          ([far for far, _ in pairs], [1.0 - frr for _, frr in pairs])):
        granted = 0
        for child, size in zip(seq.spawn(len(sizes)), sizes):
            passes = np.random.default_rng(child).random((size, len(probs))) < probs
            granted += int(np.count_nonzero(rule(passes)))
        counts.append(granted)
    return counts[0], trials - counts[1]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("strategy, rule", [
    (Strategy.all_checks(), lambda passes: passes.all(axis=1)),
    (Strategy.any_check(), lambda passes: passes.any(axis=1)),
    (Strategy.k_of_n(4), lambda passes: passes.sum(axis=1) >= 4),
])
def test_monte_carlo_counting_events_equal_a_row_reduce_recount(strategy, rule, workers):
    # rates wide enough that every rule sees events in both populations
    factors = [replace(f, far=0.2 + 0.1 * i, frr=0.05 + 0.05 * i) for i, f in enumerate(DEFAULT_CATALOG[:7])]
    est = monte_carlo_rates(factors, Policy(strategy=strategy), 150_000, seed=41, workers=workers)
    far_events, frr_events = _recount([(f.far, f.frr) for f in factors], rule, 150_000, 41)
    assert (est.far.events, est.frr.events) == (far_events, frr_events)
    assert 0 < far_events < 150_000 and 0 < frr_events < 150_000


@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_weighted_events_equal_a_per_row_fsum_recount(workers):
    # 70,000 trials cross a shard boundary and many block boundaries; rows
    # passing the first three weights tie T, where a float sum would grant
    weights = (0.1, 0.2, 0.3, 1 / 3, 0.4, 0.6, 0.7)
    threshold = 0.6
    assert math.fsum(weights[:3]) == threshold < sum(weights[:3])
    factors = [replace(f, far=0.2 + 0.1 * i, frr=0.05 + 0.05 * i, vendor_accuracy=1.0)
               for i, f in enumerate(DEFAULT_CATALOG[:7])]
    pairs = [(f.far, f.frr) for f in factors]
    rule = lambda passes: np.array([math.fsum(w for w, p in zip(weights, row) if p) > threshold
                                    for row in passes.tolist()])
    want = _recount(pairs, rule, 70_000, 43)
    policy = Policy(Strategy.weighted(threshold), {f.id: w for f, w in zip(factors, weights)})
    via_rates = monte_carlo_rates(factors, policy, 70_000, seed=43, workers=workers)
    via_compose = compose_weighted(quints(pairs, weights), threshold, mode="monte-carlo",
                                   trials=70_000, seed=43, workers=workers)
    for est in (via_rates, via_compose):
        assert (est.far.events, est.frr.events) == want
    assert 0 < want[0] < 70_000 and 0 < want[1] < 70_000


def test_monte_carlo_single_trial_degenerate():
    factors = [DEFAULT_CATALOG[0]]
    est = monte_carlo_rates(factors, Policy(strategy=Strategy.any_check()), 1, seed=0)
    assert est.far.value in (0.0, 1.0)
    assert est.frr.value in (0.0, 1.0)


def test_monte_carlo_zero_events_uses_rule_of_three_bound():
    factors = list(DEFAULT_CATALOG[:7])
    est = monte_carlo_rates(factors, Policy(strategy=Strategy.all_checks()), 10_000, seed=5)
    # far for 7 stacked checks is ~2e-25; no trial can produce an event
    assert est.far.events == 0
    assert est.far.value == 0.0
    assert math.isclose(est.far.half_width, math.log(100.0) / 10_000, rel_tol=1e-12)


def test_monte_carlo_half_width_shrinks_with_trials():
    factors = list(DEFAULT_CATALOG[:3])
    policy = Policy(strategy=Strategy.k_of_n(2))
    small = monte_carlo_rates(factors, policy, 2_000, seed=3)
    large = monte_carlo_rates(factors, policy, 200_000, seed=3)
    ratio = small.frr.half_width / large.frr.half_width
    assert 5.0 <= ratio <= 20.0  # 100x trials -> ~10x narrower


def test_monte_carlo_validates_trials():
    with pytest.raises(ConfigError):
        monte_carlo_rates(list(DEFAULT_CATALOG[:3]), Policy(strategy=Strategy.all_checks()), 0, seed=1)


# -- sweep ---------------------------------------------------------------------


def test_sweep_covers_grid_sorted():
    rows = sweep(0.0003, 0.02, range(1, 8), ("all", "any", "balanced"))
    assert len(rows) == 21
    assert [(r.n, r.strategy) for r in rows] == [
        (n, s) for n in range(1, 8) for s in ("all", "any", "balanced")
    ]
    by_key = {(r.n, r.strategy): r for r in rows}
    anchor = by_key[(7, "all")]
    assert math.isclose(anchor.frr, 1.0 - 0.98**7, rel_tol=1e-12)
    balanced = by_key[(7, "balanced")]
    assert balanced.k == 4
    oracle_far, _ = enum_rates(SEVEN, kofn_grant(4))
    assert math.isclose(balanced.far, oracle_far, rel_tol=1e-9)


def test_sweep_single_factor_rows_coincide():
    rows = sweep(0.0003, 0.02, range(1, 2), ("all", "any", "balanced"))
    rates = {(r.far, r.frr) for r in rows}
    assert rates == {(0.0003, 0.02)}


def test_sweep_log_columns():
    rows = sweep(0.0003, 0.02, range(7, 8), ("all",))
    (row,) = rows
    assert math.isclose(row.log10_far, 7 * math.log10(0.0003), rel_tol=1e-12)
    assert math.isclose(row.log10_far, math.log10(row.far), rel_tol=1e-9)
    zero = sweep(0.0, 0.02, range(2, 3), ("all",))[0]
    assert zero.far == 0.0
    assert zero.log10_far == -math.inf


def test_sweep_log_column_survives_underflow():
    # far^n underflows in linear space but the log column stays finite
    rows = sweep(1e-30, 0.02, range(11, 12), ("all",))
    (row,) = rows
    assert row.far == 0.0
    assert math.isclose(row.log10_far, -330.0, rel_tol=1e-12)


def test_sweep_csv_rendering():
    rows = sweep(0.0003, 0.02, range(1, 8), ("all", "any", "balanced"))
    text = sweep_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 22
    assert text.endswith("\n")
    # 17 significant digits round-trip exactly
    for line, row in zip(lines[1:], rows):
        fields = line.split(",")
        assert int(fields[0]) == row.n
        assert fields[1] == row.strategy
        assert int(fields[2]) == row.k
        assert float(fields[3]) == row.far
        assert float(fields[4]) == row.frr


def test_negative_zero_rates_compose_to_positive_zero():
    # 0.0 <= -0.0 passes validation; no rate may come back as -0.0
    for far, frr in ((-0.0, 0.02), (0.02, -0.0)):
        lines = sweep_to_csv(sweep(far, frr, range(1, 4))).splitlines()
        assert "-0" not in [cell for line in lines for cell in line.split(",")]
    results = [
        compose_all([(-0.0, 0.02)] * 3),
        compose_any([(0.1, -0.0)] * 3),
        compose_kofn([(-0.0, -0.0)] * 3, 2),
        compose_weighted(quints([(-0.0, -0.0)] * 3, [1.0] * 3), 0.5),
    ]
    for rates in results:
        assert math.copysign(1.0, rates.far) == math.copysign(1.0, rates.frr) == 1.0, rates


def test_majority_rule():
    assert [majority_k(n) for n in range(1, 8)] == [1, 2, 2, 3, 3, 4, 4]


def test_sweep_rejects_unknown_strategy():
    with pytest.raises(ConfigError):
        sweep(0.0003, 0.02, range(1, 3), ("all", "most"))


def _fresh_row(far, frr, n, strategy, k_rule):
    # each n composed from scratch by the public calls, rebuilding the DP;
    # the log of an underflowed product is the fsum of its factors' logs
    pairs = [(far, frr)] * n

    def log10(value, factors=None):
        if value > 0.0:
            return math.log10(value)
        if factors is not None and all(v > 0.0 for v in factors):
            return math.fsum(math.log10(v) for v in factors)
        return -math.inf

    if strategy == "all":
        rates = compose_all(pairs)
        return n, rates, log10(rates.far, [far] * n), log10(rates.frr)
    if strategy == "any":
        rates = compose_any(pairs)
        return 1, rates, log10(rates.far), log10(rates.frr, [frr] * n)
    k = k_rule(n)
    rates = compose_kofn(pairs, k)
    return k, rates, log10(rates.far), log10(rates.frr)


@pytest.mark.parametrize(
    "far, frr, ns, k_rule",
    [
        (0.0003, 0.02, range(1, 121), majority_k),
        (0.0003, 0.02, [100, 5, 7], majority_k),
        (0.15, 0.10, range(1, 61), lambda n: max(1, n // 3)),
        (0.0, 0.02, range(1, 41), majority_k),
        (0.0003, 0.0, range(1, 41), majority_k),
        (1.0, 1.0, range(1, 41), majority_k),
        (0.0, 1.0, [3, 40, 9], lambda n: max(1, n // 3)),
        (1e-30, 1e-30, range(1, 61), majority_k),
        (-0.0, 0.02, range(1, 41), majority_k),
        (0.0003, -0.0, range(1, 41), lambda n: max(1, n // 3)),
        (5e-324, 0.02, range(1, 41), majority_k),
        (0.15, 5e-324, range(1, 41), majority_k),
        (1e-310, 0.9, range(1, 41), majority_k),
        (0.0003, 1e-310, [2, 60, 7], lambda n: max(1, n // 3)),
        (0.00031, 0.0203, range(1, 193), majority_k),
        (0.0003, 0.02, [250, 3, 90], majority_k),
    ],
)
def test_sweep_rows_equal_fresh_per_n_calls(far, frr, ns, k_rule):
    rows = sweep(far, frr, ns, k_rule=k_rule)
    assert [(r.n, r.strategy) for r in rows] == [
        (n, s) for n in sorted(ns) for s in ("all", "any", "balanced")
    ]
    for row in rows:
        k, rates, log_far, log_frr = _fresh_row(far, frr, row.n, row.strategy, k_rule)
        assert (row.k, row.far, row.frr, row.log10_far, row.log10_frr) == (
            k, rates.far, rates.frr, log_far, log_frr
        ), (row.n, row.strategy)


def test_sweep_k_rule_errors_are_unchanged():
    # an in-range non-int k fails compose_kofn's integer check
    with pytest.raises(ConfigError) as err:
        sweep(0.0003, 0.02, range(3, 6), k_rule=lambda n: 2.0)
    with pytest.raises(ConfigError) as fresh:
        compose_kofn([(0.0003, 0.02)] * 3, 2.0)
    assert str(err.value) == str(fresh.value) == "k: k must be an integer in [1, 3]"
    # an out-of-range k fails the sweep's own range check first
    with pytest.raises(ConfigError) as err:
        sweep(0.0003, 0.02, range(1, 6), k_rule=lambda n: n + 1)
    assert str(err.value) == "k: k rule produced 2, outside [1, 1]"


def test_sweep_extends_one_pass_count_dp_per_population(monkeypatch):
    steps = 0
    step = reliability._pass_step

    def counted(probs, p, q):
        nonlocal steps
        steps += 1
        return step(probs, p, q)

    monkeypatch.setattr(reliability, "_pass_step", counted)
    for ns, top in ((range(1, 81), 80), ([100, 5, 7], 100)):
        steps = 0
        sweep(0.0003, 0.02, ns)
        assert steps == 2 * top
    # sweeps without a balanced 1 < k < n row take no DP step
    steps = 0
    sweep(0.0003, 0.02, range(1, 81), ("all", "any"))
    sweep(0.0003, 0.02, range(1, 81), k_rule=lambda n: n)
    assert steps == 0
    compose_kofn(SEVEN, 4)
    assert steps == 14


def test_sweep_extends_the_pass_all_and_pass_any_state_once_per_n(monkeypatch):
    steps = 0
    all_steps = reliability._all_steps

    def counted(pairs):
        nonlocal steps
        for state in all_steps(pairs):
            steps += 1
            yield state

    monkeypatch.setattr(reliability, "_all_steps", counted)
    # one pass-all and one pass-any step per n up to the largest, not one per factor of every row
    for ns, top in ((range(1, 81), 80), ([250, 3, 90], 250)):
        steps = 0
        sweep(0.0003, 0.02, ns)
        assert steps == 2 * top
    steps = 0
    compose_all(SEVEN)
    compose_any(SEVEN)
    compose_kofn(SEVEN, 7)
    assert steps == 21
