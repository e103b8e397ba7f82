"""Composite FAR/FRR analytics for fused authentication systems.

All composition assumes independent factors. Counting strategies reduce
to tails of a Poisson-binomial pass-count distribution, computed by exact
dynamic programming that a sweep extends from n to n+1 factors (O(N^2) over
1..N; its all and any rows take O(1) steps each); the weighted-threshold rule, fsum(passing weights) > T as decide()
applies it, is evaluated exactly by whichever of two enumerations is
smaller: per weight class, one pass-count DP per distinct weight and one
row per vector of class pass counts, prod(n_c + 1) rows; or meet-in-the-
middle over outcome vectors, 2^ceil(n/2) per half, each half enumerated once
and shared by both populations. Any n <= 25 composes exactly; past that,
only weights in few classes do.
A seeded Monte Carlo estimator serves as an independent cross-check for
every strategy. Probabilities stay in linear space with compensated
summation, and pass/fail probabilities are taken from the source rates
rather than re-derived as 1 - x, so degenerate cases (a single factor, an
exact tie) come out bit-exact. Positive results that vanish below 1e-300
are reported as 0 with an underflow flag, and log-scale values are derived
separately where a closed product form exists.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import configio
from .errors import CapacityError, ConfigError, EvaluationError
from .fusion import Policy, StrategyKind, _require_weights

UNDERFLOW_FLOOR = 1e-300

# two-sided 99% normal quantile; one-sided 99% zero-event exponent ln(100)
_Z99 = 2.5758293035489004
_LN100 = 4.605170185988092


class Population(Enum):
    LEGITIMATE = "legitimate"
    ADVERSARY = "adversary"


@dataclass(frozen=True)
class CompositeRates:
    """System-level error rates. A set underflow flag means the true value
    is positive but below 1e-300 and was reported as 0."""

    far: float
    frr: float
    far_underflow: bool = False
    frr_underflow: bool = False

    def __post_init__(self):
        for name in ("far", "frr"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise EvaluationError(f"{name}={value!r} outside [0, 1]")


@dataclass(frozen=True)
class PassCountDistribution:
    """P(exactly j of n factors pass) under one hypothesis."""

    probs: tuple[float, ...]
    population: Population

    def __post_init__(self):
        if any(p < 0.0 for p in self.probs):
            raise EvaluationError("pass-count probabilities must be non-negative")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > 1e-12:
            raise EvaluationError(f"pass-count distribution sums to {total!r}, not 1")

    @property
    def n(self) -> int:
        return len(self.probs) - 1

    def at_least(self, k: int) -> float:
        """P(pass count >= k), summed directly over the upper tail."""
        return math.fsum(self.probs[k:])

    def below(self, k: int) -> float:
        """P(pass count < k), summed directly over the lower tail."""
        return math.fsum(self.probs[:k])


def _pass_step(probs: list[float], p: float, q: float) -> list[float]:
    # the pass-count distribution after one more factor, one Bernoulli
    # convolution (Hong, CSDA 59, 2013). Callers supply both the pass and the
    # fail probability from the source data, not 1 - x, which keeps degenerate
    # cases bit-exact; adding 0.0 turns a -0.0 rate into 0.0, so no mass is -0.0
    p, q = p + 0.0, q + 0.0
    return [probs[0] * q, *[m * q + prev * p for prev, m in zip(probs, probs[1:])], probs[-1] * p]


def _pass_counts(pq: Sequence[tuple[float, float]]) -> list[float]:
    probs = [1.0]
    for p, q in pq:
        probs = _pass_step(probs, p, q)
    return probs


def pass_count_distribution(pass_probs: Sequence[float], population: Population) -> PassCountDistribution:
    """Poisson-binomial distribution of the number of passing factors.

    Exact dynamic programming: convolve one Bernoulli at a time.
    """
    for i, p in enumerate(pass_probs):
        configio.unit_interval(p, "pass_probs", i)
    probs = _pass_counts([(p, 1.0 - p) for p in pass_probs])
    return PassCountDistribution(probs=tuple(probs), population=population)


def _validate_pairs(pairs: Sequence[tuple[float, float]]) -> None:
    if not pairs:
        raise EvaluationError("factor list must be non-empty")
    for i, (far, frr) in enumerate(pairs):
        configio.unit_interval(far, "factors", i, "far")
        configio.unit_interval(frr, "factors", i, "frr")


def _floored(value: float, possible: bool) -> tuple[float, bool]:
    # report tiny-but-positive results as 0 with the underflow flag; the
    # flag also covers values the float math already collapsed to 0. Every
    # zero comes back as +0.0, so a -0.0 rate never renders as "-0"
    if value <= 0.0:
        return 0.0, value == 0.0 and possible
    if value < UNDERFLOW_FLOOR:
        return 0.0, True
    return min(value, 1.0), False


def compose_all(pairs: Sequence[tuple[float, float]]) -> CompositeRates:
    """Pass-all fusion: an adversary must fool every check, a legitimate
    user fails if any single check fails."""
    _validate_pairs(pairs)
    return _all_rates(pairs)


def compose_any(pairs: Sequence[tuple[float, float]]) -> CompositeRates:
    """Pass-any fusion. Exact dual of compose_all with the error roles
    swapped, and implemented that way so the duality holds bit for bit."""
    _validate_pairs(pairs)
    return _any_rates(pairs)


# the compositions proper, for callers that validated their pairs already


def _all_steps(pairs: Iterable[tuple[float, float]]) -> Iterator[tuple[float, list[float]]]:
    # the pass-all state after each factor: the far product, in math.prod's
    # order and type, and P(some check fails) as its masses partitioned by
    # the first failing factor. Summing those directly avoids the
    # 1 - prod(1 - frr) round trip, so one factor composes to exactly its own
    # frr and tiny rates keep their relative precision. The list grows in place
    far, terms, survive = 1, [], 1.0
    for f, r in pairs:
        far *= f
        terms.append(r * survive)
        survive *= 1.0 - r
        yield far, terms


def _all_composite(far: float, terms: list[float], far_possible: bool, frr_possible: bool) -> CompositeRates:
    far, far_uf = _floored(far, far_possible)
    frr, frr_uf = _floored(math.fsum(terms), frr_possible)
    return CompositeRates(far=far, frr=frr, far_underflow=far_uf, frr_underflow=frr_uf)


def _swapped(rates: CompositeRates) -> CompositeRates:
    # pass-any is pass-all with the error roles swapped
    return CompositeRates(far=rates.frr, frr=rates.far, far_underflow=rates.frr_underflow, frr_underflow=rates.far_underflow)


def _all_rates(pairs: Sequence[tuple[float, float]]) -> CompositeRates:
    for far, terms in _all_steps(pairs):
        pass
    return _all_composite(far, terms, all(f > 0.0 for f, _ in pairs), any(f > 0.0 for _, f in pairs))


def _any_rates(pairs: Sequence[tuple[float, float]]) -> CompositeRates:
    return _swapped(_all_rates([(frr, far) for far, frr in pairs]))


def compose_kofn(pairs: Sequence[tuple[float, float]], k: int) -> CompositeRates:
    """k-of-n counting fusion via Poisson-binomial tails.

    k=n and k=1 delegate to compose_all / compose_any so the boundary
    equivalences hold exactly, not merely to tolerance.
    """
    _validate_pairs(pairs)
    _check_k(k, len(pairs))
    if k == len(pairs):
        return _all_rates(pairs)
    if k == 1:
        return _any_rates(pairs)
    # fail probabilities come from the source data, not from 1 - pass
    adversary = _pass_counts([(far, 1.0 - far) for far, _ in pairs])
    legitimate = _pass_counts([(1.0 - frr, frr) for _, frr in pairs])
    return _kofn_tails(adversary, legitimate, k, sum(1 for f, _ in pairs if f > 0.0), sum(1 for _, f in pairs if f == 0.0))


def _check_k(k: int, n: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= n:
        raise ConfigError(f"k must be an integer in [1, {n}]", field="k")


def _kofn_tails(adversary: list[float], legitimate: list[float], k: int, can_pass: int, sure_pass: int) -> CompositeRates:
    # positivity: >= k can pass iff at least k factors have positive pass
    # probability (can_pass); < k can happen iff fewer than k factors pass
    # for certain (sure_pass)
    far, far_uf = _floored(math.fsum(adversary[k:]), can_pass >= k)
    frr, frr_uf = _floored(math.fsum(legitimate[:k]), sure_pass < k)
    return CompositeRates(far=far, frr=frr, far_underflow=far_uf, frr_underflow=frr_uf)


# ---------------------------------------------------------------------------
# Weighted-threshold composition (exact enumeration)

EXACT_WEIGHTED_LIMIT = 25
# past n = 25, the class path's bounds: the 2^13 outcomes of an n = 25
# meet-in-the-middle half, and a pass matrix of that many rows of 25 cells
_CLASS_ROWS = 1 << 13
_CLASS_CELLS = _CLASS_ROWS * EXACT_WEIGHTED_LIMIT


def _tie_band(weights: Sequence[float], threshold: float) -> float:
    """Half-width of the band about T inside which a float sum of passing
    weights cannot settle fsum(passing weights) > T: the error of any float
    sum of n weights, gamma_n * sum(|w|) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, section 4.2), plus the rounding of
    T - a, plus one ulp of T; doubled to cover rounding the band's own
    edges."""
    u, n, total = 2.0**-53, len(weights), math.fsum(map(abs, weights))
    return 2.0 * (n * u / (1.0 - n * u) * total + u * (abs(threshold) + total) + math.ulp(threshold))


def _weighted_above(passes: np.ndarray, weights: Sequence[float], threshold: float) -> np.ndarray:
    """Per row of a boolean pass matrix, math.fsum(passing weights) > T: the
    weighted grant rule of decide(), so ties deny everywhere.

    An adaptive predicate (Shewchuk, DCG 18, 1997): a single-threaded float
    estimate decides every row farther than _tie_band from T, and fsum the
    rest, once per distinct multiset of passing weights (the sorted row with
    failing columns zeroed): equal weights cost one fsum per pass count."""
    s = np.einsum("ij,j->i", passes, np.asarray(weights, dtype=float))
    above = s > threshold
    s -= threshold
    near = np.flatnonzero(np.abs(s, out=s) <= _tie_band(weights, threshold))
    if len(near):
        rows, inverse = np.unique(np.sort(np.where(passes[near], weights, 0.0), axis=1), axis=0, return_inverse=True)
        above[near] = np.array([math.fsum(row) > threshold for row in rows.tolist()], dtype=bool)[inverse.ravel()]
    return above


def _half_outcomes(weights: Sequence[float], pairs: Sequence[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    # all 2^m outcomes of one half: the score reached, and its probability
    # mass under the adversary (row 0) and the legitimate user (row 1)
    scores = np.zeros(1)
    mass = np.ones((2, 1))
    for w, (far, frr) in zip(weights, pairs):
        scores = np.concatenate([scores, scores + w])
        mass = (np.array([[1.0 - far, far], [frr, 1.0 - frr]])[:, :, None] * mass[:, None, :]).reshape(2, -1)
    return scores, mass


def _weighted_tails(weights: Sequence[float], pairs: Sequence[tuple[float, float]], threshold: float) -> CompositeRates:
    """Adversary P(score > T) and legitimate P(score <= T), each summed
    directly.

    Meet-in-the-middle: enumerate each half once for both populations, sort
    the right half, and resolve each left outcome against the right half's
    adversary suffix and legitimate prefix mass; pairs within the tie band
    of T are resolved by _weighted_above. Each event also records whether it
    has any possible outcome at all, taken from the source rates rather than
    the masses, so a true zero is told apart from underflow.
    """
    half = (len(weights) + 1) // 2
    a_scores, a_mass = _half_outcomes(weights[:half], pairs[:half])
    b_scores, b_mass = _half_outcomes(weights[half:], pairs[half:])
    order = np.argsort(b_scores, kind="stable")
    b_sorted = b_scores[order]
    b_adv, b_leg = b_mass[0, order], b_mass[1, order]
    split = threshold - a_scores
    idx = np.searchsorted(b_sorted, split, side="right")
    # per left outcome: right-half mass above T - a and at most T - a
    suffix = np.concatenate([np.cumsum(b_adv[::-1])[::-1], [0.0]])
    prefix = np.concatenate([[0.0], np.cumsum(b_leg)])
    above, below = suffix[idx], prefix[idx]
    # a tie band is non-empty iff the nearer neighbour of the split lies inside it
    band = _tie_band(weights, threshold)
    edges = np.concatenate([[-np.inf], b_sorted, [np.inf]])
    near = np.flatnonzero(np.minimum(split - edges[idx], edges[idx + 1] - split) <= band)
    if len(near):
        lo = np.searchsorted(b_sorted, split[near] - band, side="left")
        hi = np.searchsorted(b_sorted, split[near] + band, side="right")
        # left outcomes with the same band and the same passing weights, as a
        # multiset, share every answer; bit j of an outcome index is factor j's pass
        left = (near[:, None] >> np.arange(half)) & 1 == 1
        keys = np.column_stack([lo, hi, np.sort(np.where(left, weights[:half], 0.0), axis=1)])
        _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        far_in, frr_in = np.empty(len(first)), np.empty(len(first))
        for c, (i, l, h) in enumerate(zip(first, lo[first], hi[first])):
            right = (order[l:h, None] >> np.arange(len(weights) - half)) & 1 == 1
            granted = _weighted_above(np.hstack([np.broadcast_to(left[i], (h - l, half)), right]), weights, threshold)
            far_in[c], frr_in[c] = math.fsum(b_adv[l:h][granted].tolist()), math.fsum(b_leg[l:h][~granted].tolist())
        above[near] = suffix[hi] + far_in[inverse.ravel()]
        below[near] = prefix[lo] + frr_in[inverse.ravel()]
    far, frr = math.fsum((a_mass[0] * above).tolist()), math.fsum((a_mass[1] * below).tolist())
    return _weighted_rates(far, frr, weights, pairs, threshold)


def _class_tails(weights: Sequence[float], pairs: Sequence[tuple[float, float]], threshold: float) -> CompositeRates:
    """Adversary P(score > T) and legitimate P(score <= T) by weight class.

    The score depends only on how many factors of each distinct weight pass.
    Within a class that count is Poisson-binomial (_pass_counts), and the
    classes are independent, so each of the prod(n_c + 1) count vectors is
    one row of a canonical pass matrix (in class c, the first count columns
    pass), granted by _weighted_above, with the product of its class masses.
    """
    classes: dict[float, list[tuple[float, float]]] = {}
    for w, pair in zip(weights, pairs):
        classes.setdefault(w, []).append(pair)
    sizes = [len(members) for members in classes.values()]
    counts = np.indices([s + 1 for s in sizes]).reshape(len(sizes), -1)
    passes = np.hstack([np.arange(s) < c[:, None] for s, c in zip(sizes, counts)])
    granted = _weighted_above(passes, [w for w, s in zip(classes, sizes) for _ in range(s)], threshold)
    adversary, legitimate = np.ones(counts.shape[1]), np.ones(counts.shape[1])
    for members, c in zip(classes.values(), counts):
        # pass and fail probabilities from the source rates, as in compose_kofn
        adversary *= np.array(_pass_counts([(far, 1.0 - far) for far, _ in members]))[c]
        legitimate *= np.array(_pass_counts([(1.0 - frr, frr) for _, frr in members]))[c]
    far, frr = math.fsum(adversary[granted].tolist()), math.fsum(legitimate[~granted].tolist())
    return _weighted_rates(far, frr, weights, pairs, threshold)


def _weighted_rates(far: float, frr: float, weights: Sequence[float], pairs: Sequence[tuple[float, float]], threshold: float) -> CompositeRates:
    # the floor and underflow flags of both exact paths. An event is possible when
    # every branch taken has a positive source rate; no score falls as passes are
    # added, so test the outcome passing all that can pass, or failing all that can fail
    far_possible = math.fsum(w for w, (f, _) in zip(weights, pairs) if f > 0.0) > threshold
    frr_possible = not math.fsum(w for w, (_, f) in zip(weights, pairs) if not f > 0.0) > threshold
    far, far_uf = _floored(far, far_possible)
    frr, frr_uf = _floored(frr, frr_possible)
    return CompositeRates(far=far, frr=frr, far_underflow=far_uf, frr_underflow=frr_uf)


def compose_weighted(
    factors: Sequence[tuple[float, float, float, float, float]],
    threshold: float,
    *,
    mode: str = "exact",
    trials: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
):
    """Composite rates of the weighted rule sum(delta*mu*tau*phi) > T. The
    score is the fsum-rounded sum, and every engine (decide, the simulator,
    Monte Carlo and this) grants iff it is > T, so ties deny everywhere.

    factors are (far, frr, mu, tau, phi) tuples; mu, tau and phi follow the
    rules of Factor.vendor_accuracy, EvidenceRecord.trust and Policy weights.
    Exact mode takes the class path (_class_tails) when its prod(n_c + 1)
    count vectors, n_c factors per distinct weight, are at most the
    2^ceil(n/2) outcomes of a meet-in-the-middle half, and meet-in-the-middle
    (_weighted_tails) otherwise. Every n <= 25 composes exactly; past that,
    the class path must have at most 2^13 count vectors and 2^13 * 25 pass-
    matrix cells, else CapacityError: pass mode="monte-carlo" to get a seeded
    MonteCarloRates estimate.
    """
    if not math.isfinite(threshold):
        raise ConfigError("threshold must be finite", field="threshold")
    weights = []
    pairs = []
    for i, (far, frr, mu, tau, phi) in enumerate(factors):
        pairs.append((far, frr))
        configio.positive_fraction(mu, "factors", i, "mu")
        configio.unit_interval(tau, "factors", i, "tau")
        configio.non_negative(phi, "factors", i, "phi")
        weights.append(mu * tau * phi)
    configio.finite_sum(weights, "factors")
    _validate_pairs(pairs)

    if mode == "monte-carlo":
        return _mc_rates(pairs, lambda passes: _weighted_above(passes, weights, threshold), trials, seed, workers)
    if mode != "exact":
        raise ConfigError(f"mode must be 'exact' or 'monte-carlo', got {mode!r}", field="mode")
    # count vectors of the class path, prod(n_c + 1); 14 or more classes
    # exceed _CLASS_ROWS, so their product is not formed
    n, sizes = len(weights), Counter(weights).values()
    rows = math.prod(s + 1 for s in sizes) if len(sizes) <= 13 else math.inf
    if n <= EXACT_WEIGHTED_LIMIT and rows > 2 ** ((n + 1) // 2):
        return _weighted_tails(weights, pairs, threshold)
    if rows > _CLASS_ROWS or rows * n > _CLASS_CELLS:
        raise CapacityError(
            f"exact mode composes any n <= {EXACT_WEIGHTED_LIMIT} factors; past that, only weights "
            f"in few distinct values: at most {_CLASS_ROWS} pass-count vectors prod(n_c + 1) and "
            f"{_CLASS_CELLS} pass-matrix cells. Got n={n} with {len(sizes)} distinct weights. "
            "Use mode='monte-carlo' for larger systems."
        )
    return _class_tails(weights, pairs, threshold)


# ---------------------------------------------------------------------------
# Monte Carlo estimation

_SHARD = 1 << 16


@dataclass(frozen=True)
class RateEstimate:
    """Empirical event rate with a 99% confidence half-width.

    With zero observed events the half-width is the one-sided 99% upper
    bound ln(100)/trials; otherwise it is the normal approximation with
    the event probability floored at one observed event.
    """

    value: float
    half_width: float
    events: int
    trials: int


@dataclass(frozen=True)
class MonteCarloRates:
    far: RateEstimate
    frr: RateEstimate
    seed: int


def _estimate(events: int, trials: int) -> RateEstimate:
    value = events / trials
    if events == 0:
        return RateEstimate(value=0.0, half_width=_LN100 / trials, events=0, trials=trials)
    p_eff = max(value, 1.0 / trials)
    half_width = _Z99 * math.sqrt(p_eff * (1.0 - p_eff) / trials)
    return RateEstimate(value=value, half_width=half_width, events=events, trials=trials)


def _run_shards(trials: int, seed_seq: np.random.SeedSequence, workers: int, shard_fn: Callable) -> list:
    """shard_fn(child_seed, size) per shard of at most 65,536 trials, in
    shard order. Each shard seeds from its own child of seed_seq, so results
    match at any worker count; the pool never outgrows shards or cores."""
    if trials < 1:
        raise ConfigError("trials must be at least 1", field="trials")
    full, rem = divmod(trials, _SHARD)
    sizes = [_SHARD] * full + ([rem] if rem else [])
    jobs = list(zip(seed_seq.spawn(len(sizes)), sizes))
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda job: shard_fn(*job), jobs))
    return [shard_fn(*job) for job in jobs]


def _uniform_blocks(rng: np.random.Generator, size: int, cols: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first_row, block) over the rows of rng.random((size, cols)), in order
    and with the same draws. Each block is drawn into one reused buffer of
    2^17 floats (1 MiB), or of 4,096 rows past 32 cols: read a block before
    asking for the next."""
    rows = max(4096, (1 << 17) // max(cols, 1))
    block = np.empty((min(size, rows), cols))
    for lo in range(0, size, rows):
        u = block[: size - lo]
        rng.random(out=u)
        yield lo, u


def _passes_per_row(passes: np.ndarray, cols: Iterable[int] | None = None) -> np.ndarray:
    """Passes per row over cols (default: every column), one column at a
    time, read in place: faster than passes.sum(axis=1)."""
    count = np.zeros(len(passes), dtype=np.int32)
    for j in range(passes.shape[1]) if cols is None else cols:
        count += passes[:, j]
    return count


def _mc_rates(pairs: Sequence[tuple[float, float]], grant: Callable, trials: int, seed: int, workers: int) -> MonteCarloRates:
    """Seeded FAR/FRR estimate of a row-wise grant rule over (far, frr)
    pairs. Each population's granted trials are summed over independently
    seeded shards, and within a shard block by block, so a shard holds one
    block of uniforms whatever the trials."""

    def granted(pass_probs: list[float], seed_seq: np.random.SeedSequence) -> int:
        probs = np.asarray(pass_probs)

        def run(child: np.random.SeedSequence, size: int) -> int:
            blocks = _uniform_blocks(np.random.default_rng(child), size, len(probs))
            return sum(int(np.count_nonzero(grant(u < probs))) for _, u in blocks)
        return sum(_run_shards(trials, seed_seq, workers, run))

    adversary_seq, legitimate_seq = np.random.SeedSequence(seed).spawn(2)
    false_grants = granted([far for far, _ in pairs], adversary_seq)
    grants = granted([1.0 - frr for _, frr in pairs], legitimate_seq)
    return MonteCarloRates(far=_estimate(false_grants, trials), frr=_estimate(trials - grants, trials), seed=seed)


def monte_carlo_rates(
    factors: Sequence,
    policy: Policy,
    trials: int,
    seed: int,
    *,
    trust: dict[str, float] | None = None,
    workers: int = 1,
) -> MonteCarloRates:
    """Estimate composite rates by simulating adversary and legitimate
    attempts. factors are catalog Factor objects; for weighted policies
    the weight of factor i is vendor_accuracy * trust (default 1) * phi.

    Deterministic for a given seed regardless of workers.
    """
    if not factors:
        raise EvaluationError("factor list must be non-empty")
    strategy = policy.strategy
    if strategy.kind is StrategyKind.WEIGHTED:
        trust = trust or {}
        _require_weights((f.id for f in factors), policy.weights)
        weights = []
        for f in factors:
            tau = trust.get(f.id, 1.0)
            configio.unit_interval(tau, "trust", f.id)
            weights.append(f.vendor_accuracy * tau * policy.weights[f.id])
        grant = lambda passes: _weighted_above(passes, weights, strategy.threshold)
    else:
        if strategy.kind is StrategyKind.KOFN and strategy.k > len(factors):
            raise ConfigError(f"k={strategy.k} exceeds the {len(factors)} factors", field="k")
        k = strategy.passes_needed(len(factors))
        grant = lambda passes: _passes_per_row(passes) >= k
    return _mc_rates([(f.far, f.frr) for f in factors], grant, trials, seed, workers)


# ---------------------------------------------------------------------------
# Strategy sweep (the rate-vs-n comparison table)

SWEEP_STRATEGIES = ("all", "any", "balanced")


def majority_k(n: int) -> int:
    """Strict-majority threshold for the balanced strategy."""
    return n // 2 + 1


@dataclass(frozen=True)
class SweepRow:
    n: int
    strategy: str
    k: int
    far: float
    frr: float
    log10_far: float
    log10_frr: float


def _log10_rate(value: float, base: float = 0.0, n: int = 0) -> float:
    if value > 0.0:
        return math.log10(value)
    if base > 0.0:
        # value is base**n underflowed: recover the magnitude in log space.
        # n * log10(base) is the correctly rounded sum of n equal logs
        return n * math.log10(base)
    return float("-inf")


def sweep(
    far: float,
    frr: float,
    n_range: Iterable[int],
    strategies: Sequence[str] = SWEEP_STRATEGIES,
    k_rule: Callable[[int], int] = majority_k,
) -> list[SweepRow]:
    """Composite rates for homogeneous factors across strategies and n.

    Output is sorted by (n, strategy) and fully deterministic. k reports
    the effective pass threshold of each strategy: n for all, 1 for any,
    k_rule(n) for balanced.
    """
    _validate_pairs([(far, frr)])
    for name in strategies:
        if name not in SWEEP_STRATEGIES:
            raise ConfigError(f"unknown strategy '{name}'", field="strategies")
    ns = sorted(set(n_range))
    if not ns:
        raise ConfigError("n range is empty", field="n_range")
    if ns[0] < 1:
        raise ConfigError("n must be at least 1", field="n_range")

    # the pass-all state and its pass-any dual (_all_steps), one step per n,
    # and one running pass-count DP per population, extended to each n with
    # a balanced 1 < k < n row. Each state after n factors is exactly what
    # compose_all, compose_any and compose_kofn build for n, so all and any
    # rows take O(1) steps each and balanced rows O(N^2) over 1..N, not O(N^3)
    steps = enumerate(zip(_all_steps(itertools.repeat((far, frr))), _all_steps(itertools.repeat((frr, far)))), 1)
    adversary, legitimate = [1.0], [1.0]
    done, rows = 0, []
    for n in ns:
        while done < n:
            done, ((far_n, frr_terms), (frr_n, far_terms)) = next(steps)
        all_rates = _all_composite(far_n, frr_terms, far > 0.0, frr > 0.0)
        any_rates = _swapped(_all_composite(frr_n, far_terms, frr > 0.0, far > 0.0))
        for name in sorted(set(strategies)):
            if name == "all":
                k_eff, rates = n, all_rates
                log_far, log_frr = _log10_rate(rates.far, far, n), _log10_rate(rates.frr)
            elif name == "any":
                k_eff, rates = 1, any_rates
                log_far, log_frr = _log10_rate(rates.far), _log10_rate(rates.frr, frr, n)
            else:
                k_eff = k_rule(n)
                if not 1 <= k_eff <= n:
                    raise ConfigError(f"k rule produced {k_eff}, outside [1, {n}]", field="k")
                _check_k(k_eff, n)
                if k_eff == n:
                    rates = all_rates
                elif k_eff == 1:
                    rates = any_rates
                else:
                    while len(adversary) <= n:
                        adversary = _pass_step(adversary, far, 1.0 - far)
                        legitimate = _pass_step(legitimate, 1.0 - frr, frr)
                    rates = _kofn_tails(adversary, legitimate, k_eff, n * (far > 0.0), n * (frr == 0.0))
                log_far, log_frr = _log10_rate(rates.far), _log10_rate(rates.frr)
            rows.append(
                SweepRow(n=n, strategy=name, k=k_eff, far=rates.far, frr=rates.frr,
                         log10_far=log_far, log10_frr=log_frr)
            )
    return rows


SWEEP_CSV_HEADER = "n,strategy,k,far,frr,log10_far,log10_frr"


def _fmt17(value: float) -> str:
    return "%.17g" % value


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    """Render sweep rows as CSV with 17-significant-digit rendering, so
    equal inputs produce byte-identical output."""
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.n},{r.strategy},{r.k},{_fmt17(r.far)},{_fmt17(r.frr)},"
            f"{_fmt17(r.log10_far)},{_fmt17(r.log10_frr)}"
        )
    return "\n".join(lines) + "\n"
