"""Brute-force reference implementations the tests compare against.

Everything here enumerates all 2^n outcome vectors directly, so it is
exponential and slow but obviously correct, and shares no code with the
library under test.
"""

import math
from itertools import product

import numpy as np


def enum_rates(pairs, grant):
    """Exact (far, frr) for an arbitrary grant rule over outcome vectors.

    pairs: per-factor (far, frr); grant: list[bool] -> bool.
    """
    far_terms = []
    frr_terms = []
    for outcome in product((False, True), repeat=len(pairs)):
        p_adv = math.prod(far if o else 1.0 - far for o, (far, _) in zip(outcome, pairs))
        p_leg = math.prod(1.0 - frr if o else frr for o, (_, frr) in zip(outcome, pairs))
        if grant(list(outcome)):
            far_terms.append(p_adv)
        else:
            frr_terms.append(p_leg)
    return math.fsum(far_terms), math.fsum(frr_terms)


def kofn_grant(k):
    return lambda passes: sum(passes) >= k


def weighted_grant(weights, threshold):
    # strict comparison, same tie behavior the decision function promises
    return lambda passes: math.fsum(w for w, p in zip(weights, passes) if p) > threshold


def weighted_rates_numpy(pairs, weights, threshold):
    """Exact (far, frr) of the weighted rule score > T, with all 2^n outcome
    rows enumerated at once as a numpy matrix for the masses. Each row is
    granted by weighted_grant, so the score is the fsum-rounded sum and
    thresholds may tie with it."""
    n = len(pairs)
    passes = (np.arange(2**n)[:, None] >> np.arange(n)) & 1 == 1
    far = np.array([f for f, _ in pairs])
    frr = np.array([f for _, f in pairs])
    p_adv = np.where(passes, far, 1.0 - far).prod(axis=1)
    p_leg = np.where(passes, 1.0 - frr, frr).prod(axis=1)
    rule = weighted_grant(weights, threshold)
    grant = np.array([rule(row) for row in passes.tolist()], dtype=bool)
    return math.fsum(p_adv[grant].tolist()), math.fsum(p_leg[~grant].tolist())


def pass_count_pmf(probs):
    """Distribution of the number of successes, by enumeration."""
    pmf = [0.0] * (len(probs) + 1)
    terms = [[] for _ in pmf]
    for outcome in product((False, True), repeat=len(probs)):
        weight = math.prod(p if o else 1.0 - p for o, p in zip(outcome, probs))
        terms[sum(outcome)].append(weight)
    for i, bucket in enumerate(terms):
        pmf[i] = math.fsum(bucket)
    return pmf
