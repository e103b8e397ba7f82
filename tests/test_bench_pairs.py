"""The verdict rule of tools/bench_pairs.py, on synthetic paired runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from bench_pairs import verdict  # noqa: E402

BOUND = 0.25
TIGHT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
# median 100, interquartile range 55: a spread wider than the bound
WIDE = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]


@pytest.mark.parametrize("parent, change, better, want", [
    # a median 30% worse on a tight metric
    (TIGHT, [x * 0.7 for x in TIGHT], "higher", (0, "worse")),
    # a median past the bound reads worse however wide the spread
    (WIDE, [x - 30.0 for x in WIDE], "higher", (0, "worse")),
    # every pair won, but the spread is wider than the bound and some
    # parent run beats some change run
    (WIDE, [x + 5.0 for x in WIDE], "higher", (10, "unresolved")),
    # lower is better: 20% less in every pair, far past the parent's spread
    ([x / 100.0 for x in TIGHT], [x / 125.0 for x in TIGHT], "lower", (10, "better")),
    ([x / 100.0 for x in TIGHT], [x / 75.0 for x in TIGHT], "lower", (0, "worse")),
    # half the pairs each way, equal medians
    (TIGHT, [x + (1.0 if i % 2 else -1.0) for i, x in enumerate(TIGHT)], "higher", (5, "same")),
])
def test_verdicts(parent, change, better, want):
    assert verdict(parent, change, better, BOUND) == want
