"""The tail percentile of a latency sample."""

from __future__ import annotations

import math
from fractions import Fraction

# candidate tail percentiles, lowest first.  The ladder stops at p99: a
# run's 10,000 or so containment queries leave about 10 samples beyond
# p99.9, and that value moved 0.22 (quartile distance over median) from
# seed to seed, against 0.05 for p99.
LADDER = tuple(Fraction(p) for p in ("50", "90", "95", "99"))
MIN_BEYOND = 10


def nearest_rank(ordered: list[float], p: Fraction) -> tuple[float, int]:
    """Nearest-rank percentile of sorted samples and the count strictly beyond it."""
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest ladder percentile
    with at least MIN_BEYOND samples beyond it.

    With fewer than 2 * MIN_BEYOND samples no percentile qualifies; the
    maximum is returned as percentile 100 with 0 samples beyond.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    best = (ordered[-1], 100.0, 0)
    for p in LADDER:
        value, beyond = nearest_rank(ordered, p)
        if beyond >= MIN_BEYOND:
            best = (value, float(p), beyond)
    return best

