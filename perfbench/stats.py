"""Summary statistics shared by the benchmark and its tests."""

import math
from typing import Sequence, Tuple

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), q in [0, 100]."""
    data = sorted(samples)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n samples beyond
    it, never below the median: with fewer than 2 * TAIL_BEYOND samples the
    tail is the median."""
    if n < 2 * TAIL_BEYOND:
        return 50
    return min(99, math.floor(100.0 * (1.0 - TAIL_BEYOND / n)))


def median_and_tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """(p50, tail value, tail percentile); zeros for an empty sample."""
    q = tail_percentile(len(samples))
    return percentile(samples, 50.0), percentile(samples, q), q
