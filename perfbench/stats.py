"""Summary statistics shared by the benchmark and its spread check."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie above it.
MIN_SAMPLES_BEYOND = 10


def percentile_if_supported(samples: list[float], q: float) -> float | None:
    """Nearest-rank q-quantile of ``samples``, or None when fewer than
    MIN_SAMPLES_BEYOND samples lie beyond it."""
    n = len(samples)
    rank = math.ceil(q * n)
    if rank < 1 or n - rank < MIN_SAMPLES_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def relative_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median,
    with quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
