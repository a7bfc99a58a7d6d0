"""Order statistics shared by the runner, the report and ``--compare``."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile, as ``ExperimentMetrics`` computes it."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, int(round(pct / 100.0 * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def spread(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(median, q1, q3)``; the quartiles collapse to the median when
    there are too few values to have any."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def relative_spread(median: float, q1: float, q3: float) -> float:
    """Interquartile distance as a share of the median."""
    return (q3 - q1) / abs(median) if median else 0.0
