"""The benchmark's statistics: reduction over passes, percentiles, spread.

A run replays one deterministic cycle sequence several times.  On a shared
box interference only ever *adds* time to a sample, so sample ``i`` of a
metric is the minimum over passes of the ``i``-th measurement, and
percentiles are taken over those per-sample values (README.md, "Statistic").
"""

from __future__ import annotations

import math
import statistics


def _columns(passes: list[list[float]]):
    """Sample ``i`` of every pass, for each ``i``."""
    if not passes:
        return []
    length = len(passes[0])
    for samples in passes:
        if len(samples) != length:
            raise ValueError(
                f"passes disagree on sample count: {len(samples)} != {length} "
                "(the replayed cycle sequence must be deterministic)"
            )
    return zip(*passes)


def min_over_passes(passes: list[list[float]]) -> list[float]:
    """Element-wise minimum of equally long per-pass sample lists."""
    return [min(column) for column in _columns(passes)]


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share
    ``q`` of the samples at or below it (0 < q <= 1)."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(samples)
    # The epsilon keeps 0.9 * 300 = 270.00000000000006 at rank 270.
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[max(0, rank - 1)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) the way the driver takes them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0
