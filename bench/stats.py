"""Summary statistics for benchmark samples.

A tail percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it, so that one slow sample cannot set it on its own. The median is
always reported.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def median(samples):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    if len(xs) % 2:
        return float(xs[mid])
    return 0.5 * (xs[mid - 1] + xs[mid])


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples rank above the nearest-rank q-th percentile."""
    return n - math.ceil(q / 100.0 * n)


def tail_percentile(samples, q: float):
    """Nearest-rank q-th percentile, or None if fewer than MIN_BEYOND
    samples lie beyond it."""
    if not 50.0 < q < 100.0:
        raise ValueError(f"tail percentile must be in (50, 100), got {q}")
    xs = sorted(samples)
    if not xs or samples_beyond(len(xs), q) < MIN_BEYOND:
        return None
    return float(xs[math.ceil(q / 100.0 * len(xs)) - 1])

