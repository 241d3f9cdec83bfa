"""Exact sample statistics, interval arithmetic and failure accounting.

Everything here works on raw samples: no histogram buckets, so a
percentile is one of the measured values, never a bucket edge.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least a ``q``
    share of the samples at or below it."""
    if not samples:
        raise ValueError("quantile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``
    quantile."""
    return count - max(1, math.ceil(q * count)) if count else 0


def min_samples(q: float, tail: int) -> int:
    """Fewest samples that leave at least ``tail`` above the ``q``
    quantile."""
    count = 1
    while beyond(count, q) < tail:
        count += 1
    return count


def merge(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of closed intervals as a sorted list of disjoint ones."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


class Coverage:
    """Length of a fixed interval union inside any query window."""

    def __init__(self, intervals: Iterable[tuple[float, float]]) -> None:
        self._merged = merge(intervals)
        self._starts = [start for start, _ in self._merged]

    def covered(self, start: float, end: float) -> float:
        total = 0.0
        i = max(0, bisect.bisect_right(self._starts, start) - 1)
        while i < len(self._merged) and self._merged[i][0] < end:
            lo = max(start, self._merged[i][0])
            hi = min(end, self._merged[i][1])
            if hi > lo:
                total += hi - lo
            i += 1
        return total


def self_time(
    parent: tuple[float, float], children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its child spans cover."""
    start, end = parent
    return (end - start) - Coverage(children).covered(start, end)


@dataclass
class Outcomes:
    """Failure accounting of one run: every decide attempted is either
    ok or one of the failure kinds, and ``failed_share`` is their sum
    over the attempts."""

    attempted: int = 0
    errors: int = 0          # transport failures and error responses
    refused: int = 0         # admission said ``overloaded``
    check_failures: int = 0  # ok responses that failed the correctness gate

    @property
    def failed(self) -> int:
        return self.errors + self.refused + self.check_failures

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
