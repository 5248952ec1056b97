"""Sample statistics and open-loop timing for the benchmark.

Pure Python, no numpy: the harness tests import this module on its own.

* :func:`percentile` reports a tail only when the sample supports it: at
  least :data:`MIN_BEYOND` samples must lie above the reported rank, so a
  p90 needs 100 samples and a p99 needs 1000.
* :class:`DueClock` releases an open-loop schedule against the wall clock.
  Every latency counts from a request's *due* time, so a tick that overruns
  several due times charges its stall to every request it delayed, and the
  generator's own lateness is recorded per request.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["MIN_BEYOND", "samples_beyond", "highest_supported", "percentile",
           "nearest_rank", "median", "DueClock", "Timeline"]

#: Samples that must lie above a reported percentile.
MIN_BEYOND = 10

#: Percentiles a tail may be reported at, highest last.
LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)


def _rank(n: int, q: float) -> int:
    """1-based nearest-rank index of the ``q``-th percentile of ``n`` samples."""
    return max(1, math.ceil(n * q / 100.0 - 1e-9))


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile."""
    return n - _rank(n, q) if n else 0


def highest_supported(n: int, ladder: Sequence[float] = LADDER) -> Optional[float]:
    """Highest percentile of ``ladder`` keeping :data:`MIN_BEYOND` samples
    above it, or None when even the lowest does not."""
    supported = [q for q in ladder if samples_beyond(n, q) >= MIN_BEYOND]
    return max(supported) if supported else None


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (a measured sample, never an interpolation);
    0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, refused when fewer than :data:`MIN_BEYOND`
    samples lie above it."""
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(values)} samples leaves {beyond} beyond it; "
            f"need {MIN_BEYOND}")
    return nearest_rank(values, q)


def median(values: Sequence[float]) -> float:
    """Nearest-rank median; 0.0 for an empty sample."""
    return nearest_rank(values, 50.0)


class DueClock:
    """Releases an open-loop schedule of due times as the wall clock passes.

    ``release(now_s)`` returns ``(index, lag_s)`` for every entry due by
    ``now_s`` that was not yet released, in due order; ``lag_s`` is how late
    the generator sent it.  ``next_due_s`` is the earliest unreleased due
    time (None once the schedule is exhausted).
    """

    def __init__(self, due_s: Sequence[float]):
        self._order = sorted(range(len(due_s)), key=lambda i: (due_s[i], i))
        self._due = list(due_s)
        self._next = 0
        self.lags_s: List[float] = []

    @property
    def next_due_s(self) -> Optional[float]:
        if self._next >= len(self._order):
            return None
        return self._due[self._order[self._next]]

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self._order)

    def release(self, now_s: float) -> List[Tuple[int, float]]:
        released = []
        while self._next < len(self._order):
            index = self._order[self._next]
            if self._due[index] > now_s:
                break
            lag = now_s - self._due[index]
            released.append((index, lag))
            self.lags_s.append(lag)
            self._next += 1
        return released


class Timeline:
    """Wall-clock token stamps of many requests, each timed from its due time.

    ``stamp(rid, n_tokens, now_s)`` records that request ``rid`` holds
    ``n_tokens`` output tokens at ``now_s``; tokens new since the last stamp
    are credited to ``now_s``.  TTFT is first-token time minus due time; TBT
    is the gap between consecutive tokens of one request.
    """

    def __init__(self) -> None:
        self.due_s: Dict[int, float] = {}
        self.tokens_s: Dict[int, List[float]] = {}

    def open(self, rid: int, due_s: float) -> None:
        self.due_s[rid] = due_s
        self.tokens_s[rid] = []

    def stamp(self, rid: int, n_tokens: int, now_s: float) -> None:
        stamps = self.tokens_s[rid]
        stamps.extend([now_s] * (n_tokens - len(stamps)))

    def ttft_s(self, rid: int) -> Optional[float]:
        stamps = self.tokens_s[rid]
        return stamps[0] - self.due_s[rid] if stamps else None

    def tbt_s(self, rid: int) -> List[float]:
        stamps = self.tokens_s[rid]
        return [b - a for a, b in zip(stamps, stamps[1:])]

    def mean_tbt_s(self, rid: int) -> Optional[float]:
        gaps = self.tbt_s(rid)
        return sum(gaps) / len(gaps) if gaps else None
