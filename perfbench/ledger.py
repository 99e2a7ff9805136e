"""Pure bookkeeping for the benchmark: percentiles, sequence-based
delivery accounting and run-to-run spread.  No program imports here, so
the logic is testable on synthetic inputs."""

from __future__ import annotations

import math
import statistics
import threading


def percentile(values, q: float) -> tuple[float, int]:
    """The ``q``-th percentile (0..100) of ``values`` by linear
    interpolation between closest ranks, with the sample count it rests
    on.  An empty sample gives ``(nan, 0)``."""
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return math.nan, 0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    position = (count - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, count - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction, count


def tail_support(count: int, q: float) -> int:
    """How many samples lie beyond the ``q``-th percentile of ``count``."""
    return int(count * (100.0 - q) / 100.0)


def spread(values) -> float:
    """Interquartile distance as a share of the median (the run-to-run
    noise figure the benchmark's bounds are checked against)."""
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(median) if median else math.inf


class SeqLedger:
    """Delivery accounting for one measured window of sequence numbers.

    The window is ``[first, first + sent)`` and grows as the generator
    sends.  A delivery is counted once per sequence number, so a
    straggler from before the window, a duplicate, or an arrival after
    :meth:`close` can never push the delivered share above 1.0.  Each
    delivery carries the subscriber's content verdict: every corrupt
    arrival is counted, and a corrupt first arrival leaves its sequence
    undelivered.
    """

    def __init__(self, first: int) -> None:
        self.first = first
        self.sent = 0
        self.intact: set[int] = set()
        self.seen: set[int] = set()
        self.corrupt = 0
        self.duplicates = 0
        self.stragglers = 0
        self.late = 0
        self.closed = False
        self._lock = threading.Lock()

    def sent_one(self) -> int:
        """Claim the next sequence number of the window."""
        with self._lock:
            seq = self.first + self.sent
            self.sent += 1
            return seq

    def owns(self, seq: int) -> bool:
        return self.first <= seq < self.first + self.sent

    def record(self, seq: int, ok: bool) -> bool:
        """Account one arrival; True when it is a first, intact delivery
        inside the open window."""
        with self._lock:
            if not self.owns(seq):
                self.stragglers += 1
                return False
            if not ok:
                self.corrupt += 1
            if self.closed:
                self.late += 1
                return False
            if seq in self.seen:
                self.duplicates += 1
                return False
            self.seen.add(seq)
            if ok:
                self.intact.add(seq)
            return ok

    def close(self) -> None:
        """The drain deadline: later arrivals no longer count."""
        with self._lock:
            self.closed = True

    def complete(self) -> bool:
        with self._lock:
            return len(self.seen) >= self.sent

    @property
    def delivered(self) -> int:
        return len(self.intact)

    @property
    def failed(self) -> int:
        """Sent but not delivered intact, plus every duplicate delivery."""
        return self.sent - len(self.intact) + self.duplicates

    def delivered_frac(self) -> float:
        return len(self.intact) / self.sent if self.sent else 0.0


def split_blocks(first: int, count: int, blocks: int) -> list[range]:
    """Consecutive sequence ranges covering ``[first, first + count)``;
    the last block takes the remainder."""
    blocks = max(1, min(blocks, count))
    size = count // blocks
    edges = [first + i * size for i in range(blocks)] + [first + count]
    return [range(edges[i], edges[i + 1]) for i in range(blocks)]


def window_counts(times, begin: float, width: float, windows: int) -> list[int]:
    """How many of ``times`` fall in each of ``windows`` consecutive
    windows of ``width`` starting at ``begin``."""
    counts = [0] * windows
    for t in times:
        index = math.floor((t - begin) / width)
        if 0 <= index < windows:
            counts[index] += 1
    return counts
