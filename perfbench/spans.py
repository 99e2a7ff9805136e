"""In-memory spans recorded by the benchmark's own code around each call
into a layer, reduced to self times at the end of a traced run.

A span is ``(name, start, end, parent, msg)``: times in seconds on one
clock, ``parent`` the name of the enclosing span of the same message
``msg`` (None for a root).  A span's self time is its duration minus the
part of its interval that its children cover; for a message's root span
that remainder is the unattributed residue.
"""

from __future__ import annotations

import json
import os
import threading
from collections import defaultdict


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``
    (each clipped to the window first)."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals
        if e > start and s < end
    )
    total = 0.0
    cursor = start
    for s, e in clipped:
        if e <= cursor:
            continue
        total += e - max(s, cursor)
        cursor = e
    return total


class SpanRecorder:
    """Append-only span store; safe to record from several threads."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._lock = threading.Lock()

    def add(self, name: str, start: float, end: float,
            parent: str | None = None, msg=None) -> None:
        with self._lock:
            self.spans.append((name, start, end, parent, msg))

    def self_times(self) -> dict[str, list[float]]:
        """``{name: [self time of each span with that name]}``."""
        children: dict[tuple, list] = defaultdict(list)
        for name, start, end, parent, msg in self.spans:
            if parent is not None:
                children[(parent, msg)].append((start, end))
        result: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _parent, msg in self.spans:
            own = children.get((name, msg), ())
            result[name].append(end - start - covered(start, end, own))
        return dict(result)

    def write(self, path: str) -> None:
        """Dump every span as JSON (one object per span)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                [
                    {"name": n, "start": s, "end": e, "parent": p, "msg": m}
                    for n, s, e, p, m in self.spans
                ],
                out,
            )
