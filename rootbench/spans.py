"""In-memory spans for the traced benchmark run.

A span records a name, its start and end on the monotonic clock, the
index of the span that was open when it began, and counters set by the
caller.  Spans stay in memory and are handed out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans; when disabled, span() only hands back a dict.

    The dict yielded by span() is the span's counters.  Callers may fill
    it after the with block, so that computing a counter is not timed.
    A span standing for a loop of calls sets "calls" to the loop length;
    any other span counts as one call.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield counts
        else:
            parent = self._open[-1] if self._open else None
            s = Span(name, parent, time.perf_counter(), counts=counts)
            self.spans.append(s)
            self._open.append(len(self.spans) - 1)
            try:
                yield s.counts
            finally:
                s.end = time.perf_counter()
                self._open.pop()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        reach = s.start
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total self time "s", "calls", and every counter summed."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        agg = out.setdefault(s.name, {"s": 0.0, "calls": 0})
        agg["s"] += own
        agg["calls"] += s.counts.get("calls", 1)
        for key, value in s.counts.items():
            if key != "calls":
                agg[key] = agg.get(key, 0) + value
    return out
