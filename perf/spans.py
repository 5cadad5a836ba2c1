"""Benchmark-side spans around the calls into each layer.

The spans go into the same :class:`repro.trace.Tracer` that the traced
run hands to ``DistRuntime(tracer=...)``, so the master's own instants
(``dist_assign``, ``dist_progress``, ``clone_granted``) and the spans
recorded here share one clock and one buffer, held in memory until the
workload ends. Spans inside workers and shards are a later change.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.trace import NULL_TRACER, Tracer

_CATEGORY = "perf"


class Spans:
    """Nested spans sharing one run id; a no-op over ``NULL_TRACER``."""

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.tracer = Tracer(clock=time.perf_counter) if enabled else NULL_TRACER
        self.run_id = run_id
        self._ids = itertools.count(1)
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = next(self._ids)
        parent = self._open[-1] if self._open else 0
        self._open.append(span_id)
        handle = self.tracer.span(
            name, _CATEGORY, tid="bench", run=self.run_id, span=span_id, parent=parent
        )
        try:
            yield
        finally:
            self._open.pop()
            handle.end()

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, not counting time inside child spans."""
        events = self.tracer.events(cat=_CATEGORY)
        in_children: Dict[int, float] = {}
        for event in events:
            parent = event["args"]["parent"]
            in_children[parent] = in_children.get(parent, 0.0) + event["dur"]
        totals: Dict[str, float] = {}
        for event in events:
            own = event["dur"] - in_children.get(event["args"]["span"], 0.0)
            totals[event["name"]] = totals.get(event["name"], 0.0) + own
        return totals

    def last(self, name: str) -> Optional[dict]:
        """The most recent finished span called ``name``."""
        matches = self.tracer.events(cat=_CATEGORY, name=name)
        return matches[-1] if matches else None
