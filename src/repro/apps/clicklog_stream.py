"""Streaming ClickLog: windowed distinct-count over a shifting-skew ingest.

A shifting-skew parity workload: records are ``(window, ip)`` pairs in
ingest order from
:func:`repro.workloads.clicklog_data.generate_stream_clicklog`, whose
Zipf hot regions rotate every window. A windowed aggregation runs per
window, so skew *arrives over time* — the hot region of window 0 is cold
by window 2 — and which family the cloning rule picks moves with it,
while every window's counts must still equal
:func:`~repro.workloads.clicklog_data.exact_windowed_counts`.

Graph shape (same merge discipline as flagship ClickLog):

1. **ingest** routes each click into its window bag (streaming task,
   concatenation);
2. **distinct.{w}** collects window ``w``'s IPs into a set; clones
   reconcile by set union;
3. **count.{w}** folds the merged set into a per-region distinct-count
   table; clones reconcile by counter addition.

Real-function form only: the scenario exists to drive the *real*
engines (local and dist) — the simulator's Eq. 1 heuristic is already
exercised by the cost-annotated flagship app.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.model.application import Application
from repro.workloads.clicklog_data import geolocate


def _ingest(ctx):
    """Route each click to its window's bag (the windowed ingest).

    A chunk at a time, grouped in arrival order: each window bag receives
    the record sequence a per-click ``emit`` would give it.
    """
    for batch in ctx.batches():
        groups = defaultdict(list)
        for click in batch:
            groups[click[0]].append(click)
        for window, clicks in groups.items():
            ctx.emit_many(f"win.{window}", clicks)


def _distinct(ctx):
    """Collect one window's distinct IPs; clones merge by set union."""
    seen = set()
    for batch in ctx.batches():
        seen.update([ip for _window, ip in batch])
    return seen


def _count(ctx):
    """Fold the merged IP set into region -> distinct-count (Counter)."""
    table: Counter = Counter()
    for ips in ctx.records():
        for ip in ips:
            table[geolocate(ip)] += 1
    return table


def build_clicklog_stream(windows: int = 4) -> Application:
    """The streaming windowed-aggregation app for ``windows`` windows.

    Inputs: one source bag ``clicks`` of ``(window, ip)`` records (feed
    it ``generate_stream_clicklog(...)``). Outputs: one ``counts.{w}``
    bag per window whose single record maps region name to the window's
    distinct-IP count — checked against
    :func:`repro.workloads.clicklog_data.exact_windowed_counts`.
    """
    if windows < 1:
        raise ValueError(f"windows must be >= 1, got {windows}")
    app = Application("clicklog-stream")
    src = app.bag("clicks")
    window_bags = [app.bag(f"win.{w}") for w in range(windows)]
    app.task("ingest", [src], window_bags, fn=_ingest, phase="ingest")
    for w in range(windows):
        uniq = app.bag(f"uniq.{w}")
        counts = app.bag(f"counts.{w}")
        app.task(
            f"distinct.{w}",
            [f"win.{w}"],
            [uniq],
            fn=_distinct,
            merge="set_union",
            phase="distinct",
        )
        app.task(
            f"count.{w}",
            [uniq],
            [counts],
            fn=_count,
            merge="counter",
            phase="count",
        )
    return app
