"""``python -m repro bench`` — engine benchmark writing ``BENCH_dist.json``.

Runs the clicklog, hashjoin, and calibration workloads on the thread-pool
engine (:class:`~repro.local.LocalRuntime`) and on the multiprocess engine
(:class:`~repro.dist.DistRuntime`) at each requested worker count,
storage shard count (``--shards``), and replication factor
(``--replication``), then writes one JSON report with, per run: wall
time, input-record throughput, speedup over the local baseline, clone
counts, worker deaths, and (dist only) chunk-service latency
percentiles, pooled and per shard — the observable side of Eq. 1's
batch-sampling term, where ``--shards`` is the ``m`` servers a task's
``b`` outstanding batch requests spread across.

Replicated combinations additionally run one **failover probe**: the same
workload with a shard kill injected mid-stream, reporting the measured
failover latency (death detection to promotion live on every surviving
shard) and re-replication latency, plus the family-reset count — which
the probe requires to be *zero* for its parity to mean anything (the
whole point of replication is surviving the kill without replay).
Combinations where the replication factor exceeds the shard count are
skipped (there are not enough distinct processes to hold the copies).

Each workload also runs one **master failover probe**: a journaled run
with the master killed after its first assignments land, resumed by a
fresh master from the snapshot + WAL. The report records the measured
control-plane failover latency (``master_failover_ms``: journal load
through fleet re-adoption to the event loop restarting) and demands sink
parity with the local baseline.

Two memory-pressure axes ride the same matrix: ``--dataset-scale``
multiplies every workload's input size (one report then holds a sweep),
and ``--resident-bytes`` sets the shards' hot-cache budget so runs spill
sealed segments to disk beyond it. Each dist run reports its shards' RSS
high-water mark (``shard_rss_hwm_kb``), the number of sealed segments
written, the compaction yield of finished bags (``segments_compacted``,
``bytes_reclaimed``), and whether a shard-death recovery shipped
segments — all parity-gated like every other number here. Spill runs
additionally gate on the hot-cache peak staying within the budget
(``resident_peak_ok``): a "bounded" store that quietly blew through its
budget fails the report, not just a dashboard.

``--workloads clicklog_stream`` selects the shifting-skew streaming
click-log (windowed counts whose hot key moves each window), a parity
workload like the others.

Every dist run's sink output is checked against the local baseline before
its numbers are reported, so a "fast" engine that drops or duplicates
chunks fails loudly instead of winning the benchmark.

The local engine is the honest baseline for speedup: its workers are
threads, so CPU-bound workloads (calibration is built to be one, see
:func:`repro.apps.calibration.calibration_mix`) are pinned to a single
core by the GIL no matter the thread count. The report records the host's
``cpu_count`` so a 1-core container's flat speedup curve is legible as a
hardware limit rather than an engine defect.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.apps.calibration import (
    CALIBRATION_ROUNDS,
    build_calibration_local,
    calibration_seeds,
)
from repro.apps.clicklog import build_clicklog_local
from repro.apps.clicklog_stream import build_clicklog_stream
from repro.apps.hashjoin import build_hashjoin_local
from repro.local import LocalRuntime
from repro.workloads.clicklog_data import (
    generate_clicklog,
    generate_stream_clicklog,
    region_name,
)
from repro.workloads.relations import generate_relation

#: Worker counts benchmarked when ``--workers`` is not given.
DEFAULT_WORKERS = (1, 2, 4)

#: Per-run wall-clock ceiling; generous because CI containers are slow.
RUN_TIMEOUT = 300.0


class _Workload:
    """One benchmarkable app: a fresh graph per run plus a parity probe."""

    def __init__(
        self,
        name: str,
        build: Callable[[], Any],
        inputs: Dict[str, list],
        snapshot: Callable[[Any], Any],
    ):
        self.name = name
        self.build = build
        self.inputs = inputs
        self.snapshot = snapshot
        self.input_records = sum(len(records) for records in inputs.values())


def _clicklog_workload(n_records: int, region_count: int) -> _Workload:
    names = [region_name(i) for i in range(region_count)]
    records = [
        ip for ip in generate_clicklog(n_records, skew=0.8, seed=11)
        if (ip >> 26) < region_count
    ]

    def snapshot(result):
        return {name: result.value(f"count.{name}") for name in names}

    return _Workload(
        "clicklog",
        lambda: build_clicklog_local(regions=names),
        {"clicklog": records},
        snapshot,
    )


def _clicklog_stream_workload(n_records: int, windows: int) -> _Workload:
    records = list(
        generate_stream_clicklog(n_records, skew=0.8, seed=11, windows=windows)
    )

    def snapshot(result):
        return {
            f"counts.{w}": dict(result.value(f"counts.{w}"))
            for w in range(windows)
        }

    return _Workload(
        "clicklog_stream",
        lambda: build_clicklog_stream(windows=windows),
        {"clicks": records},
        snapshot,
    )


def _hashjoin_workload(build_rows: int, probe_rows: int, partitions: int) -> _Workload:
    left = list(generate_relation(build_rows, key_space=1 << 16, skew=0.9, seed=1))
    right = list(generate_relation(probe_rows, key_space=1 << 16, skew=0.0, seed=2))

    def snapshot(result):
        # Join output order is interleaving-dependent; sort for parity.
        return sorted(
            row for p in range(partitions) for row in result.records(f"join.{p}")
        )

    return _Workload(
        "hashjoin",
        lambda: build_hashjoin_local(partitions=partitions),
        {"relation.r": left, "relation.s": right},
        snapshot,
    )


def _calibration_workload(n_seeds: int, rounds: int) -> _Workload:
    return _Workload(
        "calibration",
        lambda: build_calibration_local(rounds=rounds),
        {"seeds": calibration_seeds(n_seeds)},
        lambda result: result.value("checksum"),
    )


def _run_local(workload: _Workload) -> Dict[str, Any]:
    runtime = LocalRuntime(workload.build(), workers=4)
    started = time.perf_counter()
    result = runtime.run(dict(workload.inputs), timeout=RUN_TIMEOUT)
    seconds = time.perf_counter() - started
    return {
        "engine": "local",
        "workers": 4,
        "seconds": round(seconds, 4),
        "throughput_records_per_s": _throughput(workload, seconds),
        "total_clones": result.total_clones(),
        "clone_counts": dict(result.clone_counts),
        "snapshot": workload.snapshot(result),
    }


def _present(summary: Dict[str, Any]) -> Dict[str, Any]:
    """Drop ``None`` percentile fields: absent beats a fake null column."""
    return {key: value for key, value in summary.items() if value is not None}


def _run_dist(
    workload: _Workload,
    workers: int,
    shards: int,
    replication: int,
    baseline: Dict[str, Any],
    batch_requests: Optional[int] = None,
    resident_bytes: Optional[int] = None,
    dataset_scale: float = 1.0,
):
    from repro.dist import DistRuntime

    extra: Dict[str, Any] = {}
    if batch_requests is not None:
        extra["batch_requests"] = batch_requests
    if resident_bytes is not None:
        extra["resident_bytes"] = resident_bytes
    runtime = DistRuntime(
        workload.build(),
        workers=workers,
        shards=shards,
        replication=replication,
        **extra,
    )
    started = time.perf_counter()
    result = runtime.run(dict(workload.inputs), timeout=RUN_TIMEOUT)
    seconds = time.perf_counter() - started
    matches = workload.snapshot(result) == baseline["snapshot"]
    # The hot-cache gate: the peak may legitimately exceed the budget by
    # one in-flight frame (eviction runs after the oversized insert
    # lands), so the allowance is a couple of chunk-sized frames — far
    # below any unbounded-buffering regression this gate exists to catch.
    resident_peak_ok = True
    if resident_bytes is not None:
        resident_peak_ok = (
            result.resident_peak_bytes
            <= resident_bytes + 2 * runtime.settings.chunk_size
        )
    return {
        "engine": "dist",
        "workers": workers,
        "shards": shards,
        "replication": replication,
        "batch_requests": runtime.settings.batch_requests,
        "dataset_scale": dataset_scale,
        "resident_bytes": resident_bytes,
        "seconds": round(seconds, 4),
        "throughput_records_per_s": _throughput(workload, seconds),
        "speedup_vs_local": round(baseline["seconds"] / seconds, 3) if seconds else None,
        "matches_local": matches,
        "total_clones": result.total_clones(),
        "clone_counts": dict(result.clone_counts),
        "worker_deaths": result.worker_deaths,
        "shard_deaths": result.shard_deaths,
        "chunks_processed": result.chunks_processed,
        # Spill evidence, parity-gated like every other number here: the
        # RSS high-water mark is what "bounded shard memory" means on a
        # real kernel, and segments_written > 0 is what proves the run
        # actually exercised the disk-backed layer at this budget.
        "segments_written": result.segments_written,
        "segments_compacted": result.segments_compacted,
        "bytes_reclaimed": result.bytes_reclaimed,
        "segment_resync": result.segment_resync,
        "shard_rss_hwm_kb": result.shard_rss_hwm_kb,
        "resident_peak_bytes": result.resident_peak_bytes,
        "resident_peak_ok": resident_peak_ok,
        "chunk_latency_ms": _present(result.chunk_latency_percentiles()),
        # JSON objects key on strings; shard indices survive round-trips
        # as "0", "1", ... in shard order.
        "per_shard_latency_ms": {
            str(shard): _present(summary)
            for shard, summary in sorted(
                result.per_shard_latency_percentiles().items()
            )
        },
    }


def _run_failover_probe(
    workload: _Workload,
    workers: int,
    shards: int,
    replication: int,
    baseline: Dict[str, Any],
    resident_bytes: Optional[int] = None,
):
    """One replicated run with a shard kill: measure failover, demand parity."""
    from repro.dist import DistRuntime, ShardRouter

    # Kill the shard that is primary for a streamed source bag, so the
    # injected death is guaranteed to land mid-remove_batch traffic.
    victim = ShardRouter(shards, replication).home(next(iter(workload.inputs)))
    extra: Dict[str, Any] = {}
    if resident_bytes is not None:
        extra["resident_bytes"] = resident_bytes
    runtime = DistRuntime(
        workload.build(),
        workers=workers,
        shards=shards,
        replication=replication,
        kill_shard=victim,
        # First remove_batch against the victim: quick-mode streams are
        # short, and a later trigger can miss the run entirely.
        kill_shard_after_ops=1,
        **extra,
    )
    started = time.perf_counter()
    result = runtime.run(dict(workload.inputs), timeout=RUN_TIMEOUT)
    seconds = time.perf_counter() - started
    matches = workload.snapshot(result) == baseline["snapshot"]
    return {
        "engine": "dist",
        "failover_probe": True,
        "workers": workers,
        "shards": shards,
        "replication": replication,
        "resident_bytes": resident_bytes,
        "killed_shard": victim,
        "seconds": round(seconds, 4),
        # Replication's contract: the kill is absorbed by promotion, not
        # replay — a probe that reset families fails parity accounting.
        "matches_local": matches and result.family_resets == 0,
        "shard_deaths": result.shard_deaths,
        "family_resets": result.family_resets,
        # With spill on, resync ships sealed segment files instead of
        # chunk snapshots — the probe records which path actually ran.
        "segment_resync": result.segment_resync,
        "segments_written": result.segments_written,
        "segments_compacted": result.segments_compacted,
        "bytes_reclaimed": result.bytes_reclaimed,
        "shard_rss_hwm_kb": result.shard_rss_hwm_kb,
        "failover_ms": [round(ms, 3) for ms in result.failover_ms],
        "resync_ms": [round(ms, 3) for ms in result.resync_ms],
    }


def _run_master_failover_probe(
    workload: _Workload,
    workers: int,
    shards: int,
    replication: int,
    baseline: Dict[str, Any],
):
    """One journaled run with a master kill: measure recovery, demand parity."""
    import shutil
    import tempfile

    from repro.dist import DistRuntime, MasterKilled

    def attempt(threshold: int):
        journal_dir = tempfile.mkdtemp(prefix="repro-bench-journal-")
        plan = dict(
            workers=workers,
            shards=shards,
            replication=replication,
            journal_dir=journal_dir,
        )
        started = time.perf_counter()
        try:
            runtime = DistRuntime(
                workload.build(),
                kill_master_after_records=threshold,
                **plan,
            )
            try:
                result = runtime.run(dict(workload.inputs), timeout=RUN_TIMEOUT)
            except MasterKilled as exc:
                successor = DistRuntime(workload.build(), **plan)
                result = successor.resume(
                    exc.fleet, dict(workload.inputs), timeout=RUN_TIMEOUT
                )
            return result, time.perf_counter() - started
        finally:
            shutil.rmtree(journal_dir, ignore_errors=True)

    # Preferred kill point: right after the initial spawns plus the first
    # assignments — real work is in flight when the master dies. A
    # workload whose whole run journals fewer records than that never
    # reaches the threshold (the single-task calibration graph appends
    # spawn/assign/done and is finished); fall back to killing at the
    # spawn records themselves, which every run is guaranteed to hit.
    result, seconds = attempt(workers + 2)
    if result.master_recoveries == 0:
        result, seconds = attempt(workers)
    matches = workload.snapshot(result) == baseline["snapshot"]
    return {
        "engine": "dist",
        "master_failover_probe": True,
        "workers": workers,
        "shards": shards,
        "replication": replication,
        "seconds": round(seconds, 4),
        # The probe's contract: the kill fired, exactly one recovery
        # happened, and the sinks still match the local baseline.
        "matches_local": matches and result.master_recoveries == 1,
        "master_recoveries": result.master_recoveries,
        "master_failover_ms": [round(ms, 3) for ms in result.master_failover_ms],
        "family_resets": result.family_resets,
        "worker_deaths": result.worker_deaths,
        "shard_deaths": result.shard_deaths,
    }


def _throughput(workload: _Workload, seconds: float) -> Optional[float]:
    if seconds <= 0 or workload.input_records == 0:
        return None
    return round(workload.input_records / seconds, 1)


def _build_workloads(args, scale: float = 1.0) -> List[_Workload]:
    def scaled(count: int) -> int:
        return max(1, int(round(count * scale)))

    if args.quick:
        sizes = {
            "clicklog": (scaled(args.records or 2_000), 2),
            "clicklog_stream": (scaled(args.records or 3_000), 3),
            "hashjoin": (scaled(80), scaled(args.rows or 400), 2),
            "calibration": (scaled(60), args.rounds or 200),
        }
    else:
        sizes = {
            "clicklog": (scaled(args.records or 20_000), 4),
            "clicklog_stream": (scaled(args.records or 24_000), 4),
            "hashjoin": (scaled(300), scaled(args.rows or 2_500), 4),
            "calibration": (scaled(2_000), args.rounds or CALIBRATION_ROUNDS),
        }
    builders = {
        "clicklog": lambda: _clicklog_workload(*sizes["clicklog"]),
        "clicklog_stream": lambda: _clicklog_stream_workload(
            *sizes["clicklog_stream"]
        ),
        "hashjoin": lambda: _hashjoin_workload(*sizes["hashjoin"]),
        "calibration": lambda: _calibration_workload(*sizes["calibration"]),
    }
    unknown = [w for w in args.workloads if w not in builders]
    if unknown:
        raise SystemExit(f"unknown workload(s): {', '.join(unknown)}")
    return [builders[name]() for name in args.workloads]


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="repro bench", description="Benchmark the local and dist engines."
    )
    parser.add_argument(
        "--quick", action="store_true", help="tiny sizes (CI smoke configuration)"
    )
    parser.add_argument(
        "--output", default="BENCH_dist.json", help="report path (default: %(default)s)"
    )
    parser.add_argument(
        "--workers",
        default=",".join(str(w) for w in DEFAULT_WORKERS),
        help="comma-separated dist worker counts (default: %(default)s)",
    )
    parser.add_argument(
        "--shards",
        default="1",
        help="comma-separated storage shard counts per dist run "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--replication",
        default="1",
        help="comma-separated replication factors per dist run; factors "
        "exceeding the shard count are skipped for that shard count "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--workloads",
        default="clicklog,hashjoin,calibration",
        help="comma-separated workload subset; clicklog_stream (the "
        "shifting-skew windowed scenario) is also selectable "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--dataset-scale",
        default="1",
        help="comma-separated input-size multipliers; the whole matrix "
        "reruns per scale, so one report holds a memory-pressure sweep "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--resident-bytes",
        type=int,
        help="per-shard hot-cache budget in bytes; dist runs spill sealed "
        "segments to disk beyond it and the report carries the shard RSS "
        "high-water mark as evidence (default: spill off)",
    )
    parser.add_argument(
        "--batch-requests",
        type=int,
        help="chunks requested per remove_batch RPC (Eq. 1's b; "
        "default: the runtime's)",
    )
    parser.add_argument("--records", type=int, help="clicklog input records")
    parser.add_argument("--rows", type=int, help="hashjoin probe-side rows")
    parser.add_argument("--rounds", type=int, help="calibration mixing rounds")
    args = parser.parse_args(argv)
    args.workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    try:
        args.worker_counts = [int(w) for w in args.workers.split(",") if w.strip()]
    except ValueError:
        parser.error(f"--workers must be comma-separated integers, got {args.workers!r}")
    if not args.worker_counts or any(w < 1 for w in args.worker_counts):
        parser.error(f"--workers needs positive integers, got {args.workers!r}")
    try:
        args.shard_counts = [int(s) for s in args.shards.split(",") if s.strip()]
    except ValueError:
        parser.error(f"--shards must be comma-separated integers, got {args.shards!r}")
    if not args.shard_counts or any(s < 1 for s in args.shard_counts):
        parser.error(f"--shards needs positive integers, got {args.shards!r}")
    try:
        args.replication_counts = [
            int(r) for r in args.replication.split(",") if r.strip()
        ]
    except ValueError:
        parser.error(
            f"--replication must be comma-separated integers, got {args.replication!r}"
        )
    if not args.replication_counts or any(r < 1 for r in args.replication_counts):
        parser.error(
            f"--replication needs positive integers, got {args.replication!r}"
        )
    if all(r > s for r in args.replication_counts for s in args.shard_counts):
        parser.error(
            "every --replication factor exceeds every --shards count; "
            "nothing would run"
        )
    try:
        args.dataset_scales = [
            float(s) for s in args.dataset_scale.split(",") if s.strip()
        ]
    except ValueError:
        parser.error(
            f"--dataset-scale must be comma-separated numbers, got "
            f"{args.dataset_scale!r}"
        )
    if not args.dataset_scales or any(s <= 0 for s in args.dataset_scales):
        parser.error(
            f"--dataset-scale needs positive numbers, got {args.dataset_scale!r}"
        )
    if args.resident_bytes is not None and args.resident_bytes < 1:
        parser.error(
            f"--resident-bytes must be >= 1, got {args.resident_bytes}"
        )
    return args


def run_bench(argv=None) -> Dict[str, Any]:
    """Run the benchmark matrix and return the report dict."""
    args = _parse_args(argv)
    report: Dict[str, Any] = {
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "quick": args.quick,
            "workers": args.worker_counts,
            "shards": args.shard_counts,
            "replication": args.replication_counts,
            "workloads": args.workloads,
            "dataset_scale": args.dataset_scales,
            "resident_bytes": args.resident_bytes,
            "batch_requests": args.batch_requests,
        },
        "workloads": {},
    }
    for scale in args.dataset_scales:
        for workload in _build_workloads(args, scale):
            # One report entry per (workload, scale); the unscaled matrix
            # keeps its historical keys so downstream parsers survive.
            entry_key = (
                workload.name if scale == 1.0 else f"{workload.name}@x{scale:g}"
            )
            print(
                f"[bench] {entry_key}: local baseline ...", flush=True
            )
            baseline = _run_local(workload)
            runs = [dict(baseline)]
            runs[0].pop("snapshot")
            runs[0]["dataset_scale"] = scale
            for shards in args.shard_counts:
                for replication in args.replication_counts:
                    if replication > shards:
                        print(
                            f"[bench] {entry_key}: skip r={replication} "
                            f"(> {shards} shards)",
                            flush=True,
                        )
                        continue
                    for workers in args.worker_counts:
                        print(
                            f"[bench] {entry_key}: dist x{workers} "
                            f"({shards} shard{'s' if shards != 1 else ''}, "
                            f"r={replication}) ...",
                            flush=True,
                        )
                        runs.append(
                            _run_dist(
                                workload,
                                workers,
                                shards,
                                replication,
                                baseline,
                                batch_requests=args.batch_requests,
                                resident_bytes=args.resident_bytes,
                                dataset_scale=scale,
                            )
                        )
                    if replication > 1:
                        # Replicated topologies get a failover probe: the
                        # same workload with a shard killed mid-stream,
                        # recording the promotion/resync latencies.
                        workers = max(args.worker_counts)
                        print(
                            f"[bench] {entry_key}: failover probe "
                            f"x{workers} ({shards} shards, r={replication}, "
                            f"kill 1) ...",
                            flush=True,
                        )
                        runs.append(
                            _run_failover_probe(
                                workload,
                                workers,
                                shards,
                                replication,
                                baseline,
                                resident_bytes=args.resident_bytes,
                            )
                        )
            # One master failover probe per workload, at the largest
            # worker count and the smallest shard topology: the
            # control-plane recovery path is shard-count-independent, so
            # one point suffices for the report.
            workers = max(args.worker_counts)
            shards = args.shard_counts[0]
            print(
                f"[bench] {entry_key}: master failover probe x{workers} "
                f"({shards} shard{'s' if shards != 1 else ''}) ...",
                flush=True,
            )
            runs.append(
                _run_master_failover_probe(workload, workers, shards, 1, baseline)
            )
            parity_ok = all(
                r.get("matches_local", True) and r.get("resident_peak_ok", True)
                for r in runs
            )
            speedups = [
                r["speedup_vs_local"]
                for r in runs
                if r.get("speedup_vs_local") is not None
            ]
            report["workloads"][entry_key] = {
                "input_records": workload.input_records,
                "dataset_scale": scale,
                "parity_ok": parity_ok,
                "best_dist_speedup": max(speedups) if speedups else None,
                "runs": runs,
            }
    report["parity_ok"] = all(
        entry["parity_ok"] for entry in report["workloads"].values()
    )
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"[bench] wrote {args.output} (parity_ok={report['parity_ok']})")
    return report


def main(argv=None) -> int:
    report = run_bench(argv)
    return 0 if report["parity_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
