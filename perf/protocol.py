"""The run protocol of one workload.

Closed loop: one job at a time, generated by this one process, and never
more than ``nproc`` workers. :func:`end_to_end` is what ``--trace 0``
measures (tracing off, repeated timed runs), :func:`layers` what
``--trace 1`` measures (probes, comparison runs and one traced run).
Both return ``{metric name: [samples]}``; a report shows each metric's
median, and the spread of its samples beside it.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import tempfile
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import probes
from harness import RUN_TIMEOUT, Ledger
from spans import Spans
from workloads import WORKERS, Inputs, Reference, Workload

from repro.dist import DistRuntime
from repro.dist.protocol import DistSettings
from repro.local import LocalRuntime

Samples = Dict[str, List[float]]

#: Set-ups per ``--trace 0`` invocation; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The warm-up run gets the first 1/8 of every input: enough to load
#: every code path and pay a whole fleet start, at a fraction of a job.
WARMUP_SHARE = 8
#: Null-job runs on top of the comparison repetitions.
NULL_EXTRA = 2

BATCH = DistSettings().batch_requests

#: ``DistResult.storage_stats`` keys that count something other than ops.
_NOT_OPS = frozenset({
    "chunks_removed", "gossip_demotions", "segments_written", "spilled_bytes",
    "evictions", "faults", "segments_compacted", "bytes_reclaimed",
})
_SEGMENT_COUNTERS = (
    "segments_written", "spilled_bytes", "evictions", "faults", "bytes_reclaimed",
)


class MeasurementFailed(Exception):
    """Too many operations failed for a metric to have a single sample."""


class Run(NamedTuple):
    result: Any
    seconds: float


class Session:
    """One workload, one seed: its inputs, its reference, its guarded runs."""

    def __init__(self, workload: Workload, seed: int, ledger: Ledger, spans: Spans):
        self.workload = workload
        self.seed = seed
        self.ledger = ledger
        self.spans = spans
        self.inputs: Inputs = {}
        self.reference: Optional[Reference] = None

    def setup(self) -> float:
        """Generate, compute the reference, run the warm-up: seconds taken."""
        workload = self.workload
        started = time.perf_counter()
        with self.spans.span("generate"):
            self.inputs = workload.generate(self.seed)
        with self.spans.span("reference"):
            self.reference = workload.reference(self.inputs)
        warm = {
            bag: records[: len(records) // WARMUP_SHARE]
            for bag, records in self.inputs.items()
        }
        with self.spans.span("warmup"):
            self.dist("warmup", warm, workload.reference(warm).expected)
        return time.perf_counter() - started

    def dist(
        self,
        label: str,
        inputs: Optional[Inputs] = None,
        expected: Any = None,
        workers: int = WORKERS,
        tracer: Any = None,
    ) -> Optional[Run]:
        """One verified ``DistRuntime.run()``; the full inputs by default."""
        workload = self.workload
        if inputs is None:
            inputs, expected = self.inputs, self.reference.expected

        def operation() -> Run:
            journal_dir = (
                tempfile.mkdtemp(prefix="perf-journal-") if workload.journaled else None
            )
            try:
                runtime = DistRuntime(
                    workload.build(),
                    workers=workers,
                    journal_dir=journal_dir,
                    tracer=tracer,
                    **workload.dist,
                )
                started = time.perf_counter()
                with self.spans.span("dist.run"):
                    result = runtime.run(inputs, timeout=RUN_TIMEOUT)
                return Run(result, time.perf_counter() - started)
            finally:
                if journal_dir is not None:
                    shutil.rmtree(journal_dir, ignore_errors=True)

        return self.ledger.run(label, operation, self._check(expected))

    def local(self) -> Optional[Run]:
        """One verified ``LocalRuntime.run()`` over the full inputs."""
        workload = self.workload

        def operation() -> Run:
            runtime = LocalRuntime(
                workload.build(),
                workers=WORKERS,
                chunk_size=workload.dist["chunk_size"],
            )
            started = time.perf_counter()
            with self.spans.span("local.run"):
                result = runtime.run(self.inputs, timeout=RUN_TIMEOUT)
            return Run(result, time.perf_counter() - started)

        return self.ledger.run(
            "local.run", operation, self._check(self.reference.expected)
        )

    def _check(self, expected: Any):
        def check(run: Run) -> Optional[str]:
            if self.workload.sinks(run.result) == expected:
                return None
            return "sinks differ from the reference"

        return check

    def probe(self, name: str, operation) -> Any:
        with self.spans.span(name):
            return self.require(self.ledger.run(name, operation))

    def require(self, value: Any) -> Any:
        """``value``, unless the operations that should have made it failed."""
        if not value:
            raise MeasurementFailed("; ".join(self.ledger.failures))
        return value


def end_to_end(session: Session, seconds: float, min_runs: int) -> Samples:
    """Set up, then time verified runs for ``seconds`` (``min_runs`` at least)."""
    setups = [session.setup() for _ in range(SETUP_REPEATS)]
    # Only numbers are kept from a run: a list of results would make the
    # master's own peak RSS grow with the number of runs.
    job: List[float] = []
    shard_kib = 0
    attempts = 0
    until = time.perf_counter() + seconds
    while time.perf_counter() < until or (len(job) < min_runs and attempts < 3 * min_runs):
        attempts += 1
        run = session.dist("dist.run")
        if run is not None:
            job.append(run.seconds)
            shard_kib = max(shard_kib, run.result.shard_rss_hwm_kb)
    session.require(job)
    records = sum(len(bag) for bag in session.inputs.values())
    # ru_maxrss and VmHWM are KiB on Linux. RUSAGE_CHILDREN covers every
    # worker and shard this process has reaped; the master is this process.
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        shard_kib,
    )
    return {
        "job_s": job,
        "records_per_s": [records / seconds for seconds in job],
        "setup_s": setups,
        "peak_rss_mb": [peak_kib / 1024],
    }


def layers(session: Session, reps: int) -> Tuple[Samples, Dict[str, str]]:
    """Probes, comparison runs and the traced run: (samples, notes)."""
    workload, spans = session.workload, session.spans
    samples: Samples = {}
    notes: Dict[str, str] = {}
    with spans.span("workload"):
        session.setup()
        untraced = session.require(_some(session.dist("dist.run") for _ in range(reps)))
        job_s = statistics.median(run.seconds for run in untraced)

        graph = workload.build().graph
        chunk_size = workload.dist["chunk_size"]
        serde_metrics, chunks, decode_s = session.probe(
            "probe.serde", lambda: probes.serde(graph, session.inputs, chunk_size)
        )
        _add(samples, serde_metrics)
        _add(samples, session.probe("probe.protocol", lambda: probes.protocol(chunks, BATCH)))
        records = sum(len(bag) for bag in session.inputs.values())
        task_cpu_per_chunk = (
            decode_s + session.reference.cpu_per_record * records
        ) / len(chunks)
        storage_metrics, storage_notes = session.probe(
            "probe.storage",
            lambda: probes.storage(workload.dist, chunks, task_cpu_per_chunk),
        )
        _add(samples, storage_metrics)
        notes.update(storage_notes)
        resident_bytes = workload.dist.get("resident_bytes")
        if resident_bytes is None:
            _add(samples, dict.fromkeys(probes.SEGMENT_METRICS, 0.0))
        else:
            _add(samples, session.probe(
                "probe.segments",
                lambda: probes.segments(chunks, resident_bytes, BATCH),
            ))

        _counters(samples, notes, untraced, serde_metrics["serde.bytes"])

        single = session.require(
            _some(session.dist("dist.run.w1", workers=1) for _ in range(reps))
        )
        samples["dist.runtime.w1_job_s"] = [run.seconds for run in single]
        samples["dist.runtime.scaling_w1_over_w2"] = [
            run.seconds / job_s for run in single
        ]
        notes["dist.runtime.scaling_w1_over_w2"] = (
            f"base: job_s {job_s:.3f} s at {WORKERS} workers"
        )
        local = session.require(_some(session.local() for _ in range(reps)))
        samples["local.job_s"] = [run.seconds for run in local]
        empty = {bag: [] for bag in session.inputs}
        nothing = workload.reference(empty).expected
        null = session.require(_some(
            session.dist("dist.run.null", empty, nothing)
            for _ in range(reps + NULL_EXTRA)
        ))
        samples["dist.runtime.null_job_s"] = [run.seconds for run in null]

        traced = session.require(session.dist("dist.run.traced", tracer=spans.tracer))
        _traced(samples, notes, spans, traced, job_s)
    return samples, notes


def _some(runs) -> List[Run]:
    return [run for run in runs if run is not None]


def _add(samples: Samples, metrics: Dict[str, float]) -> None:
    for name, value in metrics.items():
        samples.setdefault(name, []).append(value)


def _counters(samples: Samples, notes: Dict[str, str], runs: List[Run], input_bytes: int) -> None:
    """Per-layer counters the untraced runs' ``DistResult`` carries."""
    latencies: List[float] = []
    for run in runs:
        result = run.result
        stats = result.storage_stats
        ops = sum(count for op, count in stats.items() if op not in _NOT_OPS)
        removed = stats.get("chunks_removed", 0)
        fetches = stats.get("remove_batch", 0) + stats.get("rremove_batch", 0)
        metrics = {
            "dist.server.ops": ops,
            "dist.server.ops_per_chunk": ops / removed,
            "dist.server.remove_batch_fill": removed / (fetches * BATCH),
            "dist.segments.write_amp": stats.get("spilled_bytes", 0) / input_bytes,
            "dist.worker.chunks_processed": result.chunks_processed,
            "dist.worker.deaths": result.worker_deaths,
            "dist.runtime.clones": result.total_clones(),
            "dist.runtime.family_resets": result.family_resets,
        }
        for counter in _SEGMENT_COUNTERS:
            metrics[f"dist.segments.{counter}"] = stats.get(counter, 0)
        _add(samples, metrics)
        latencies.extend(result.chunk_rpc_seconds)
    samples["dist.worker.chunk_p50_ms"] = [probes.percentile(latencies, 0.50) * 1e3]
    samples["dist.worker.chunk_p99_ms"] = [probes.percentile(latencies, 0.99) * 1e3]
    pooled = f"n={len(latencies)} fetches pooled over {len(runs)} run(s)"
    notes["dist.worker.chunk_p50_ms"] = notes["dist.worker.chunk_p99_ms"] = pooled
    notes["dist.segments.write_amp"] = f"base: {input_bytes} input bytes"


def _traced(samples: Samples, notes: Dict[str, str], spans: Spans, traced: Run, job_s: float) -> None:
    """What the master's instants say about the one traced run."""
    tracer = spans.tracer
    span = spans.last("dist.run")
    start, end = span["ts"], span["ts"] + span["dur"]
    assigns = [event["ts"] for event in tracer.events(name="dist_assign")]
    progress = [event["ts"] for event in tracer.events(name="dist_progress")]
    samples["dist.runtime.time_to_first_assign_s"] = [assigns[0] - start]
    samples["dist.runtime.tail_s"] = [end - max(progress + assigns)]
    samples["dist.runtime.assigns"] = [len(assigns)]
    samples["dist.runtime.trace_overhead_share"] = [(traced.seconds - job_s) / job_s]
    notes["dist.runtime.trace_overhead_share"] = (
        f"base: untraced job_s {job_s:.3f} s; traced {traced.seconds:.3f} s"
    )
