"""Seeded fault-plan fuzzing with cross-layer invariant checks.

``python -m repro chaos --seed S --runs N`` generates N randomized
:class:`~repro.runtime.faults.FaultPlan`s from the seed — crash kind,
victim node, crash time drawn from the scenario's expected runtime,
optional restarts, and compound schedules such as crashing the recovery
master while it is itself replaying — runs each against a small ClickLog /
HashJoin / PageRank scenario, and checks the invariants the paper's
fault-tolerance story promises (Section 4.4):

* the job completes despite the plan;
* sink-bag output matches the fault-free baseline (byte-for-byte for the
  fixed-size aggregation sinks; concat sinks tolerate the per-writer
  partial-tail rounding documented in ``BagWriter.close``);
* no chunk is lost or double-counted: every shard's read pointer stays
  within ``[0, bytes_written]`` and every stream input is fully drained;
* no execution node completes twice after its family's last reset
  tombstone in the done log;
* leftover ready/running work-bag entries are stale (their nodes are done
  or were discarded by a reset), never live work the job forgot;
* the same seed produces an identical run, byte for byte (every faulted
  run is executed twice and its report digest compared).

Failures print the offending plan, which — being derived only from the
seed — reproduces the run exactly.

``--dist`` switches the fuzzer from the simulator to the **real**
multiprocess engine: each seeded run draws a (shards, workers) topology
plus a fault cocktail — a storage-shard kill (``os._exit`` on the N-th
``remove_batch``, aimed at a shard that demonstrably serves stream
traffic), optionally a worker kill, and optionally a **master kill**
(the control plane dies after a seeded number of journal records and a
fresh incarnation resumes from checkpoint + WAL replay; ``--master-kill``
makes this part of every plan) — and demands sink parity against a
fault-free LocalRuntime baseline. Replication is drawn from the seeded
rng (1 or 2) so both shard-death recovery paths — loss-closure replay
(r=1) and primary-backup failover (r=2) — are reachable at any run
count. Spill joins the cocktail too: ~1/3 of plans (every plan with
``--spill``) run with a tiny ``resident_bytes`` budget, so the
disk-backed segment layer is what the kills land on — segment-shipping
resync at r=2, directory reopen at r=1 — and plans with a live copy of
everything (r=2, or spill at any r) and neither a worker nor a master
kill must finish with ZERO family resets. Spill plans may also aim the
shard kill *inside* a segment compaction (one of the two crash windows,
pre- or post-index-record) instead of at an op count. The closed-loop
controller (:mod:`repro.dist.adaptive`) is armed in ~half of plans
(every plan with ``--adaptive``): kills then also have to preserve
controller state — worker respawns restore batch-depth snapshots from
their descriptors and master resume replays ``adaptive``/``governor``
journal records — under the same sink-parity and zero-reset gates.
Failing spill plans preserve their shards' segment directories
alongside the journal under ``REPRO_CHAOS_KEEP_JOURNALS``. No
determinism digest there: OS process scheduling is not seeded, only the
*outcome* is checked.
"""

from __future__ import annotations

import argparse
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.spec import paper_cluster
from repro.errors import ReproError
from repro.model.execution_graph import NodeState
from repro.runtime.config import HurricaneConfig, InputSpec
from repro.runtime.faults import FaultPlan
from repro.runtime.job import SimJob
from repro.runtime.report import RunReport
from repro.runtime.taskmanager import ResetEntry
from repro.sim.rand import rng_from
from repro.units import GB, MB

#: Chaos always runs with backups so single storage-node crashes are
#: survivable; plans never take down more nodes than replication covers.
CHAOS_REPLICATION = 2


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class ChaosScenario:
    """One small application the fuzzer throws fault plans at."""

    name: str
    build: Callable[[], tuple]  # -> (Application, {bag_id: InputSpec})
    machines: int = 6
    #: Max absolute byte drift per sink bag vs the fault-free baseline.
    #: 0 for fixed-size aggregation sinks; concat sinks allow the
    #: per-writer partial-tail ceil (BagWriter.close) to differ when
    #: cloning decisions differ under faults.
    output_tolerance: int = 0


def _build_clicklog():
    from repro.apps.clicklog import build_clicklog_sim

    return build_clicklog_sim(6 * GB, skew=1.0, partitions=8)


def _build_hashjoin():
    from repro.apps.hashjoin import build_hashjoin_sim

    return build_hashjoin_sim(256 * MB, 4 * GB, skew=1.0, partitions=4)


def _build_pagerank():
    from repro.apps.pagerank import build_pagerank_sim
    from repro.workloads.rmat import RmatSpec

    return build_pagerank_sim(
        RmatSpec(scale=22), iterations=3, partitions=4, profile_samples=20_000
    )


def scenarios() -> List[ChaosScenario]:
    return [
        ChaosScenario("clicklog", _build_clicklog),
        ChaosScenario("hashjoin", _build_hashjoin, output_tolerance=4096),
        ChaosScenario("pagerank", _build_pagerank),
    ]


def chaos_config() -> HurricaneConfig:
    return HurricaneConfig(replication=CHAOS_REPLICATION, tracing_enabled=True)


# ---------------------------------------------------------------------------
# plan generation


def generate_plan(
    rng,
    baseline_runtime: float,
    config: HurricaneConfig,
    compute_nodes: List[int],
    storage_nodes: List[int],
) -> FaultPlan:
    """Draw a survivable fault plan from ``rng``.

    Survivable means the plan never exceeds what the architecture claims to
    tolerate: at most ``CHAOS_REPLICATION - 1`` storage nodes down (here: one
    storage crash per plan), at least two compute nodes never permanently
    crashed, and at most two master crashes. Within those bounds anything
    goes — including a second master crash timed to land while the recovery
    master is replaying the done log.
    """
    plan = FaultPlan()
    t_lo = config.startup_delay + 1.0
    t_hi = max(t_lo + 1.0, 0.85 * baseline_runtime)

    def crash_time() -> float:
        return round(rng.uniform(t_lo, t_hi), 3)

    permanent_budget = len(compute_nodes) - 2
    permanent_deaths = 0
    compute_pool = list(compute_nodes)
    master_crashes = 0
    storage_crashed = False
    for _ in range(rng.randint(1, 3)):
        kind = rng.choices(
            ["compute", "master", "storage"], weights=[5, 3, 2]
        )[0]
        if kind == "compute" and compute_pool:
            node = compute_pool.pop(rng.randrange(len(compute_pool)))
            restart = None
            if permanent_deaths >= permanent_budget or rng.random() < 0.6:
                restart = round(rng.uniform(1.0, 8.0), 3)
            else:
                permanent_deaths += 1
            plan.crash_compute(at=crash_time(), node=node, restart_after=restart)
        elif kind == "master" and master_crashes < 2:
            at = crash_time()
            plan.crash_master(at=at)
            master_crashes += 1
            if master_crashes < 2 and rng.random() < 0.35:
                # Compound schedule: kill the recovery master while it is
                # itself waiting out master_recovery_delay / replaying.
                delta = config.master_restart_delay + rng.uniform(
                    0.0, config.master_recovery_delay
                )
                plan.crash_master(at=round(at + delta, 3))
                master_crashes += 1
        elif kind == "storage" and not storage_crashed:
            node = rng.choice(storage_nodes)
            restart = (
                round(rng.uniform(2.0, 10.0), 3) if rng.random() < 0.5 else None
            )
            plan.crash_storage(at=crash_time(), node=node, restart_after=restart)
            storage_crashed = True
    return plan


def describe_plan(plan: FaultPlan) -> str:
    parts = []
    for c in plan.compute_crashes:
        restart = f",r={c.restart_after}s" if c.restart_after is not None else ""
        parts.append(f"compute(n{c.node}@{c.at}s{restart})")
    for c in plan.master_crashes:
        parts.append(f"master(@{c.at}s)")
    for c in plan.storage_crashes:
        restart = f",r={c.restart_after}s" if c.restart_after is not None else ""
        parts.append(f"storage(n{c.node}@{c.at}s{restart})")
    return "+".join(parts) if parts else "none"


# ---------------------------------------------------------------------------
# invariants


@dataclass
class RunOutcome:
    """Everything the invariant checks and the digest need from one run."""

    scenario: str
    plan: FaultPlan
    job: Optional[SimJob] = None
    report: Optional[RunReport] = None
    error: Optional[BaseException] = None
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.violations


def sink_fingerprint(job: SimJob) -> Dict[str, int]:
    return {
        bag_id: int(job.catalog.get(bag_id).written_total())
        for bag_id in job.graph.sink_bags()
    }


def check_invariants(
    outcome: RunOutcome, baseline_sinks: Dict[str, int], tolerance: int
) -> List[str]:
    """All cross-layer invariant checks against one completed run."""
    job = outcome.job
    violations: List[str] = []

    # 1. Completion: the job finished and every execution node is DONE.
    if not job.exec.all_done():
        violations.append("job reported completion but exec graph is not all-done")
    for node in job.exec.nodes.values():
        if node.state != NodeState.DONE:
            violations.append(
                f"node {node.node_id} ended in state {node.state.value}"
            )

    # 2. Output: sink bags match the fault-free baseline.
    sinks = sink_fingerprint(job)
    for bag_id, expected in baseline_sinks.items():
        got = sinks.get(bag_id, 0)
        if abs(got - expected) > tolerance:
            violations.append(
                f"sink {bag_id}: {got} bytes vs baseline {expected} "
                f"(tolerance {tolerance})"
            )

    # 3. Conservation: no shard read more than was written, none negative.
    for bag in job.catalog.bags():
        for node, shard in bag.shards.items():
            if shard.bytes_written < 0 or shard.bytes_read < 0:
                violations.append(
                    f"bag {bag.bag_id} shard {node}: negative byte counter "
                    f"(written={shard.bytes_written}, read={shard.bytes_read})"
                )
            if shard.bytes_read > shard.bytes_written:
                violations.append(
                    f"bag {bag.bag_id} shard {node}: read {shard.bytes_read} "
                    f"of {shard.bytes_written} written (double-consumed)"
                )

    # 4. Drain: every task family fully consumed its stream input.
    for task_id, family in job.exec.families.items():
        bag_id = family.original.spec.stream_input
        if bag_id not in job.catalog:
            continue
        remaining = job.catalog.get(bag_id).remaining_total()
        if remaining != 0:
            violations.append(
                f"stream input {bag_id} of {task_id}: {remaining} bytes "
                "never consumed (lost work)"
            )

    # 5. Done log: after a family's last reset tombstone, no execution node
    #    completes twice (exactly-once completion per node).
    entries = job.workbags.done.entries()
    last_reset: Dict[str, int] = {}
    for position, entry in enumerate(entries):
        if isinstance(entry, ResetEntry):
            last_reset[entry.task_id] = position
    seen: Dict[str, int] = {}
    for position, entry in enumerate(entries):
        if isinstance(entry, ResetEntry):
            continue
        if position <= last_reset.get(entry.task_id, -1):
            continue  # pre-reset entry: discarded work, duplicates allowed
        if entry.node_id in seen:
            violations.append(
                f"node {entry.node_id} completed twice after its last reset "
                f"tombstone (log positions {seen[entry.node_id]} and {position})"
            )
        else:
            seen[entry.node_id] = position

    # 6. Work bags: leftovers must be stale — a live READY/RUNNING message
    #    at completion is work the job forgot about.
    for msg in job.workbags.ready.items():
        node = job.exec.nodes.get(msg.node_id)
        if node is not None and node.state != NodeState.DONE:
            violations.append(
                f"ready bag holds live message for {msg.node_id} "
                f"({node.state.value}) at completion"
            )
    for entry in job.workbags.running.items():
        node = job.exec.nodes.get(entry.node_id)
        if node is not None and node.state != NodeState.DONE:
            violations.append(
                f"running bag holds live entry for {entry.node_id} "
                f"({node.state.value}) at completion"
            )
    return violations


# ---------------------------------------------------------------------------
# execution + determinism digest


def run_digest(job: SimJob, report: RunReport) -> str:
    """A stable digest of everything observable about one run.

    Two executions of the same scenario + plan must produce the same digest
    — this is the "same seed, identical RunReport" invariant. Covers the
    report (runtime, events, trace metrics), the done log, and the sink
    fingerprint.
    """
    h = hashlib.sha256()
    h.update(repr(report.runtime).encode())
    h.update(repr(sorted(sink_fingerprint(job).items())).encode())
    for entry in job.workbags.done.entries():
        h.update(repr(entry).encode())
    for t, kind, info in report.events:
        h.update(repr((t, kind, sorted(info.items()))).encode())
    h.update(repr(sorted(report.trace_metrics.items())).encode())
    h.update(repr(sorted(report.clone_counts.items())).encode())
    return h.hexdigest()


def execute(
    scenario: ChaosScenario,
    plan: FaultPlan,
    timeout: Optional[float] = None,
    max_steps: Optional[int] = None,
) -> Tuple[SimJob, RunReport]:
    app, inputs = scenario.build()
    job = SimJob(
        app.graph,
        inputs,
        cluster_spec=paper_cluster(scenario.machines),
        config=chaos_config(),
        fault_plan=plan,
    )
    report = job.run(timeout=timeout, max_steps=max_steps)
    return job, report


@dataclass
class Baseline:
    runtime: float
    steps: int
    sinks: Dict[str, int]

    @property
    def timeout(self) -> float:
        # Sim-time hang guard: generous, the step budget is the hard stop.
        return self.runtime * 10.0 + 120.0

    @property
    def max_steps(self) -> int:
        # Deterministic livelock watchdog (see Environment.run).
        return self.steps * 30 + 200_000


def measure_baseline(scenario: ChaosScenario) -> Baseline:
    job, report = execute(scenario, FaultPlan())
    return Baseline(
        runtime=report.runtime,
        steps=job.env.step_count,
        sinks=sink_fingerprint(job),
    )


def _metric_summary(report: RunReport) -> str:
    metrics = report.trace_metrics
    putback = metrics.get("storage.putback_bytes", 0.0)
    return (
        f"tasks={int(metrics.get('task.completed', 0))}"
        f" interrupted={int(metrics.get('task.interrupted', 0))}"
        f" clones={int(metrics.get('clone.granted', 0))}"
        f" putback={putback / MB:.1f}MB"
    )


def fuzz_one(
    scenario: ChaosScenario,
    baseline: Baseline,
    seed: int,
    index: int,
    verify_determinism: bool = True,
) -> Tuple[RunOutcome, str]:
    """Run one seeded fault plan; returns the outcome and a summary line."""
    rng = rng_from("chaos", seed, scenario.name, index)
    config = chaos_config()
    compute, storage = config.resolve_nodes(scenario.machines)
    plan = generate_plan(rng, baseline.runtime, config, compute, storage)
    outcome = RunOutcome(scenario=scenario.name, plan=plan)
    try:
        outcome.job, outcome.report = execute(
            scenario, plan, timeout=baseline.timeout, max_steps=baseline.max_steps
        )
    except ReproError as exc:
        outcome.error = exc
        line = (
            f"{scenario.name} run {index}: plan={describe_plan(plan)} "
            f"FAILED ({type(exc).__name__}: {exc})"
        )
        return outcome, line
    outcome.violations = check_invariants(
        outcome, baseline.sinks, scenario.output_tolerance
    )
    digest = run_digest(outcome.job, outcome.report)
    if verify_determinism:
        replay_job, replay_report = execute(
            scenario, plan, timeout=baseline.timeout, max_steps=baseline.max_steps
        )
        replay = run_digest(replay_job, replay_report)
        if replay != digest:
            outcome.violations.append(
                f"non-deterministic: digests {digest[:12]} != {replay[:12]} "
                "for the identical plan"
            )
    status = "ok" if outcome.ok else f"VIOLATED({len(outcome.violations)})"
    line = (
        f"{scenario.name} run {index}: plan={describe_plan(plan)} "
        f"runtime={outcome.report.runtime:.1f}s {_metric_summary(outcome.report)} "
        f"digest={digest[:12]} {status}"
    )
    return outcome, line


# ---------------------------------------------------------------------------
# dist-engine chaos (real processes, real kills)


@dataclass(frozen=True)
class DistChaosScenario:
    """One small workload the dist fuzzer runs with injected kills."""

    name: str
    #: -> (Application, {source bag: records}, DistRuntime kwargs)
    build: Callable[[], Tuple[Any, Dict[str, list], Dict[str, Any]]]


def _dist_clicklog():
    from repro.apps import build_clicklog_local
    from repro.workloads.clicklog_data import generate_clicklog

    regions = ["usa", "china"]
    records = [
        ip
        for ip in generate_clicklog(2_500, skew=0.8, seed=13)
        if (ip >> 26) < len(regions)
    ]
    return (
        build_clicklog_local(regions=regions),
        {"clicklog": records},
        {"chunk_size": 2048},
    )


def _dist_hashjoin():
    from repro.apps import build_hashjoin_local
    from repro.workloads.relations import generate_relation

    inputs = {
        "relation.r": list(
            generate_relation(100, key_space=1 << 12, skew=0.9, seed=3)
        ),
        "relation.s": list(
            generate_relation(700, key_space=1 << 12, skew=0.0, seed=4)
        ),
    }
    return build_hashjoin_local(partitions=2), inputs, {}


def dist_scenarios() -> List[DistChaosScenario]:
    return [
        DistChaosScenario("clicklog", _dist_clicklog),
        DistChaosScenario("hashjoin", _dist_hashjoin),
    ]


def _dist_sink_fingerprint(graph, records_of) -> Dict[str, List[str]]:
    # Sorted reprs: sink record order is interleaving-dependent for
    # streamed (concat) sinks, and repr makes mixed record types sortable.
    return {
        bag_id: sorted(repr(record) for record in records_of(bag_id))
        for bag_id in graph.sink_bags()
    }


def dist_baseline(scenario: DistChaosScenario) -> Dict[str, List[str]]:
    from repro.local import LocalRuntime

    app, inputs, _ = scenario.build()
    result = LocalRuntime(app, workers=1, cloning=False).run(
        dict(inputs), timeout=120
    )
    return _dist_sink_fingerprint(app.graph, result.records)


def fuzz_one_dist(
    scenario: DistChaosScenario,
    baseline_sinks: Dict[str, List[str]],
    seed: int,
    index: int,
    master_kill: bool = False,
    spill: bool = False,
    adaptive: bool = False,
) -> Tuple[bool, str]:
    """One seeded dist run with injected kills; (ok, summary line)."""
    import os
    import shutil
    import tempfile

    from repro.dist import DistRuntime, MasterKilled
    from repro.dist.sharding import ShardRouter

    rng = rng_from("chaos-dist", seed, scenario.name, index)
    app, inputs, kwargs = scenario.build()
    shards = rng.randint(2, 3)
    workers = rng.randint(2, 3)
    # Drawn from the seeded rng, not from run-index parity: a single-run
    # invocation (--runs 1, or a CI shard pinned to one index) can land on
    # either recovery path depending on the seed, and a seed sweep covers
    # both without needing an even run count. The old ``index % 2`` rule
    # made ``--runs 1`` structurally unable to ever test replication.
    replication = rng.choice([1, 2])
    # The closed-loop controller joins the cocktail: ~half of plans arm
    # the per-task batch-depth controller plus the clone governor
    # (``--adaptive`` arms every plan, the CI arm), so worker respawns
    # restore controller snapshots from descriptors, master resume
    # replays "adaptive"/"governor" journal records, and the sink-parity
    # and zero-reset gates below apply unchanged to adaptive runs.
    adaptive_run = adaptive or rng.random() < 0.5
    # Spilling plans exercise the disk-backed segment layer under kills:
    # a deliberately tiny budget forces most chunks out of the hot cache,
    # so the killed shard's recovery really reads segments back (reopen
    # at r=1, segment shipping at r=2). ``--spill`` makes every plan
    # spill (the CI arm); otherwise ~1/3 of plans draw it anyway so
    # default fuzzing covers the layer too.
    resident_bytes = None
    if spill or rng.random() < 1 / 3:
        resident_bytes = rng.choice([2048, 4096, 8192])
    # Aim at a shard that homes a stream-input bag: remove_batch traffic
    # is guaranteed there, so the injected kill actually fires mid-run.
    router = ShardRouter(shards, replication)
    stream_homes = sorted(
        {router.home(spec.stream_input) for spec in app.graph.tasks.values()}
    )
    kill_shard = rng.choice(stream_homes)
    kill_ops = rng.randint(1, 4)
    # Spill plans sometimes aim the shard kill *inside* a compaction
    # window instead of at an op count: the victim dies between writing
    # the compacted segments and logging the swap ("written"), or between
    # logging it and unlinking the old files ("indexed") — the two crash
    # windows the segment store's reopen must disambiguate. A plan whose
    # run never compacts simply never fires the kill, which doubles as a
    # does-nothing check (mirroring the high-tail master kills).
    kill_in_compaction = None
    if resident_bytes is not None and rng.random() < 1 / 3:
        kill_in_compaction = rng.choice(["written", "indexed"])
    kill_task = None
    if rng.random() < 0.35:
        kill_task = rng.choice(sorted(app.graph.tasks))
    # The master joins the fault cocktail: journal its control plane and
    # kill it after a seeded number of write-ahead records, then resume a
    # fresh incarnation from the journal. With ``master_kill`` the kill is
    # unconditional (the CI cocktail); otherwise it joins ~40% of plans.
    kill_master_after = None
    journal_dir = None
    if master_kill or rng.random() < 0.4:
        # These scenarios journal roughly 15-30 records end to end; the
        # range keeps most kills actually firing mid-run while the high
        # tail doubles as a does-nothing-when-unfired check.
        kill_master_after = rng.randint(2, 18)
        journal_dir = tempfile.mkdtemp(prefix="repro-chaos-journal-")
    segment_dir = None
    if resident_bytes is not None:
        segment_dir = tempfile.mkdtemp(prefix="repro-chaos-segments-")
    plan_desc = (
        f"shards={shards} workers={workers} r={replication} "
        + (
            f"kill_shard={kill_shard}@compact:{kill_in_compaction}"
            if kill_in_compaction is not None
            else f"kill_shard={kill_shard}@{kill_ops}ops"
        )
        + (f" spill={resident_bytes}B" if resident_bytes is not None else "")
        + (" adaptive" if adaptive_run else "")
        + (f" kill_task={kill_task}" if kill_task else "")
        + (
            f" kill_master@{kill_master_after}rec"
            if kill_master_after is not None
            else ""
        )
    )
    plan_kwargs = dict(
        workers=workers,
        shards=shards,
        replication=replication,
        resident_bytes=resident_bytes,
        segment_dir=segment_dir,
        kill_shard=kill_shard,
        kill_shard_after_ops=kill_ops,
        kill_shard_in_compaction=kill_in_compaction,
        kill_task=kill_task,
        kill_after_chunks=rng.randint(1, 3),
        journal_dir=journal_dir,
        adaptive=adaptive_run,
        **kwargs,
    )
    runtime = DistRuntime(
        app, kill_master_after_records=kill_master_after, **plan_kwargs
    )
    recoveries = 0

    def settle_journal(failed: bool) -> str:
        # A failed plan's journal and segment directories are the
        # post-mortem: with REPRO_CHAOS_KEEP_JOURNALS set (CI points it
        # at an artifact directory) the snapshot + WAL — and, for spill
        # plans, every shard's sealed segments plus its consumed/dedup
        # index — of a failing run are preserved instead of deleted,
        # named by scenario and run index so the reproduce hint and the
        # artifact line up.
        keep_root = os.environ.get("REPRO_CHAOS_KEEP_JOURNALS")
        kept_notes = []
        for label, dirpath in (
            ("journal", journal_dir),
            ("segments", segment_dir),
        ):
            if dirpath is None:
                continue
            if failed and keep_root:
                os.makedirs(keep_root, exist_ok=True)
                kept = os.path.join(
                    keep_root, f"{scenario.name}-run{index}-{label}"
                )
                shutil.rmtree(kept, ignore_errors=True)
                shutil.move(dirpath, kept)
                kept_notes.append(f" {label} kept at {kept}")
            else:
                shutil.rmtree(dirpath, ignore_errors=True)
        return "".join(kept_notes)

    try:
        try:
            result = runtime.run(dict(inputs), timeout=180.0)
        except MasterKilled as exc:
            # The master died as planned; a fresh incarnation (same
            # plan, kill disarmed) adopts the surviving fleet from
            # the journal.
            successor = DistRuntime(
                app, kill_master_after_records=None, **plan_kwargs
            )
            result = successor.resume(exc.fleet, dict(inputs), timeout=180.0)
            recoveries = result.master_recoveries
    except ReproError as exc:
        kept = settle_journal(failed=True)
        return False, (
            f"{scenario.name} dist run {index}: {plan_desc} "
            f"FAILED ({type(exc).__name__}: {exc}){kept}"
        )
    except BaseException:
        settle_journal(failed=True)
        raise
    sinks = _dist_sink_fingerprint(app.graph, result.records)
    diverged = sorted(
        bag_id
        for bag_id, expected in baseline_sinks.items()
        if sinks.get(bag_id) != expected
    )
    problems = list(diverged)
    # Replication's whole point: a shard kill with live copies must be
    # absorbed by failover, never replayed. Spill makes the same promise
    # at replication 1 — the respawn reopens its segment directory, so
    # nothing was lost and nothing replays. Worker kills still reset
    # their family (compute state is unreplicated), and a master kill
    # legitimately resets whatever the journal could not prove committed,
    # so only gate the plans with neither.
    if (
        (replication > 1 or resident_bytes is not None)
        and kill_task is None
        and kill_master_after is None
        and result.family_resets
    ):
        problems.append(f"RESETS({result.family_resets})")
    kept = settle_journal(failed=bool(problems))
    status = "ok" if not problems else f"DIVERGED({','.join(problems)})"
    line = (
        f"{scenario.name} dist run {index}: {plan_desc} "
        f"shard_deaths={result.shard_deaths} "
        f"worker_deaths={result.worker_deaths} "
        f"resets={result.family_resets} "
        f"recoveries={recoveries} {status}{kept}"
    )
    return not problems, line


def _main_dist(args) -> int:
    pool = dist_scenarios()
    if args.scenario is not None:
        pool = [s for s in pool if s.name == args.scenario]
    if not pool:
        print(f"chaos --dist: no dist scenario named {args.scenario!r}")
        return 2
    baselines: Dict[str, Dict[str, List[str]]] = {}
    failures = 0
    for index in range(args.runs):
        scenario = pool[index % len(pool)]
        if scenario.name not in baselines:
            baselines[scenario.name] = dist_baseline(scenario)
            sinks = baselines[scenario.name]
            print(
                f"{scenario.name} baseline: "
                f"{sum(len(v) for v in sinks.values())} sink records "
                f"in {len(sinks)} bags"
            )
        ok, line = fuzz_one_dist(
            scenario,
            baselines[scenario.name],
            args.seed,
            index,
            master_kill=args.master_kill,
            spill=args.spill,
            adaptive=args.adaptive,
        )
        print(f"[{index + 1:3d}/{args.runs}] {line}")
        if not ok:
            failures += 1
            print(
                f"    reproduce: --dist --seed {args.seed} --scenario "
                f"{scenario.name} (run index {index})"
            )
    verdict = "passed" if failures == 0 else f"{failures} FAILED"
    print(
        f"chaos --dist: {args.runs - failures}/{args.runs} runs {verdict} "
        f"(seed={args.seed})"
    )
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# CLI


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Seeded fault-plan fuzzing with invariant checks.",
    )
    parser.add_argument("--seed", type=int, default=0, help="fuzzing seed")
    parser.add_argument(
        "--runs", type=int, default=25, help="number of fault plans to run"
    )
    parser.add_argument(
        "--scenario",
        choices=[s.name for s in scenarios()],
        default=None,
        help="restrict to one scenario (default: round-robin over all)",
    )
    parser.add_argument(
        "--skip-determinism",
        action="store_true",
        help="do not re-execute each plan to verify digest stability",
    )
    parser.add_argument(
        "--dist",
        action="store_true",
        help="fuzz the real multiprocess engine with shard/worker kills "
        "instead of the simulator",
    )
    parser.add_argument(
        "--master-kill",
        action="store_true",
        help="with --dist: kill the master in every plan (instead of "
        "~40%% of them) and resume it from its journal",
    )
    parser.add_argument(
        "--spill",
        action="store_true",
        help="with --dist: give every plan a tiny per-shard resident-bytes "
        "budget so the disk-backed segment layer is exercised under kills "
        "(otherwise ~1/3 of plans draw spill from the seed)",
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="with --dist: arm the closed-loop batch-depth controller and "
        "clone governor in every plan, so controller state must survive "
        "the kills (otherwise ~half of plans draw it from the seed)",
    )
    args = parser.parse_args(argv)

    if args.dist:
        return _main_dist(args)

    pool = scenarios()
    if args.scenario is not None:
        pool = [s for s in pool if s.name == args.scenario]
    baselines: Dict[str, Baseline] = {}
    failures = 0
    for index in range(args.runs):
        scenario = pool[index % len(pool)]
        if scenario.name not in baselines:
            baselines[scenario.name] = measure_baseline(scenario)
            base = baselines[scenario.name]
            print(
                f"{scenario.name} baseline: runtime={base.runtime:.1f}s "
                f"steps={base.steps} sinks={sum(base.sinks.values())}B"
            )
        outcome, line = fuzz_one(
            scenario,
            baselines[scenario.name],
            args.seed,
            index,
            verify_determinism=not args.skip_determinism,
        )
        print(f"[{index + 1:3d}/{args.runs}] {line}")
        if not outcome.ok:
            failures += 1
            for violation in outcome.violations:
                print(f"    invariant: {violation}")
            if outcome.error is None and outcome.violations:
                print(f"    reproduce: --seed {args.seed} --scenario "
                      f"{scenario.name} (run index {index})")
    verdict = "passed" if failures == 0 else f"{failures} FAILED"
    print(f"chaos: {args.runs - failures}/{args.runs} runs {verdict} "
          f"(seed={args.seed})")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
