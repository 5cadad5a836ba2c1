"""HashJoin: equality join of a small and a large relation (Table 3).

The paper's Hurricane join (Section 5.3): split the smaller relation R into
``partitions`` key-range partitions and sort each in memory; create the
corresponding partitions of the larger relation S; then stream each S
partition against its in-memory R partition, emitting matches.

Skew lives in R's key frequencies (Zipf by key rank), so with equal key
ranges the R partitions — and therefore the per-partition hit rates and
join outputs — are skewed by ``zipf_weights(partitions, skew)``. S is
uniform. Join tasks need no merge (matches concatenate), but a clone must
re-load the in-memory build side, which is exactly the state-loading cost
in the cloning heuristic.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Tuple, Union

from repro.apps.calibration import (
    JOIN_BASE_OUTPUT_RATIO,
    JOIN_EMIT_CPU_PER_MB,
    JOIN_PARTITION_CPU_PER_MB,
    JOIN_PROBE_CPU_PER_MB,
    JOIN_SORT_CPU_PER_MB,
)
from repro.model.application import Application
from repro.model.costs import TaskCost
from repro.runtime.config import InputSpec
from repro.units import MB
from repro.workloads.zipf import range_partition_weights


def build_hashjoin_sim(
    small_bytes: int,
    large_bytes: int,
    skew: float,
    partitions: int = 32,
    placement: Union[str, int] = "spread",
    key_space: int = 1 << 20,
) -> Tuple[Application, Dict[str, InputSpec]]:
    """The simulator HashJoin app plus its input materialization.

    Skew model: keys of the smaller relation R are Zipf(s)-frequent by rank
    and relations are range-partitioned over ``key_space``, so partition 0
    absorbs the head of the distribution (at s=1 and 32 partitions it holds
    ~70% of R) — the "much larger hit rate for some keys" of Section 5.3.
    """
    if partitions < 1:
        raise ValueError(f"partitions must be >= 1, got {partitions}")
    app = Application("hashjoin")
    r_src = app.bag("relation.r")
    s_src = app.bag("relation.s")
    inputs = {
        r_src.bag_id: InputSpec(small_bytes, placement),
        s_src.bag_id: InputSpec(large_bytes, placement),
    }
    r_weights = range_partition_weights(key_space, partitions, skew)
    r_parts = [app.bag(f"r.{p}") for p in range(partitions)]
    s_parts = [app.bag(f"s.{p}") for p in range(partitions)]
    app.task(
        "partition.r",
        inputs=[r_src],
        outputs=r_parts,
        phase="partition",
        cost=TaskCost(
            cpu_seconds_per_mb=JOIN_PARTITION_CPU_PER_MB,
            output_ratio=1.0,
            output_weights={f"r.{p}": w for p, w in enumerate(r_weights)},
        ),
    )
    app.task(
        "partition.s",
        inputs=[s_src],
        outputs=s_parts,
        phase="partition",
        cost=TaskCost(
            cpu_seconds_per_mb=JOIN_PARTITION_CPU_PER_MB,
            output_ratio=1.0,
        ),
    )
    for p in range(partitions):
        out = app.bag(f"join.{p}")
        # Hit rate of partition p relative to a uniform partition: its share
        # of R's tuples divided by the uniform share 1/partitions.
        hit_rate = r_weights[p] * partitions
        build_mb = small_bytes * r_weights[p] / MB
        app.task(
            f"join.{p}",
            inputs=[f"s.{p}", f"r.{p}"],  # stream S against side-loaded R
            outputs=[out],
            phase="join",
            cost=TaskCost(
                cpu_seconds_per_mb=JOIN_PROBE_CPU_PER_MB
                + JOIN_EMIT_CPU_PER_MB * JOIN_BASE_OUTPUT_RATIO * hit_rate,
                output_ratio=JOIN_BASE_OUTPUT_RATIO * hit_rate,
                # Sorting the in-memory build side happens once per worker.
                startup_cpu_seconds=JOIN_SORT_CPU_PER_MB * build_mb,
            ),
        )
    return app, inputs


# -- real task functions (local engine) --------------------------------------------


def _make_partitioner(src_prefix: str, partitions: int, key_space: int):
    bags = [f"{src_prefix}.{part}" for part in range(partitions)]
    top = partitions - 1

    def partition_fn(ctx):
        # A chunk at a time, grouped in arrival order: each partition bag
        # receives the record sequence a per-record ``emit`` would give it.
        for batch in ctx.batches():
            groups: Dict[int, list] = defaultdict(list)
            for record in batch:
                part = record[0] * partitions // key_space
                groups[part if part < top else top].append(record)
            for part, records in groups.items():
                ctx.emit_many(bags[part], records)

    return partition_fn


def _join_fn(ctx):
    """Stream S records against the side-loaded, sorted R partition."""
    build: Dict[int, list] = {}
    for key, payload in ctx.side_records(0):
        build.setdefault(key, []).append(payload)
    for batch in ctx.batches():
        ctx.emit_many(
            None,
            [
                (key, match, payload)
                for key, payload in batch
                for match in build.get(key, ())
            ],
        )


def build_hashjoin_local(partitions: int = 4, key_space: int = 1 << 16) -> Application:
    """The real HashJoin app for the local engine.

    Record type: ``(key: u64, payload: bytes)``; output records are
    ``(key, r_payload, s_payload)`` triples.
    """
    app = Application("hashjoin-local")
    pair = ("tuple", "u64", "bytes")
    triple = ("tuple", "u64", "bytes", "bytes")
    r_src = app.bag("relation.r", codec=pair)
    s_src = app.bag("relation.s", codec=pair)
    r_parts = [app.bag(f"r.{p}", codec=pair) for p in range(partitions)]
    s_parts = [app.bag(f"s.{p}", codec=pair) for p in range(partitions)]
    app.task(
        "partition.r",
        [r_src],
        r_parts,
        fn=_make_partitioner("r", partitions, key_space),
        phase="partition",
    )
    app.task(
        "partition.s",
        [s_src],
        s_parts,
        fn=_make_partitioner("s", partitions, key_space),
        phase="partition",
    )
    for p in range(partitions):
        out = app.bag(f"join.{p}", codec=triple)
        app.task(
            f"join.{p}",
            [s_parts[p], r_parts[p]],
            [out],
            fn=_join_fn,
            phase="join",
        )
    return app
