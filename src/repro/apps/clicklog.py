"""ClickLog: count distinct IPs per region (Sections 2.1, 5.1).

Three phases, exactly as Figure 3:

1. **Phase 1** maps the click log into per-region bags (geolocate each IP);
   default concatenation merge.
2. **Phase 2** lists the distinct IPs of one region in a bitset; merge is
   bitwise OR.
3. **Phase 3** counts the bits; merge is addition.

``build_clicklog_sim`` produces the cost-annotated graph: region weights
follow ``zipf_weights(partitions, skew)``, which reproduces the paper's
imbalance ladder (64**s for the default 64 regions). ``phase1_tasks``
splits the source into statically partitioned phase-1 tasks — 1 for
Hurricane (it clones on demand), ``machines`` for the HurricaneNC baseline
of Figure 6.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.apps.calibration import (
    CLICKLOG_COUNT_BYTES,
    CLICKLOG_MERGE_CPU_PER_MB,
    CLICKLOG_P1_CPU_PER_MB,
    CLICKLOG_P2_CPU_PER_MB,
    CLICKLOG_P3_CPU_PER_MB,
    clicklog_bitset_bytes,
)
from repro.merges.bitset import Bitset
from repro.model.application import Application
from repro.model.costs import TaskCost
from repro.runtime.config import InputSpec
from repro.workloads.clicklog_data import (
    REGION_COUNT,
    group_by_region,
    region_name,
)
from repro.workloads.zipf import zipf_weights


def clicklog_region_weights(skew: float, partitions: int = REGION_COUNT):
    """Per-region input shares for a given Zipf skew."""
    return zipf_weights(partitions, skew)


def _partition_label(index: int, partitions: int) -> str:
    if partitions == REGION_COUNT:
        return region_name(index)
    return f"p{index:04d}"


def build_clicklog_sim(
    total_bytes: int,
    skew: float,
    partitions: int = REGION_COUNT,
    phase1_tasks: int = 1,
    placement: Union[str, int] = "spread",
) -> Tuple[Application, Dict[str, InputSpec]]:
    """The simulator ClickLog app plus its input materialization.

    ``placement`` is forwarded to every source bag's InputSpec ("spread",
    or a storage-node index for the local-data ablation of Figures 7/8).
    """
    if phase1_tasks < 1:
        raise ValueError(f"phase1_tasks must be >= 1, got {phase1_tasks}")
    app = Application("clicklog")
    weights = clicklog_region_weights(skew, partitions)
    region_bags = {}
    weight_map = {}
    for index in range(partitions):
        label = _partition_label(index, partitions)
        region_bags[label] = app.bag(f"region.{label}")
        weight_map[f"region.{label}"] = weights[index]

    inputs: Dict[str, InputSpec] = {}
    share, leftover = divmod(total_bytes, phase1_tasks)
    for j in range(phase1_tasks):
        src = app.bag(f"clicklog.{j}")
        inputs[src.bag_id] = InputSpec(
            share + (1 if j < leftover else 0), placement
        )
        app.task(
            f"phase1.{j}" if phase1_tasks > 1 else "phase1",
            inputs=[src],
            outputs=list(region_bags.values()),
            phase="phase1",
            cost=TaskCost(
                cpu_seconds_per_mb=CLICKLOG_P1_CPU_PER_MB,
                output_ratio=1.0,
                output_weights=weight_map,
            ),
        )

    for index in range(partitions):
        label = _partition_label(index, partitions)
        distinct = app.bag(f"distinct.{label}")
        count = app.bag(f"count.{label}")
        region_bytes = total_bytes * weights[index]
        app.task(
            f"phase2.{label}",
            inputs=[region_bags[label]],
            outputs=[distinct],
            merge="bitset_union",
            phase="phase2",
            cost=TaskCost(
                cpu_seconds_per_mb=CLICKLOG_P2_CPU_PER_MB,
                output_ratio=0.0,
                fixed_output_bytes=clicklog_bitset_bytes(region_bytes),
                merge_cpu_seconds_per_mb=CLICKLOG_MERGE_CPU_PER_MB,
                merge_output_ratio=1.0,
            ),
        )
        app.task(
            f"phase3.{label}",
            inputs=[distinct],
            outputs=[count],
            merge="sum",
            phase="phase3",
            cost=TaskCost(
                cpu_seconds_per_mb=CLICKLOG_P3_CPU_PER_MB,
                output_ratio=0.0,
                fixed_output_bytes=CLICKLOG_COUNT_BYTES,
            ),
        )
    return app, inputs


# -- real task functions (local engine), pseudo-code of Figure 3 ----------------


#: Region index -> region bag id, built once (not an f-string per click).
_REGION_BAGS = tuple(f"region.{region_name(i)}" for i in range(REGION_COUNT))

#: The low address bits that index a region's bitset.
_LOW_MASK = 0x03FFFFFF


def _phase1(ctx):
    """Geolocate each click and route it to its region bag.

    A chunk of clicks at a time: grouped by region in arrival order, so
    every region bag receives the record sequence a per-click ``emit``
    would give it — the same chunks — for one ``emit_many`` per region.
    """
    for batch in ctx.batches():
        for region, ips in group_by_region(batch).items():
            ctx.emit_many(_REGION_BAGS[region], ips)


def _phase2(ctx):
    """List distinct IPs of one region in a bitset (low bits index it)."""
    distinct = Bitset()
    for batch in ctx.batches():
        distinct.update({ip & _LOW_MASK for ip in batch})
    return distinct


def _phase3(ctx):
    """Count distinct bits; input records are (merged) bitsets."""
    total = 0
    for bitset in ctx.records():
        total += bitset.count()
    return total


def build_clicklog_local(regions: Optional[list] = None) -> Application:
    """The real ClickLog app for the local engine.

    ``regions`` restricts the graph to the given region names (default: all
    64); restricting keeps tiny test graphs readable.
    """
    names = regions or [region_name(i) for i in range(REGION_COUNT)]
    app = Application("clicklog-local")
    src = app.bag("clicklog", codec="u64")
    region_bags = [app.bag(f"region.{name}", codec="u64") for name in names]
    app.task("phase1", [src], region_bags, fn=_phase1, phase="phase1")
    for name in names:
        distinct = app.bag(f"distinct.{name}")
        count = app.bag(f"count.{name}")
        app.task(
            f"phase2.{name}",
            [f"region.{name}"],
            [distinct],
            fn=_phase2,
            merge="bitset_union",
            phase="phase2",
        )
        app.task(
            f"phase3.{name}",
            [distinct],
            [count],
            fn=_phase3,
            merge="sum",
            phase="phase3",
        )
    return app
