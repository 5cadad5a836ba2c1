"""PageRank: 5 iterations over an R-MAT power-law graph (Table 4).

Each iteration is a scatter/gather pair per vertex-range partition:

* **scatter (i, p)** streams partition p's edge list with the iteration's
  rank bag side-loaded, emitting rank messages to destination partitions
  (routing weights from the sampled R-MAT transfer matrix);
* **gather (i, p)** streams partition p's incoming messages and aggregates
  per-vertex sums — a ``dict_sum`` merge, so Hurricane can clone the hub
  partitions that dominate a power-law graph.

Edge lists are re-read every iteration (the real I/O pattern); the builder
materializes one edge bag per (iteration, partition) so the destructive bag
reads of the simulator model that re-reading faithfully.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Tuple, Union

from repro.apps.calibration import (
    PAGERANK_EDGE_BYTES,
    PAGERANK_GATHER_CPU_PER_MB,
    PAGERANK_MERGE_CPU_PER_MB,
    PAGERANK_MESSAGE_BYTES,
    PAGERANK_SCATTER_CPU_PER_MB,
    PAGERANK_VERTEX_BYTES,
)
from repro.model.application import Application
from repro.model.costs import TaskCost
from repro.runtime.config import InputSpec
from repro.workloads.rmat import RmatSpec, rmat_partition_profile, rmat_transfer_matrix


def build_pagerank_sim(
    spec: RmatSpec,
    iterations: int = 5,
    partitions: int = 32,
    placement: Union[str, int] = "spread",
    profile_samples: int = 100_000,
) -> Tuple[Application, Dict[str, InputSpec]]:
    """The simulator PageRank app plus its input materialization."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    app = Application(f"pagerank-rmat{spec.scale}")
    profile = rmat_partition_profile(spec, partitions, samples=profile_samples)
    matrix = rmat_transfer_matrix(spec, partitions, samples=profile_samples)
    edge_bytes_total = spec.edges * PAGERANK_EDGE_BYTES
    vertex_bytes_part = spec.vertices * PAGERANK_VERTEX_BYTES // partitions
    message_ratio = PAGERANK_MESSAGE_BYTES / PAGERANK_EDGE_BYTES

    inputs: Dict[str, InputSpec] = {}
    for p in range(partitions):
        rank0 = app.bag(f"ranks.0.{p}")
        inputs[rank0.bag_id] = InputSpec(vertex_bytes_part, placement)
    for i in range(iterations):
        for p in range(partitions):
            edges = app.bag(f"edges.{i}.{p}")
            inputs[edges.bag_id] = InputSpec(
                int(edge_bytes_total * profile[p]), placement
            )
            app.bag(f"msgs.{i}.{p}")
        for p in range(partitions):
            app.bag(f"ranks.{i + 1}.{p}")
    for i in range(iterations):
        for p in range(partitions):
            msg_weights = {
                f"msgs.{i}.{q}": matrix[p][q]
                for q in range(partitions)
                if matrix[p][q] > 0
            }
            app.task(
                f"scatter.{i}.{p}",
                inputs=[f"edges.{i}.{p}", f"ranks.{i}.{p}"],
                outputs=list(msg_weights),
                phase=f"iter{i}.scatter",
                cost=TaskCost(
                    cpu_seconds_per_mb=PAGERANK_SCATTER_CPU_PER_MB,
                    output_ratio=message_ratio,
                    output_weights=msg_weights,
                ),
            )
            app.task(
                f"gather.{i}.{p}",
                inputs=[f"msgs.{i}.{p}"],
                outputs=[f"ranks.{i + 1}.{p}"],
                merge="dict_sum",
                phase=f"iter{i}.gather",
                cost=TaskCost(
                    cpu_seconds_per_mb=PAGERANK_GATHER_CPU_PER_MB,
                    output_ratio=0.0,
                    fixed_output_bytes=vertex_bytes_part,
                    merge_cpu_seconds_per_mb=PAGERANK_MERGE_CPU_PER_MB,
                ),
            )
    return app, inputs


# -- real task functions (local engine) ------------------------------------------

_DAMPING = 0.85


def _make_scatter(iteration: int, partitions: int, vertices: int):
    def scatter_fn(ctx):
        """Send rank/out_degree along each out-edge.

        Out-degrees are *side state* ({src: degree} dict records), not
        derived from the streamed edges: a clone only sees a subset of the
        partition's edges, so any full-partition statistic must come from
        a side input to keep the task safely cloneable.
        """
        sums: Dict[int, float] = {}
        degrees: Dict[int, int] = {}
        for record in ctx.side_records(0):
            sums.update(record)  # rank bags hold {vertex: incoming_sum}
        for record in ctx.side_records(1):
            degrees.update(record)
        span = vertices / partitions
        base = (1.0 - _DAMPING) / vertices
        bags = [f_msg(iteration, part) for part in range(partitions)]
        for batch in ctx.batches():
            # A chunk of edges at a time, grouped by destination partition
            # in arrival order: the message sequence per bag is unchanged.
            groups: Dict[int, list] = defaultdict(list)
            for src, dst in batch:
                # Rank is derived from the mergeable raw sum at
                # *consumption* time: rank = base + d * sum. (Applying the
                # affine transform inside gather would break clone merging
                # — two partials would each add the base term.)
                rank = base + _DAMPING * sums.get(src, 0.0)
                share = rank / degrees[src]
                part = min(partitions - 1, int(dst / span))
                groups[part].append((dst, share))
            for part, messages in groups.items():
                ctx.emit_many(bags[part], messages)

    return scatter_fn


def f_msg(iteration: int, partition: int) -> str:
    return f"msgs.{iteration}.{partition}"


def _make_gather(vertices: int, lo: int, hi: int):
    def gather_fn(ctx):
        """Aggregate incoming shares for vertices [lo, hi).

        Returns the *raw* per-vertex sum — a value that merges exactly
        under ``dict_sum`` no matter how the input was split across
        clones. The damping transform happens where ranks are consumed.
        """
        sums: Dict[int, float] = {}
        for batch in ctx.batches():
            for dst, share in batch:
                if lo <= dst < hi:
                    sums[dst] = sums.get(dst, 0.0) + share
        return sums

    return gather_fn


def build_pagerank_local(
    vertices: int, partitions: int = 4, iterations: int = 2
) -> Application:
    """The real PageRank app for the local engine.

    Input bags: ``edges.{i}.{p}`` with (src, dst) records for every
    iteration (re-read each round, as on the cluster), ``ranks.0.{p}``
    and ``degrees.{i}.{p}`` with ``{vertex: value}`` dict records (the
    out-degrees are per-partition state every clone must see in full, so
    they are a side input, not derived from the stream). Gather tasks
    return dicts merged with ``dict_sum``; the final ranks land in
    ``ranks.{iterations}.{p}``. Use :func:`pagerank_local_inputs` to build
    the input dict from an edge list.
    """
    app = Application("pagerank-local")
    edge_codec = ("tuple", "u64", "u64")
    message_codec = ("tuple", "u64", "f64")
    span = vertices / partitions
    for p in range(partitions):
        app.bag(f"ranks.0.{p}")  # {vertex: rank} dict records
    for i in range(iterations):
        for p in range(partitions):
            app.bag(f"edges.{i}.{p}", codec=edge_codec)
            app.bag(f"degrees.{i}.{p}")  # {vertex: out_degree} dict records
            app.bag(f_msg(i, p), codec=message_codec)
        for p in range(partitions):
            app.bag(f"ranks.{i + 1}.{p}")
    for i in range(iterations):
        for p in range(partitions):
            app.task(
                f"scatter.{i}.{p}",
                inputs=[f"edges.{i}.{p}", f"ranks.{i}.{p}", f"degrees.{i}.{p}"],
                outputs=[f_msg(i, q) for q in range(partitions)],
                fn=_make_scatter(i, partitions, vertices),
                phase=f"iter{i}.scatter",
            )
        for p in range(partitions):
            lo, hi = int(p * span), int((p + 1) * span)
            app.task(
                f"gather.{i}.{p}",
                inputs=[f_msg(i, p)],
                outputs=[f"ranks.{i + 1}.{p}"],
                fn=_make_gather(vertices, lo, hi),
                merge="dict_sum",
                phase=f"iter{i}.gather",
            )
    return app


def pagerank_local_inputs(
    edges, vertices: int, partitions: int, iterations: int
) -> Dict[str, list]:
    """Build the input-bag dict for :func:`build_pagerank_local`.

    Partitions edges by source vertex range, replicates them (and the
    per-partition out-degree maps) for every iteration, and seeds uniform
    initial ranks.
    """
    span = vertices / partitions
    by_partition: Dict[int, list] = {p: [] for p in range(partitions)}
    degrees: Dict[int, Dict[int, int]] = {p: {} for p in range(partitions)}
    for src, dst in edges:
        p = min(partitions - 1, int(src / span))
        by_partition[p].append((src, dst))
        degrees[p][src] = degrees[p].get(src, 0) + 1
    inputs: Dict[str, list] = {}
    for i in range(iterations):
        for p in range(partitions):
            inputs[f"edges.{i}.{p}"] = by_partition[p]
            inputs[f"degrees.{i}.{p}"] = [degrees[p]]
    for p in range(partitions):
        lo, hi = int(p * span), int((p + 1) * span)
        # Rank bags carry raw sums s with rank = base + d*s; the uniform
        # initial rank 1/V corresponds to s0 = 1/V exactly.
        inputs[f"ranks.0.{p}"] = [{v: 1.0 / vertices for v in range(lo, hi)}]
    return inputs


def pagerank_final_ranks(result, vertices: int, partitions: int, iterations: int):
    """Extract final ranks from a LocalResult: rank = base + d * sum.

    Vertices that received no incoming rank mass hold exactly the base
    term, as in canonical PageRank.
    """
    base = (1.0 - _DAMPING) / vertices
    ranks: Dict[int, float] = {v: base for v in range(vertices)}
    for p in range(partitions):
        for record in result.records(f"ranks.{iterations}.{p}"):
            for vertex, total in record.items():
                ranks[vertex] = base + _DAMPING * total
    return ranks
