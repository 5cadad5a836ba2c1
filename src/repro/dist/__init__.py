"""``repro.dist`` — the multiprocess, GIL-free execution engine.

Three kinds of real OS processes cooperate over ``multiprocessing``
connections (Section 3's scheduling/data-plane split made concrete):

* ``m`` **storage shard** processes, each hosting the data bags a shared
  :class:`~repro.dist.sharding.ShardRouter` homes at its index and
  enforcing exactly-once chunk removal server-side
  (:mod:`repro.dist.server`, :mod:`repro.dist.sharding`);
* N **worker** processes running task functions against a batch-sampling
  chunk client that keeps ``b`` requests outstanding per streamed bag,
  spread across the shards its bags land on — Eq. 1's ``b`` *and* ``m``
  made real (:mod:`repro.dist.worker`, :mod:`repro.dist.client`);
* the **master** (the calling process) driving the shared
  :class:`~repro.model.execution_graph.ExecutionGraph`: it assigns nodes,
  monitors per-task progress, issues mid-task clone messages to idle
  workers, reconciles clone partials through merge nodes, and recovers
  from killed workers — and killed *storage shards* — by resetting the
  affected task families (:mod:`repro.dist.runtime`).

Everything the master must remember is one
:class:`~repro.dist.control.ControlState`, changed only by its
``apply(record)`` (:mod:`repro.dist.control` — no socket, thread or
clock). That makes the master recoverable: with ``journal_dir`` set it
write-ahead journals each record it applies (assignments, clone grants,
done transitions, family condemnations, demotion epochs) with periodic
compacted snapshots (:mod:`repro.dist.journal`). A master death surfaces
as :class:`MasterKilled` carrying the surviving :class:`MasterFleet`;
``DistRuntime.resume`` on a fresh runtime applies the journaled records
through the same function, re-adopts the worker and shard fleet, and
drives the run to the same sinks.

Because workers are processes, CPU-bound task functions scale across
cores — the thread-pool :class:`~repro.local.LocalRuntime` is capped at
one core by the GIL. Results are the same, byte for byte, on every
worker and shard count; ``python -m repro bench`` measures the difference.
"""

from repro.dist.runtime import DistResult, DistRuntime, MasterFleet, MasterKilled
from repro.dist.sharding import ShardRouter

__all__ = [
    "DistResult",
    "DistRuntime",
    "MasterFleet",
    "MasterKilled",
    "ShardRouter",
]
