"""Bag-to-shard placement for the sharded storage tier.

The paper's storage layer is *always-spread*: data is distributed
uniformly pseudorandomly over **all** ``m`` storage nodes, so cloning a
task never concentrates load on one node and batch sampling (Eq. 1,
``rho(b, m) = 1 - (1 - 1/m)^(b*m)``) has an ``m`` to sample over. The
sim models that policy through :class:`~repro.storage.replication.ReplicaMap`;
:class:`ShardRouter` is the same pseudorandom-spread placement for the
*real* dist engine, at bag granularity: every bag id is homed on one of
``m`` storage-server processes by a keyed stable hash
(:func:`~repro.storage.replication.stable_spread`), and with
``replication=r`` its copies live on the next ``r - 1`` shards in ring
order (:func:`~repro.storage.replication.ring_successors` — the same
ring rule :class:`~repro.storage.replication.ReplicaMap` encodes, so
sim and real replica sets agree for every ``(m, r)``).

Placement must be a pure function of ``(bag_id, m)``:

* **deterministic across processes** — the master and every worker
  compute placement independently (no placement RPCs, no shared state),
  so the hash cannot depend on per-process salt like Python's builtin
  ``hash`` under ``PYTHONHASHSEED``;
* **stable across shard respawns** — when the master respawns a dead
  shard, the replacement takes over the dead shard's index and socket
  address, so live bags are never re-homed; a respawn changes *which
  process* serves an index, never *which index* serves a bag;
* **uniform** — over many bag ids the shard loads stay balanced within
  binomial tolerance (pinned by ``tests/test_property_sharding.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.storage.replication import ring_successors, stable_spread


class ShardRouter:
    """Deterministic pseudorandom spread of bag ids over ``m`` shards."""

    def __init__(self, shards: int, replication: int = 1):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if not 1 <= replication <= shards:
            raise ValueError(
                f"replication must be in [1, {shards}], got {replication}"
            )
        self.shards = shards
        self.replication = replication
        #: Bumped on every respawn of each shard index; placement does not
        #: depend on it (respawn keeps the index), it only tracks history.
        self.generations: List[int] = [0] * shards
        #: Memo of :meth:`home`. Placement is pure in ``(bag_id, m)`` and
        #: every storage op asks for it at least once on each side of the
        #: wire, so the keyed hash is paid once per bag, not once per op.
        #: Bounded by the run's bag count (graph bags plus partials).
        self._homes: Dict[str, int] = {}

    def home(self, bag_id: str) -> int:
        """The primary shard index for ``bag_id`` (pure, process-independent)."""
        shard = self._homes.get(bag_id)
        if shard is None:
            shard = self._homes[bag_id] = stable_spread(bag_id, self.shards)
        return shard

    def replicas(self, bag_id: str) -> List[int]:
        """All shard indices holding a copy of ``bag_id``, primary first.

        The home shard plus its ``replication - 1`` ring successors —
        exactly :class:`~repro.storage.replication.ReplicaMap` ring
        semantics with ``node_indices=range(m)``.
        """
        return ring_successors(self.home(bag_id), self.shards, self.replication)

    def respawn(self, shard: int) -> int:
        """Record that ``shard`` was replaced; returns the new generation.

        Placement is intentionally unaffected: the replacement process
        inherits the shard index (and its socket address), so every bag
        homed there before the death is homed there after it.
        """
        self.generations[shard] += 1
        return self.generations[shard]

    def partition(self, bag_ids: Iterable[str]) -> Dict[int, List[str]]:
        """Group ``bag_ids`` by home shard (for fan-out RPCs)."""
        groups: Dict[int, List[str]] = {}
        for bag_id in bag_ids:
            groups.setdefault(self.home(bag_id), []).append(bag_id)
        return groups

    def assignments(self, bag_ids: Iterable[str]) -> Dict[str, int]:
        """Explicit ``bag_id -> shard`` map (debugging / tests)."""
        return {bag_id: self.home(bag_id) for bag_id in bag_ids}

    def load(self, bag_ids: Sequence[str]) -> Tuple[int, ...]:
        """Bag count per shard over ``bag_ids`` (uniformity checks)."""
        counts = [0] * self.shards
        for bag_id in bag_ids:
            counts[self.home(bag_id)] += 1
        return tuple(counts)

    def __repr__(self) -> str:
        if self.replication > 1:
            return (
                f"ShardRouter(shards={self.shards}, "
                f"replication={self.replication})"
            )
        return f"ShardRouter(shards={self.shards})"
