"""Server-side bag state for the dist storage shards, in memory.

Every shard process stores its bag copies as **id-keyed chunk sets**, at
any replication level — ``r = 1`` is simply "replicated with an empty
backup set". (:mod:`repro.dist.segments` is the same interface over
disk.) The representation is what makes replication, and retry through a
shard respawn, tractable:

* **inserts are idempotent and commutative** — clients stamp every chunk
  with a unique id (``client#n``) and fan the write out to all ``r``
  replicas; a retried or doubly-delivered insert is a set no-op, and two
  replicas receiving writes in different orders still converge to the
  same chunk *set*;
* **removals are a log, not a pointer** — the primary pops chunks from
  its pending set and ships ``(client, seq, [(chunk_id, payload)...])``
  removal records to its backups *before replying*, so any chunk a
  client has ever been handed is marked consumed on every live replica
  first. Applying a removal record is idempotent (move by id), so
  re-shipping on client retries is safe;
* **promotion needs no state transfer** — a backup already holds the
  chunk set and the removal log (the per-client dedup entries below);
  when the master's epoch push makes it primary, a client retrying an
  unanswered ``remove_batch`` with the same ``seq`` gets the *recorded*
  reply instead of fresh chunks, so a request the dead primary served
  but never acknowledged is never served twice.

Consumed chunks are retained (exactly like ``LocalBag``'s read pointer
never erasing the log), which keeps ``rewind``/``read_page`` trivially
correct and lets :meth:`RepBagStore.pull` / :meth:`RepBagStore.push`
re-replicate a respawned shard while live traffic mutates the source:
the merge is monotone (consumed wins over pending, later removal seqs
win over earlier), so a snapshot racing concurrent inserts, removals, or
shipped removal records lands in a consistent state.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Tuple

from repro.errors import BagSealedError

#: A removal-log entry: (chunk ids + payloads popped, bag sealed at serve).
RemovalRecord = Tuple[List[Tuple[str, Any]], bool]


class RepBag:
    """One replica's copy of a bag: id-keyed pending/consumed chunk sets."""

    def __init__(self, bag_id: str):
        self.bag_id = bag_id
        #: Ordered, because removal pops from the *front*: a plain dict
        #: re-scans the tombstones of every earlier pop on each
        #: ``next(iter(...))``, which makes draining a bag quadratic.
        self._pending: "OrderedDict[str, Any]" = OrderedDict()
        self._consumed: Dict[str, Any] = {}
        self._sealed = False
        #: Per-client removal log tail: client -> (seq, pairs, sealed).
        #: One entry per client suffices because each client serializes
        #: its removals per bag and only ever retries its *latest* seq.
        self._dedup: Dict[str, Tuple[int, List[Tuple[str, Any]], bool]] = {}
        self._lock = threading.Lock()

    # -- write side ----------------------------------------------------------

    def insert_id(self, chunk_id: str, chunk: Any) -> None:
        with self._lock:
            if self._sealed:
                raise BagSealedError(f"insert into sealed bag {self.bag_id!r}")
            if chunk_id in self._pending or chunk_id in self._consumed:
                return  # duplicate delivery (client retry / replayed fan-out)
            self._pending[chunk_id] = chunk

    def seal(self) -> None:
        with self._lock:
            self._sealed = True

    @property
    def sealed(self) -> bool:
        with self._lock:
            return self._sealed

    # -- read side -------------------------------------------------------------

    def remove_batch(
        self, count: int, client_id: str, seq: int
    ) -> RemovalRecord:
        """Pop up to ``count`` chunks for ``client_id``'s request ``seq``.

        Idempotent per (client, seq): a retry of the latest request —
        the only retry a serialized client can issue — returns the
        recorded removal instead of popping again, whether the record
        was made here (primary serving) or shipped here (backup that
        was since promoted).
        """
        with self._lock:
            recorded = self._dedup.get(client_id)
            if recorded is not None and recorded[0] == seq:
                return recorded[1], recorded[2]
            pairs: List[Tuple[str, Any]] = []
            while self._pending and len(pairs) < count:
                pairs.append(self._pending.popitem(last=False))
            self._consumed.update(pairs)
            # An empty serve is deliberately NOT recorded: serving []
            # mutated nothing, so a retry of the same seq popping chunks
            # that arrived in between is indistinguishable from the
            # first attempt having been served late — exactly-once is
            # about the *pops*, and zero pops need no dedup. Recording
            # it would instead pin [] against the seq and starve a
            # retrying client of chunks that landed after the first try.
            # (Regression-tested in test_dist_bag_contract.py.)
            if pairs:
                self._dedup[client_id] = (seq, pairs, self._sealed)
            return pairs, self._sealed

    def apply_removals(
        self,
        client_id: str,
        seq: int,
        pairs: List[Tuple[str, Any]],
        sealed: bool,
    ) -> None:
        """Apply a removal record shipped by the serving replica.

        Payloads travel with the ids so a removal racing this replica's
        re-sync (or arriving before the insert fan-out) still lands: the
        chunk goes straight to consumed, and the late copy dedups against
        it. Later seqs overwrite the dedup tail; earlier ones only apply
        their chunk moves.
        """
        with self._lock:
            for chunk_id, chunk in pairs:
                self._pending.pop(chunk_id, None)
                self._consumed[chunk_id] = chunk
            recorded = self._dedup.get(client_id)
            if recorded is None or recorded[0] <= seq:
                self._dedup[client_id] = (seq, list(pairs), sealed)

    # -- bag API extras --------------------------------------------------------

    def read_page(self, cursor: int, max_bytes: int) -> Tuple[List[Any], int]:
        """One bounded page of the bag, non-destructively.

        Pages index the consumed-then-pending order; pagination is only
        stable while nothing moves between the sets, which holds on
        every caller (refill/snapshot paths read bags whose consumers
        are quiesced). Byte-sized chunks bound the page; object chunks
        count a nominal size.
        """
        with self._lock:
            ordered = list(self._consumed.values()) + list(self._pending.values())
            cursor = max(0, int(cursor))
            chunks: List[Any] = []
            used = 0
            while cursor < len(ordered):
                chunk = ordered[cursor]
                size = len(chunk) if isinstance(chunk, (bytes, bytearray)) else 1
                if chunks and used + size > max_bytes:
                    break
                chunks.append(chunk)
                used += size
                cursor += 1
            return chunks, cursor

    def remaining(self) -> int:
        with self._lock:
            return len(self._pending)

    def size(self) -> int:
        with self._lock:
            return len(self._pending) + len(self._consumed)

    def rewind(self) -> None:
        """Every chunk becomes deliverable again (family replay)."""
        with self._lock:
            rewound = OrderedDict(self._consumed)
            rewound.update(self._pending)
            self._pending = rewound
            self._consumed = {}
            self._dedup = {}

    def discard(self) -> None:
        with self._lock:
            self._pending = OrderedDict()
            self._consumed = {}
            self._dedup = {}
            self._sealed = False

    def __len__(self) -> int:
        return self.remaining()

    # -- re-replication --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Serializable full state, for re-replicating a respawned shard."""
        with self._lock:
            return {
                "pending": list(self._pending.items()),
                "consumed": list(self._consumed.items()),
                "sealed": self._sealed,
                "dedup": {
                    client: (seq, list(pairs), sealed)
                    for client, (seq, pairs, sealed) in self._dedup.items()
                },
            }

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold a snapshot into this copy; monotone under concurrent traffic.

        Consumed wins over pending (a chunk the source has handed out must
        never become deliverable here), presence wins over absence, sealed
        wins over open, and the removal-log tail with the higher seq wins
        — so it does not matter whether a concurrent insert / removal /
        shipped record arrives before or after the snapshot lands.
        """
        with self._lock:
            for chunk_id, chunk in snap["consumed"]:
                self._pending.pop(chunk_id, None)
                self._consumed[chunk_id] = chunk
            for chunk_id, chunk in snap["pending"]:
                if chunk_id not in self._consumed and chunk_id not in self._pending:
                    self._pending[chunk_id] = chunk
            self._sealed = self._sealed or snap["sealed"]
            for client, (seq, pairs, sealed) in snap["dedup"].items():
                recorded = self._dedup.get(client)
                if recorded is None or recorded[0] < seq:
                    self._dedup[client] = (seq, list(pairs), sealed)


class RepBagStore:
    """Catalog of in-memory bag copies for one shard process.

    The shard server's store interface — ``ensure``/``get``, ``pull``/
    ``push``, ``bag_ids``, ``finalize_bag``, ``spill_stats``, ``close`` —
    is shared with :class:`repro.dist.segments.SegmentBagStore`; the
    last three have nothing to do for a store with no disk behind it.
    """

    def __init__(self):
        self._bags: Dict[str, RepBag] = {}
        self._lock = threading.Lock()

    def ensure(self, bag_id: str) -> RepBag:
        with self._lock:
            if bag_id not in self._bags:
                self._bags[bag_id] = RepBag(bag_id)
            return self._bags[bag_id]

    def get(self, bag_id: str) -> RepBag:
        return self.ensure(bag_id)

    def pull(self, bag_ids: List[str]) -> Dict[str, Dict[str, Any]]:
        """Package ``bag_ids`` for re-replication: one snapshot per bag."""
        return {bag_id: self.ensure(bag_id).snapshot() for bag_id in bag_ids}

    def push(self, packages: Dict[str, Dict[str, Any]]) -> None:
        """Install pulled packages; monotone, so safe under live traffic."""
        for bag_id, snap in packages.items():
            self.ensure(bag_id).merge_snapshot(snap)

    def finalize_bag(self, bag_id: str) -> Tuple[int, int]:
        return (0, 0)  # no segments to compact

    def spill_stats(self) -> Dict[str, int]:
        return {}

    def close(self) -> None:
        pass

    def bag_ids(self) -> List[str]:
        """Sorted inventory of every bag this replica holds a copy of."""
        with self._lock:
            return sorted(self._bags)

    def __contains__(self, bag_id: str) -> bool:
        with self._lock:
            return bag_id in self._bags
