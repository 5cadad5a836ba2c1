"""Wire protocol shared by the dist master, workers, and storage server.

Two channels exist:

* **command channel** (master <-> worker, a duplex ``multiprocessing``
  pipe): the master sends ``{"type": "run" | "cancel" | "shutdown"}``
  dicts; workers answer with ``hello`` / ``progress`` / ``done`` /
  ``aborted`` / ``failed`` dicts. Messages are whole pickled objects, so
  framing is atomic.
* **storage channel** (any process -> a storage shard, a Unix-domain
  socket; with ``m`` shards there are ``m`` such sockets on stable
  master-chosen paths). A Unix socket (not localhost TCP) because
  ``multiprocessing`` sends large messages as separate header/body
  writes, which interacts with Nagle + delayed-ACK on TCP to add ~40ms
  per chunk RPC. Clients speak the **multiplexed** dialect: the first
  message after the auth handshake is ``("mux", client_id)``, and after
  the ``("ok", _)`` ack both sides switch from whole-pickled-message
  exchange to the raw frame stream below. One connection per
  (process, shard) pair then carries every caller's traffic
  concurrently. A connection whose first message is anything else
  stays on whole-pickled-message exchange — strictly alternating
  ``(op, *args)`` / ``("ok", payload)``-or-``("err", ...)`` — which
  serves shard-to-shard traffic only (``apply_removals`` shipping and
  ``gossip``).

**Mux frame format** — every frame, both directions, is::

    payload_len(4, big-endian) | call_id(8) | kind(1) | payload

where ``kind`` is :data:`KIND_REQUEST` (0), :data:`KIND_RESPONSE_OK`
(1), or :data:`KIND_RESPONSE_ERR` (2), and ``payload`` is the pickled
``(op, *args)`` tuple (requests), result object (ok responses), or
``(exc_type_name, message)`` pair (error responses), capped at
:data:`MAX_FRAME_PAYLOAD` bytes. :func:`encode_frame` builds frames and
:class:`FrameDecoder` incrementally parses a byte stream back into
``(call_id, kind, payload)`` triples, tolerating torn delivery (a
partial frame is buffered until the rest arrives) but refusing corrupt
headers with :class:`FrameError` — on a stream transport a bad header
means the connection itself is poisoned, so clients tear it down and
fail every in-flight call with ``StorageNodeDown``.

**Call-id lifecycle**: the client assigns each request a process-unique
monotonically increasing 64-bit ``call_id`` and parks a future under
it; the server dispatches frames as they arrive (each op runs inline on
the connection's demux loop, except ``fence``, which blocks on another
client's drain and is served from its own thread) and stamps the reply
with the same id. Replies may therefore arrive out of order; the id —
not arrival order — pairs them with their futures. A connection death
fails every parked future at once; ids are never reused within a
connection, and a reply for an id nobody waits on (the caller gave up)
is dropped.

The command channel additionally carries ``{"type": "rebind", "shard":
i, "epochs": {...}}`` master->worker messages after a shard respawn,
telling workers to drop their cached connection to shard ``i`` so the
next RPC reconnects to the replacement process on the same socket path;
with replication the piggybacked demotion-epoch vector refreshes the
workers' sweep-order hints (authoritative gating stays server-side).

Master recovery adds a **re-adoption handshake** on the same channel: a
master reconstructed from its journal sends ``{"type": "reattach",
"epochs": {...}}`` to every surviving worker, and the worker answers
with a fresh ``hello`` carrying a ``running`` key — the node id it is
mid-task on, or ``None`` if idle — handled both from the idle loop and
from the in-task cancellation poll, so a busy worker re-introduces
itself without abandoning its chunk stream. On the storage channel the
recovered master sends ``("probe",)``, answered with the shard's
demotion-epoch vector and bag inventory (the journal replay is checked
against what storage actually holds), and with ``replication > 1`` the
shards exchange ``("gossip", vector)`` peer-to-peer — a max-merge of
the same ``set_epochs`` payload — so primary failover keeps working
while the master is absent.

**Storage ops** — one family, at any replication level ``r >= 1`` and
over either backing of the shard's one bag store (memory, or segments
when ``DistSettings.resident_bytes`` is set). This list is the
contract; a test keeps it equal to what the server dispatches::

    insert          (bag, chunk_id, chunk)       id-stamped, idempotent; fanned out to all r replicas
    remove_batch    (bag, count, client, seq)    primary-gated, (client, seq)-deduplicated destructive read
    apply_removals  (bag, client, seq, pairs, sealed)   primary -> backup removal-log shipping
    read_page       (bag, cursor, max_bytes)     primary-gated bounded non-destructive read
    seal            (bag)
    rewind          (bag)
    discard         (bag)
    remaining       (bag)                        primary-gated
    remaining_many  (bags)                       primary-gated, one RPC per shard
    size            (bag)                        primary-gated
    pull            (bags)                       master-only: package bags for re-replication
    push            (packages)                   master-only: install packages on a respawned replica
    finalize        (bag)                        master-only: compact a finished bag's segments
    set_epochs      (vector)                     master-only: authoritative demotion-epoch push
    gossip          (vector)                     shard -> shard epoch max-merge
    probe           ()                           identity, epoch vector, bag inventory
    stats           ()                           op counters and gauges
    fence           (client, timeout)            block until ``client``'s connections drained

(``shutdown`` is handled by the connection loop, not dispatched.) The
id-stamped, seq-deduplicated ops are what let in-flight streams and
writes retry through a torn connection, a failover to a promoted
backup, or a shard respawn. ``pull`` returns and ``push`` accepts one
package shape per bag, ``{sealed, order, consumed, dedup, segments,
loose}`` (:meth:`repro.dist.bags.Bag.export`): the segment backing ships
whole sealed segment files in ``segments`` (raw bytes, never re-pickled
chunk-by-chunk) and only its open tail in ``loose``; the memory backing
ships every chunk loose. The master moves one bag per round trip, so
the frame cap bounds a bag, not a shard.

Bulk reads stream: ``("read_page", bag_id, cursor, max_bytes)`` returns
``(chunks, next_cursor)`` — one bounded page of the bag's stable chunk
order, primary-gated, with an empty page
signalling the end (a cursor past the end answers empty rather than
erroring). Refill/snapshot paths page with
:func:`repro.engine.common.iter_bag_chunks` so no whole-bag payload is
ever resident in one process or one reply frame. The master-only
``("finalize", bag_id)`` op triggers segment compaction of a finished
bag (:meth:`repro.dist.bags.Bag.finalize`) on the addressed replica,
returning ``(segments_compacted, bytes_reclaimed)`` — idempotent, and
``(0, 0)`` over the memory backing.

Connections are established with :func:`connect_with_retry`, which reuses
the :class:`~repro.storage.policy.StorageConfig` retry/timeout/backoff
schedule (Section 4.4) against *real* clock time — a worker that starts
before the server listens, or that reconnects after a restart, backs off
instead of failing.
"""

from __future__ import annotations

import multiprocessing
import pickle
import struct
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Client, Connection
from typing import Any, List, Optional, Tuple, Union

from repro.errors import FrameError  # also re-exported from here
from repro.storage.policy import StorageConfig
from repro.units import KB

#: A Unix-socket path (preferred) or a ``(host, port)`` TCP endpoint.
StorageAddress = Union[str, Tuple[str, int]]

#: Real-time flavor of the Section 4.4 policy: sub-second backoffs, a few
#: seconds of total patience — tuned for same-host RPCs, not simulation.
#: The naive 12-step * 1.6x sum would be ~23s, but ``rpc_timeout`` caps
#: cumulative backoff: :meth:`StorageConfig.backoffs` stops before any
#: delay that would push the total past 8s, so only 9 of the 12 retries
#: ever happen and total patience is ~5.6s (<= ``rpc_timeout``, asserted
#: by ``tests/test_dist_protocol.py`` so schedule and intent can't drift
#: apart again).
DIST_STORAGE_POLICY = StorageConfig(
    rpc_retries=12,
    retry_backoff=0.05,
    backoff_multiplier=1.6,
    rpc_timeout=8.0,
)

# -- multiplexed storage-channel framing --------------------------------------

#: ``payload_len(4) | call_id(8) | kind(1)``, big-endian.
MUX_HEADER = struct.Struct(">IQB")

KIND_REQUEST = 0
KIND_RESPONSE_OK = 1
KIND_RESPONSE_ERR = 2
_KINDS = frozenset((KIND_REQUEST, KIND_RESPONSE_OK, KIND_RESPONSE_ERR))

#: Ceiling on one frame's pickled payload. Chunks are tens of KB; the cap
#: only exists so a corrupt length field (or a absurd caller) is rejected
#: as a protocol error instead of attempting a multi-GB allocation.
MAX_FRAME_PAYLOAD = 64 * 1024 * KB


def encode_frame(call_id: int, kind: int, obj: Any) -> bytes:
    """One wire-ready mux frame carrying ``obj`` pickled."""
    if kind not in _KINDS:
        raise FrameError(f"unknown frame kind {kind!r}")
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_PAYLOAD}-byte cap (call {call_id})"
        )
    return MUX_HEADER.pack(len(payload), call_id, kind) + payload


class FrameDecoder:
    """Incremental parser for a mux byte stream.

    Feed it whatever the socket produced — any split, including
    mid-header — and it returns every *complete* frame as a
    ``(call_id, kind, payload_object)`` triple, buffering the torn tail
    for the next feed. Corrupt headers raise :class:`FrameError`.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes held back waiting for the rest of a torn frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Tuple[int, int, Any]]:
        self._buffer += data
        frames: List[Tuple[int, int, Any]] = []
        while len(self._buffer) >= MUX_HEADER.size:
            size, call_id, kind = MUX_HEADER.unpack_from(self._buffer)
            if kind not in _KINDS:
                raise FrameError(f"unknown frame kind {kind} on the wire")
            if size > MAX_FRAME_PAYLOAD:
                raise FrameError(
                    f"frame announces {size} payload bytes, past the "
                    f"{MAX_FRAME_PAYLOAD}-byte cap — stream out of sync"
                )
            end = MUX_HEADER.size + size
            if len(self._buffer) < end:
                break
            payload = bytes(self._buffer[MUX_HEADER.size:end])
            del self._buffer[:end]
            try:
                obj = pickle.loads(payload)
            except Exception as exc:
                raise FrameError(f"frame payload would not unpickle: {exc}")
            frames.append((call_id, kind, obj))
        return frames


@dataclass(frozen=True)
class NodeDescriptor:
    """Everything a worker needs to execute one schedulable node.

    Workers hold a forked copy of the static :class:`AppGraph` (task specs
    and code), but clone/merge nodes are created by the master at run time
    — so the dynamic wiring (stream input, per-member partial output bags,
    merge inputs) travels in the descriptor.
    """

    node_id: str
    task_id: str
    kind: str  # "task" | "clone" | "merge"
    stream_input: Optional[str]  # None for an input task
    side_inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    merge_inputs: Tuple[str, ...] = ()
    #: Index of this worker within the task family (0 = original): an
    #: aggregation's clone ``k`` writes partial bag ``k``, member 0 the output.
    member: int = 0
    #: Fault injection: the worker hard-exits (``os._exit``) after fetching
    #: this many stream chunks. Used by tests and the chaos-style smoke.
    kill_after_chunks: Optional[int] = None


@dataclass(frozen=True)
class DistSettings:
    """Knobs forked into every worker process."""

    chunk_size: int = 64 * KB
    #: ``b`` of Eq. 1: chunk requests kept outstanding by the batch-sampling
    #: client (one in-flight batch of ``b`` while up to ``b`` are buffered).
    batch_requests: int = 4
    #: ``r`` of Section 4.4: copies kept of every bag. 1 = no replication
    #: (shard death recovers by replay); ``r > 1`` = primary-backup with
    #: client-side failover (shard death recovers by promotion).
    replication: int = 1
    #: Per-shard hot-memory budget in bytes; ``None`` (the default)
    #: keeps every chunk resident (the memory backing of
    #: :mod:`repro.dist.bags`). Set, it switches the shards' bag store
    #: to its disk backing (:mod:`repro.dist.segments`): every chunk is
    #: written through to append-only segment files and the in-memory
    #: hot tail is evicted down to the budget, so a shard's dataset
    #: ceiling becomes disk, not RAM.
    resident_bytes: Optional[int] = None
    policy: StorageConfig = field(default_factory=lambda: DIST_STORAGE_POLICY)


def connect_with_retry(
    address: StorageAddress,
    authkey: bytes,
    policy: StorageConfig = DIST_STORAGE_POLICY,
) -> Connection:
    """Open a storage connection, backing off per ``policy`` on refusal."""
    backoffs = policy.backoffs()
    while True:
        try:
            return Client(address, authkey=authkey)
        except (EOFError, OSError, multiprocessing.AuthenticationError):
            # EOFError: the server died mid-auth-handshake (it is raised by
            # the challenge exchange, and is *not* an OSError). Retryable
            # exactly like a refused connection — the replacement process
            # binds the same socket path.
            # AuthenticationError: the same torn handshake one read later —
            # the dying server's half-written challenge digests as garbage.
            # It subclasses ProcessError, not OSError, so without this
            # clause it escaped the backoff loop entirely and a kill
            # landing mid-handshake was fatal instead of retried.
            delay = next(backoffs, None)
            if delay is None:
                raise
            time.sleep(delay)
