"""Client side of the storage protocol: bag proxies and batch sampling.

:class:`ShardedBagStore` presents the local engine's bag-store surface
(``ensure``/``get`` returning bags) over ``m`` storage shards behind a
:class:`~repro.dist.sharding.ShardRouter`, so the
engine-agnostic helpers in :mod:`repro.engine.common` (and the shared
:class:`~repro.local.context.TaskContext`) work unchanged in worker and
master processes whether the storage tier is one process or ``m``.

It hands out one proxy class, :class:`ReplicatedRemoteBag`, at any
replication level ``r`` (``r = 1`` is a replica set of one): writes fan
out to all ``r`` replicas (chunks stamped with client-unique ids so
duplicate delivery is a no-op), and reads **sweep** the replica set in
serving order — primary first — handling two refusals distinctly:

* :class:`~repro.errors.StorageNodeDown` — the replica's process is gone;
  demote it locally and try the next copy (client-side failover, no
  master round trip);
* :class:`~repro.errors.NotPrimary` — the replica is alive but not the
  bag's primary under *its* (master-pushed, authoritative) epoch vector;
  adopt the vector the refusal carries and re-route.

A sweep that fails on every replica backs off under the storage policy
and re-sweeps — riding out the window where the primary is dead but the
master has not yet pushed the promotion epochs, or respawned the only
copy — and only then raises :class:`~repro.errors.StorageNodeDown` for
the master's coarse recovery.

All data-plane traffic is multiplexed: each shard gets one
:class:`MuxShardClient` carrying every caller's frames over a single
socket (call-id-tagged, futures resolved by the process's one
:class:`MuxPump` selector thread). :class:`MuxBatchFetcher` is the
paper's batch-sampling access path (Section 4.2, Eq. 1) over that link:
instead of one round trip per chunk, a completion callback keeps a
``remove_batch`` of ``b`` chunks in flight while up to ``b`` are
buffered ahead of the consuming task, hiding the chunk-service latency
Eq. 1 charges per request — with O(shards) threads, not O(streams).
With ``m`` shards, each fetcher's RPCs land on the shard serving its bag
(sweeping the replica set on failure), so a worker running a task plus
prefetch keeps its outstanding requests spread over the shards its bags
land on — Eq. 1's ``m`` made real.

:class:`ChunkWriter` (``ShardedBagStore.writer(depth)``) is the same
equation for producers: the master's source fill and every task's
``emit`` keep ``b`` insert fan-outs in flight over those links — no
thread, no new op — settled by the rule the synchronous
:meth:`ShardedBagStore.fanout` uses, and drained (or, on a failure
path, abandoned) before anything is acknowledged upward.

Bulk reads page through ``read_page`` (see :mod:`repro.dist.protocol`)
so a bulk read of a disk-backed bag never materializes the whole bag in
any process; ``finalize_bag`` triggers server-side segment compaction
of a finished bag, one replica at a time.
"""

from __future__ import annotations

import ast
import functools
import itertools
import os
import selectors
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import repro.errors as errors_mod
from repro.dist.protocol import (
    DIST_STORAGE_POLICY,
    KIND_REQUEST,
    KIND_RESPONSE_ERR,
    KIND_RESPONSE_OK,
    FrameDecoder,
    FrameError,
    StorageAddress,
    connect_with_retry,
    encode_frame,
)
from repro.dist.sharding import ShardRouter
from repro.errors import FetchTimeout, NotPrimary, ReproError, StorageNodeDown
from repro.storage.policy import StorageConfig

#: Poll interval while a streamed bag is empty but not yet sealed (only
#: possible for bags filled concurrently; scheduled tasks stream sealed
#: bags, so this path is a safety net, not a hot loop).
_UNSEALED_POLL_SECONDS = 0.005

#: Connection policy for every per-shard link. A connect that cannot land
#: fails fast and the *caller* carries the patience: every bag access
#: re-tries under the full storage policy (read sweeps, the write
#: fan-out at ``r = 1``, the fetcher's failover sweep, ``fence``), and the
#: master-only ops run under ``DistRuntime._retrying`` — where waiting is
#: worse than useless, because the master is the one process that can
#: respawn the shard it would be waiting for. A couple of quick probes
#: still absorb the bind-to-accept startup race of a freshly spawned
#: shard.
SHARD_PROBE_POLICY = StorageConfig(
    rpc_retries=3,
    retry_backoff=0.02,
    backoff_multiplier=1.8,
    rpc_timeout=1.0,
)

#: Bounded in-fence retry budget: the first few policy backoffs only.
#: ``fence`` is called by the master's recovery path, and the master is
#: the only agent that can respawn a dead shard — blocking inside fence
#: for the full policy window would deadlock recovery against itself, so
#: after a short grace the failure is surfaced for the caller's own
#: retry loop (which runs shard reaping between attempts).
_FENCE_RETRY_STEPS = 3


def _parse_epoch_vector(message: str) -> Dict[int, int]:
    """Recover the ``{shard: epoch}`` dict a NotPrimary refusal carries.

    Defensive on every axis, because the message crossed a process
    boundary as text: non-literal strings, non-dict literals, and
    entries whose key or value is not an int are all dropped rather
    than raised on. The type check is ``type(...) is int``, not
    ``isinstance``, because ``isinstance(True, int)`` holds — a bool
    smuggled into the vector would otherwise become shard 0/1 with a
    nonsense epoch and silently skew the sweep order.
    """
    try:
        vector = ast.literal_eval(message)
    except (ValueError, SyntaxError):
        return {}
    if not isinstance(vector, dict):
        return {}
    return {
        shard: epoch
        for shard, epoch in vector.items()
        if type(shard) is int and type(epoch) is int
    }


class MuxPump:
    """The per-process selector thread behind every mux connection.

    One thread owns readability for all registered mux sockets of a
    :class:`ShardedBagStore`: it reads, frame-decodes, and resolves
    response futures for every shard link — which is what keeps a
    worker's thread count O(shards) instead of O(streams). Registration
    and teardown are funneled through an op queue drained on the pump
    thread (a self-pipe wakes the selector), so a socket is always
    removed from the selector *before* it is closed — a reused fd
    number can never land in a stale registration.
    """

    def __init__(self) -> None:
        self._selector = selectors.DefaultSelector()
        self._waker_read, self._waker_write = os.pipe()
        os.set_blocking(self._waker_read, False)
        self._selector.register(self._waker_read, selectors.EVENT_READ, None)
        self._ops: "deque[Tuple[str, Any, Any]]" = deque()
        self._lock = threading.Lock()
        self._stopping = False
        self._thread: Optional[threading.Thread] = None

    def _wake(self) -> None:
        try:
            os.write(self._waker_write, b"x")
        except OSError:
            pass

    def register(self, fd: int, on_readable: Callable[[], None]) -> None:
        """Watch ``fd`` and call ``on_readable`` whenever it has bytes."""
        with self._lock:
            self._ops.append(("register", fd, on_readable))
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, daemon=True, name="mux-pump"
                )
                self._thread.start()
        self._wake()

    def discard(self, conn: Any) -> None:
        """Unregister ``conn``'s socket and close it, from any thread."""
        if threading.current_thread() is self._thread:
            self._discard_now(conn)
            return
        with self._lock:
            deliverable = (
                self._thread is not None
                and self._thread.is_alive()
                and not self._stopping
            )
            if deliverable:
                self._ops.append(("discard", conn, None))
        if deliverable:
            self._wake()
        else:
            self._discard_now(conn)

    def _discard_now(self, conn: Any) -> None:
        try:
            self._selector.unregister(conn.fileno())
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.close()
        except OSError:
            pass

    def _apply_ops(self) -> None:
        while True:
            with self._lock:
                if not self._ops:
                    return
                op, first, second = self._ops.popleft()
            if op == "register":
                try:
                    self._selector.register(first, selectors.EVENT_READ, second)
                except (KeyError, ValueError, OSError):
                    pass
            else:
                self._discard_now(first)

    def _run(self) -> None:
        while True:
            self._apply_ops()
            if self._stopping:
                break
            try:
                events = self._selector.select()
            except OSError:
                continue
            for key, _mask in events:
                if key.fd == self._waker_read:
                    try:
                        os.read(self._waker_read, 4096)
                    except OSError:
                        pass
                    continue
                if key.data is not None:
                    key.data()
        self._close_resources()

    def _close_resources(self) -> None:
        try:
            self._selector.close()
        except OSError:
            pass
        for fd in (self._waker_read, self._waker_write):
            try:
                os.close(fd)
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            self._stopping = True
            thread = self._thread
        if thread is None:
            self._close_resources()
            return
        self._wake()
        if thread is not threading.current_thread():
            thread.join(timeout=2.0)


class MuxShardClient:
    """One shard's link: every caller's calls multiplexed on one socket.

    Every caller in the process shares this one connection per shard:
    :meth:`submit` stamps the request with a client-unique 64-bit call
    id, parks a future under it, and writes one frame; the store's
    :class:`MuxPump` resolves the future when the matching response
    frame arrives — so a slow ``remove_batch`` never head-of-line
    blocks a concurrent ``insert`` ack, and callers that want
    pipelining hold several futures at once. :meth:`call` is the
    blocking convenience wrapper.

    A connection death fails every in-flight future with
    :class:`~repro.errors.StorageNodeDown` — retrying is the caller's
    decision (the store's sweeps re-send the same id-keyed or
    seq-stamped request) — and the *next* submit reconnects under the
    storage policy's backoff.
    """

    def __init__(
        self,
        address: StorageAddress,
        authkey: bytes,
        client_id: str,
        policy: StorageConfig,
        pump: MuxPump,
    ):
        self.address = address
        self.authkey = authkey
        self.client_id = client_id
        self.policy = policy
        self._pump = pump
        #: Held across connect and the blocking frame write — so never
        #: taken on the pump's read path, which owns ``_pending_lock``.
        self._lock = threading.Lock()
        self._conn = None
        #: Never reset across reconnects: a late reply from a torn
        #: connection can then never collide with a new call's future.
        self._call_ids = itertools.count(1)
        self._pending: Dict[int, Future] = {}
        self._pending_lock = threading.Lock()

    # -- connection lifecycle ---------------------------------------------------

    def _ensure_conn_locked(self) -> None:
        if self._conn is not None:
            return
        try:
            conn = connect_with_retry(self.address, self.authkey, self.policy)
            conn.send(("mux", self.client_id))
            status, payload = conn.recv()
        except (EOFError, OSError) as exc:
            raise StorageNodeDown(
                f"storage shard unreachable during mux handshake "
                f"(address {self.address!r}): {exc}"
            ) from exc
        if status != "ok":
            conn.close()
            raise StorageNodeDown(f"storage mux handshake failed: {payload}")
        self._conn = conn
        self._pump.register(
            conn.fileno(),
            functools.partial(self._on_readable, conn, FrameDecoder()),
        )

    @property
    def connected(self) -> bool:
        return self._conn is not None

    def _teardown_locked(self) -> List[Future]:
        """Drop the connection; the caller fails the returned futures
        *outside* the lock (their callbacks may re-enter this client)."""
        conn, self._conn = self._conn, None
        with self._pending_lock:
            doomed = list(self._pending.values())
            self._pending.clear()
        if conn is not None:
            self._pump.discard(conn)
        return doomed

    def _fail(self, exc: BaseException, conn: Any = None) -> None:
        """Tear the link down and fail its calls; with ``conn``, only if
        that is still the live link (its calls were failed otherwise)."""
        with self._lock:
            if conn is not None and conn is not self._conn:
                return
            doomed = self._teardown_locked()
        for future in doomed:
            if not future.done():
                future.set_exception(exc)

    # -- call paths -------------------------------------------------------------

    def _send_locked(self, data: bytes) -> None:
        fd = self._conn.fileno()
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]

    def submit(self, op: str, *args: Any) -> "Future[Any]":
        """Write one request frame; the returned future resolves on reply.

        Raises :class:`~repro.errors.StorageNodeDown` if no connection
        could be established; a send failure instead lands on the future
        (and every other in-flight future, since the link is dead).
        """
        future: "Future[Any]" = Future()
        with self._lock:
            self._ensure_conn_locked()
            call_id = next(self._call_ids)
            data = encode_frame(call_id, KIND_REQUEST, (op,) + args)
            with self._pending_lock:
                self._pending[call_id] = future
            try:
                self._send_locked(data)
            except OSError as exc:
                down = StorageNodeDown(
                    f"storage shard unreachable during {op!r} "
                    f"(address {self.address!r}): {exc}"
                )
                doomed = self._teardown_locked()
            else:
                return future
        for pending in doomed:
            if not pending.done():
                pending.set_exception(down)
        return future

    def call(self, op: str, *args: Any) -> Any:
        return self.submit(op, *args).result()

    # -- pump side --------------------------------------------------------------

    def _on_readable(self, conn: Any, decoder: FrameDecoder) -> None:
        # Takes no lock a sender holds: a caller blocked in ``os.write``
        # (or mid-reconnect, for the whole backoff schedule) owns
        # ``_lock``, and the shard it is writing to may itself be blocked
        # writing the very reply this read drains — with b writes in
        # flight per lane that is a cycle, not a delay. The link's conn
        # and decoder come with the registration instead.
        if conn is not self._conn:
            return  # torn down; its unregistration is queued behind us
        try:
            data = os.read(conn.fileno(), 1 << 16)
        except OSError:
            data = b""
        if not data:
            self._fail(
                StorageNodeDown(
                    f"storage shard at {self.address!r} closed the mux link"
                ),
                conn,
            )
            return
        try:
            frames = decoder.feed(data)
        except FrameError as exc:
            self._fail(
                StorageNodeDown(
                    f"mux stream from {self.address!r} corrupt: {exc}"
                ),
                conn,
            )
            return
        for call_id, kind, payload in frames:
            with self._pending_lock:
                future = self._pending.pop(call_id, None)
            if future is None or future.done():
                continue  # caller gave up on this id; drop the reply
            if kind == KIND_RESPONSE_OK:
                future.set_result(payload)
            elif kind == KIND_RESPONSE_ERR:
                exc_name, message = payload
                exc_type = getattr(errors_mod, exc_name, None)
                if exc_type is None or not isinstance(exc_type, type):
                    exc_type = errors_mod.ReproError
                future.set_exception(exc_type(message))
            else:
                self._fail(
                    StorageNodeDown(
                        f"storage shard at {self.address!r} sent a "
                        f"request frame to a client"
                    ),
                    conn,
                )
                return

    # -- teardown ---------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop the link (the shard was replaced); fails in-flight calls."""
        self._fail(
            StorageNodeDown(
                f"mux connection to {self.address!r} invalidated"
            )
        )

    def close(self) -> None:
        self._fail(
            StorageNodeDown(f"mux client for {self.address!r} closed")
        )


class ReplicatedRemoteBag:
    """Proxy for one bag held on ``r >= 1`` storage shards.

    Writes fan out to every replica; destructive and snapshot reads go
    through the owning store's serving-order sweep, which fails over to a
    backup when the primary dies and re-routes when a replica refuses
    with :class:`~repro.errors.NotPrimary`. ``remove_batch`` carries a
    ``(client_id, seq)`` pair that stays **stable across the sweep's
    retries**, so a request the dead primary served-but-never-answered is
    answered from the promoted backup's shipped removal log instead of
    being served twice.
    """

    def __init__(self, store: "ShardedBagStore", bag_id: str):
        self.bag_id = bag_id
        self._store = store

    def insert(self, chunk: Any) -> None:
        self._store.fanout(
            self.bag_id, "insert", self.bag_id, self._store.next_chunk_id(), chunk
        )

    def remove(self) -> Optional[Any]:
        chunks, _sealed = self.remove_batch(1)
        return chunks[0] if chunks else None

    def remove_batch(self, count: int) -> Tuple[List[Any], bool]:
        store = self._store
        # The seq is drawn once, outside the sweep: every retry re-sends
        # the same (client, seq) and is answered from the removal log.
        return store.sweep_call(
            self.bag_id,
            "remove_batch",
            self.bag_id,
            count,
            store.client_id,
            store.next_seq(self.bag_id),
        )

    def read_page(self, cursor: int, max_bytes: int) -> Tuple[List[Any], int]:
        return self._store.sweep_call(
            self.bag_id, "read_page", self.bag_id, cursor, max_bytes
        )

    def seal(self) -> None:
        self._store.fanout(self.bag_id, "seal", self.bag_id)

    def remaining(self) -> int:
        return self._store.sweep_call(self.bag_id, "remaining", self.bag_id)

    def rewind(self) -> None:
        self._store.fanout(self.bag_id, "rewind", self.bag_id)

    def discard(self) -> None:
        self._store.fanout(self.bag_id, "discard", self.bag_id)

    def size(self) -> int:
        return self._store.sweep_call(self.bag_id, "size", self.bag_id)


class ShardedBagStore:
    """The local engine's bag-store surface over ``m`` storage shards.

    Holds one lazily-connected :class:`MuxShardClient` per shard and
    routes every bag operation through a :class:`ShardRouter`, so callers
    (the engine-agnostic helpers, ``TaskContext``, the master) never see
    the sharding. Fan-out operations — ``stats``, ``fence``, ``shutdown``,
    ``remaining_many`` — address all shards explicitly.

    The store also owns the client-side retry and failover state: a
    demotion-epoch *hint* vector that orders each bag's replica sweep
    (the servers gate authoritatively, so a stale hint costs an extra
    hop, never correctness), the
    client-unique chunk-id counter behind idempotent insert fan-out, and
    the per-bag removal sequence counters behind exactly-once
    ``remove_batch`` retries.
    """

    def __init__(
        self,
        addresses: Sequence[StorageAddress],
        authkey: bytes,
        client_id: str,
        policy: StorageConfig = DIST_STORAGE_POLICY,
        router: Optional[ShardRouter] = None,
        replica_ops: bool = False,  # remove with the next benchmark PR
    ):
        """``replica_ops`` is accepted and ignored: there is one op
        family. The frozen ``perf/probes.py`` still passes it by keyword."""
        if not addresses:
            raise ValueError("ShardedBagStore needs at least one shard address")
        self.addresses = list(addresses)
        self.router = router if router is not None else ShardRouter(len(addresses))
        if self.router.shards != len(self.addresses):
            raise ValueError(
                f"router covers {self.router.shards} shards but "
                f"{len(self.addresses)} addresses were given"
            )
        self.client_id = client_id
        self.authkey = authkey
        self.policy = policy
        self._pump = MuxPump()
        self.stores: List[MuxShardClient] = [
            MuxShardClient(
                address, authkey, client_id, SHARD_PROBE_POLICY, self._pump
            )
            for address in self.addresses
        ]
        self._epochs: Dict[int, int] = {}
        self._epoch_lock = threading.Lock()
        self._chunk_counter = itertools.count()
        self._seqs: Dict[str, int] = {}
        self._seq_lock = threading.Lock()

    @property
    def shards(self) -> int:
        return len(self.stores)

    @property
    def replication(self) -> int:
        return self.router.replication

    def shard_of(self, bag_id: str) -> int:
        return self.router.home(bag_id)

    def address_of(self, bag_id: str) -> StorageAddress:
        return self.addresses[self.shard_of(bag_id)]

    # -- replication state ------------------------------------------------------

    def epoch_snapshot(self) -> Dict[int, int]:
        with self._epoch_lock:
            return dict(self._epochs)

    def mark_demoted(self, shard: int) -> None:
        """Locally demote ``shard`` in sweep order (its process looked dead)."""
        with self._epoch_lock:
            self._epochs[shard] = self._epochs.get(shard, 0) + 1

    def adopt_epochs(self, epochs: Dict[int, int]) -> None:
        """Max-merge an epoch vector learned from a server or rebind."""
        with self._epoch_lock:
            for shard, epoch in epochs.items():
                if epoch > self._epochs.get(shard, 0):
                    self._epochs[shard] = epoch

    def serving_order(self, bag_id: str) -> List[int]:
        """``bag_id``'s replicas, believed-primary first.

        Sorted by (demotion epoch, ring position) — the same rule each
        shard applies to its authoritative vector, so with fresh hints
        the first entry is the real primary and the sweep is one hop.
        """
        replicas = self.router.replicas(bag_id)
        with self._epoch_lock:
            return sorted(
                replicas,
                key=lambda s: (self._epochs.get(s, 0), replicas.index(s)),
            )

    def next_chunk_id(self) -> str:
        return f"{self.client_id}#{next(self._chunk_counter)}"

    def next_seq(self, bag_id: str) -> int:
        with self._seq_lock:
            seq = self._seqs.get(bag_id, 0) + 1
            self._seqs[bag_id] = seq
            return seq

    # -- replicated access paths ------------------------------------------------

    def sweep(self, bag_id: str, attempt) -> Any:
        """Run ``attempt(shard)`` against ``bag_id``'s replicas until one serves.

        One pass over the serving order per round: a replica whose process
        is unreachable is demoted locally and skipped; a replica refusing
        as non-primary donates its (authoritative) epoch vector. Rounds
        are separated by the storage policy's backoff — covering the gap
        between a primary's death and the master's promotion push — and
        exhaustion raises :class:`~repro.errors.StorageNodeDown` so the
        master's coarse-grained recovery takes over.
        """
        backoffs = self.policy.backoffs()
        while True:
            last_down: Optional[StorageNodeDown] = None
            for shard in self.serving_order(bag_id):
                try:
                    return attempt(shard)
                except StorageNodeDown as exc:
                    self.mark_demoted(shard)
                    last_down = exc
                except NotPrimary as exc:
                    self.adopt_epochs(_parse_epoch_vector(str(exc)))
            delay = next(backoffs, None)
            if delay is None:
                raise StorageNodeDown(
                    f"no replica of bag {bag_id!r} would serve "
                    f"(replicas {self.router.replicas(bag_id)})"
                ) from last_down
            time.sleep(delay)

    def sweep_call(self, bag_id: str, op: str, *args: Any) -> Any:
        return self.sweep(
            bag_id, lambda shard: self.stores[shard].call(op, *args)
        )

    def fanout(self, bag_id: str, op: str, *args: Any) -> None:
        """Apply a write-side op to every replica of ``bag_id``, acked on
        return: one submit round, settled at once (see :meth:`settle`)."""
        self.settle(bag_id, op, args, self.submit_round(bag_id, op, args))

    def submit_round(
        self, bag_id: str, op: str, args: Tuple[Any, ...]
    ) -> List[Tuple[int, Future]]:
        """Submit ``op`` to every replica of ``bag_id`` without waiting:
        the replicas serve the write concurrently instead of paying ``r``
        serial round trips. An unreachable replica is demoted and skipped."""
        submitted: List[Tuple[int, Future]] = []
        for shard in self.router.replicas(bag_id):
            try:
                submitted.append((shard, self.stores[shard].submit(op, *args)))
            except StorageNodeDown:
                self.mark_demoted(shard)
        return submitted

    def gather_round(self, submitted: List[Tuple[int, Future]]) -> int:
        """Wait for a submit round; how many replicas accepted. A replica
        that died under the write is demoted; any other error raises."""
        served = 0
        for shard, future in submitted:
            try:
                future.result()
                served += 1
            except StorageNodeDown:
                self.mark_demoted(shard)
        return served

    def settle(
        self,
        bag_id: str,
        op: str,
        args: Tuple[Any, ...],
        submitted: List[Tuple[int, Future]],
    ) -> None:
        """Wait out one fan-out: the write-side rule, written once.

        A replica whose process is unreachable is skipped: a dead shard's
        replacement is re-replicated by the master from a surviving copy
        before it can serve, so the skipped write still arrives. At least
        one replica must accept, or the write would vanish entirely.

        At ``replication == 1`` there is no surviving copy to
        re-replicate from — the one shard's respawn (reopening its
        segment directory, or empty and about to be re-produced) *is* the
        bag — so instead of failing the write when that shard is
        mid-respawn, the same request is re-sent under the storage
        policy's backoff. Every op routed here is idempotent (``insert``
        is id-keyed; seal/rewind/discard are absorbing), so re-applying a
        round that half-landed is safe.
        """
        if self.gather_round(submitted):
            return
        if self.replication == 1:
            for delay in self.policy.backoffs():
                time.sleep(delay)
                if self.gather_round(self.submit_round(bag_id, op, args)):
                    return
        raise StorageNodeDown(
            f"all {self.replication} replicas of bag {bag_id!r} "
            f"are down for {op!r}"
        )

    def writer(self, depth: int) -> "ChunkWriter":
        """A pipelined chunk writer keeping ``depth`` fan-outs in flight."""
        return ChunkWriter(self, depth)

    # -- master-side replication control ---------------------------------------

    def pull(self, shard: int, bag_ids: Iterable[str]) -> Dict[str, Any]:
        """Package ``bag_ids`` from ``shard`` (re-replication source);
        this side only carries the packages to :meth:`push`."""
        return self.stores[shard].call("pull", list(bag_ids))

    def push(self, shard: int, packages: Dict[str, Any]) -> None:
        """Install pulled packages on ``shard`` (re-replication target)."""
        self.stores[shard].call("push", packages)

    def finalize_bag(self, shard: int, bag_id: str) -> Tuple[int, int]:
        """Compact ``bag_id``'s segments on ``shard`` (master-only op).

        Explicitly per-replica (like ``pull``/``push``) instead of
        routed: the master drives each replica of a finished bag in
        turn so every copy reclaims its dead frames. Idempotent — a
        retry against an already-compacted bag answers ``(0, 0)``.
        """
        return self.stores[shard].call("finalize", bag_id)

    def push_epochs(self, shard: int, epochs: Dict[int, int]) -> None:
        """Install the master's demotion-epoch vector on ``shard``."""
        self.stores[shard].call("set_epochs", dict(epochs))

    def probe(self, shard: int) -> Dict[str, Any]:
        """``shard``'s identity, epoch vector, and bag inventory.

        The recovering master's ground-truth check: what the journal says
        ran is reconciled against what the shards actually hold, and any
        demotions the shards gossiped among themselves while no master
        was alive are max-merged back into the master's vector.
        """
        return self.stores[shard].call("probe")

    # -- bag-store surface ------------------------------------------------------

    def ensure(self, bag_id: str) -> ReplicatedRemoteBag:
        return ReplicatedRemoteBag(self, bag_id)

    def get(self, bag_id: str) -> ReplicatedRemoteBag:
        return self.ensure(bag_id)  # server-side ops auto-ensure

    # -- fan-out operations -----------------------------------------------------

    def remaining_many(self, bag_ids: Iterable[str]) -> Dict[str, int]:
        """Remaining-chunk counts for ``bag_ids``, one RPC per shard hit.

        With ``replication > 1`` it sweeps per bag instead: the counts
        must come from each bag's primary (a backup's pending set can
        run ahead of the shipped removal log), and different bags in one
        home-shard group can have different primaries after a failover.
        """
        if self.replication > 1:
            return {
                bag_id: self.sweep_call(bag_id, "remaining", bag_id)
                for bag_id in bag_ids
            }
        merged: Dict[str, int] = {}
        groups = sorted(self.router.partition(bag_ids).items())
        submitted = [
            (shard, self.stores[shard].submit("remaining_many", group))
            for shard, group in groups
        ]
        for _shard, future in submitted:
            merged.update(future.result())
        return merged

    def stats(self) -> List[Dict[str, int]]:
        """Per-shard op-counter snapshots, indexed by shard."""
        return [f.result() for f in [s.submit("stats") for s in self.stores]]

    def fence(self, client_id: str, timeout: Optional[float]) -> int:
        """Fence ``client_id`` on **every** shard; returns leftover conns.

        A dead worker may have had connections open to any subset of the
        shards (store proxy plus one fetcher per streamed bag), so the
        single-server fence generalizes to all-shards: recovery may only
        proceed once no shard still holds an undrained connection of the
        corpse.

        The sweep continues past a shard that is down — aborting
        mid-loop would leave the remaining shards unfenced while the
        caller believes the corpse is drained. Failed shards are retried
        under a short bounded backoff (they may be mid-respawn, and a
        respawned shard holds no old connections — its fence is trivially
        clean); a shard still down after the budget raises
        :class:`~repro.errors.StorageNodeDown` so the caller's own
        retry loop (which can actually respawn shards) takes over.
        """
        leftover = 0
        failed: List[int] = []
        for shard, store in enumerate(self.stores):
            try:
                leftover += store.call("fence", client_id, timeout)
            except StorageNodeDown:
                failed.append(shard)
        if not failed:
            return leftover
        backoffs = itertools.islice(self.policy.backoffs(), _FENCE_RETRY_STEPS)
        for delay in backoffs:
            time.sleep(delay)
            still_failed: List[int] = []
            for shard in failed:
                try:
                    leftover += self.stores[shard].call("fence", client_id, timeout)
                except StorageNodeDown:
                    still_failed.append(shard)
            failed = still_failed
            if not failed:
                return leftover
        raise StorageNodeDown(
            f"shards {failed} unreachable while fencing {client_id!r}"
        )

    def shutdown(self) -> None:
        for store in self.stores:
            try:
                store.call("shutdown")
            except (errors_mod.ReproError, StorageNodeDown):
                pass  # already dead; the master reaps the process anyway

    def invalidate(self, shard: int) -> None:
        """Drop the cached connection to ``shard`` (it was respawned)."""
        self.stores[shard].invalidate()

    def close(self) -> None:
        for store in self.stores:
            store.close()
        if self._pump is not None:
            self._pump.close()


class ChunkWriter:
    """Eq. 1 for producers: up to ``depth`` insert fan-outs in flight.

    Single-owner and threadless (one per source fill, one per task):
    :meth:`insert` stamps the chunk id, submits the id-keyed ``insert``
    to every replica and returns once at most ``depth`` fan-outs remain
    un-acked, settling the oldest first by the store's one write rule
    (:meth:`ShardedBagStore.settle`). Errors other than a dead replica
    (``BagSealedError``, ...) therefore surface at a later ``insert`` or
    at :meth:`drain`, never after it. The owner must not acknowledge
    anything upward — seal the bag, report ``done``/``aborted``/
    ``failed`` — while a write is in flight: :meth:`drain` before the
    former, :meth:`abandon` before the latter two.
    """

    def __init__(self, store: ShardedBagStore, depth: int):
        self._store = store
        self._depth = depth
        #: Oldest first: (the insert's args, its submit round).
        self._inflight: "deque[Tuple[Tuple[Any, ...], List[Tuple[int, Future]]]]" = deque()

    def insert(self, bag_id: str, chunk: Any) -> None:
        args = (bag_id, self._store.next_chunk_id(), chunk)
        self._inflight.append(
            (args, self._store.submit_round(bag_id, "insert", args))
        )
        while len(self._inflight) > self._depth:
            self._settle_oldest()

    def _settle_oldest(self) -> None:
        # Popped only once settled: a fan-out that raises stays tracked,
        # so ``abandon`` still waits out its other replicas.
        args, submitted = self._inflight[0]
        self._store.settle(args[0], "insert", args, submitted)
        self._inflight.popleft()

    def drain(self) -> None:
        """Settle every fan-out: on return each chunk is acked."""
        while self._inflight:
            self._settle_oldest()

    def abandon(self) -> None:
        """Wait every in-flight future to resolution, success or failure,
        re-sending nothing: the failure path's drain. A retry against the
        dead ``r = 1`` shard that caused the cancel would sit in the
        policy backoff and stall the recovery waiting for this ack."""
        while self._inflight:
            for _shard, future in self._inflight.popleft()[1]:
                future.exception()


class _FetchAborted(Exception):
    """Internal: unwinds a fetch sweep interrupted by ``stop()``.

    Deliberately neither :class:`~repro.errors.StorageNodeDown` nor
    :class:`~repro.errors.NotPrimary`, so it escapes the sweep's retry
    handling immediately instead of being absorbed as one more replica
    failure.
    """


class MuxBatchFetcher:
    """Threadless batch-sampling fetcher over the multiplexed store.

    The Eq. 1 access path: ``get`` returns buffered chunks while the
    next ``remove_batch`` of ``b`` chunks is already in flight. The
    overlap comes from a completion callback instead of a dedicated
    thread: each resolved batch future re-arms the next request on the
    shared :class:`MuxShardClient` link, so a worker streaming fifty
    bags runs fifty of these on the *same* O(shards) pump threads. The
    only thread this class ever spawns is a short-lived failover sweep
    (the serving shard died mid-stream), because that path must block
    through reconnect backoffs, which the pump may not.

    Latency samples are kept per serving shard in
    :attr:`latencies_by_shard`.
    """

    def __init__(self, store: ShardedBagStore, bag_id: str, batch: int):
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self._parent = store
        self.bag_id = bag_id
        self.batch = batch
        self.latencies_by_shard: Dict[int, List[float]] = {}
        self._cond = threading.Condition()
        self._buffer: "deque[Any]" = deque()
        self._eof = False
        self._error: Optional[BaseException] = None
        self._stopped = False
        self._aborted = False
        self._inflight = False
        #: Earliest monotonic time the next request may be issued; set
        #: when a batch comes back empty-but-unsealed so the re-arm loop
        #: polls at ``_UNSEALED_POLL_SECONDS`` instead of spinning.
        self._retry_after: Optional[float] = None
        self._recovery: Optional[threading.Thread] = None
        with self._cond:
            self._issue_locked()

    # -- request pipeline --------------------------------------------------------

    def _issue_locked(self, from_pump: bool = False) -> None:
        """Arm the next ``remove_batch`` if the stream wants one.

        Skips when a request is already in flight, the bag is done, a
        failover sweep owns the stream, the buffer already holds a full
        batch (bounded prefetch), or the unsealed-empty pacing window
        has not elapsed.
        """
        if (
            self._inflight
            or self._eof
            or self._stopped
            or self._recovery is not None
            or len(self._buffer) >= self.batch
        ):
            return
        if self._retry_after is not None:
            if time.monotonic() < self._retry_after:
                return
            self._retry_after = None
        parent = self._parent
        shard = parent.serving_order(self.bag_id)[0]
        client = parent.stores[shard]
        if from_pump and not client.connected:
            # Reconnecting blocks through the storage policy's backoff
            # schedule — never on the pump thread. The consumer's next
            # ``get`` re-issues from a thread allowed to wait.
            return
        seq = parent.next_seq(self.bag_id)
        started = time.perf_counter()
        try:
            future = client.submit(
                "remove_batch", self.bag_id, self.batch, parent.client_id, seq
            )
        except StorageNodeDown as exc:
            self._handle_failure_locked(shard, seq, exc)
            return
        self._inflight = True
        future.add_done_callback(
            lambda f: self._on_batch(f, shard, seq, started)
        )

    def _on_batch(
        self,
        future: "Future[Any]",
        shard: int,
        seq: int,
        started: float,
    ) -> None:
        elapsed = time.perf_counter() - started
        with self._cond:
            self._inflight = False
            if self._stopped:
                self._cond.notify_all()
                return
            try:
                chunks, sealed = future.result()
            except (StorageNodeDown, NotPrimary) as exc:
                self._handle_failure_locked(shard, seq, exc)
                return
            except BaseException as exc:
                self._error = exc
                self._eof = True
                self._cond.notify_all()
                return
            self._deliver_locked(shard, chunks, sealed, elapsed)
            self._issue_locked(from_pump=True)

    def _deliver_locked(
        self, shard: int, chunks: List[Any], sealed: bool, elapsed: float
    ) -> None:
        self.latencies_by_shard.setdefault(shard, []).append(elapsed)
        if chunks:
            self._buffer.extend(chunks)
        elif sealed:
            self._eof = True
        else:
            self._retry_after = time.monotonic() + _UNSEALED_POLL_SECONDS
        self._cond.notify_all()

    # -- failover -----------------------------------------------------------------

    def _handle_failure_locked(
        self, shard: int, seq: int, exc: BaseException
    ) -> None:
        parent = self._parent
        if isinstance(exc, NotPrimary):
            parent.adopt_epochs(_parse_epoch_vector(str(exc)))
        else:
            parent.mark_demoted(shard)
        # The fallback sweep must ride out reconnect backoffs and
        # promotion-push windows — blocking work, so it gets the one
        # thread this fetcher ever spawns. It retries the SAME seq: the
        # server removal log answers a request the dead primary
        # served-but-never-acked instead of serving it twice. At
        # replication 1 the sweep simply waits for the one shard's
        # respawn (reopened from disk, or empty until the master's
        # recovery cancels this stream's task and re-produces the bag).
        thread = threading.Thread(
            target=self._sweep_fallback,
            args=(seq,),
            daemon=True,
            name=f"mux-fetch-recover-{self.bag_id}",
        )
        self._recovery = thread
        thread.start()

    def _await_interruptible(self, future: "Future[Any]") -> Any:
        while True:
            try:
                return future.result(timeout=0.1)
            except _FutureTimeout:
                if self._aborted:
                    raise _FetchAborted(self.bag_id) from None

    def _sleep_interruptible(self, delay: float) -> None:
        deadline = time.monotonic() + delay
        while not self._aborted:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(remaining, 0.05))

    def _sweep_fallback(self, seq: int) -> None:
        """Replica sweep for one orphaned ``remove_batch`` (own thread).

        An abort-aware unrolling of :meth:`ShardedBagStore.sweep`: every
        wait — future result, inter-round backoff — re-checks the abort
        flag on a short period, so ``stop()`` stays bounded even while a
        replica stalls or the whole set is mid-respawn.
        """
        parent = self._parent
        op_args = (
            "remove_batch", self.bag_id, self.batch, parent.client_id, seq,
        )
        outcome: Optional[Tuple[int, Tuple[List[Any], bool], float]] = None
        error: Optional[BaseException] = None
        backoffs = parent.policy.backoffs()
        try:
            while outcome is None and not self._aborted:
                last_down: Optional[StorageNodeDown] = None
                for shard in parent.serving_order(self.bag_id):
                    if self._aborted:
                        break
                    started = time.perf_counter()
                    try:
                        result = self._await_interruptible(
                            parent.stores[shard].submit(*op_args)
                        )
                    except StorageNodeDown as exc:
                        parent.mark_demoted(shard)
                        last_down = exc
                    except NotPrimary as exc:
                        parent.adopt_epochs(_parse_epoch_vector(str(exc)))
                    else:
                        outcome = (
                            shard, result, time.perf_counter() - started
                        )
                        break
                if outcome is not None or self._aborted:
                    break
                delay = next(backoffs, None)
                if delay is None:
                    error = StorageNodeDown(
                        f"no replica of bag {self.bag_id!r} would serve "
                        f"(replicas {parent.router.replicas(self.bag_id)})"
                    )
                    error.__cause__ = last_down
                    break
                self._sleep_interruptible(delay)
        except _FetchAborted:
            pass
        except BaseException as exc:
            error = exc
        with self._cond:
            self._recovery = None
            if self._stopped or self._aborted:
                self._cond.notify_all()
                return
            if outcome is not None:
                shard, (chunks, sealed), elapsed = outcome
                self._deliver_locked(shard, chunks, sealed, elapsed)
                self._issue_locked(from_pump=True)
            else:
                self._error = error
                self._eof = True
                self._cond.notify_all()

    # -- consumer surface --------------------------------------------------------

    def get(self, timeout: Optional[float] = None) -> Optional[Any]:
        """Next chunk, or ``None`` once the bag is drained and sealed.

        A ``timeout`` with nothing buffered raises the typed
        :class:`~repro.errors.FetchTimeout` — a signal that no chunk
        was lost (the next get may well succeed) — never a bare
        ``queue.Empty``-style implementation detail.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._buffer:
                    chunk = self._buffer.popleft()
                    self._issue_locked()
                    return chunk
                if self._eof:
                    if self._error is not None:
                        raise self._error
                    return None
                self._issue_locked()
                if self._buffer or self._eof:
                    continue
                now = time.monotonic()
                wait: Optional[float] = None
                if self._retry_after is not None:
                    wait = max(0.0, self._retry_after - now)
                if deadline is not None:
                    remaining = deadline - now
                    if remaining <= 0:
                        raise FetchTimeout(
                            f"no chunk from bag {self.bag_id!r} "
                            f"within {timeout}s"
                        )
                    wait = remaining if wait is None else min(wait, remaining)
                self._cond.wait(wait)

    def stop(self) -> None:
        """Stop streaming; bounded, and loud if cleanup hangs.

        There is no fetch thread to interrupt — an unresolved in-flight
        future just has its completion callback observe ``_stopped`` and
        drop the batch on the shared link (the pump and connection are
        the store's, not this fetcher's). Only an active failover sweep
        owns a thread; the abort flag unblocks its interruptible waits,
        and a sweep that survives the join anyway is a loud failure.
        """
        with self._cond:
            self._stopped = True
            self._aborted = True
            self._eof = True
            recovery = self._recovery
            self._cond.notify_all()
        if recovery is not None:
            recovery.join(timeout=2.0)
            if recovery.is_alive():
                raise ReproError(
                    f"failover sweep for bag {self.bag_id!r} survived "
                    f"stop(): its in-flight RPC could not be interrupted"
                )
