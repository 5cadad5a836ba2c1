"""A storage-shard process: data bags behind a socket RPC loop.

One process owns one *shard* of a run's bags: every bag whose replica
set (:class:`~repro.dist.sharding.ShardRouter`; at ``replication = 1``
just the bag's home) includes its index, held in one
:class:`~repro.dist.bags.BagStore` whose chunks live in one of two
backings — :class:`~repro.dist.bags.MemoryBacking`, or
:class:`~repro.dist.segments.SegmentBacking` when the run set a memory
budget (``segment_dir``). Every bag mutation happens under that store's
lock — which is what makes chunk removal **exactly-once across
processes**: two clones racing ``remove_batch`` on the same bag are
serialized server-side by the shard serving it, so each chunk is handed
to exactly one of them.

There is one op family at any replication level. Inserts are id-keyed
and idempotent, destructive reads carry a ``(client, seq)`` pair and are
answered from the removal log when retried, so a client may re-send
either through a torn connection or a shard respawn. Exactly-once holds
across *replicas* through two mechanisms, both trivially satisfied when
the replica set is this shard alone:

* **primary gating** — destructive reads (``remove_batch``) and
  snapshot reads are only served by the bag's *primary*: the
  epoch-minimal replica under the master-pushed demotion-epoch vector
  (``set_epochs``; respawned shards receive the current vector in their
  spawn arguments, so a replacement can never believe itself primary
  with stale state). Requests landing on a backup are refused with
  :class:`~repro.errors.NotPrimary` carrying the vector, and the client
  re-routes. Exactly one live shard believes itself primary for a bag
  at any instant, because epochs only change when the displaced primary
  is already dead;
* **removal-log shipping** — the primary ships every removal record to
  its backup replicas *before replying*, so any chunk a client has been
  handed is marked consumed on every live copy first; a promoted backup
  answers a retried request from the shipped log instead of popping
  fresh chunks (:mod:`repro.dist.bags`).

With ``replication > 1`` the shards additionally **gossip** the
demotion-epoch vector peer-to-peer (max-merge both ways, every
:data:`GOSSIP_INTERVAL_SECONDS`), and demote a peer themselves after
:data:`GOSSIP_DEATH_STRIKES` consecutive refused connections — so
primary failover keeps working while no master is alive to push
promotions, or while the master's one thread is still busy in another
handler. A recovering master asks any shard
``("probe",)`` for its identity, epoch vector, and bag inventory.

Connections speak one form. Every client — a worker, the master, a
peer shard — opens with ``("mux", client_id)`` and, after the
``("ok", ...)`` ack, switches to the framed multiplexed protocol of
:mod:`repro.dist.protocol`: every request frame carries a client-chosen
call id, requests are served as they decode (a blocking ``fence`` moves
to its own thread so it cannot head-of-line block the lane), and replies
are written whenever ready under a send lock, in whatever order they
finish. A connection whose first message is anything else is closed. At
``replication > 1`` a shard reaches each peer through one
:class:`~repro.dist.client.MuxShardClient` (client id ``shard-<i>``,
connecting once under :data:`~repro.dist.client.FAIL_FAST_POLICY`),
which carries ``apply_removals`` shipping and ``gossip``. Connections
land in the client registry, which is what the **fence** operation
reads: after a worker process dies, ``("fence", client_id)`` blocks
until every connection that worker had registered *on this shard* is
fully drained and closed — i.e. until all of the dead worker's in-flight
inserts here have been applied — so the recovery discard/rewind cannot
race with a late write from the corpse. With ``m`` shards the master
fences all ``m``.

Shards listen on **stable socket paths** chosen by the master
(``shard-<i>.sock`` in a run-scoped temp dir): when a shard dies and is
respawned, the replacement re-binds the same path, so clients recover by
reconnecting to the address they already know — no re-homing, no
placement epoch protocol. Fault injection mirrors the worker side's
``kill_after_chunks``: with ``kill_after_ops`` set, the shard hard-exits
(``os._exit``) upon receiving its N-th ``remove_batch``, before replying
— the requester observes a torn connection, exactly like a SIGKILL.
"""

from __future__ import annotations

import os
import socket
import threading
from multiprocessing.connection import Connection, Listener
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.dist.protocol import (
    KIND_REQUEST,
    KIND_RESPONSE_ERR,
    KIND_RESPONSE_OK,
    FrameDecoder,
    FrameError,
    encode_frame,
)
from repro.dist.bags import BagStore, MemoryBacking
from repro.dist.client import FAIL_FAST_POLICY, MuxPump, MuxShardClient
from repro.dist.segments import SegmentBacking
from repro.dist.sharding import ShardRouter
from repro.errors import NotPrimary, ReproError, StorageNodeDown

#: ``os._exit`` status used by the shard-kill fault injection.
SHARD_KILL_EXIT_CODE = 23

#: Seconds between peer epoch-gossip rounds (replicated shards only).
GOSSIP_INTERVAL_SECONDS = 0.25

#: Consecutive unreachable gossip rounds before a peer is declared dead
#: and demoted shard-side. Connection-refused against a same-host Unix
#: socket is a fail-stop death certificate, but one refusal can also be
#: the bind-to-accept window of a respawning replacement; three rounds
#: (~0.75s) is far past any startup race while staying well inside a
#: sweeping client's total patience.
GOSSIP_DEATH_STRIKES = 3


class _ServerState:
    def __init__(
        self,
        shard: int = 0,
        kill_after_ops: Optional[int] = None,
        replication: int = 1,
        addresses: Optional[Sequence[str]] = None,
        authkey: Optional[bytes] = None,
        epochs: Optional[Dict[int, int]] = None,
        segment_dir: Optional[str] = None,
        resident_bytes: Optional[int] = None,
        reopen: bool = False,
        kill_in_compaction: Optional[str] = None,
    ):
        self.shard = shard
        self.replication = replication
        self.addresses = list(addresses) if addresses else []
        backing: Any = MemoryBacking()
        if segment_dir is not None:
            backing = SegmentBacking(
                segment_dir, resident_bytes=resident_bytes, reopen=reopen
            )
            if kill_in_compaction is not None:
                # Fault injection: die like a SIGKILLed shard inside the
                # named compaction crash window ("written" = new segments
                # fsynced but not yet indexed; "indexed" = swap recorded
                # but old files not yet unlinked).
                def die_in_window(stage: str, _want=kill_in_compaction) -> None:
                    if stage == _want:
                        os._exit(SHARD_KILL_EXIT_CODE)

                backing.compaction_kill = die_in_window
        self.store = BagStore(backing)
        #: Replica placement, for primary gating and removal shipping at
        #: any replication level (a shard started without a peer list is
        #: a fleet of one).
        self.router = ShardRouter(len(self.addresses) or 1, replication)
        #: Demotion-epoch vector, master-authoritative (monotone max-merge).
        self.epochs: Dict[int, int] = dict(epochs or {})
        self.epochs_lock = threading.Lock()
        #: One lazily-connected mux link per peer replica (``r > 1``
        #: only), carrying removal shipping and gossip.
        self.peers: Dict[int, MuxShardClient] = {}
        self._pump: Optional[MuxPump] = None
        if replication > 1:
            self._pump = MuxPump()
            self.peers = {
                peer: MuxShardClient(
                    address, authkey, f"shard-{shard}", FAIL_FAST_POLICY, self._pump
                )
                for peer, address in enumerate(self.addresses)
                if peer != shard
            }
        self.stats: Dict[str, int] = {}
        self.stats_lock = threading.Lock()
        self.stop = threading.Event()
        self.registry_lock = threading.Lock()
        self.registry_cond = threading.Condition(self.registry_lock)
        #: client_id -> live connection object ids.
        self.clients: Dict[str, Set[int]] = {}
        #: Fault injection: hard-exit on the N-th remove_batch request.
        self.kill_after_ops = kill_after_ops
        self._batch_ops_seen = 0

    def bump(self, op: str, n: int = 1) -> None:
        with self.stats_lock:
            self.stats[op] = self.stats.get(op, 0) + n

    def maybe_die(self, op: str) -> None:
        """Die like a SIGKILLed shard when the injected op budget is hit."""
        if self.kill_after_ops is None or op != "remove_batch":
            return
        with self.stats_lock:
            self._batch_ops_seen += 1
            doomed = self._batch_ops_seen >= self.kill_after_ops
        if doomed:
            # No reply, no flushes, no goodbyes: every connected client
            # sees a torn connection, the master sees the process exit.
            os._exit(SHARD_KILL_EXIT_CODE)

    # -- replication helpers ---------------------------------------------------

    def merge_epochs(self, epochs: Dict[int, int]) -> None:
        with self.epochs_lock:
            for shard, epoch in epochs.items():
                if epoch > self.epochs.get(shard, 0):
                    self.epochs[shard] = epoch

    def ensure_primary(self, bag_id: str) -> None:
        """Refuse to serve ``bag_id`` unless this shard is its primary."""
        replicas = self.router.replicas(bag_id)
        with self.epochs_lock:
            primary = min(
                replicas,
                key=lambda s: (self.epochs.get(s, 0), replicas.index(s)),
            )
            if primary != self.shard:
                raise NotPrimary(repr(self.epochs))

    def ship_removals(
        self,
        bag_id: str,
        client_id: str,
        seq: int,
        pairs: List[Tuple[str, Any]],
        sealed: bool,
    ) -> None:
        """Synchronously replicate a removal record to the backup replicas.

        Runs *before* the primary replies, so a chunk is consumed on
        every live copy before any client sees it. A peer that cannot be
        reached is presumed dead and skipped — the master re-replicates
        its state on respawn, snapshotting this shard's (already
        updated) copy, so the skipped record still arrives.
        """
        if self.replication == 1:
            return  # the replica set is this shard alone
        for peer in self.router.replicas(bag_id):
            if peer == self.shard:
                continue
            for _attempt in range(2):
                try:
                    self.peers[peer].call(
                        "apply_removals", bag_id, client_id, seq, pairs, sealed
                    )
                except StorageNodeDown:
                    continue  # torn or refused: one reconnect, then give up
                except ReproError:
                    pass  # the peer answered; its refusal is its own
                break

    def close_peers(self) -> None:
        for client in self.peers.values():
            client.close()
        if self._pump is not None:
            self._pump.close()


def _dispatch(state: _ServerState, conn_id: int, req: Tuple[Any, ...]) -> Any:
    op = req[0]
    store = state.store
    state.maybe_die(op)
    state.bump(op)
    if op == "insert":
        for bag_id, chunk_id, chunk in req[1]:
            store.ensure(bag_id).insert_id(chunk_id, chunk)
        return None
    if op == "remove_batch":
        bag_id, count, client_id, seq = req[1], req[2], req[3], req[4]
        state.ensure_primary(bag_id)
        pairs, sealed = store.ensure(bag_id).remove_batch(count, client_id, seq)
        if pairs:
            # Ship outside the store lock (remove_batch released it), and
            # on dedup hits too: a primary that died mid-fan-out may have
            # reached only some backups, and the client's retry at the
            # promoted one must converge the rest.
            state.ship_removals(bag_id, client_id, seq, pairs, sealed)
        state.bump("chunks_removed", len(pairs))
        return ([chunk for _, chunk in pairs], sealed)
    if op == "apply_removals":
        bag_id, client_id, seq, pairs, sealed = req[1:6]
        store.ensure(bag_id).apply_removals(client_id, seq, pairs, sealed)
        return None
    if op == "pull":
        # Master-only re-replication: one package shape; what travels as
        # whole segment files and what as loose chunks is the backing's.
        return store.pull(list(req[1]))
    if op == "push":
        store.push(req[1])
        return None
    if op == "set_epochs":
        state.merge_epochs(req[1])
        return None
    if op == "gossip":
        # Peer-to-peer epoch exchange: max-merge the caller's vector and
        # answer with ours, so demotions propagate shard-to-shard even
        # while no master is alive to push them.
        state.merge_epochs(req[1])
        with state.epochs_lock:
            return dict(state.epochs)
    if op == "probe":
        # Recovered-master inventory: what this shard is, what it believes
        # about demotions, and which bags it physically holds — the
        # journal replay is checked against ground truth, not trusted.
        with state.epochs_lock:
            vector = dict(state.epochs)
        return {"shard": state.shard, "epochs": vector, "bags": store.bag_ids()}
    if op == "read_page":
        state.ensure_primary(req[1])
        return store.ensure(req[1]).read_page(req[2], req[3])
    if op == "finalize":
        # Master-only compaction trigger, addressed to one replica.
        return store.finalize_bag(req[1])
    if op == "seal":
        store.ensure(req[1]).seal()
        return None
    if op == "remaining":
        state.ensure_primary(req[1])
        return store.ensure(req[1]).remaining()
    if op == "remaining_many":
        for bag_id in req[1]:
            state.ensure_primary(bag_id)
        return {bag_id: store.ensure(bag_id).remaining() for bag_id in req[1]}
    if op == "rewind":
        store.ensure(req[1]).rewind()
        return None
    if op == "discard":
        store.ensure(req[1]).discard()
        return None
    if op == "size":
        state.ensure_primary(req[1])
        return store.ensure(req[1]).size()
    if op == "stats":
        gauges = dict(store.spill_stats(), rss_hwm_kb=_rss_hwm_kb())
        with state.stats_lock:
            return dict(state.stats, shard=state.shard, **gauges)
    if op == "fence":
        client_id, timeout = req[1], req[2]
        deadline = threading.TIMEOUT_MAX if timeout is None else timeout
        with state.registry_cond:
            state.registry_cond.wait_for(
                lambda: not state.clients.get(client_id), timeout=deadline
            )
            return len(state.clients.get(client_id, ()))
    raise ValueError(f"unknown storage op {op!r}")


def _serve_mux(
    state: _ServerState, conn: Connection, conn_id: int, listener
) -> None:
    """Serve one multiplexed connection: raw frames, interleaved calls.

    Requests are dispatched in decode order on this thread — the shard's
    store lock already serializes bag mutations, so one lane per
    connection keeps the exactly-once story unchanged — but replies only
    *start* in decode order: ``fence`` (the one op that blocks on
    external progress) is handed to its own thread, and every reply is
    written under a send lock whenever its call finishes. A corrupt
    frame tears the connection down (stream state is unrecoverable; the
    client reconnects), unlike an op-level error, which is just an ERR
    frame for that call id.
    """
    fd = conn.fileno()
    decoder = FrameDecoder()
    send_lock = threading.Lock()
    closed = [False]  # guarded by send_lock; set on write failure/shutdown

    def reply(call_id: int, kind: int, payload: Any) -> None:
        try:
            data = encode_frame(call_id, kind, payload)
        except FrameError as exc:
            # Unencodable reply (e.g. an oversized pull): the *call*
            # failed, not the stream — tell that caller, keep serving.
            data = encode_frame(
                call_id, KIND_RESPONSE_ERR, (type(exc).__name__, str(exc))
            )
        with send_lock:
            if closed[0]:
                return
            view = memoryview(data)
            try:
                while view:
                    view = view[os.write(fd, view):]
            except OSError:
                closed[0] = True

    def handle(call_id: int, req: Tuple[Any, ...]) -> None:
        try:
            payload = _dispatch(state, conn_id, req)
        except Exception as exc:
            reply(call_id, KIND_RESPONSE_ERR, (type(exc).__name__, str(exc)))
        else:
            reply(call_id, KIND_RESPONSE_OK, payload)

    while True:
        try:
            data = os.read(fd, 1 << 16)
        except OSError:
            return
        if not data:
            return
        try:
            frames = decoder.feed(data)
        except FrameError:
            return
        for call_id, kind, req in frames:
            if kind != KIND_REQUEST:
                return
            if req[0] == "shutdown":
                reply(call_id, KIND_RESPONSE_OK, None)
                with send_lock:
                    closed[0] = True
                state.stop.set()
                state.close_peers()
                state.store.close()
                # Closing the listener does NOT wake a thread blocked in
                # accept(2); poke it with a throwaway connection so the
                # accept loop re-checks the stop flag immediately.
                _poke(listener.address)
                listener.close()
                return
            if req[0] == "fence":
                # Blocks until the fenced client's connections drain —
                # possibly on *this shard's other lanes* — so it must
                # not occupy this lane while it waits.
                threading.Thread(
                    target=handle,
                    args=(call_id, req),
                    daemon=True,
                    name=f"storage-mux-fence-s{state.shard}",
                ).start()
                continue
            handle(call_id, req)


def _serve_connection(state: _ServerState, conn: Connection, listener) -> None:
    """Admit one connection: ``("mux", client_id)`` first, or it is closed."""
    conn_id = id(conn)
    try:
        try:
            hello = conn.recv()
        except (EOFError, OSError):
            return
        if not (isinstance(hello, tuple) and len(hello) == 2 and hello[0] == "mux"):
            return
        client_id = hello[1]
        with state.registry_cond:
            state.clients.setdefault(client_id, set()).add(conn_id)
        try:
            conn.send(("ok", client_id))
        except OSError:
            return
        _serve_mux(state, conn, conn_id, listener)
    finally:
        with state.registry_cond:
            for conns in state.clients.values():
                conns.discard(conn_id)
            state.registry_cond.notify_all()
        try:
            conn.close()
        except OSError:
            pass


def _gossip_loop(state: _ServerState) -> None:
    """Exchange demotion epochs with peers; demote peers that stay dead.

    The master normally owns failure detection, but it can be absent (a
    master death with a replicated storage tier): without gossip, a
    primary dying in that window would leave every surviving backup
    refusing ``NotPrimary`` against its own stale vector forever. Each
    round max-merges vectors both ways with every peer; a peer whose
    socket refuses :data:`GOSSIP_DEATH_STRIKES` consecutive rounds is
    demoted with the same max+1 bump the master uses — safe without a
    lease because in the fail-stop same-host process model a refused
    connection proves the displaced primary is already dead.
    """
    strikes: Dict[int, int] = {}
    while not state.stop.wait(GOSSIP_INTERVAL_SECONDS):
        for peer, client in state.peers.items():
            if state.stop.is_set():
                break
            with state.epochs_lock:
                vector = dict(state.epochs)
            try:
                answer = client.call("gossip", vector)
            except ReproError:
                answer = None  # refused, torn, or refusing: a missed round
            if answer is not None:
                strikes[peer] = 0
                state.merge_epochs(answer)
                continue
            strikes[peer] = strikes.get(peer, 0) + 1
            if strikes[peer] < GOSSIP_DEATH_STRIKES:
                continue
            strikes[peer] = 0
            with state.epochs_lock:
                ceiling = max(state.epochs.values(), default=0)
                if state.epochs.get(peer, 0) < ceiling or ceiling == 0:
                    # Not already the most recent demotion: bump it past
                    # everything so the least-recently-demoted replica of
                    # each affected bag takes over, exactly like the
                    # master's promotion rule.
                    state.epochs[peer] = ceiling + 1
            state.bump("gossip_demotions")


def _rss_hwm_kb() -> int:
    """This process's resident-set high-water-mark, in KB.

    Read from ``/proc/self/status`` (``VmHWM``); falls back to
    ``getrusage.ru_maxrss`` (also KB on Linux) where procfs is absent.
    Surfaced through the ``stats`` op so the bench can report that a
    spilling shard's memory actually stayed near its budget.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:
        return 0


def _poke(address) -> None:
    """Connect-and-close against our own listener to unblock accept()."""
    try:
        if isinstance(address, str):
            sock = socket.socket(socket.AF_UNIX)
        else:
            sock = socket.socket(socket.AF_INET)
        try:
            sock.settimeout(1.0)
            sock.connect(address)
        finally:
            sock.close()
    except OSError:
        pass


def storage_server_main(
    ready_conn: Connection,
    authkey: bytes,
    shard: int = 0,
    socket_path: Optional[str] = None,
    kill_after_ops: Optional[int] = None,
    replication: int = 1,
    addresses: Optional[Sequence[str]] = None,
    epochs: Optional[Dict[int, int]] = None,
    segment_dir: Optional[str] = None,
    resident_bytes: Optional[int] = None,
    reopen: bool = False,
    kill_in_compaction: Optional[str] = None,
) -> None:
    """Process entry point for shard ``shard``: listen, report, serve.

    The listener is a Unix-domain socket: same-host only by construction,
    and immune to the Nagle/delayed-ACK stall that adds ~40ms to every
    >16KB chunk reply over localhost TCP. When ``socket_path`` is given
    the shard binds exactly there (unlinking a stale file left by a
    killed predecessor), which is what keeps shard addresses stable
    across respawns; otherwise an auto-generated temp path is used.

    ``addresses`` lists every shard's socket path (replica placement,
    and removal shipping to peers when ``replication > 1``); ``epochs`` is
    the master's current demotion-epoch vector — a respawned
    replacement must start out knowing it is demoted, or stale clients
    could read its empty, not-yet-resynced bags as truth.

    With ``segment_dir`` set the shard's bag store keeps its chunks in
    the disk backing (:mod:`repro.dist.segments`), bounded in memory by
    ``resident_bytes``. ``reopen=True`` rebuilds state from an
    intact directory — how an r=1 respawn recovers everything it had
    acknowledged without a replay; ``reopen=False`` wipes it
    (an r>1 respawn is repopulated by resync instead, and stale segments
    must not resurrect).

    ``kill_in_compaction`` arms the mid-compaction fault injection: the
    shard hard-exits inside the named ``finalize_bag`` crash window
    ("written" or "indexed") the first time a compaction reaches it.
    """
    state = _ServerState(
        shard=shard,
        kill_after_ops=kill_after_ops,
        replication=replication,
        addresses=addresses,
        authkey=authkey,
        epochs=epochs,
        segment_dir=segment_dir,
        resident_bytes=resident_bytes,
        reopen=reopen,
        kill_in_compaction=kill_in_compaction,
    )
    if socket_path is not None:
        try:
            os.unlink(socket_path)
        except FileNotFoundError:
            pass
        listener = Listener(address=socket_path, family="AF_UNIX", authkey=authkey)
    else:
        listener = Listener(family="AF_UNIX", authkey=authkey)
    ready_conn.send(listener.address)
    ready_conn.close()
    if state.peers:
        threading.Thread(
            target=_gossip_loop,
            args=(state,),
            daemon=True,
            name=f"storage-gossip-s{shard}",
        ).start()
    while not state.stop.is_set():
        try:
            conn = listener.accept()
        except Exception:
            # Listener closed by the shutdown path, or a failed handshake;
            # re-check the stop flag and keep accepting otherwise.
            if state.stop.is_set():
                break
            continue
        thread = threading.Thread(
            target=_serve_connection,
            args=(state, conn, listener),
            daemon=True,
            name=f"storage-conn-s{shard}",
        )
        thread.start()
