"""The multiplexed storage channel: codec properties, live serving, faults.

The frame codec gets the property-test treatment the journal framing
got: round trips, arbitrarily torn delivery, interleaved call ids, and
corrupt-header refusal. The live tests run real server processes and
drive the :class:`MuxShardClient` / :class:`MuxBatchFetcher` pair
through the paths the tentpole claims: many concurrent calls on one
connection per shard, thread count O(shards) not O(streams), typed
error propagation, connection-death fan-out to every parked future, and
replicated failover of an in-flight batch. The fault-path bugfix sweep
is pinned here too: the typed ``FetchTimeout`` signal, ``stop()``
needing no thread to reap, and ``_parse_epoch_vector``'s rejection of
malformed NotPrimary payloads.
"""

import inspect
import multiprocessing
import os
import re
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dist.protocol as protocol
from repro.dist.client import (
    MuxBatchFetcher,
    MuxPump,
    MuxShardClient,
    ShardedBagStore,
    _parse_epoch_vector,
)
from repro.dist.protocol import (
    KIND_REQUEST,
    KIND_RESPONSE_ERR,
    KIND_RESPONSE_OK,
    MAX_FRAME_PAYLOAD,
    MUX_HEADER,
    FrameDecoder,
    FrameError,
    encode_frame,
)
from repro.dist.server import _dispatch, storage_server_main
from repro.dist.sharding import ShardRouter
from repro.errors import (
    BagSealedError,
    FetchTimeout,
    ReproError,
    StorageNodeDown,
)
from repro.storage.policy import StorageConfig

CTX = multiprocessing.get_context("fork")
AUTHKEY = b"test-mux"

#: Snappy policy: the negative cases here *want* connection failures, and
#: the production backoff schedule would turn each one into seconds of
#: sleeping.
QUICK = StorageConfig(
    rpc_retries=3, retry_backoff=0.01, backoff_multiplier=1.5, rpc_timeout=1.0
)


# ---------------------------------------------------------------------------
# Frame codec properties


_call_ids = st.integers(min_value=0, max_value=2**64 - 1)
_kinds = st.sampled_from([KIND_REQUEST, KIND_RESPONSE_OK, KIND_RESPONSE_ERR])
_payloads = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(max_size=32)
    | st.binary(max_size=64),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children),
    max_leaves=8,
)
_frames = st.lists(
    st.tuples(_call_ids, _kinds, _payloads), min_size=1, max_size=8
)


class TestFrameCodec:
    @given(call_id=_call_ids, kind=_kinds, payload=_payloads)
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, call_id, kind, payload):
        decoder = FrameDecoder()
        frames = decoder.feed(encode_frame(call_id, kind, payload))
        assert frames == [(call_id, kind, payload)]
        assert decoder.buffered == 0

    @given(frames=_frames, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_torn_delivery_any_split(self, frames, data):
        # The decoder must reassemble the exact frame sequence no matter
        # how the stream is cut — including mid-header and mid-payload.
        blob = b"".join(encode_frame(*frame) for frame in frames)
        decoded = []
        decoder = FrameDecoder()
        position = 0
        while position < len(blob):
            step = data.draw(
                st.integers(min_value=1, max_value=len(blob) - position)
            )
            decoded.extend(decoder.feed(blob[position:position + step]))
            position += step
        assert decoded == frames
        assert decoder.buffered == 0

    @given(frames=_frames)
    @settings(max_examples=100, deadline=None)
    def test_interleaved_call_ids_preserved(self, frames):
        # Ids pair replies with futures, so they must survive verbatim
        # and in stream order even when many calls share the connection.
        decoder = FrameDecoder()
        decoded = decoder.feed(
            b"".join(encode_frame(*frame) for frame in frames)
        )
        assert [call_id for call_id, _, _ in decoded] == [
            call_id for call_id, _, _ in frames
        ]

    def test_torn_frame_stays_buffered(self):
        data = encode_frame(9, KIND_RESPONSE_OK, list(range(50)))
        decoder = FrameDecoder()
        assert decoder.feed(data[: len(data) // 2]) == []
        assert decoder.buffered == len(data) // 2
        assert decoder.feed(data[len(data) // 2:]) == [
            (9, KIND_RESPONSE_OK, list(range(50)))
        ]

    def test_oversized_payload_refused_on_encode(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_PAYLOAD", 64)
        with pytest.raises(FrameError):
            encode_frame(1, KIND_REQUEST, b"x" * 1024)

    def test_oversized_length_refused_on_decode(self):
        # A corrupt length field must be rejected before any allocation,
        # not honored as a multi-GB read target.
        header = MUX_HEADER.pack(MAX_FRAME_PAYLOAD + 1, 1, KIND_REQUEST)
        with pytest.raises(FrameError):
            FrameDecoder().feed(header)

    def test_unknown_kind_refused_both_ways(self):
        with pytest.raises(FrameError):
            encode_frame(1, 9, None)
        with pytest.raises(FrameError):
            FrameDecoder().feed(MUX_HEADER.pack(0, 1, 9))

    def test_garbage_payload_refused(self):
        garbage = b"\x00garbage that is not a pickle"
        header = MUX_HEADER.pack(len(garbage), 3, KIND_RESPONSE_OK)
        with pytest.raises(FrameError):
            FrameDecoder().feed(header + garbage)


# ---------------------------------------------------------------------------
# NotPrimary payload parsing (fault-path sweep)


class TestEpochVectorParsing:
    def test_parses_plain_vector(self):
        assert _parse_epoch_vector("{0: 1, 1: 0}") == {0: 1, 1: 0}

    def test_bools_are_not_shard_ids_or_epochs(self):
        # isinstance(True, int) holds; type() filtering must not let a
        # bool masquerade as shard 0/1 with a nonsense epoch.
        # (keys chosen so True does not collide with an int key: in a
        # dict literal True == 1 would silently merge entries.)
        assert _parse_epoch_vector("{True: 5, 2: False, 3: 7}") == {3: 7}

    def test_nested_dicts_dropped(self):
        assert _parse_epoch_vector("{0: {1: 2}, 1: 3}") == {1: 3}

    def test_non_literal_string_yields_empty(self):
        assert _parse_epoch_vector("shard 0 is not primary") == {}
        assert _parse_epoch_vector("__import__('os')") == {}

    def test_non_dict_literal_yields_empty(self):
        assert _parse_epoch_vector("[0, 1]") == {}
        assert _parse_epoch_vector("42") == {}

    def test_string_keys_dropped(self):
        assert _parse_epoch_vector("{'0': 1, 1: 4}") == {1: 4}


# ---------------------------------------------------------------------------
# Live mux serving


class _Shards:
    """A real shard group: one server process per index."""

    def __init__(self, tmpdir, count, replication=1):
        self.paths = [
            os.path.join(tmpdir, f"shard-{i}.sock") for i in range(count)
        ]
        self.replication = replication
        self.procs = [None] * count
        for index in range(count):
            self.spawn(index)

    def spawn(self, index, epochs=None):
        ready_parent, ready_child = CTX.Pipe(duplex=False)
        proc = CTX.Process(
            target=storage_server_main,
            args=(
                ready_child,
                AUTHKEY,
                index,
                self.paths[index],
                None,
                self.replication,
                list(self.paths),
                dict(epochs or {}),
            ),
            daemon=True,
        )
        proc.start()
        ready_child.close()
        assert ready_parent.poll(15.0), f"shard {index} did not start"
        ready_parent.recv()
        ready_parent.close()
        self.procs[index] = proc

    def kill(self, index):
        self.procs[index].terminate()
        self.procs[index].join(timeout=5.0)

    def store(self, client_id="tester"):
        return ShardedBagStore(
            self.paths,
            AUTHKEY,
            client_id,
            QUICK,
            router=ShardRouter(len(self.paths), self.replication),
        )

    def close(self):
        for proc in self.procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)


@pytest.fixture
def shards2(tmp_path):
    group = _Shards(str(tmp_path), 2)
    yield group
    group.close()


@pytest.fixture
def rshards2(tmp_path):
    group = _Shards(str(tmp_path), 2, replication=2)
    yield group
    group.close()


def _threads_named(prefix):
    return [
        t for t in threading.enumerate() if t.name.startswith(prefix)
    ]


class TestMuxStore:
    def test_bag_ops_parity_across_shards(self, shards2):
        store = shards2.store()
        try:
            for i in range(10):
                store.ensure(f"bag-{i}").insert([i])
            for i in range(10):
                bag = store.get(f"bag-{i}")
                assert bag.size() == 1
                assert bag.read_page(0, 1 << 20) == ([[i]], 1)
            remaining = store.remaining_many([f"bag-{i}" for i in range(10)])
            assert remaining == {f"bag-{i}": 1 for i in range(10)}
            stats = store.stats()
            assert [s["shard"] for s in stats] == [0, 1]
            # Both shards actually served traffic (routing is real).
            assert all(s.get("insert", 0) > 0 for s in stats)
        finally:
            store.close()

    def test_many_concurrent_calls_one_connection(self, shards2):
        # 32 caller threads hammer one MuxShardClient; every reply must
        # land on its own call's future, and the client must hold
        # exactly one connection the whole time.
        store = shards2.store()
        try:
            client = store.stores[0]
            assert isinstance(client, MuxShardClient)
            bag = "concurrency"
            shard = store.shard_of(bag)
            target = store.stores[shard]
            errors = []

            def caller(k):
                try:
                    target.call("insert", bag, f"caller#{k}", [k])
                    assert target.call("size", bag) >= 1
                except BaseException as exc:  # pragma: no cover - fail loud
                    errors.append(exc)

            threads = [
                threading.Thread(target=caller, args=(k,)) for k in range(32)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            assert not errors
            assert target.call("size", bag) == 32
        finally:
            store.close()

    def test_typed_errors_cross_the_frame(self, shards2):
        store = shards2.store()
        try:
            bag = store.ensure("sealed")
            bag.insert(["x"])
            bag.seal()
            with pytest.raises(BagSealedError):
                bag.insert(["y"])
        finally:
            store.close()

    def test_shard_death_fails_and_reconnect_recovers(self, shards2):
        store = shards2.store()
        try:
            bag_id = "victim-bag"
            shard = store.shard_of(bag_id)
            store.ensure(bag_id).insert(["a"])
            shards2.kill(shard)
            with pytest.raises(StorageNodeDown):
                store.ensure(bag_id).size()
            shards2.spawn(shard)
            # Next call reconnects under the policy; the respawned shard
            # is empty (no replication), which is its own contract.
            assert store.ensure(bag_id).size() == 0
        finally:
            store.close()

    def test_connection_death_fails_every_parked_future(self, shards2):
        store = shards2.store()
        try:
            bag_id = "fence-bag"
            shard = store.shard_of(bag_id)
            client = store.stores[shard]
            # fence("ghost", None) parks server-side until the (never
            # registered, so immediately empty) drain check... use a real
            # blocked fence: register a second client on that shard and
            # fence it with a timeout long enough to outlive the kill.
            other = shards2.store(client_id="corpse")
            other.ensure(bag_id).insert(["x"])  # registers "corpse"
            future = client.submit("fence", "corpse", 30.0)
            time.sleep(0.1)
            assert not future.done()
            shards2.kill(shard)
            with pytest.raises(StorageNodeDown):
                future.result(timeout=10.0)
            other.close()
            shards2.spawn(shard)
        finally:
            store.close()


    def test_a_reply_drains_while_a_sender_is_blocked_in_write(self, shards2):
        # The shard is mid-way through writing a reply larger than the
        # socket buffer when this process starts writing a request larger
        # than it too: the shard reads nothing until its reply is taken,
        # so the pump must take it while the sender holds the send lock.
        # With b inserts in flight per lane this is an ordinary moment.
        store = shards2.store()
        try:
            client = store.stores[store.shard_of("big")]
            blob = bytes(256 * 1024)
            for i in range(16):
                client.call("insert", "big", f"seed#{i}", blob)
            reply = client.submit("remove_batch", "big", 16, "tester", 1)
            acks = []
            sender = threading.Thread(
                target=lambda: acks.append(
                    client.submit("insert", "other", "tester#0", bytes(2 << 20))
                ),
                daemon=True,
            )
            sender.start()
            sender.join(timeout=20.0)
            assert not sender.is_alive(), "sender and pump deadlocked"
            chunks, _sealed = reply.result(timeout=20.0)
            assert len(chunks) == 16
            assert acks[0].result(timeout=20.0) is None
        finally:
            store.close()


class TestOpFamily:
    def test_dispatch_serves_exactly_the_documented_ops(self):
        # repro.dist.protocol's docstring is the op contract; the server
        # must not grow (or keep) an op the list does not name.
        documented = re.findall(
            r"^    ([a-z_]+) +\(", protocol.__doc__, flags=re.MULTILINE
        )
        dispatched = re.findall(r'op == "([a-z_]+)"', inspect.getsource(_dispatch))
        assert len(documented) == len(set(documented))
        assert sorted(dispatched) == sorted(documented)
        assert len(dispatched) <= 19

    def test_unknown_op_answers_value_error_in_an_err_frame(self, shards2):
        # Spoken at the frame level: the client maps error names onto
        # repro.errors types, which would hide the name on the wire.
        conn = protocol.connect_with_retry(shards2.paths[0], AUTHKEY, QUICK)
        try:
            conn.send(("mux", "frame-tester"))
            assert conn.recv() == ("ok", "frame-tester")
            os.write(conn.fileno(), encode_frame(7, KIND_REQUEST, ("rinsert", "b")))
            decoder, frames = FrameDecoder(), []
            while not frames:
                frames = decoder.feed(os.read(conn.fileno(), 1 << 16))
            assert frames == [
                (7, KIND_RESPONSE_ERR, ("ValueError", "unknown storage op 'rinsert'"))
            ]
            # The stream survives an op-level error.
            os.write(conn.fileno(), encode_frame(8, KIND_REQUEST, ("seal", "b")))
            frames = []
            while not frames:
                frames = decoder.feed(os.read(conn.fileno(), 1 << 16))
            assert frames == [(8, KIND_RESPONSE_OK, None)]
        finally:
            conn.close()


class TestMuxFetcher:
    def test_streams_all_chunks_then_eof(self, shards2):
        store = shards2.store()
        try:
            bag_id = "stream-me"
            bag = store.ensure(bag_id)
            for i in range(23):
                bag.insert([i])
            bag.seal()
            fetcher = MuxBatchFetcher(store, bag_id, 4)
            got = []
            while True:
                chunk = fetcher.get(timeout=10.0)
                if chunk is None:
                    break
                got.append(chunk[0])
            fetcher.stop()
            assert sorted(got) == list(range(23))
            assert set(fetcher.latencies_by_shard) == {store.shard_of(bag_id)}
        finally:
            store.close()

    def test_thread_count_independent_of_streams(self, shards2):
        # The tentpole's thread contract: N concurrent streams ride the
        # store's O(shards) pump, not N prefetch threads.
        store = shards2.store()
        try:
            bag_ids = [f"wide-{i}" for i in range(8)]
            for bag_id in bag_ids:
                bag = store.ensure(bag_id)
                for i in range(6):
                    bag.insert([i])
                bag.seal()
            before = threading.active_count()
            fetchers = [
                MuxBatchFetcher(store, bag_id, 2) for bag_id in bag_ids
            ]
            # No per-stream fetch threads, exactly one pump thread.
            assert _threads_named("fetch-") == []
            assert len(_threads_named("mux-pump")) == 1
            assert threading.active_count() <= before + 1
            for bag_id, fetcher in zip(bag_ids, fetchers):
                got = []
                while True:
                    chunk = fetcher.get(timeout=10.0)
                    if chunk is None:
                        break
                    got.append(chunk[0])
                assert got == list(range(6)), bag_id
                fetcher.stop()
        finally:
            store.close()

    def test_timeout_is_typed_and_lossless(self, shards2):
        store = shards2.store()
        try:
            bag_id = "slow-bag"
            store.ensure(bag_id)  # exists, empty, unsealed
            fetcher = MuxBatchFetcher(store, bag_id, 2)
            with pytest.raises(FetchTimeout):
                fetcher.get(timeout=0.1)
            # The timeout lost nothing: once data arrives the same
            # fetcher serves it.
            bag = store.ensure(bag_id)
            bag.insert(["late"])
            bag.seal()
            assert fetcher.get(timeout=10.0) == ["late"]
            assert fetcher.get(timeout=10.0) is None
            fetcher.stop()
        finally:
            store.close()

    def test_replicated_failover_mid_stream(self, rshards2):
        store = rshards2.store()
        try:
            bag_id = "replicated-stream"
            bag = store.ensure(bag_id)
            for i in range(12):
                bag.insert([i])
            bag.seal()
            primary, backup = store.router.replicas(bag_id)
            fetcher = MuxBatchFetcher(store, bag_id, 3)
            first = fetcher.get(timeout=10.0)
            rshards2.kill(primary)
            # Play the master: push the promotion so the backup's
            # authoritative gate opens (peer gossip would take ~0.75s,
            # past the QUICK policy's whole sweep patience).
            store.push_epochs(backup, {primary: 1})
            got = [first[0]]
            while True:
                chunk = fetcher.get(timeout=30.0)
                if chunk is None:
                    break
                got.append(chunk[0])
            fetcher.stop()
            # Exactly-once across the failover: every chunk, no dupes.
            assert sorted(got) == list(range(12))
            # The promoted backup served part of the stream.
            assert set(fetcher.latencies_by_shard) >= {primary}
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Fetcher stop() lifecycle (fault-path sweep)


class TestFetcherStop:
    def test_mux_fetcher_stop_needs_no_thread(self, shards2):
        # The mux fetcher has no thread to leak: stop() with a request
        # in flight against a live shard returns immediately.
        store = shards2.store()
        try:
            bag_id = "stop-me"
            store.ensure(bag_id)  # empty, unsealed: request stays armed
            fetcher = MuxBatchFetcher(store, bag_id, 2)
            started = time.perf_counter()
            fetcher.stop()
            assert time.perf_counter() - started < 1.0
        finally:
            store.close()


class TestMuxPumpLifecycle:
    def test_store_close_stops_the_pump(self, shards2):
        store = shards2.store()
        store.ensure("warm").insert(["x"])  # forces a connection + pump
        assert len(_threads_named("mux-pump")) == 1
        store.close()
        deadline = time.monotonic() + 3.0
        while _threads_named("mux-pump") and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _threads_named("mux-pump") == []

    def test_unstarted_pump_close_is_clean(self):
        pump = MuxPump()
        pump.close()  # no thread was ever started; fds still released
