"""The pipelined chunk writer's contract, against a scripted shard.

:class:`~repro.dist.client.ChunkWriter` keeps up to ``depth`` insert
fan-outs un-acked (Eq. 1, producer side). The contract tests run in one
thread with no process and no clock: the store's ``MuxShardClient``s are
replaced by :class:`ScriptedShard`, whose futures the test resolves by
hand. Where the writer would *block* on an unresolved future, the future
reports the wait to the test's ``on_wait`` hook instead — which must
resolve it, or the test fails rather than hangs. The last section holds
``worker_main`` to the rule that makes the pipeline safe: no ``aborted``
or ``failed`` goes upward while an insert is in flight.
"""

import multiprocessing
import threading
import time
from collections import deque
from concurrent.futures import Future
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import client as client_mod
from repro.dist import worker as worker_mod
from repro.dist.client import ShardedBagStore
from repro.dist.protocol import DistSettings, NodeDescriptor
from repro.dist.sharding import ShardRouter
from repro.engine.common import source_chunks
from repro.errors import BagSealedError, StorageNodeDown
from repro.model import Application
from repro.storage.policy import StorageConfig


class ScriptedFuture(Future):
    def __init__(self, shard, op, args):
        super().__init__()
        self.shard, self.op, self.args = shard, op, args

    def _await(self):
        if not self.done():
            self.shard.script.waits.append(self)
            self.shard.script.on_wait(self)
        assert self.done(), f"writer would block forever on {self.op}{self.args[:2]}"

    def result(self, timeout=None):
        self._await()
        return super().result(timeout=0)

    def exception(self, timeout=None):
        self._await()
        return super().exception(timeout=0)


class ScriptedShard:
    """One replica's lane: submissions in order, acks at the test's will.

    ``calls`` is what the lane delivers, in submission order; the replica
    applies inserts id-keyed, so ``held`` keeps the first arrival of each
    chunk id. ``down`` makes ``submit`` raise, as a dead link's reconnect
    does.
    """

    def __init__(self, script, index):
        self.script, self.index = script, index
        self.calls = []
        self.down = False

    def submit(self, op, *args):
        if self.down:
            raise StorageNodeDown(f"scripted shard {self.index} is down")
        future = ScriptedFuture(self, op, args)
        self.calls.append(future)
        return future

    def pending(self):
        return [future for future in self.calls if not future.done()]

    def kill(self):
        """The process dies: in-flight calls fail, later submits raise."""
        self.down = True
        for future in self.pending():
            future.set_exception(StorageNodeDown(f"shard {self.index} died"))

    def held(self, bag_id):
        ids = [f.args[1] for f in self.calls if f.op == "insert" and f.args[0] == bag_id]
        return list(dict.fromkeys(ids))

    def close(self):
        pass


class Script:
    def __init__(self):
        self.waits = []
        self.sleeps = []
        self.on_wait = lambda future: future.set_result(None)
        self.on_sleep = lambda delay: None

    def sleep(self, delay):
        self.sleeps.append(delay)
        self.on_sleep(delay)


def scripted_store(monkeypatch, script, shards, replication, retries=3):
    """A real ``ShardedBagStore`` (client id ``w``) whose shard links are
    ``ScriptedShard``s and whose backoff sleeps go to ``script``."""
    monkeypatch.setattr(client_mod, "time", SimpleNamespace(sleep=script.sleep))
    store = ShardedBagStore(
        [f"shard-{i}" for i in range(shards)],
        b"key",
        "w",
        StorageConfig(rpc_retries=retries, retry_backoff=0.25, rpc_timeout=30.0),
        router=ShardRouter(shards, replication),
    )
    store.stores = [ScriptedShard(script, i) for i in range(shards)]
    return store


@pytest.fixture
def rig(monkeypatch):
    """``rig(shards, replication)`` -> (store, shards, script)."""
    stores = []
    script = Script()

    def build(shards, replication):
        store = scripted_store(monkeypatch, script, shards, replication)
        stores.append(store)
        return store, store.stores, script

    yield build
    for store in stores:
        store.close()


def chunk_ids(futures):
    return [future.args[1] for future in futures]


class TestPipelineDepth:
    def test_first_depth_inserts_return_unacked_and_the_next_waits_for_the_oldest(
        self, rig
    ):
        store, (shard,), script = rig(1, 1)
        writer = store.writer(3)
        for i in range(3):
            writer.insert("b", b"c%d" % i)
        assert len(shard.pending()) == 3 and script.waits == []
        writer.insert("b", b"c3")
        # It waited, for the oldest and for nothing else.
        assert script.waits == [shard.calls[0]]
        assert chunk_ids(shard.pending()) == ["w#1", "w#2", "w#3"]

    def test_drain_returns_only_when_every_future_has(self, rig):
        store, shards, script = rig(2, 2)
        writer = store.writer(4)
        for i in range(4):
            writer.insert("b", b"c%d" % i)
        assert script.waits == []
        writer.drain()
        assert len(script.waits) == 8  # 4 fan-outs x 2 replicas
        assert not any(shard.pending() for shard in shards)
        script.waits.clear()
        writer.drain()  # nothing in flight: a no-op
        assert script.waits == []

    def test_acks_arriving_out_of_order_are_fine(self, rig):
        store, (shard,), script = rig(1, 1)
        writer = store.writer(2)
        writer.insert("b", b"c0")
        writer.insert("b", b"c1")
        shard.calls[1].set_result(None)  # the younger ack lands first
        writer.insert("b", b"c2")  # still waits for the oldest
        assert script.waits == [shard.calls[0]]
        writer.insert("b", b"c3")  # the next oldest is already acked
        assert script.waits == [shard.calls[0]]
        writer.drain()
        assert shard.held("b") == ["w#0", "w#1", "w#2", "w#3"]


class TestSettleRule:
    def test_one_replica_of_two_failing_is_demoted_and_the_write_stands(self, rig):
        store, shards, script = rig(2, 2)
        writer = store.writer(2)
        writer.insert("b", b"c0")
        shards[0].kill()
        writer.insert("b", b"c1")  # shard 0 refuses the submit outright
        writer.drain()
        assert store.epoch_snapshot().get(0, 0) >= 1
        assert 1 not in store.epoch_snapshot()
        assert shards[1].held("b") == ["w#0", "w#1"]
        assert script.sleeps == []  # no retry: a surviving copy accepted

    def test_at_r1_the_same_chunk_id_is_resent_after_the_backoff(self, rig):
        store, (shard,), script = rig(1, 1)
        writer = store.writer(2)
        writer.insert("b", b"c0")
        writer.insert("b", b"c1")
        shard.kill()

        def respawn(delay):
            if shard.down:  # the master respawns it during the first backoff
                assert len(shard.calls) == 2  # nothing re-sent before the wait
                shard.down = False

        script.on_sleep = respawn
        writer.drain()
        assert script.sleeps == [0.25, 0.25]  # one backoff step per fan-out
        assert chunk_ids(shard.calls) == ["w#0", "w#1", "w#0", "w#1"]
        assert [f.args[2] for f in shard.calls] == [b"c0", b"c1", b"c0", b"c1"]
        assert shard.held("b") == ["w#0", "w#1"]

    def test_at_r1_a_shard_that_stays_down_exhausts_the_policy(self, rig):
        store, (shard,), script = rig(1, 1)
        writer = store.writer(1)
        writer.insert("b", b"c0")
        shard.kill()
        with pytest.raises(StorageNodeDown, match="all 1 replicas"):
            writer.drain()
        assert len(script.sleeps) == 3  # the whole schedule, then loud

    def test_at_r2_every_replica_failing_raises_without_a_retry(self, rig):
        store, shards, script = rig(2, 2)
        writer = store.writer(2)
        writer.insert("b", b"c0")
        for shard in shards:
            shard.kill()
        with pytest.raises(StorageNodeDown, match="all 2 replicas"):
            writer.drain()
        assert script.sleeps == []
        assert all(len(shard.calls) == 1 for shard in shards)

    def test_the_synchronous_fanout_settles_by_the_same_rule(self, rig):
        # seal / rewind / discard / ReplicatedRemoteBag.insert: acked on
        # return, dead replica skipped, r=1 re-sent after the backoff.
        store, shards, script = rig(2, 2)
        shards[0].kill()
        store.get("b").insert(b"c0")
        store.get("b").seal()
        assert [f.op for f in shards[1].calls] == ["insert", "seal"]
        assert not shards[1].pending()
        store1, (lone,), script = rig(1, 1)
        lone.down = True
        script.on_sleep = lambda delay: setattr(lone, "down", False)
        store1.get("b").insert(b"c0")
        assert script.sleeps == [0.25] and lone.held("b") == ["w#0"]


class TestErrorsSurface:
    def test_bag_sealed_surfaces_at_the_next_insert(self, rig):
        store, (shard,), script = rig(1, 1)
        writer = store.writer(1)
        writer.insert("b", b"c0")
        shard.calls[0].set_exception(BagSealedError("insert into sealed bag 'b'"))
        with pytest.raises(BagSealedError):
            writer.insert("b", b"c1")

    def test_bag_sealed_surfaces_at_drain_never_later(self, rig):
        store, shards, script = rig(2, 2)
        writer = store.writer(4)
        writer.insert("b", b"c0")
        writer.insert("b", b"c1")
        script.on_wait = lambda future: (
            future.set_exception(BagSealedError("sealed"))
            if future.args[1] == "w#1"
            else future.set_result(None)
        )
        with pytest.raises(BagSealedError):
            writer.drain()


class TestAbandon:
    def test_abandon_waits_for_every_future_and_resends_nothing(self, rig):
        store, shards, script = rig(2, 2)
        writer = store.writer(4)
        for i in range(3):
            writer.insert("b", b"c%d" % i)
        # Every write fails under the abandon: the dead shards' links drop.
        script.on_wait = lambda future: future.shard.kill()
        writer.abandon()
        assert {id(f) for f in script.waits} <= {
            id(f) for shard in shards for f in shard.calls
        }
        assert not any(shard.pending() for shard in shards)
        assert all(len(shard.calls) == 3 for shard in shards)  # nothing re-sent
        assert script.sleeps == []
        script.waits.clear()
        writer.abandon()  # and nothing is left to wait for
        writer.drain()
        assert script.waits == []

    def test_abandon_after_a_raise_still_waits_out_the_failed_fanout(self, rig):
        # The first replica refuses the oldest fan-out while the second's
        # copy of it is still in flight: the raise must leave that tracked.
        store, shards, script = rig(2, 2)
        first, second = (shards[index] for index in store.router.replicas("b"))
        writer = store.writer(1)
        writer.insert("b", b"c0")
        first.calls[0].set_exception(BagSealedError("sealed"))
        with pytest.raises(BagSealedError):
            writer.insert("b", b"c1")
        assert len(second.pending()) == 2
        writer.abandon()
        assert not second.pending()


BAGS = ["a", "b", "c", "d"]


@settings(max_examples=200, deadline=None)
@given(
    replication=st.integers(1, 2),
    depth=st.integers(1, 5),
    inserts=st.lists(st.sampled_from(BAGS), min_size=1, max_size=24),
    deaths=st.dictionaries(st.integers(0, 2), st.integers(0, 30), max_size=2),
    rng=st.randoms(use_true_random=False),
)
def test_hypothesis_surviving_replicas_hold_every_chunk_once_in_order(
    replication, depth, inserts, deaths, rng
):
    """Any insert sequence x ack order x replica-failure schedule: after
    ``drain()`` each replica that stayed up holds every chunk of its bags
    exactly once and, per connection, in submission order."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        script = Script()
        store = scripted_store(monkeypatch, script, 3, replication, retries=2)
        shards = store.stores
        try:
            unresolved = lambda: [f for s in shards for f in s.pending()]
            submissions = lambda: sum(len(s.calls) for s in shards)

            def on_wait(future):
                # Deaths fire on schedule; acks land in any order, the
                # awaited one last (or failed by a death before that).
                for index, after in deaths.items():
                    if submissions() >= after and not shards[index].down:
                        shards[index].kill()
                others = [f for f in unresolved() if f is not future]
                for other in rng.sample(others, rng.randint(0, len(others))):
                    other.set_result(None)
                if not future.done():
                    future.set_result(None)

            script.on_wait = on_wait
            writer = store.writer(depth)
            written = {bag_id: [] for bag_id in BAGS}
            try:
                for n, bag_id in enumerate(inserts):
                    writer.insert(bag_id, b"chunk-%d" % n)
                    written[bag_id].append(f"w#{n}")
                    assert len({f.args[1] for f in unresolved()}) <= depth
                writer.drain()
            except StorageNodeDown:
                # Legal only when a whole replica set was lost.
                assert any(
                    all(shards[s].down for s in store.router.replicas(bag_id))
                    for bag_id in BAGS
                )
                return
            assert unresolved() == []
            for bag_id, ids in written.items():
                for index in store.router.replicas(bag_id):
                    if not shards[index].down:
                        assert shards[index].held(bag_id) == ids
        finally:
            store.close()


# -- the ordering rule in worker_main ------------------------------------------
#
# Nothing is acknowledged upward while a write is in flight. These drive the
# real ``worker_main`` loop in a thread, over a pipe, against one shard that
# serves ``remove_batch`` at once and withholds every ``insert`` ack until the
# test releases it.


class WithholdingShard:
    connected = True

    def __init__(self, chunks):
        self.chunks = deque(chunks)
        self.inserts = []

    def submit(self, op, *args):
        future = Future()
        if op == "insert":
            self.inserts.append(future)
        elif op == "remove_batch":
            # One chunk, then empty-and-unsealed: the task keeps polling.
            future.set_result(([self.chunks.popleft()] if self.chunks else [], False))
        else:
            future.set_result(None)
        return future

    def close(self):
        pass


@pytest.fixture
def held_worker(monkeypatch):
    """``held_worker(fn)`` -> (master's pipe end, shard): a worker running
    ``fn`` over one input chunk (more with a smaller ``input_chunk_size``),
    its first message(s) already consumed."""
    threads = []

    def start(fn, records=RECORDS, input_chunk_size=4096):
        app = Application("held")
        src = app.bag("src", codec="u64")
        out = app.bag("out", codec="u64")
        app.task("copy", [src], [out], fn=fn)
        settings = DistSettings(chunk_size=64, batch_requests=4)
        # One input chunk of 8-byte values: two or three 64-byte output
        # chunks, fewer than the writer's depth, so no insert ever blocks.
        chunks = source_chunks(
            app.graph, "src", records, chunk_size=input_chunk_size
        )
        assert len(chunks) == 1 or input_chunk_size != 4096
        shard = WithholdingShard(chunks)

        def scripted_store(*args, **kwargs):
            store = ShardedBagStore(*args, **kwargs)
            store.stores = [shard]
            return store

        monkeypatch.setattr(worker_mod, "ShardedBagStore", scripted_store)
        master_end, worker_end = multiprocessing.Pipe()
        thread = threading.Thread(
            target=worker_mod.worker_main,
            args=(0, worker_end, ["shard-0"], b"key", app.graph, settings),
            daemon=True,
        )
        thread.start()
        threads.append((thread, master_end))
        assert master_end.recv()["type"] == "hello"
        master_end.send(
            {
                "type": "run",
                "desc": NodeDescriptor(
                    node_id="copy#0",
                    task_id="copy",
                    kind="task",
                    stream_input="src",
                    side_inputs=(),
                    outputs=("out",),
                ),
            }
        )
        assert master_end.recv()["type"] == "progress"
        return master_end, shard

    yield start
    for thread, master_end in threads:
        master_end.send({"type": "shutdown"})
        thread.join(timeout=5)
        assert not thread.is_alive()


RECORDS = [2**40 + i for i in range(20)]


def copy_all(ctx):
    for record in ctx.records():
        ctx.emit(None, record)


def copy_then_raise(ctx):
    for record in ctx.records():
        ctx.emit(None, record)
        if record == RECORDS[-1]:
            raise RuntimeError("task bug")


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline
        time.sleep(0.005)


class TestNoAckWhileInFlight:
    def test_a_cancelled_task_sends_aborted_only_after_its_acks(self, held_worker):
        master_end, shard = held_worker(copy_all)
        wait_for(lambda: shard.inserts)
        master_end.send({"type": "cancel", "node_id": "copy#0"})
        assert not master_end.poll(0.3)  # in flight: nothing goes upward
        for future in shard.inserts:
            future.set_result(None)
        assert master_end.poll(5)
        assert master_end.recv() == {"type": "aborted", "node_id": "copy#0"}

    def test_a_raising_task_sends_failed_only_after_its_acks(self, held_worker):
        master_end, shard = held_worker(copy_then_raise)
        wait_for(lambda: shard.inserts)
        assert not master_end.poll(0.3)
        for future in shard.inserts:
            future.set_result(None)
        assert master_end.poll(5)
        message = master_end.recv()
        assert message["type"] == "failed" and "task bug" in message["error"]

    def test_failed_acks_release_the_message_at_once_and_resend_nothing(
        self, held_worker
    ):
        master_end, shard = held_worker(copy_all)
        wait_for(lambda: shard.inserts)
        master_end.send({"type": "cancel", "node_id": "copy#0"})
        assert not master_end.poll(0.3)
        sent = len(shard.inserts)
        for future in shard.inserts:
            future.set_exception(StorageNodeDown("the shard died"))
        assert master_end.poll(5)
        assert master_end.recv() == {"type": "aborted", "node_id": "copy#0"}
        assert len(shard.inserts) == sent  # abandoned, not retried
