"""Emit paths under wildly uneven record sizes, on both real engines.

A :class:`~repro.serde.ChunkBuilder` learns a record count from the records
it has seen, so a stream whose sizes vary 1 000x keeps overshooting: the
builder cuts a prefix and can hold several chunks' worth by the time a task
ends. Every flush site has to drain it, and no chunk may pass the bound.
"""

import time

import pytest

from repro.dist import DistRuntime
from repro.dist.bags import Bag
from repro.dist.client import ChunkWriter, ReplicatedRemoteBag
from repro.engine.common import decode_bag_chunks, iter_bag_chunks
from repro.errors import ChunkOverflowError, RemoteTaskError
from repro.local import LocalRuntime
from repro.model import Application
from repro.storage.local import LocalBag

CHUNK_SIZE = 1024
#: 1 B and ``chunk_size - 64`` B, interleaved and in runs.
BLOBS = ([b"x", bytes(CHUNK_SIZE - 64)] * 12 + [b"y"] * 300 + [bytes(700)] * 9) * 2


def text_of(blob: bytes) -> str:
    """4-byte code points: a quarter as many characters as bytes."""
    return "\U0001d11e" * max(1, len(blob) // 4)


def run(engine, app, inputs):
    if engine == "local":
        runtime = LocalRuntime(app, workers=1, chunk_size=CHUNK_SIZE)
        return runtime.run(inputs, timeout=60)
    return DistRuntime(app, workers=1, shards=2, chunk_size=CHUNK_SIZE).run(
        inputs, timeout=120
    )


@pytest.fixture
def bounded_inserts(monkeypatch):
    """Fail any insert of a typed chunk over ``CHUNK_SIZE``, in whichever
    process makes it: the dist fleet forks after the patch is in place."""

    def checked(real):
        def insert(self, *args):  # (chunk) on a bag, (bag_id, chunk) on a writer
            chunk = args[-1]
            if isinstance(chunk, bytes) and len(chunk) > CHUNK_SIZE:
                raise AssertionError(f"{len(chunk)}-byte chunk inserted")
            return real(self, *args)

        return insert

    for inserter in (LocalBag, ReplicatedRemoteBag, ChunkWriter):
        monkeypatch.setattr(inserter, "insert", checked(inserter.insert))


@pytest.mark.parametrize("engine", ["local", "dist"])
def test_uneven_records_lose_nothing_and_respect_the_bound(engine, bounded_inserts):
    app = Application("uneven")
    src = app.bag("src", codec="bytes")
    blobs = app.bag("blobs", codec="bytes")
    texts = app.bag("texts", codec="str")

    def copy(ctx):
        for blob in ctx.records():
            ctx.emit("blobs", blob)
            ctx.emit("texts", text_of(blob))

    app.task("copy", [src], [blobs, texts], fn=copy)
    result = run(engine, app, {"src": BLOBS})
    assert result.records("blobs") == BLOBS
    assert result.records("texts") == [text_of(blob) for blob in BLOBS]


@pytest.mark.parametrize("batch_requests", [1, 8])
def test_done_means_every_emitted_chunk_is_acked(batch_requests, monkeypatch):
    # The dist writer keeps ``batch_requests`` inserts in flight; ``flush``
    # drains it, so when the task's ``done`` reaches the master — before
    # anything is sealed — the output bags already hold every record, once.
    app = Application("drained")
    src = app.bag("src", codec="bytes")
    blobs = app.bag("blobs", codec="bytes")
    texts = app.bag("texts", codec="str")

    def copy(ctx):
        for blob in ctx.records():
            ctx.emit("blobs", blob)
            ctx.emit("texts", text_of(blob))

    app.task("copy", [src], [blobs, texts], fn=copy)
    # Shards (forked below) take 5 ms over each output insert: an insert
    # still in flight at ``done`` would lose the race to the master's read.
    real_insert_id = Bag.insert_id

    def slow_insert_id(self, chunk_id, chunk):
        if self.bag_id != "src":
            time.sleep(0.005)
        real_insert_id(self, chunk_id, chunk)

    monkeypatch.setattr(Bag, "insert_id", slow_insert_id)
    runtime = DistRuntime(
        app, workers=1, shards=2, chunk_size=CHUNK_SIZE, batch_requests=batch_requests
    )
    at_done = {}
    real_on_done = runtime._on_done

    def on_done(wid, msg):
        for bag_id in ("blobs", "texts"):
            chunks = list(iter_bag_chunks(runtime._store, bag_id))
            at_done[bag_id] = (len(chunks), decode_bag_chunks(app.graph, bag_id, chunks))
        real_on_done(wid, msg)

    monkeypatch.setattr(runtime, "_on_done", on_done)
    result = runtime.run({"src": BLOBS}, timeout=120)
    assert at_done["blobs"][1] == BLOBS == result.records("blobs")
    assert at_done["texts"][1] == [text_of(blob) for blob in BLOBS]
    assert at_done["blobs"][0] > 8 and at_done["texts"][0] > 8  # deeper than b


@pytest.mark.parametrize("engine", ["local", "dist"])
def test_oversized_record_mid_buffer_fails_the_task(engine):
    app = Application("oversized")
    src = app.bag("src", codec="u64")
    out = app.bag("out", codec="bytes")

    def emit(ctx):
        for i in ctx.records():
            # Record 50 is buffered behind 50 small ones: it is the task's
            # final flush, not this emit, that finds it cannot be placed.
            ctx.emit(None, bytes(CHUNK_SIZE) if i == 50 else b"x")

    app.task("emit", [src], [out], fn=emit)
    expected = ChunkOverflowError if engine == "local" else RemoteTaskError
    with pytest.raises(expected, match="exceeds chunk size"):
        run(engine, app, {"src": list(range(100))})
