"""Emit paths under wildly uneven record sizes, on both real engines.

A :class:`~repro.serde.ChunkBuilder` learns a record count from the records
it has seen, so a stream whose sizes vary 1 000x keeps overshooting: the
builder cuts a prefix and can hold several chunks' worth by the time a task
ends. Every flush site has to drain it, and no chunk may pass the bound.
"""

import pytest

from repro.dist import DistRuntime
from repro.dist.client import ReplicatedRemoteBag
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
        def insert(self, chunk):
            if isinstance(chunk, bytes) and len(chunk) > CHUNK_SIZE:
                raise AssertionError(f"{len(chunk)}-byte chunk inserted")
            return real(self, chunk)

        return insert

    for bag_class in (LocalBag, ReplicatedRemoteBag):
        monkeypatch.setattr(bag_class, "insert", checked(bag_class.insert))


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
