"""Unit tests for the local engine's task-side context API."""

import pytest

from repro.engine.common import source_chunks
from repro.errors import BagError
from repro.local import LocalRuntime
from repro.model import Application


def test_emit_to_undeclared_bag_rejected():
    app = Application("strict")
    src = app.bag("src", codec="u64")
    out = app.bag("out", codec="u64")
    app.bag("other", codec="u64")
    sink = app.bag("sink", codec="u64")
    app.task("t2", ["other"], [sink], fn=lambda ctx: None)

    def sneaky(ctx):
        for value in ctx.records():
            ctx.emit("other", value)  # not one of t1's outputs

    app.task("t1", [src], [out], fn=sneaky)
    with pytest.raises(BagError, match="cannot emit"):
        LocalRuntime(app, workers=1).run({"src": [1], "other": []})


def test_default_emit_targets_first_output():
    app = Application("default")
    src = app.bag("src", codec="u64")
    first = app.bag("first", codec="u64")
    second = app.bag("second", codec="u64")

    def task(ctx):
        for value in ctx.records():
            ctx.emit(None, value)

    app.task("t", [src], [first, second], fn=task)
    result = LocalRuntime(app, workers=1).run({"src": [1, 2, 3]})
    assert result.records("first") == [1, 2, 3]
    assert result.records("second") == []


def test_side_records_bad_index():
    app = Application("sides")
    src = app.bag("src", codec="u64")
    side = app.bag("side", codec="u64")
    out = app.bag("out", codec="u64")

    def task(ctx):
        list(ctx.side_records(3))  # only one side input exists

    app.task("t", [src, side], [out], fn=task)
    with pytest.raises(BagError, match="no side input"):
        LocalRuntime(app, workers=1).run({"src": [1], "side": [2]})


def test_side_records_repeatable():
    """Side inputs are non-destructive: a task can read them twice."""
    app = Application("twice")
    src = app.bag("src", codec="u64")
    side = app.bag("side", codec="u64")
    out = app.bag("out", codec="u64")

    def task(ctx):
        first = list(ctx.side_records(0))
        second = list(ctx.side_records(0))
        assert first == second
        for value in ctx.records():
            ctx.emit(None, value + sum(first))

    app.task("t", [src, side], [out], fn=task)
    result = LocalRuntime(app, workers=1).run({"src": [10], "side": [1, 2]})
    assert result.records("out") == [13]


def test_record_and_chunk_counters():
    app = Application("counted")
    src = app.bag("src", codec="u64")
    out = app.bag("out", codec="u64")

    def task(ctx):
        for value in ctx.records():
            ctx.emit(None, value)

    app.task("t", [src], [out], fn=task)
    runtime = LocalRuntime(app, workers=1, chunk_size=64)
    result = runtime.run({"src": list(range(200))})
    assert result.records_processed == 200
    assert result.chunks_processed > 1


# -- the chunk-granular form ---------------------------------------------------


def test_second_records_call_resumes_the_first():
    """One input cursor: a reader opened after another stopped mid-chunk
    continues with the rest of that chunk (the rest used to be dropped)."""
    app = Application("twice-read")
    src = app.bag("src", codec="u64")
    out = app.bag("out", codec="u64")

    def task(ctx):
        ctx.emit(None, next(ctx.records()))
        for value in ctx.records():
            ctx.emit(None, value)

    app.task("t", [src], [out], fn=task)
    result = LocalRuntime(app, workers=1, chunk_size=64).run({"src": list(range(100))})
    assert result.records("out") == list(range(100))
    assert result.records_processed == 100


def test_batches_and_emit_many_copy_a_bag():
    app = Application("copied")
    src = app.bag("src")
    out = app.bag("out", codec="str")

    def task(ctx):
        for batch in ctx.batches():
            assert isinstance(batch, list)
            ctx.emit_many("out", (word.upper() for word in batch))

    app.task("t", [src], [out], fn=task)
    words = [f"w{i}" for i in range(700)]
    result = LocalRuntime(app, workers=1, chunk_size=256).run(
        {"src": words}
    )
    assert result.records("out") == [word.upper() for word in words]
    # One batch per removed chunk.
    chunks = source_chunks(app.graph, "src", words, chunk_size=256)
    assert result.chunks_processed == len(chunks) > 10


def test_a_batch_is_the_tasks_to_mutate():
    """Sorting a batch in place reaches neither the bag it came from (which
    keeps its chunks for rewinds and result reads) nor a bag it was emitted
    into before the sort."""
    app = Application("owned")
    src = app.bag("src")
    kept = app.bag("kept")
    go = app.bag("go")
    out = app.bag("out")

    def sorter(ctx):
        for batch in ctx.batches():
            ctx.emit_many(None, batch)
            batch.sort()

    def reader(ctx):
        for _ in ctx.batches():
            pass
        ctx.emit_many(None, ctx.side_records(0))

    app.task("sorter", [src], [kept], fn=sorter)
    app.task("reader", [go, kept], [out], fn=reader)
    values = [5, 3, 9, 1, 7, 2, 8, 0]
    result = LocalRuntime(app, workers=1).run(
        {"src": values, "go": [0]}
    )
    assert result.records("src") == values
    assert result.records("kept") == values
    assert result.records("out") == values
