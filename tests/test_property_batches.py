"""The batch form of the worker library against the per-record form.

``batches()`` + grouped ``emit_many`` is an optimisation of ``records()`` +
``emit``, so the per-record task is the reference: for any records, routing,
chunk size and input chunking, both leave every output bag holding the same
chunk list, byte for byte, and fail on the same inputs. No process and no
thread: a :class:`TaskContext` over a stub runtime.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.common import DirectWriter
from repro.errors import BagError, ChunkOverflowError, SerdeError
from repro.local.context import TaskContext
from repro.model import Application
from repro.model.execution_graph import ExecutionGraph
from repro.serde import codec_for, decode_chunk, encode_chunk
from repro.storage.local import LocalBagStore
from tests.test_property_serde import specs, values_of

OUTPUTS = ["out.0", "out.1", "out.2"]


class StubRuntime:
    """The surface a ``TaskContext`` expects of its runtime."""

    def __init__(self, graph, chunk_size):
        self.graph = graph
        self.store = LocalBagStore()
        self.chunk_size = chunk_size
        for bag_id in graph.bags:
            self.store.ensure(bag_id)

    def writer(self):
        return DirectWriter(self.store)


def context(in_spec, out_spec, pieces, chunk_size=64, outputs=OUTPUTS):
    """A context whose input bag holds one chunk per piece of ``pieces``."""
    app = Application("routed")
    app.bag("src", codec=in_spec)
    for bag_id in outputs:
        app.bag(bag_id, codec=out_spec)
    app.task("route", ["src"], list(outputs), fn=None)
    runtime = StubRuntime(app.graph, chunk_size)
    src = runtime.store.get("src")
    for piece in pieces:
        src.insert(encode_chunk(piece, codec_for(in_spec)))
    src.seal()
    node = ExecutionGraph(app.graph).families["route"].original
    return runtime, TaskContext(runtime, node)


def router(salt):
    """A deterministic record -> target (None is the first output)."""
    targets = [None, *OUTPUTS[1:]]
    return lambda record: targets[zlib.crc32(repr((salt, record)).encode()) % len(targets)]


def per_record(ctx, route):
    for record in ctx.records():
        ctx.emit(route(record), record)


def batched(ctx, route):
    for batch in ctx.batches():
        groups = {}
        for record in batch:
            groups.setdefault(route(record), []).append(record)
        for target, records in groups.items():
            ctx.emit_many(target, records)


def outcome(task, route, *args, **kwargs):
    """(the exception type the task died of or None, bag id -> chunk list)."""
    runtime, ctx = context(*args, **kwargs)
    try:
        task(ctx, route)
        ctx.flush()
        raised = None
    except (ChunkOverflowError, SerdeError) as error:
        raised = type(error)
    return raised, {bag_id: runtime.store.get(bag_id).read_all() for bag_id in OUTPUTS}


def cut(records, points):
    """``records`` cut at ``points`` (fractions of its length) into pieces."""
    bounds = sorted({0, len(records), *(int(p * len(records)) for p in points)})
    return [records[a:b] for a, b in zip(bounds, bounds[1:])]


cases = specs.flatmap(
    lambda spec: st.tuples(st.just(spec), st.lists(values_of(spec), max_size=60))
)
cut_points = st.lists(st.floats(0, 1), max_size=8)


@settings(max_examples=150, deadline=None)
@given(
    cases,
    cut_points,
    st.integers(0, 3),
    st.integers(16, 256),
    st.booleans(),
)
def test_batch_form_leaves_the_same_chunks(case, points, salt, chunk_size, typed_input):
    spec, records = case
    in_spec = spec if typed_input else None
    args = (in_spec, spec, cut(records, points), chunk_size)
    raised, reference = outcome(per_record, router(salt), *args)
    got, chunks = outcome(batched, router(salt), *args)
    assert got is raised  # a record over the chunk bound fails both forms
    assert raised or chunks == reference
    _, flat = context(*args)
    _, chunked = context(*args)
    assert list(flat.records()) == [r for batch in chunked.batches() for r in batch]
    assert flat.records_in == chunked.records_in == len(records)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["u64", "bytes"]).flatmap(
        lambda spec: st.tuples(
            st.just(spec),
            st.lists(
                st.integers(-1, 2**64) if spec == "u64" else st.binary(max_size=90),
                max_size=60,
            ),
        )
    ),
    cut_points,
    st.integers(0, 3),
)
def test_errors_surface_from_emit_many_exactly_when_from_emit(case, points, salt):
    """Out-of-domain values (``SerdeError``) and records over the chunk
    bound (``ChunkOverflowError``), fed through a codec-less input bag."""
    spec, records = case
    args = (None, spec, cut(records, points))
    raised, reference = outcome(per_record, router(salt), *args)
    got, chunks = outcome(batched, router(salt), *args)
    assert got is raised
    for bag_id in OUTPUTS:
        # Each bag saw a prefix of one and the same record sequence.
        shorter, longer = sorted((chunks[bag_id], reference[bag_id]), key=len)
        assert longer[: len(shorter)] == shorter
        assert raised or shorter == longer


# -- the one cursor ----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 2**40), max_size=80),
    cut_points,
    st.lists(st.tuples(st.booleans(), st.integers(0, 12)), max_size=12),
    st.booleans(),
)
def test_interleaved_readers_deliver_every_record_once(records, points, script, typed):
    """Any interleaving of fresh ``records()`` / ``batches()`` calls, each
    dropped after a few steps, delivers the input in order, once."""
    _, ctx = context("u64" if typed else None, "u64", cut(records, points))
    delivered = []
    for per_record_form, steps in script:
        reader = ctx.records() if per_record_form else ctx.batches()
        for _, item in zip(range(steps), reader):
            delivered.extend([item] if per_record_form else item)
    delivered.extend(ctx.records())
    assert delivered == records
    assert ctx.records_in == len(records)


def test_two_live_readers_share_the_cursor():
    _, ctx = context("u64", "u64", [[1, 2, 3], [4, 5], [6]])
    first, second = ctx.records(), ctx.records()
    assert [next(first), next(second), next(first)] == [1, 2, 3]
    assert next(ctx.batches()) == [4, 5]
    assert list(second) == [6]
    assert list(first) == []


# -- ownership and targets ---------------------------------------------------------


@pytest.mark.parametrize("spec", [None, "u64"])
def test_emit_many_keeps_no_reference_to_its_argument(spec):
    runtime, ctx = context(spec, spec, [[5, 3, 9, 1, 7]])
    for batch in ctx.batches():
        ctx.emit_many(None, batch)
        batch.sort()
        batch.clear()
    ctx.flush()
    held = runtime.store.get("out.0").read_all()
    codec = codec_for(spec)
    assert [r for chunk in held for r in decode_chunk(chunk, codec)] == [5, 3, 9, 1, 7]


@pytest.mark.parametrize("emit", ["emit", "emit_many"])
def test_default_target_of_a_task_without_outputs_is_a_bag_error(emit):
    _, ctx = context("u64", "u64", [[1]], outputs=[])
    with pytest.raises(BagError, match="cannot emit to None"):
        if emit == "emit":
            ctx.emit(None, 1)
        else:
            ctx.emit_many(None, [1])


@pytest.mark.parametrize("emit", ["emit", "emit_many"])
def test_undeclared_target_is_refused_by_both_forms(emit):
    _, ctx = context("u64", "u64", [[1]])
    with pytest.raises(BagError, match="cannot emit to 'src'"):
        if emit == "emit":
            ctx.emit("src", 1)
        else:
            ctx.emit_many("src", [1])
