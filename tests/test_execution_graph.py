"""Tests for the execution graph: clones, merges, resets, replay."""

import pytest

from repro.errors import GraphError, SchedulingError
from repro.model import Application, ExecutionGraph
from repro.model.execution_graph import NodeKind, NodeState, partial_bag_id
from repro.model.graph import TaskSpec


def _app(merge="sum"):
    app = Application("exec")
    src = app.bag("src")
    mid = app.bag("mid")
    out = app.bag("out")
    app.task("t1", [src], [mid])
    app.task("t2", [mid], [out], merge=merge)
    return app


def test_initially_ready_is_source_consumers():
    graph = ExecutionGraph(_app().graph)
    ready = graph.initially_ready()
    assert [n.node_id for n in ready] == ["t1"]
    assert ready[0].state == NodeState.READY


def test_an_input_task_is_ready_at_start():
    # A task with no inputs produces a source bag: nothing to wait for,
    # while the bag's consumer waits for it like for any producer.
    graph = _app().graph
    graph.add_task(TaskSpec("fill", (), ("src",)))
    execution = ExecutionGraph(graph)
    ready = execution.initially_ready()
    assert [n.node_id for n in ready] == ["fill"]
    assert ready[0].stream_input is None
    assert not execution.bag_complete("src")
    assert [n.node_id for n in execution.node_done("fill")] == ["t1"]
    assert execution.bag_complete("src")


def test_downstream_ready_after_family_finishes():
    graph = ExecutionGraph(_app().graph)
    graph.initially_ready()
    newly = graph.node_done("t1")
    assert [n.node_id for n in newly] == ["t2"]
    assert graph.bag_complete("mid")


def test_clone_without_merge_shares_outputs():
    graph = ExecutionGraph(_app().graph)
    graph.initially_ready()
    clone = graph.add_clone("t1")
    assert clone.kind == NodeKind.CLONE
    assert clone.outputs == ("mid",)
    assert clone.stream_input == "src"
    assert graph.clone_count("t1") == 2


def test_clone_with_merge_redirects_to_partials():
    graph = ExecutionGraph(_app().graph)
    graph.initially_ready()
    graph.node_done("t1")
    graph.nodes["t2"].state = NodeState.RUNNING
    clone = graph.add_clone("t2")
    family = graph.families["t2"]
    assert family.merge is not None
    assert family.original.outputs == (partial_bag_id("t2", 0),)
    assert clone.outputs == (partial_bag_id("t2", 1),)
    assert family.merge.outputs == ("out",)
    assert set(family.merge.merge_inputs) == {
        partial_bag_id("t2", 0),
        partial_bag_id("t2", 1),
    }


def test_merge_becomes_ready_after_all_workers():
    graph = ExecutionGraph(_app().graph)
    graph.initially_ready()
    graph.node_done("t1")
    graph.nodes["t2"].state = NodeState.RUNNING
    clone = graph.add_clone("t2")
    assert graph.node_done("t2") == []  # clone still running
    newly = graph.node_done(clone.node_id)
    assert [n.node_id for n in newly] == ["t2.merge"]
    assert not graph.families["t2"].finished
    graph.node_done("t2.merge")
    assert graph.families["t2"].finished
    assert graph.all_done()


def test_family_without_clones_needs_no_merge():
    graph = ExecutionGraph(_app().graph)
    graph.initially_ready()
    graph.node_done("t1")
    graph.node_done("t2")
    assert graph.families["t2"].merge is None
    assert graph.all_done()


def test_cannot_clone_finished_family():
    graph = ExecutionGraph(_app().graph)
    graph.initially_ready()
    graph.node_done("t1")
    with pytest.raises(SchedulingError):
        graph.add_clone("t1")


def test_cannot_clone_pending_task():
    graph = ExecutionGraph(_app().graph)
    graph.initially_ready()
    with pytest.raises(SchedulingError):
        graph.add_clone("t2")  # t2 is PENDING until t1 finishes


def test_clone_allowed_when_original_done_but_clone_running():
    graph = ExecutionGraph(_app().graph)
    graph.initially_ready()
    first = graph.add_clone("t1")
    first.state = NodeState.RUNNING
    graph.node_done("t1")  # original done, clone still running
    second = graph.add_clone("t1")
    assert second.node_id == "t1.clone2"


def test_node_done_twice_rejected():
    graph = ExecutionGraph(_app().graph)
    graph.initially_ready()
    graph.node_done("t1")
    with pytest.raises(SchedulingError):
        graph.node_done("t1")


def test_reset_family_discards_clones_and_merge():
    graph = ExecutionGraph(_app().graph)
    graph.initially_ready()
    graph.node_done("t1")
    graph.nodes["t2"].state = NodeState.RUNNING
    clone = graph.add_clone("t2")
    discarded = graph.reset_family("t2")
    assert set(discarded) == {clone.node_id, "t2.merge"}
    family = graph.families["t2"]
    assert family.clones == [] and family.merge is None
    assert family.original.state == NodeState.READY
    assert family.original.outputs == ("out",)


def test_restore_clone_replays_in_order():
    graph = ExecutionGraph(_app().graph)
    graph.initially_ready()
    graph.node_done("t1")
    graph.nodes["t2"].state = NodeState.RUNNING
    original = graph.add_clone("t2")
    graph.add_clone("t2")
    # A recovering master rebuilds the same wiring from bag state.
    rebuilt = ExecutionGraph(_app().graph)
    rebuilt.initially_ready()
    rebuilt.node_done("t1")
    rebuilt.nodes["t2"].state = NodeState.RUNNING
    rebuilt.restore_clone("t2", 1)
    rebuilt.restore_clone("t2", 2)
    assert set(rebuilt.nodes) == set(graph.nodes)
    assert (
        rebuilt.families["t2"].merge.merge_inputs
        == graph.families["t2"].merge.merge_inputs
    )
    assert original.node_id in rebuilt.nodes


def test_restore_clone_allows_gaps_but_not_regression():
    graph = ExecutionGraph(_app().graph)
    graph.initially_ready()
    # Index 2 with index 1 missing is fine: clone 1 was discarded by a reset.
    clone = graph.restore_clone("t1", 2)
    assert clone.node_id == "t1.clone2"
    with pytest.raises(SchedulingError):
        graph.restore_clone("t1", 1)  # counter already beyond 1
    with pytest.raises(SchedulingError):
        graph.restore_clone("t1", 2)  # duplicate index


def test_merge_task_needs_single_output():
    app = Application("bad")
    src = app.bag("src")
    out1 = app.bag("out1")
    out2 = app.bag("out2")
    app.task("t", [src], [out1, out2], merge="sum")
    with pytest.raises(GraphError, match="exactly one"):
        ExecutionGraph(app.graph)
