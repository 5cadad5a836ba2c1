"""Tests for the application model: graphs, costs, and validation."""

import pytest

from repro.errors import GraphError
from repro.model import Application, TaskCost
from repro.model.graph import AppGraph, BagSpec, TaskSpec


def _mini_app():
    app = Application("mini")
    src = app.bag("src")
    mid = app.bag("mid")
    out = app.bag("out")
    app.task("t1", [src], [mid], phase="p1")
    app.task("t2", [mid], [out], merge="sum", phase="p2")
    return app


class TestGraph:
    def test_source_and_sink_bags(self):
        graph = _mini_app().graph
        assert graph.source_bags() == ["src"]
        assert graph.sink_bags() == ["out"]

    def test_topological_order(self):
        graph = _mini_app().graph
        order = graph.topological_tasks()
        assert order.index("t1") < order.index("t2")

    def test_duplicate_bag_rejected(self):
        app = Application("dup")
        app.bag("x")
        with pytest.raises(GraphError):
            app.bag("x")

    def test_duplicate_task_rejected(self):
        app = Application("dup")
        app.bag("a")
        app.bag("b")
        app.task("t", ["a"], ["b"])
        with pytest.raises(GraphError):
            app.task("t", ["a"], ["b"])

    def test_unknown_bag_rejected(self):
        app = Application("bad")
        app.bag("a")
        with pytest.raises(GraphError):
            app.task("t", ["a"], ["missing"])

    def test_cycle_detected(self):
        graph = AppGraph("cycle")
        graph.add_bag(BagSpec("a"))
        graph.add_bag(BagSpec("b"))
        graph.add_task(TaskSpec("t1", ("a",), ("b",)))
        graph.add_task(TaskSpec("t2", ("b",), ("a",)))
        with pytest.raises(GraphError, match="cycle"):
            graph.validate()

    def test_two_consumers_of_one_bag_rejected(self):
        graph = AppGraph("race")
        for bag in ("a", "b", "c"):
            graph.add_bag(BagSpec(bag))
        graph.add_task(TaskSpec("t1", ("a",), ("b",)))
        graph.add_task(TaskSpec("t2", ("a",), ("c",)))
        with pytest.raises(GraphError, match="consumed by multiple"):
            graph.validate()

    def test_multiple_producers_allowed(self):
        graph = AppGraph("fanin")
        for bag in ("a", "b", "shared", "out"):
            graph.add_bag(BagSpec(bag))
        graph.add_task(TaskSpec("t1", ("a",), ("shared",)))
        graph.add_task(TaskSpec("t2", ("b",), ("shared",)))
        graph.add_task(TaskSpec("t3", ("shared",), ("out",)))
        graph.validate()
        assert len(graph.producers_of("shared")) == 2

    def test_task_needs_input(self):
        # An application cannot declare an input task: source bags are
        # filled from the run's inputs. The spec itself allows one (the
        # dist engine derives them), and then streams nothing.
        app = Application("no-input")
        app.bag("out")
        with pytest.raises(GraphError, match="needs at least one input"):
            app.task("t", [], ["out"])
        assert TaskSpec("t", (), ("out",)).stream_input is None

    def test_stream_and_side_inputs(self):
        spec = TaskSpec("t", ("stream", "side1", "side2"), ("out",))
        assert spec.stream_input == "stream"
        assert spec.side_inputs == ("side1", "side2")

    def test_empty_graph_invalid(self):
        with pytest.raises(GraphError):
            AppGraph("empty").validate()


class TestTaskCost:
    def test_uniform_weights_default(self):
        cost = TaskCost()
        weights = cost.weights_for(["a", "b", "c", "d"])
        assert all(w == pytest.approx(0.25) for w in weights.values())

    def test_explicit_weights_normalized(self):
        cost = TaskCost(output_weights={"a": 3.0, "b": 1.0})
        weights = cost.weights_for(["a", "b"])
        assert weights == {"a": pytest.approx(0.75), "b": pytest.approx(0.25)}

    def test_zero_weight_everywhere_rejected(self):
        cost = TaskCost(output_weights={"other": 1.0})
        with pytest.raises(ValueError):
            cost.weights_for(["a"])

    def test_no_outputs(self):
        assert TaskCost().weights_for([]) == {}
