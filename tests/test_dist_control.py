"""The dist master's control state, tested with no process, file or tracer.

``repro.dist.control.ControlState`` is everything the master journals,
and ``apply(record)`` is the only code that changes it — the live master
and journal replay run the same function. That makes three things
checkable by construction, under Hypothesis, with a scripted fake
scheduler standing in for the fleet (the pattern of
``tests/test_property_execution_graph.py``):

(a) replaying any prefix of a live record sequence into a fresh state
    equals the live state at that prefix;
(b) cutting anywhere, ``snapshot_records()`` plus the tail replays to the
    same state — ``apply ∘ snapshot_records = id``, which journal
    compaction relies on;
(c) ``loss_closure``'s result is *closed* in the sense
    ``ExecutionGraph.reset_families`` demands of its caller.

All three run over the graphs the master drives: the application's plus
the input tasks that fill its source bags (``with_input_tasks``).

Beside them: the two live-vs-replay divergences the one-function design
removed (a ``reset`` that closed condemnations it never applied; a
replayed heuristic clone grant spending a forced-clone schedule), the
record-kind table, and ``ast`` pins that keep ``runtime.py`` a reader of
control state and ``control.py`` free of sockets, threads and clocks.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_hashjoin_local
from repro.dist import DistRuntime, control, journal, runtime
from repro.dist.control import RECORD_KINDS, ControlState
from repro.dist.runtime import input_task_id, with_input_tasks
from repro.errors import JournalCorrupt
from repro.model import Application
from repro.model.execution_graph import NodeKind, NodeState, partial_bag_id


def chain_graph():
    """source -> t0 -> t1(merge) -> t2 -> t3(merge): clones, merges, depth."""
    app = Application("chain")
    bags = [app.bag(f"b{i}") for i in range(5)]
    for i in range(4):
        app.task(
            f"t{i}", [bags[i]], [bags[i + 1]], merge="sum" if i % 2 else None
        )
    return with_input_tasks(app.graph, 2, {})


def hashjoin_graph():
    return with_input_tasks(build_hashjoin_local(partitions=2).graph, 2, {})


GRAPHS = {"chain": chain_graph, "hashjoin": hashjoin_graph}


def view(state):
    """Everything a ControlState holds, as plain comparable data."""
    nodes = {
        node_id: (
            node.kind,
            node.state,
            node.member,
            node.outputs,
            node.merge_inputs,
        )
        for node_id, node in state.exec.nodes.items()
    }
    families = {
        task_id: (
            [clone.node_id for clone in family.clones],
            family.merge.node_id if family.merge is not None else None,
            family.finished,
            family.clone_counter,
        )
        for task_id, family in state.exec.families.items()
    }
    for wid, node in state.assignment.items():
        assert state.exec.nodes[node.node_id] is node, (wid, node)
    return {
        "nodes": nodes,
        "families": families,
        "complete": {b for b in state.graph.bags if state.exec.bag_complete(b)},
        "assignment": {wid: n.node_id for wid, n in state.assignment.items()},
        "max_wid": state.max_wid,
        "generation": state.generation,
        "epochs": dict(state.epochs),
        "condemned": set(state.condemned),
        "finalized": set(state.finalized),
        "shard_kill_spent": state.shard_kill_spent,
        "kill_delivered": state.kill_delivered,
        "forced_spent": set(state.forced_spent),
    }


def started(family):
    """The test's own reading of "this family has run": the oracle for (c)."""
    if family.finished:
        return True
    if any(w.state in (NodeState.RUNNING, NodeState.DONE) for w in family.workers):
        return True
    return family.merge is not None and family.merge.state != NodeState.PENDING


def clone_partials(state):
    """Every partial bag that can exist (-> owner task): one per clone index
    ever granted — member 0 writes the task's output bag, not a partial."""
    return {
        partial_bag_id(task_id, index): task_id
        for task_id, family in state.exec.families.items()
        if family.original.spec.needs_merge
        for index in range(1, family.clone_counter + 1)
    }


def assert_closed(state, lost_bags, lost_partials, to_reset):
    """Every started co-producer and unfinished started consumer of a
    discarded bag is in ``to_reset``; a lost source bag resets every
    started input task of it."""
    graph, families = state.graph, state.exec.families
    discarded = set(lost_bags)
    for task_id in to_reset:
        spec = graph.tasks[task_id]
        discarded.update(spec.outputs)
        # A compacted input cannot serve the replay's rewind.
        discarded.update(b for b in spec.inputs if b in state.finalized)
    for task_id, spec in graph.tasks.items():
        if not spec.inputs and spec.outputs[0] in discarded:
            assert task_id in to_reset or not started(families[task_id]), task_id
    for bag_id in discarded & set(graph.bags):
        for producer in graph.producers_of(bag_id):
            if started(families[producer.task_id]):
                assert producer.task_id in to_reset, (bag_id, producer.task_id)
        for task_id, spec in graph.tasks.items():
            family = families[task_id]
            if bag_id in spec.inputs and started(family) and not family.finished:
                assert task_id in to_reset, (bag_id, task_id)
    for bag_id, owner in lost_partials.items():
        if started(families[owner]) and not families[owner].finished:
            assert owner in to_reset, (bag_id, owner)


class FakeScheduler:
    """A scripted stand-in for the fleet, driving one live ControlState.

    Each step turns the next integers of the script into one enabled
    action — spawn, assign, clone (heuristic or forced), done (+ input
    finalization), a worker failure, a shard loss, a cancel ack, a reset
    of the *oldest* outstanding condemnation (so a later, nested one
    survives it), or a bookkeeping record — and commits the records the
    real master would, in its order. ``records``/``views`` are the live
    sequence and the live state after each record.
    """

    MAX_WORKERS = 3

    def __init__(self, graph, script):
        self.state = ControlState(graph)
        self.script = iter(script)
        self.records = []
        self.views = [view(self.state)]
        self.idle = []
        #: Outstanding condemnations, oldest first, as committed.
        self.batches = []

    def commit(self, *record):
        self.state.apply(record)
        self.records.append(record)
        self.views.append(view(self.state))

    def draw(self, options):
        """The script's next choice among ``options``; StopIteration ends
        the run wherever the script runs out."""
        return options[next(self.script) % len(options)]

    def condemn(self, lost_bags=(), lost_partials=None, seeds=()):
        lost_bags, lost_partials = set(lost_bags), dict(lost_partials or {})
        to_reset = self.state.loss_closure(lost_bags, lost_partials, seeds)
        assert set(seeds) <= to_reset
        assert_closed(self.state, lost_bags, lost_partials, to_reset)
        if to_reset:
            self.commit("condemn", sorted(to_reset))
            self.batches.append(sorted(to_reset))

    # -- actions: each returns False when it is not enabled -----------------

    def spawn(self):
        if self.state.max_wid + 1 >= self.MAX_WORKERS:
            return False
        self.commit("spawn", self.state.max_wid + 1)
        self.idle.append(self.state.max_wid)

    def assign(self):
        ready = self.state.ready_nodes()
        if not ready or not self.idle or self.batches:
            return False
        self.commit("assign", self.draw(ready).node_id, self.idle.pop(0))

    def clone(self):
        families = self.state.exec.families
        running = sorted(
            task_id
            for task_id, family in families.items()
            if not family.finished
            # As the master: an input task reads no bag to share.
            and family.original.stream_input is not None
            and task_id not in self.state.condemned
            and any(w.state == NodeState.RUNNING for w in family.workers)
            and len(family.clones) < 2
        )
        if not running:
            return False
        task_id = self.draw(running)
        if self.draw([False, True]) and task_id not in self.state.forced_spent:
            self.commit("forced", task_id)
        self.commit("clone", task_id, families[task_id].clone_counter + 1)

    def done(self):
        holders = sorted(
            wid for wid, n in self.state.assignment.items() if self.state.live(n)
        )
        if not holders:
            return False
        wid = self.draw(holders)
        node = self.state.assignment[wid]
        self.commit("done", node.node_id)
        self.idle.append(wid)
        family = self.state.exec.families[node.task_id]
        if family.finished and self.draw([False, True]):
            for bag_id in family.original.spec.inputs:
                if bag_id not in self.state.finalized:
                    self.commit("finalize", bag_id)

    def fail(self):
        """A worker dies (or its task hits a storage blip) under its node."""
        if not self.state.assignment:
            return False
        wid = self.draw(sorted(self.state.assignment))
        node = self.state.assignment[wid]
        self.commit("release", wid)
        self.idle.append(wid)
        self.condemn(seeds=[node.task_id] if self.state.live(node) else [])

    def lose(self):
        """A shard dies: an arbitrary set of bags has no surviving copy."""
        graph_bags = sorted(self.state.graph.bags)
        partials = clone_partials(self.state)
        mask = next(self.script, 0)
        lost = [b for i, b in enumerate(graph_bags) if mask >> i & 1]
        lost_partials = {
            b: partials[b]
            for i, b in enumerate(sorted(partials))
            if mask >> (i + len(graph_bags)) & 1
        }
        self.condemn(lost, lost_partials)

    def ack(self):
        """A cancelled member acknowledges: aborted, or its worker's EOF."""
        holders = sorted(
            wid
            for wid, node in self.state.assignment.items()
            if node.task_id in self.state.condemned
        )
        if not holders:
            return False
        wid = self.draw(holders)
        self.commit("release", wid)
        self.idle.append(wid)

    def reset(self):
        if not self.batches or self.state.cancels_outstanding():
            return False
        self.commit("reset", self.batches.pop(0))

    def bookkeeping(self):
        kind = self.draw(["epochs", "generation", "armed", "killed"])
        number = next(self.script, 0)
        if kind == "epochs":
            vector = dict(self.state.epochs)
            vector[number % 3] = max(vector.values(), default=0) + 1
            self.commit("epochs", vector)
        elif kind == "generation":
            self.commit("generation", self.state.generation + 1)
        elif kind == "armed":
            self.commit("shard_kill_armed")
        elif kind == "killed":
            self.commit("kill_delivered")

    ACTIONS = (
        spawn, assign, done, clone, assign, done, ack, reset, fail,
        assign, done, lose, ack, reset, bookkeeping,
    )

    def run(self):
        try:
            while True:
                # The drawn action, or the next enabled one after it
                # (bookkeeping always is): no step of the script is wasted.
                first = next(self.script)
                for offset in range(len(self.ACTIONS)):
                    action = self.ACTIONS[(first + offset) % len(self.ACTIONS)]
                    if action(self) is not False:
                        break
        except StopIteration:
            return self


scripts = st.lists(
    st.integers(min_value=0, max_value=2**16), min_size=20, max_size=200
)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
class TestLiveEqualsReplay:
    @given(script=scripts)
    @settings(max_examples=80, deadline=None)
    def test_replaying_any_prefix_equals_the_live_state(self, graph_name, script):
        live = FakeScheduler(GRAPHS[graph_name](), script).run()
        fresh = ControlState(GRAPHS[graph_name]())
        assert view(fresh) == live.views[0]
        for index, record in enumerate(live.records):
            fresh.apply(record)
            assert view(fresh) == live.views[index + 1], (index, record)

    @given(script=scripts)
    @settings(max_examples=80, deadline=None)
    def test_snapshot_plus_tail_replays_to_the_same_state(self, graph_name, script):
        live = FakeScheduler(GRAPHS[graph_name](), script).run()
        prefix = ControlState(GRAPHS[graph_name]())
        for cut in range(len(live.records) + 1):
            snapshot = prefix.snapshot_records()
            assert {record[0] for record in snapshot} <= set(RECORD_KINDS)
            compacted = ControlState(GRAPHS[graph_name]())
            for record in snapshot:
                compacted.apply(record)
            assert view(compacted) == live.views[cut], (cut, snapshot)
            for record in live.records[cut:]:
                compacted.apply(record)
            assert view(compacted) == live.views[-1], cut
            if cut < len(live.records):
                prefix.apply(live.records[cut])

    @given(script=scripts)
    @settings(max_examples=80, deadline=None)
    def test_loss_closure_is_closed_and_resets_stay_consistent(
        self, graph_name, script
    ):
        # ``FakeScheduler.condemn`` asserts closedness on every closure it
        # computes — over running, finished, cloned, merged and already
        # condemned families, with finalized inputs escalating. What the
        # closedness buys: however resets interleave, a bag is complete
        # exactly when all of its producers finished — a source bag's being
        # its input tasks.
        live = FakeScheduler(GRAPHS[graph_name](), script).run()
        graph = live.state.graph
        for snapshot in live.views:
            for bag_id in graph.bags:
                finished = all(
                    snapshot["families"][p.task_id][2]
                    for p in graph.producers_of(bag_id)
                )
                assert (bag_id in snapshot["complete"]) == finished, bag_id


class _Everywhere:
    """A router placing every bag on shard 0."""

    @staticmethod
    def replicas(bag_id):
        return [0]


class _PartialWatcher(FakeScheduler):
    """Checks the partial-bag set after every record the scheduler commits."""

    def commit(self, *record):
        super().commit(*record)
        _graph_bags, partials = self.state.replica_bags(0, _Everywhere)
        assert partials == clone_partials(self.state)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@given(script=scripts)
@settings(max_examples=40, deadline=None)
def test_partial_bags_are_the_clones_alone(graph_name, script):
    # Member 0 writes the task's output bag, so there is no partial bag 0:
    # in every reachable state a family's partials are numbered from 1, and
    # a family that never cloned has none to re-replicate, lose or discard.
    _PartialWatcher(GRAPHS[graph_name](), script).run()


class TestOneRulePerRecord:
    def test_a_reset_closes_only_what_it_applied(self):
        # What a shard death *inside* a recovery apply journals: a second
        # condemnation lands before the first one's reset. The reset must
        # leave it outstanding (the parent's replay arm cleared everything
        # accumulated, while its live path swapped out only what it
        # applied — a recovered master forgot B's reset).
        state = ControlState(hashjoin_graph())
        source = state.graph.tasks["partition.s"].stream_input
        fill = [input_task_id(source, part) for part in range(2)]
        for record in [
            ("spawn", 0),
            ("spawn", 1),
            ("assign", "partition.r", 0),
            ("assign", "partition.s", 1),
            ("release", 0),
            ("condemn", ["partition.r"]),
            ("release", 1),
            ("condemn", ["partition.s", *fill]),
            ("reset", ["partition.r"]),
        ]:
            state.apply(record)
        assert state.condemned == {"partition.s", *fill}
        state.apply(("reset", ["partition.s", *fill]))
        assert state.condemned == set()

    def test_a_reset_unfinalizes_what_it_discards_and_refills(self):
        # A compacted input cannot serve a rewind, so losing t1's output
        # escalates through its finalized input to t0 and on through the
        # finalized source to the input tasks that refill it; the fresh
        # incarnations the reset births were never compacted.
        state = ControlState(chain_graph())
        fill = [input_task_id("b0", part) for part in range(2)]
        for task_id in fill:
            state.apply(("assign", task_id, 0))
            state.apply(("done", task_id))
        for task_id, bag_id in (("t0", "b0"), ("t1", "b1")):
            state.apply(("assign", task_id, 0))
            state.apply(("done", task_id))
            state.apply(("finalize", bag_id))
        to_reset = state.loss_closure({"b2"}, {})
        assert to_reset == {"t0", "t1", *fill}
        state.apply(("condemn", sorted(to_reset)))
        state.apply(("reset", sorted(to_reset)))
        assert state.finalized == set()

    def test_only_the_forced_schedule_spends_the_forced_schedule(self):
        # The live rule, written once: a heuristic grant leaves an explicit
        # forced_clones schedule pending (the parent's replay spent it on
        # any replayed grant, so a recovered master skipped the schedule).
        state = ControlState(chain_graph())
        state.apply(("assign", "t0", 0))
        state.apply(("clone", "t0", 1))
        assert "t0" not in state.forced_spent
        state.apply(("forced", "t0"))
        state.apply(("clone", "t0", 2))
        assert state.forced_spent == {"t0"}
        replayed = ControlState(chain_graph())
        for record in state.snapshot_records():
            replayed.apply(record)
        assert replayed.forced_spent == {"t0"}

    def test_unknown_record_kind_is_a_typed_error(self):
        state = ControlState(chain_graph())
        with pytest.raises(JournalCorrupt, match="unknown record kind 'asign'"):
            state.apply(("asign", "t0", 0))

    def test_record_kind_table_matches_apply_and_the_master(self):
        handled = {
            name[len("_apply_"):]
            for name in vars(ControlState)
            if name.startswith("_apply_")
        }
        assert handled == set(RECORD_KINDS)
        assert len(RECORD_KINDS) == len(set(RECORD_KINDS))
        source = inspect.getsource(runtime)
        committed = set(re.findall(r'_commit\(\s*\(\s*"([a-z_]+)"', source))
        # Every commit names its kind literally, and every kind is known;
        # ``counter`` exists only in snapshots.
        assert len(re.findall(r"_commit\(", source)) - 1 == len(
            re.findall(r'_commit\(\s*\(\s*"', source)
        )
        assert committed == set(RECORD_KINDS) - {"counter"}


class TestLiveShape:
    def test_condemnation_arriving_mid_apply_is_not_closed_by_it(self, monkeypatch):
        # A shard dying under the reset's own storage effects condemns
        # more (and may undo effects already applied). That reset must not
        # close the newcomer: it commits nothing, and the effects run
        # again over the union — here the lost source bag's input tasks,
        # whose output is discarded and which rewind nothing.
        rt = DistRuntime(build_hashjoin_local(partitions=2), workers=2, shards=2)
        source = rt.graph.tasks["partition.s"].stream_input
        fill = [input_task_id(source, part) for part in range(2)]
        effects, commits = [], []

        class Bag:
            def __init__(self, bag_id):
                self.bag_id = bag_id

            def discard(self):
                effects.append(("discard", self.bag_id))

            def rewind(self):
                effects.append(("rewind", self.bag_id))

        class Store:
            get = staticmethod(Bag)

        def retrying(fn):
            if not effects:  # the first effect: a shard dies under it
                rt.shard_deaths += 1
                rt._condemn({source}, {}, ("partition.s",))
            return fn()

        real_commit = rt._commit
        monkeypatch.setattr(
            rt, "_commit", lambda record: commits.append(record) or real_commit(record)
        )
        monkeypatch.setattr(rt, "_store", Store())
        monkeypatch.setattr(rt, "_retrying", retrying)
        for task_id in fill:
            rt._commit(("assign", task_id, 0))
            rt._commit(("done", task_id))
        rt._commit(("assign", "partition.r", 0))
        rt._commit(("assign", "partition.s", 1))
        rt._commit(("release", 0))
        rt._commit(("release", 1))
        rt._condemn(set(), {}, ("partition.r",))
        assert rt.control.condemned == set()
        resets = [record for record in commits if record[0] == "reset"]
        assert resets == [("reset", sorted(["partition.r", "partition.s", *fill]))]
        assert {("discard", "s.0"), ("discard", "s.1"), ("discard", source)} <= set(
            effects
        )
        rewound = {bag_id for kind, bag_id in effects if kind == "rewind"}
        assert rewound == {"relation.r", source}
        assert rt.family_resets == 4


def _attribute_chain(node):
    """``a.b[c].d`` -> ["d", "b"]: attribute names, outermost first."""
    parts = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
        node = node.value
    return parts


def _imported(module):
    """Every module ``module`` imports, and each one's top-level package."""
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    return {name.split(".")[0] for name in imported} | imported


class TestPins:
    FORBIDDEN_IMPORTS = {
        "socket", "threading", "multiprocessing", "queue", "time", "os",
        "repro.dist.client", "repro.dist.server", "repro.dist.worker",
        "repro.dist.journal",
    }
    GRAPH_MUTATORS = {"add_clone", "restore_clone", "node_done", "reset_families"}
    GRAPH_FIELDS = {"state", "member", "clone_counter"}
    MUTATING_METHODS = {
        "add", "discard", "remove", "pop", "popitem", "clear", "update",
        "setdefault", "append", "extend", "difference_update",
    }

    def test_control_imports_no_socket_thread_clock_process_or_store(self):
        assert not _imported(control) & self.FORBIDDEN_IMPORTS

    def test_runtime_changes_control_state_only_through_commit(self):
        tree = ast.parse(inspect.getsource(runtime))
        offences = []
        for node in ast.walk(tree):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            for target in targets:
                for leaf in ast.walk(target):
                    if not isinstance(leaf, ast.Attribute):
                        continue
                    # ``node.state = ...``; ``self.control.finalized[x] = ...``
                    # (``self.control = ControlState(...)`` itself is fine).
                    if (
                        leaf.attr in self.GRAPH_FIELDS
                        or "control" in _attribute_chain(leaf)[1:]
                    ):
                        offences.append((leaf.lineno, ast.unparse(target)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                chain = _attribute_chain(node.func)
                if chain[0] in self.GRAPH_MUTATORS or (
                    chain[0] in self.MUTATING_METHODS and "control" in chain[1:]
                ):
                    offences.append((node.lineno, ast.unparse(node.func)))
        assert offences == []

    def test_runtime_reads_bag_content_only_for_the_result_snapshot(self):
        # ROADMAP 2(a): until the result snapshot no chunk crosses the
        # master — an aggregation's value is written by the worker that
        # computed it, never read back and re-inserted here.
        readers = {"iter_bag_chunks", "emit_value", "bag_records", "read_page"}
        tree = ast.parse(inspect.getsource(runtime))
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert imported & readers == {"bag_records"}

        def uses(node):
            if isinstance(node, ast.ClassDef) and node.name == "DistResult":
                return
            if isinstance(node, ast.FunctionDef) and node.name == "_snapshot":
                return
            if isinstance(node, ast.Name) and node.id in readers:
                yield node.lineno, node.id
            if isinstance(node, ast.Attribute) and node.attr in readers:
                yield node.lineno, node.attr
            for child in ast.iter_child_nodes(node):
                yield from uses(child)

        assert list(uses(tree)) == []

    def test_runtime_writes_no_bag_content(self):
        # The other end of the data plane: a source bag is filled by its
        # input tasks on the workers and re-produced by resetting them, so
        # the master neither encodes a source chunk nor opens a writer.
        tree = ast.parse(inspect.getsource(runtime))
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert not imported & {"source_chunks", "insert_chunks", "refill_bag"}
        writers = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "writer"
        ]
        assert writers == []

    def test_no_module_imports_the_adaptive_loop(self):
        # One way to choose ``b`` (``batch_requests``) and one clone gate
        # (``clone_min_chunks``): no module reaches a closed-loop policy,
        # and the journal carries no controller state.
        package = Path(inspect.getsourcefile(control)).parents[1]
        importers = []
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                    if node.module == "repro.dist":
                        modules += [f"repro.dist.{a.name}" for a in node.names]
                else:
                    continue
                if "repro.dist.adaptive" in modules:
                    importers.append(f"{path.relative_to(package)}:{node.lineno}")
        assert importers == []
        assert not {"adaptive", "governor"} & set(RECORD_KINDS)

    def test_the_parent_surface_did_not_move(self):
        # No knob came with the refactor: same constructor, and replay is
        # a loop over apply, not a second set of per-kind arms.
        parameters = list(inspect.signature(DistRuntime.__init__).parameters)
        assert parameters[:4] == ["self", "app", "workers", "shards"]
        assert parameters[-2:] == ["snapshot_bags", "tracer"]
        assert len(parameters) == 27
        assert "adaptive" not in parameters
        assert not hasattr(DistRuntime, "_replay")
        assert "self.control.apply(record)" in inspect.getsource(DistRuntime.resume)

    def test_the_master_is_one_thread(self):
        # ROADMAP 2(b): ``apply`` and the journal have one caller thread.
        # The event loop selects on worker pipes and shard sentinels itself:
        # no reader or monitor thread, no queue between them and the loop.
        assert not _imported(runtime) & {"threading", "queue"}
        assert "threading" not in _imported(journal)
        called = {
            getattr(node.func, "attr", getattr(node.func, "id", None))
            for node in ast.walk(ast.parse(inspect.getsource(runtime)))
            if isinstance(node, ast.Call)
        }
        assert "Thread" not in called

    def test_a_chunk_is_bytes_everywhere_outside_serde(self):
        # One chunk representation: a codec-less bag's codec is
        # ``codec_for(None)``, so nothing above serde forks on "has this bag
        # a codec" or "is this chunk bytes", and no knob sizes a record list.
        fork = re.compile(
            r"codec_spec is None|isinstance\((chunk|ref), \(?bytes|records_per_chunk"
        )
        package = Path(inspect.getsourcefile(control)).parents[1]
        offences = [
            f"{path.relative_to(package)}:{number}"
            for path in sorted(package.rglob("*.py"))
            if "serde" not in path.relative_to(package).parts
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if fork.search(line)
        ]
        assert offences == []


def test_merge_nodes_and_originals_are_member_zero():
    # A clone's index is ExecutionNode.member, set where the clone is made;
    # it names the clone's partial bag on the worker.
    state = ControlState(chain_graph())
    state.apply(("assign", "t0", 0))
    state.apply(("done", "t0"))
    state.apply(("assign", "t1", 0))
    (clone,) = state.apply(("clone", "t1", 1))
    assert clone.kind == NodeKind.CLONE and clone.member == 1
    assert clone.outputs == (partial_bag_id("t1", 1),)
    family = state.exec.families["t1"]
    assert family.original.member == 0 and family.merge.member == 0
