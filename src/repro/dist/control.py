"""The master's control state: one state, one transition function.

Everything the dist master's journal records — and nothing else — lives
in one :class:`ControlState`: the execution graph, which worker holds
which node, the finalized (compacted) bags, the demotion-epoch vector,
the outstanding condemnation, the wid and generation high-water marks,
and the spent fault injections and forced-clone schedules.
:meth:`ControlState.apply` is the only code that changes any of it. The
live master calls it on each record it has just journaled
(``DistRuntime._commit``) and a recovering master calls it on each
record it reads back, so the two hold the same state *by construction*:
there is no replay copy of a transition to keep in step with the live
one. :meth:`ControlState.snapshot_records` is its inverse — ``apply``
over its output rebuilds the state, which is what journal compaction
relies on and ``tests/test_dist_control.py`` checks — and the pure reads
the master's decisions need (the loss closure, the orphan scan, "is
this node still live") sit beside them.

Nothing here touches a socket, thread, clock, process, file or store: a
state is built, driven and compared in a test with none of them. The
master has one thread, so ``apply`` has one caller thread and no lock.

docs/ARCHITECTURE.md §5.4 tabulates each record kind's fields, effect
and write-ahead point.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import JournalCorrupt
from repro.model.execution_graph import (
    ExecutionGraph,
    ExecutionNode,
    NodeState,
    partial_bag_id,
)
from repro.model.graph import AppGraph

#: Every record kind a journal may hold. The live master commits all but
#: ``counter``, which only :meth:`ControlState.snapshot_records` emits.
RECORD_KINDS = (
    "spawn",
    "generation",
    "epochs",
    "assign",
    "release",
    "done",
    "clone",
    "counter",
    "forced",
    "condemn",
    "reset",
    "finalize",
    "shard_kill_armed",
    "kill_delivered",
)


class ControlState:
    """What the master knows that no worker or shard can tell it again."""

    def __init__(self, graph: AppGraph):
        self.graph = graph
        self.exec = ExecutionGraph(graph)
        self.exec.initially_ready()
        #: wid -> the node that worker holds; every value is RUNNING. The
        #: one assignment map: a worker stops holding its node when the
        #: node is ``done`` or the worker is ``release``d, nothing else.
        self.assignment: Dict[int, ExecutionNode] = {}
        #: Highest wid ever issued, so a recovered master continues the
        #: sequence: ``worker-<wid>`` names per-client storage state
        #: (fence registry, removal-seq dedup logs), and a recycled wid
        #: would silently alias a dead worker's.
        self.max_wid = -1
        #: Master incarnation: 0 originally, +1 per journal recovery. Scopes
        #: the store client id so a recovered master's chunk-id stamps and
        #: removal seqs can never collide with (and be deduplicated against)
        #: its dead predecessor's.
        self.generation = 0
        #: Master-authoritative demotion-epoch vector (replicated mode):
        #: bumped for a shard on each of its deaths, max-merged.
        self.epochs: Dict[int, int] = {}
        #: Families condemned by a loss closure whose ``reset`` has not
        #: been recorded yet. Nothing is dispatched while it is non-empty.
        self.condemned: Set[str] = set()
        #: Bags whose segments were compacted (spill mode): every consumer
        #: family finished, so their dead consumed frames were rewritten
        #: away. A compacted bag can no longer serve a rewind, so the loss
        #: closure escalates its loss to its producers.
        self.finalized: Set[str] = set()
        #: Fault injections already spent; a recovered master must not
        #: re-arm them and kill the same victim twice.
        self.shard_kill_spent = False
        self.kill_delivered = False
        #: Tasks whose ``forced_clones`` schedule has fired.
        self.forced_spent: Set[str] = set()

    # -- the transition function -------------------------------------------------

    def apply(self, record: Tuple) -> List[ExecutionNode]:
        """Fold one journal record in; returns the nodes it made READY.

        An unknown kind is corruption, not a newer dialect: one code
        version writes and reads a journal, and on the live path a
        misspelt kind would otherwise drop a transition silently.
        """
        kind = record[0]
        if kind not in RECORD_KINDS:
            raise JournalCorrupt("<record>", 0, f"unknown record kind {kind!r}")
        return getattr(self, "_apply_" + kind)(*record[1:]) or []

    def _apply_spawn(self, wid: int) -> None:
        self.max_wid = max(self.max_wid, wid)

    def _apply_generation(self, generation: int) -> None:
        self.generation = max(self.generation, generation)

    def _apply_epochs(self, vector: Dict[int, int]) -> None:
        for shard, epoch in vector.items():
            if epoch > self.epochs.get(shard, 0):
                self.epochs[shard] = epoch

    def _apply_assign(self, node_id: str, wid: Optional[int]) -> None:
        # ``wid`` is None only in a snapshot: a RUNNING node whose holder
        # was released (cancelled, or orphaned by an unwound handler).
        node = self.exec.nodes[node_id]
        node.state = NodeState.RUNNING
        if wid is not None:
            self.assignment[wid] = node

    def _apply_release(self, wid: int) -> None:
        self.assignment.pop(wid, None)

    def _apply_done(self, node_id: str) -> List[ExecutionNode]:
        holder = self.owner(node_id)
        if holder is not None:
            del self.assignment[holder]
        return self.exec.node_done(node_id)

    def _apply_clone(self, task_id: str, index: int) -> List[ExecutionNode]:
        return [self.exec.restore_clone(task_id, index)]

    def _apply_counter(self, task_id: str, counter: int) -> None:
        # Gaps above the surviving clones are clones a reset discarded;
        # their partial-bag indices must not be handed out again.
        family = self.exec.families[task_id]
        family.clone_counter = max(family.clone_counter, counter)

    def _apply_forced(self, task_id: str) -> None:
        # The one forced-clone rule: a schedule is spent when *it* fires.
        # A ``clone`` record never spends it — a heuristic grant for the
        # same task leaves the explicit schedule pending.
        self.forced_spent.add(task_id)

    def _apply_condemn(self, tasks: Iterable[str]) -> None:
        self.condemned.update(tasks)

    def _apply_reset(self, tasks: Iterable[str]) -> List[ExecutionNode]:
        # A reset closes only what it names: a condemnation that arrived
        # while its effects were being applied stays outstanding.
        tasks = sorted(tasks)
        self.exec.reset_families(tasks)
        self.condemned.difference_update(tasks)
        # The discarded outputs are fresh, never compacted incarnations;
        # rewinds against them are legal again.
        for task_id in tasks:
            self.finalized.difference_update(self.graph.tasks[task_id].outputs)
        # PENDING originals wait for their (also-reset) producers to
        # finish again; a later ``done`` re-readies them.
        originals = [self.exec.families[task_id].original for task_id in tasks]
        return [node for node in originals if node.state == NodeState.READY]

    def _apply_finalize(self, bag_id: str) -> None:
        self.finalized.add(bag_id)

    def _apply_shard_kill_armed(self) -> None:
        self.shard_kill_spent = True

    def _apply_kill_delivered(self) -> None:
        self.kill_delivered = True

    def snapshot_records(self) -> List[Tuple]:
        """This state as a compact record sequence: ``apply``'s inverse.

        Replaying the result into a fresh state reproduces this one: per
        family, clone grants in member-index order, the clone-counter
        high-water mark, done marks (members before the merge), then
        assigns of still-RUNNING nodes; then everything else a recovered
        master must know and cannot re-derive from the fleet.
        """
        records: List[Tuple] = []
        if self.max_wid >= 0:
            records.append(("spawn", self.max_wid))
        if self.generation:
            records.append(("generation", self.generation))
        holder = {node.node_id: wid for wid, node in self.assignment.items()}
        for task_id in sorted(self.exec.families):
            family = self.exec.families[task_id]
            for clone in family.clones:
                records.append(("clone", task_id, clone.member))
            if family.clone_counter:
                records.append(("counter", task_id, family.clone_counter))
            members = list(family.workers)
            if family.merge is not None:
                members.append(family.merge)
            for member in members:
                if member.state == NodeState.DONE:
                    records.append(("done", member.node_id))
            for member in members:
                if member.state == NodeState.RUNNING:
                    records.append(
                        ("assign", member.node_id, holder.get(member.node_id))
                    )
        if self.epochs:
            records.append(("epochs", dict(self.epochs)))
        for bag_id in sorted(self.finalized):
            records.append(("finalize", bag_id))
        if self.condemned:
            records.append(("condemn", sorted(self.condemned)))
        for task_id in sorted(self.forced_spent):
            records.append(("forced", task_id))
        if self.shard_kill_spent:
            records.append(("shard_kill_armed",))
        if self.kill_delivered:
            records.append(("kill_delivered",))
        return records

    # -- pure reads ----------------------------------------------------------------

    def live(self, node: ExecutionNode) -> bool:
        """``node`` is still what its holder should be running: not
        discarded by a reset, not finished, its family not condemned."""
        return (
            self.exec.nodes.get(node.node_id) is node
            and node.state == NodeState.RUNNING
            and node.task_id not in self.condemned
        )

    def owner(self, node_id: str) -> Optional[int]:
        """The wid holding ``node_id``, or None."""
        for wid, node in self.assignment.items():
            if node.node_id == node_id:
                return wid
        return None

    def ready_nodes(self) -> List[ExecutionNode]:
        return [n for n in self.exec.nodes.values() if n.state == NodeState.READY]

    def cancels_outstanding(self) -> bool:
        """A member of a condemned family is still held by a worker.

        Its cancel is unacknowledged — every acknowledgement (aborted,
        done, failed, or the holder's EOF) is a ``release`` — and the
        reset must wait: a member discarded unfenced is a zombie racing
        the family's replay for the same chunks.
        """
        return any(
            node.task_id in self.condemned for node in self.assignment.values()
        )

    def orphans(self) -> Set[str]:
        """Families with a RUNNING, uncondemned node that no worker holds.

        Nothing will ever report such a node done.
        """
        held = set(self.assignment.values())
        return {
            node.task_id
            for node in self.exec.nodes.values()
            if node.state == NodeState.RUNNING
            and node.task_id not in self.condemned
            and node not in held
        }

    def replica_bags(self, shard: int, router: Any) -> Tuple[Set[str], Dict[str, str]]:
        """Graph bags and live partial bags (-> owner task) with a copy on ``shard``."""
        graph_bags = {
            bag_id for bag_id in self.graph.bags if shard in router.replicas(bag_id)
        }
        partials: Dict[str, str] = {}
        for task_id, family in self.exec.families.items():
            if not family.original.spec.needs_merge:
                continue
            for index in range(1, family.clone_counter + 1):
                bag_id = partial_bag_id(task_id, index)
                if shard in router.replicas(bag_id):
                    partials[bag_id] = task_id
        return graph_bags, partials

    def loss_closure(
        self,
        lost_bags: Set[str],
        lost_partials: Dict[str, str],
        seed_tasks: Iterable[str] = (),
    ) -> Set[str]:
        """Families to reset after data loss.

        Fixpoint over bags: a lost or discarded bag pulls in every
        *started* producer family (finished ones included — their output
        is gone) and every started-but-unfinished consumer family (it may
        have consumed chunks that recovery will re-produce, so replaying
        it from a rewound input is the only consistent option). Resetting
        a family discards its outputs and partials, which feed back into
        the frontier; intact inputs of a reset family do NOT cascade
        upstream — replay just re-reads them. A source bag is no exception:
        its producers are the input tasks the dist engine derives, so a
        lost source bag resets every started input task of it.
        Worker death is the degenerate case: no lost bags, seeded with the
        dead worker's family (this subsumes the old shared-output-bag
        cascade, and unlike it can recover a finished co-producer).
        """
        to_reset: Set[str] = set()
        frontier: deque = deque()
        seen: Set[str] = set()

        def push(bag_id: str) -> None:
            if bag_id not in seen:
                seen.add(bag_id)
                frontier.append(bag_id)

        def started(family) -> bool:
            if family.finished:
                return True
            if any(
                w.state in (NodeState.RUNNING, NodeState.DONE)
                for w in family.workers
            ):
                return True
            merge = family.merge
            return merge is not None and merge.state != NodeState.PENDING

        def add_family(task_id: str) -> None:
            if task_id in to_reset:
                return
            to_reset.add(task_id)
            family = self.exec.families[task_id]
            spec = family.original.spec
            for bag_id in spec.outputs:
                push(bag_id)
            if spec.needs_merge:
                for index in range(1, family.clone_counter + 1):
                    push(partial_bag_id(task_id, index))
            for bag_id in spec.inputs:
                # A finalized (compacted) input physically dropped its
                # consumed frames and cannot serve the replay's rewind:
                # its loss escalates upstream exactly like a lost bag,
                # re-producing it from scratch.
                if bag_id in self.finalized:
                    push(bag_id)

        for bag_id in sorted(lost_bags):
            push(bag_id)
        for bag_id in sorted(lost_partials):
            push(bag_id)
        for task_id in seed_tasks:
            add_family(task_id)

        while frontier:
            bag_id = frontier.popleft()
            if bag_id in self.graph.bags:
                for producer in self.graph.producers_of(bag_id):
                    if started(self.exec.families[producer.task_id]):
                        add_family(producer.task_id)
                for task_id, spec in self.graph.tasks.items():
                    if bag_id not in spec.inputs:
                        continue
                    family = self.exec.families[task_id]
                    if started(family) and not family.finished:
                        add_family(task_id)
            else:
                # A partial bag: only its owner family cares. Partials of a
                # *finished* family were already folded into the real
                # output, so their loss is harmless.
                owner = lost_partials.get(bag_id)
                if owner is None:
                    continue  # pushed by its own family's add_family
                family = self.exec.families[owner]
                if started(family) and not family.finished:
                    add_family(owner)
        return to_reset
