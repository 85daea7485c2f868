"""Versioned plan epochs: transactional mutation of the shared DAG.

A registered query no longer owns one immutable subplan — it owns a
*sequence of plan epochs*. Every structural change to a
:class:`~repro.plan.stages.PlanDAG` (registration, deregistration, and
live re-optimization) happens through an :class:`EpochTransition`, which
is the only code in the repository allowed to touch the DAG's stage
tables (``order``, ``_by_fingerprint``, ``taps``), stage subscriber sets,
and edge lists (lint rule RL006 enforces this).

A transition diffs the old and new stage-fingerprint sets, *grafts*
unchanged shared stages (operator state and refcounts preserved — a
stage serving three queries keeps serving all three), builds only the
stages that are genuinely new, and retires orphans nobody subscribes to
anymore. Committing bumps the root's epoch counter and stamps every
surviving stage with the epoch that now owns it, so
``check_dag`` can audit cross-epoch invariants and a delivered frame's
provenance can be matched against exactly one epoch's stage set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..core.chunk import Chunk
from ..errors import PlanError
from ..obs.registry import get_registry, metrics_enabled
from ..obs.timeline import current_journal
from ..operators.base import BinaryOperator, Operator
from ..query import ast as q
from .ops import make_operator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .stages import PlanDAG, Stage

__all__ = ["EpochTransition", "PlanEpoch", "EpochSwapResult"]

_Sink = Callable[[Chunk], None]


def _source_of(plan: q.QueryNode) -> str | None:
    return plan.stream_id if isinstance(plan, q.StreamRef) else None


@dataclass(frozen=True)
class PlanEpoch:
    """One committed version of a query's physical plan."""

    root_id: int
    epoch: int
    plan: q.QueryNode | None
    fingerprints: frozenset[str]
    reason: str

    def describe(self) -> str:
        what = self.plan.describe() if self.plan is not None else "-"
        return f"q{self.root_id}@e{self.epoch} [{self.reason}] {what}"


@dataclass(frozen=True)
class EpochSwapResult:
    """What a live swap changed, for logs, traces, and tests."""

    root_id: int
    old_epoch: int
    new_epoch: int
    grafted: frozenset[str]  # stages carried over, state and refcounts intact
    added: frozenset[str]  # stages built fresh for the new epoch
    retired: frozenset[str]  # old-epoch stages nobody needs anymore
    stages: list["Stage"] = field(repr=False, default_factory=list)


class EpochTransition:
    """Single-use transaction that moves one query to its next plan epoch.

    The three verbs — :meth:`install` (first epoch), :meth:`swap`
    (re-plan a live query), :meth:`retire` (final teardown) — perform
    the structural edits; :meth:`commit` seals the transition and
    records the epoch bookkeeping. A transition that was never committed
    leaves the epoch counters untouched (the structural edits themselves
    are applied eagerly; callers commit in the same expression).
    """

    def __init__(self, dag: "PlanDAG", root_id: int, reason: str = "register") -> None:
        self.dag = dag
        self.root_id = root_id
        self.reason = reason
        self.old_epoch = dag.epoch_of.get(root_id, 0)
        self.new_epoch = self.old_epoch + 1
        self._committed = False
        self._plan: q.QueryNode | None = None
        self._stages: list["Stage"] = []
        self._closing = False

    # -- verbs --------------------------------------------------------------------

    def install(self, plan: q.QueryNode, sink: _Sink) -> list["Stage"]:
        """Wire a query's first epoch into the DAG, reusing shared subplans."""
        self._check_open(build=True)
        stages: list["Stage"] = []
        top = self._build(plan, stages)
        self._wire_terminal(top, _source_of(plan), sink)
        self._subscribe(stages)
        self._plan = plan
        return stages

    def install_operators(
        self,
        operators: Sequence[Operator | BinaryOperator],
        inputs: Sequence[str],
        sink: _Sink,
    ) -> list["Stage"]:
        """Wire a first epoch of hand-built operators, chained in order.

        The first operator reads the sources ``inputs`` (one per input
        side); each next one reads the one before. The stages have no
        plan node, so nothing is shared with them.
        """
        from .stages import Edge, Stage

        self._check_open(build=True)
        dag = self.dag
        stages: list["Stage"] = []
        for op in operators:
            stage = Stage(None, op, dag)
            if stages:
                stages[-1].outputs.append(Edge(stage=stage))
            else:
                sides: tuple[str | None, ...] = (
                    op.SIDES if isinstance(op, BinaryOperator) else (None,)
                )
                for side, source in zip(sides, inputs):
                    dag.taps.setdefault(source, []).append(Edge(stage=stage, side=side))
            dag.order.append(stage)
            stages.append(stage)
        self._wire_terminal(stages[-1] if stages else None, inputs[0], sink)
        self._subscribe(stages)
        return stages

    def swap(
        self, new_plan: q.QueryNode, sink: _Sink, old_stages: Iterable["Stage"]
    ) -> EpochSwapResult:
        """Replace a live query's plan, grafting every unchanged stage.

        The new plan is built *before* the old one is unwired, so any
        subplan the two epochs share is found by the fingerprint table
        and reused in place — its operator state, subscriber set, and
        fan-out edges survive the swap untouched.
        """
        self._check_open(build=True)
        old_stages = list(old_stages)
        old_fps = {s.node.fingerprint for s in old_stages}
        new_stages: list["Stage"] = []
        top = self._build(new_plan, new_stages)
        self._subscribe(new_stages)
        new_ids = {id(s) for s in new_stages}
        old_only = [s for s in old_stages if id(s) not in new_ids]
        # Old terminal out first, new terminal in last: a grafted old top
        # (the new plan may extend the old one) must not keep shipping
        # intermediate results to the sink.
        self._unwire_terminal(old_stages, sink)
        self._unsubscribe(old_only)
        retired = self._prune_dead(old_only)
        self._wire_terminal(top, _source_of(new_plan), sink)
        new_fps = {s.node.fingerprint for s in new_stages}
        self._plan = new_plan
        if metrics_enabled():
            get_registry().counter("repro_plan_epoch_swaps_total").inc()
        return EpochSwapResult(
            root_id=self.root_id,
            old_epoch=self.old_epoch,
            new_epoch=self.new_epoch,
            grafted=frozenset(old_fps & new_fps),
            added=frozenset(new_fps - old_fps),
            retired=frozenset(retired),
            stages=new_stages,
        )

    def retire(self, stages: Iterable["Stage"]) -> None:
        """Drop a query entirely: unsubscribe, then prune orphan stages."""
        self._check_open()
        stages = list(stages)
        self._unsubscribe(stages)
        self._prune_terminal_taps()
        self._prune_dead(stages)
        self._closing = True

    def commit(self) -> PlanEpoch | None:
        """Seal the transition: bump the epoch counter, stamp ownership."""
        self._check_open()
        self._committed = True
        dag = self.dag
        journal = current_journal()
        if self._closing:
            if journal is not None:
                journal.append(
                    "epoch-retire",
                    query=self.root_id,
                    epoch=self.old_epoch,
                    reason=self.reason,
                )
            dag.epoch_of.pop(self.root_id, None)
            return None
        if journal is not None:
            if self.old_epoch == 0:
                journal.append(
                    "epoch-install",
                    query=self.root_id,
                    epoch=self.new_epoch,
                    reason=self.reason,
                )
            else:
                # The link matches the flight recorder's epoch-swap pin
                # reason, so this entry clicks through to the capture.
                journal.append(
                    "epoch-swap",
                    query=self.root_id,
                    epoch=self.new_epoch,
                    reason=self.reason,
                    link=f"epoch-swap:e{self.old_epoch}->e{self.new_epoch}",
                )
        epoch = PlanEpoch(
            root_id=self.root_id,
            epoch=self.new_epoch,
            plan=self._plan,
            fingerprints=frozenset(
                s._node.fingerprint for s in self._stages if s._node is not None
            ),
            reason=self.reason,
        )
        dag.epoch_of[self.root_id] = self.new_epoch
        dag.epoch_history.setdefault(self.root_id, []).append(epoch)
        for stage in self._stages:
            stage.epochs[self.root_id] = self.new_epoch
        return epoch

    # -- structural edits (the only mutation site; see RL006) ---------------------

    def _check_open(self, build: bool = False) -> None:
        if self._committed:
            raise PlanError("epoch transition already committed")
        if build and self.dag._flushed:
            # Teardown after a flushed run is fine; growing new stages
            # into a drained network is not.
            raise PlanError("push network already flushed")

    def _subscribe(self, stages: list["Stage"]) -> None:
        """Subscribe the root to ``stages``; they are this epoch's stage set."""
        for stage in stages:
            stage.subscribers.add(self.root_id)
        self._stages = stages

    def _wire_terminal(self, top: "Stage | None", source: str | None, sink: _Sink) -> None:
        """Deliver ``top``'s output to ``sink``; with no stage, ``source``'s."""
        from .stages import Edge

        terminal = Edge(sink=sink, roots={self.root_id})
        if top is None:  # bare source scan (or provably empty query)
            if source is not None:
                self.dag.taps.setdefault(source, []).append(terminal)
        else:
            top.outputs.append(terminal)

    def _build(self, node: q.QueryNode, stages: list["Stage"]) -> "Stage | None":
        from .stages import Edge, Stage

        dag = self.dag
        if isinstance(node, (q.StreamRef, q.Empty)):
            return None
        if dag.share:
            existing = dag._by_fingerprint.get(node.fingerprint)
            # Fingerprints are a fast path; actual node equality decides.
            if existing is not None and existing.node == node:
                dag.stats.subplan_hits += 1
                if metrics_enabled():
                    get_registry().counter("repro_plan_subplan_hits_total").inc()
                if existing not in stages:
                    stages.append(existing)
                    for child_stage in self._collect_upstream(existing):
                        if child_stage not in stages:
                            stages.append(child_stage)
                return existing
        # Built before the inputs, so a node that cannot run (say, a
        # composition no canonicalizer resolved) fails before wiring them.
        op = make_operator(node)
        if isinstance(node, q.Compose):
            pairs: tuple[tuple[str | None, q.QueryNode], ...] = (
                ("left", node.left),
                ("right", node.right),
            )
        else:
            pairs = tuple((None, child) for child in node.children)
        built = [(side, child, self._build(child, stages)) for side, child in pairs]
        stage = Stage(node, op, dag)
        if dag.share:
            dag._by_fingerprint[node.fingerprint] = stage
        dag.order.append(stage)
        stages.append(stage)
        for side, child, child_stage in built:
            if isinstance(child, q.Empty):
                continue
            edge = Edge(stage=stage, side=side)
            if isinstance(child, q.StreamRef):
                dag.taps.setdefault(child.stream_id, []).append(edge)
            else:
                child_stage.outputs.append(edge)
        return stage

    def _collect_upstream(self, stage: "Stage") -> list["Stage"]:
        """Every stage feeding into ``stage`` (transitively)."""
        want = {id(stage)}
        out: list["Stage"] = []
        # dag.order is topological, so a reverse sweep finds producers.
        for candidate in reversed(self.dag.order):
            if any(
                edge.stage is not None and id(edge.stage) in want
                for edge in candidate.outputs
            ):
                want.add(id(candidate))
                out.append(candidate)
        return out

    def _unsubscribe(self, stages: Iterable["Stage"]) -> None:
        root_id = self.root_id
        for stage in stages:
            stage.subscribers.discard(root_id)
            stage.epochs.pop(root_id, None)
            stage.outputs = [
                edge
                for edge in stage.outputs
                if edge.stage is not None or (edge.roots.discard(root_id) or edge.roots)
            ]

    def _unwire_terminal(self, old_stages: Iterable["Stage"], sink: _Sink) -> None:
        """Detach the old epoch's terminal edge (called before re-wiring)."""
        root_id = self.root_id
        for stage in old_stages:
            stale = [
                e
                for e in stage.outputs
                if e.stage is None and e.sink is sink and root_id in e.roots
            ]
            for edge in stale:
                edge.roots.discard(root_id)
                if not edge.roots:
                    stage.outputs.remove(edge)
        self._prune_terminal_taps(sink=sink)

    def _prune_terminal_taps(self, sink: _Sink | None = None) -> None:
        root_id = self.root_id
        for stream_id, edges in list(self.dag.taps.items()):
            kept = []
            for edge in edges:
                if edge.stage is None and (sink is None or edge.sink is sink):
                    edge.roots.discard(root_id)
                    if not edge.roots:
                        continue
                kept.append(edge)
            if kept:
                self.dag.taps[stream_id] = kept
            else:
                del self.dag.taps[stream_id]

    def _prune_dead(self, candidates: Iterable["Stage"]) -> set[str]:
        """Remove candidate stages nobody subscribes to; returns their prints."""
        dag = self.dag
        dead = {id(s): s for s in candidates if not s.subscribers}
        if not dead:
            return set()
        retired = {s.node.fingerprint for s in dead.values()}
        dag.order = [s for s in dag.order if id(s) not in dead]
        for fp, stage in list(dag._by_fingerprint.items()):
            if id(stage) in dead:
                del dag._by_fingerprint[fp]
        for stage in dag.order:
            stage.outputs = [
                e for e in stage.outputs if e.stage is None or id(e.stage) not in dead
            ]
        for stream_id, edges in list(dag.taps.items()):
            kept = [e for e in edges if e.stage is None or id(e.stage) not in dead]
            if kept:
                dag.taps[stream_id] = kept
            else:
                del dag.taps[stream_id]
        return retired
