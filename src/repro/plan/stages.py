"""The shared operator DAG: one physical stage per canonical subplan.

A :class:`PlanDAG` merges every registered query's canonical plan into a
single push-execution graph. Stages are keyed by subplan fingerprint, so
two different queries that share an operator prefix (say, everyone
computing ``reflectance(goes.vis)`` before their own restriction) run the
common stages *once per chunk* and fan the results out — the paper's
"single scan serves all queries" promise extended below the scan.

Refcounting is by subscriber: each stage remembers the root (query) ids
subscribed to it, chunks are only propagated along edges some *active*
subscriber is downstream of, and removing a query prunes exactly the
stages nobody else needs.

It is the one executor: the DSMS feeds one DAG with every registered
query, and :func:`~repro.plan.lower.plan_to_stream`, ``GeoStream.pipe``
and ``compose_streams`` each wire a private one
(:func:`repro.engine.pipeline.dag_stream`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..core.chunk import Chunk
from ..errors import PlanError
from ..faults.recovery import current_recovery
from ..obs.probe import Instruments, StageProbe, current, now
from ..operators.base import BinaryOperator, Operator
from ..query import ast as q

if TYPE_CHECKING:  # pragma: no cover - typing only (circular with .epoch)
    from ..faults.recovery import RecoveryContext
    from .epoch import EpochSwapResult, PlanEpoch

__all__ = ["PlanDAG", "Stage", "PlanStats"]

_Sink = Callable[[Chunk], None]


def _call(
    op: Operator | BinaryOperator,
    chunk: Chunk | None,
    side: str | None,
    ctx: "RecoveryContext | None",
) -> Iterable[Chunk]:
    """One bare operator call: ``chunk`` None is the flush, ``side`` a binary input.

    Under a recovery context (degrade-gracefully mode) a chunk the
    operator cannot process is quarantined to the dead-letter sink
    instead of killing the pipeline.
    """
    if ctx is not None:
        return ctx.guard_flush(op) if chunk is None else ctx.guard(op, chunk, side)
    if chunk is None:
        return op.flush()
    return op.process_side(side, chunk) if side is not None else op.process(chunk)


def run_step(
    op: Operator | BinaryOperator,
    chunk: Chunk | None,
    side: str | None,
    ctx: "RecoveryContext | None",
    probe: StageProbe | None,
) -> Iterable[Chunk]:
    """The one operator step a stage takes.

    With no probe (nothing installed), or a chunk the probe does not
    observe, this is the bare call. Otherwise the outputs are
    materialized inside the timed section — so it covers only this
    operator's work, not downstream consumers — and accounted once
    through :meth:`StageProbe.record`.
    """
    if probe is None or not probe.observes(chunk):
        return _call(op, chunk, side, ctx)
    t0 = now()
    outs = list(_call(op, chunk, side, ctx))
    return probe.record(chunk, outs, t0, now())


@dataclass
class PlanStats:
    """How much work subplan sharing saved."""

    subplan_hits: int = 0  # registrations that reused an existing stage
    stage_executions: int = 0  # operator steps actually run
    chunks_saved: int = 0  # steps avoided because a stage is shared


class Edge:
    """One dataflow edge: from a producer to a stage input or a terminal sink.

    Terminal edges carry the root ids they deliver for; stage edges defer
    to the target stage's subscriber set.
    """

    __slots__ = ("stage", "side", "sink", "roots")

    def __init__(
        self,
        stage: "Stage | None" = None,
        side: str | None = None,
        sink: _Sink | None = None,
        roots: set[int] | None = None,
    ) -> None:
        self.stage = stage
        self.side = side
        self.sink = sink
        self.roots: set[int] = roots if roots is not None else set()

    def accepts(self, active: frozenset[int]) -> bool:
        if self.stage is not None:
            return not active.isdisjoint(self.stage.subscribers)
        return not active.isdisjoint(self.roots)

    def deliver(self, chunk: Chunk) -> None:
        if self.stage is not None:
            self.stage.feed(chunk, self.side)
        else:
            self.sink(chunk)


class Stage:
    """One physical operator, shared by every query whose plan contains it.

    A stage of a hand-built operator (``GeoStream.pipe``,
    ``compose_streams``) has no plan node: it is never shared, and its
    probe keys it ``pull:<name>``.
    """

    __slots__ = ("_node", "op", "outputs", "subscribers", "epochs", "_dag", "_probe")

    def __init__(
        self, node: q.QueryNode | None, op: Operator | BinaryOperator, dag: "PlanDAG"
    ) -> None:
        self._node = node
        self.op = op
        self.outputs: list[Edge] = []
        self.subscribers: set[int] = set()
        # root id -> the plan epoch of that root this stage currently
        # serves; stamped by EpochTransition.commit. check_dag audits
        # that this never drifts from ``subscribers``.
        self.epochs: dict[int, int] = {}
        self._dag = dag
        # Built on the first observed step, re-bound when the installed
        # instruments change (the one cache of everything they derive).
        self._probe: StageProbe | None = None

    def _bound_probe(self, ins: Instruments) -> StageProbe:
        """This stage's probe under ``ins``, its span opened on a consumer.

        Spans are per *physical* stage: a stage serving three queries has
        one span. In push execution data flows producer -> consumer, so
        the span tree mirrors the plan with sinks at the root.
        """
        probe = self._probe
        if probe is None:
            probe = self._probe = StageProbe(self.op, self._node)
        if probe.ins is not ins:
            probe.bind(ins)
        if probe.span is None and ins.tracer is not None:
            parent = None
            for edge in self.outputs:
                if edge.stage is not None:
                    parent = edge.stage._bound_probe(ins).span
                    break
            probe.open_span(
                parent,
                direction="consumer",
                path="push",
                shared=len(self.subscribers) > 1,
            )
        return probe

    def _step(self, chunk: Chunk | None, side: str | None) -> None:
        """Run the operator once (``chunk`` None = flush) and fan out."""
        ins = current()
        probe = self._bound_probe(ins) if ins.steps else None
        # Materialized before fan-out: a failing operator emits nothing.
        for out in list(run_step(self.op, chunk, side, current_recovery(), probe)):
            self._emit(out)

    @property
    def node(self) -> q.QueryNode:
        """The plan node this stage's operator was built from."""
        if self._node is None:
            raise PlanError(f"the stage of hand-built {self.op!r} has no plan node")
        return self._node

    def feed(self, chunk: Chunk, side: str | None = None) -> None:
        dag = self._dag
        dag.stats.stage_executions += 1
        active = dag._active
        if active is not None and len(self.subscribers) > 1:
            overlap = len(active & self.subscribers)
            if overlap > 1:
                # This one execution stands in for `overlap` per-query ones.
                dag.stats.chunks_saved += overlap - 1
        self._step(chunk, side)

    def feed_many(self, chunks: list[Chunk]) -> None:
        """Feed a block of chunks to this unary stage and the stages below it.

        A bare step (no probe observing, no recovery context) runs the
        whole block through one ``process_many`` call and hands the
        outputs on as one block; otherwise each chunk takes :meth:`feed`,
        so stats, traces and dead-lettering stay per chunk. Outputs and
        operator stats are the same either way. Every output edge is
        taken (there is no routing set), and a consumer sees the block's
        outputs before any later chunk's, so only a chain of unary stages
        keeps the per-chunk order.
        """
        if current().steps or current_recovery() is not None:
            for chunk in chunks:
                self.feed(chunk)
            return
        self._dag.stats.stage_executions += len(chunks)
        outs = self.op.process_many(chunks)  # type: ignore[union-attr]
        if outs:
            for edge in self.outputs:
                if edge.stage is not None:
                    edge.stage.feed_many(outs)
                else:
                    for out in outs:
                        edge.deliver(out)

    def _emit(self, chunk: Chunk) -> None:
        active = self._dag._active
        for edge in self.outputs:
            if active is None or edge.accepts(active):
                edge.deliver(chunk)

    def flush(self) -> None:
        self._step(None, None)


class PlanDAG:
    """All registered plans merged into one operator DAG with fan-out."""

    def __init__(self, share: bool = True) -> None:
        self.share = share
        # fingerprint -> stage, for subplan reuse (only when sharing).
        self._by_fingerprint: dict[str, Stage] = {}
        # Creation order is topological (children are built first), so
        # flushing in order drains producers before their consumers.
        self.order: list[Stage] = []
        # stream_id -> edges fed directly by that source's chunks.
        self.taps: dict[str, list[Edge]] = {}
        self.stats = PlanStats()
        # Versioned plan epochs: root id -> current epoch number (1-based)
        # and the full committed history. Only EpochTransition writes the
        # stage tables above; these counters are its commit record.
        self.epoch_of: dict[int, int] = {}
        self.epoch_history: dict[int, list["PlanEpoch"]] = {}
        self._active: frozenset[int] | None = None
        self._flushed = False

    # -- construction / teardown ---------------------------------------------------
    #
    # All structural mutation is transactional: these methods wrap an
    # EpochTransition (repro.plan.epoch), the single place allowed to
    # touch the stage tables (lint rule RL006).

    def add_plan(self, plan: q.QueryNode, sink: _Sink, root_id: int) -> list[Stage]:
        """Wire one query plan into the DAG, reusing shared subplans.

        Returns the stages the plan uses (for refcounted removal). The
        query starts at plan epoch 1.
        """
        from .epoch import EpochTransition

        transition = EpochTransition(self, root_id, reason="register")
        stages = transition.install(plan, sink)
        transition.commit()
        return stages

    def swap_plan(
        self, root_id: int, new_plan: q.QueryNode, sink: _Sink,
        old_stages: Iterable[Stage], reason: str = "replan",
    ) -> "EpochSwapResult":
        """Move a live query to its next plan epoch (hot swap).

        Stages shared between the epochs are grafted — operator state and
        refcounts preserved — new ones are built, and orphans retired.
        """
        from .epoch import EpochTransition

        transition = EpochTransition(self, root_id, reason=reason)
        result = transition.swap(new_plan, sink, old_stages)
        transition.commit()
        return result

    def add_operators(
        self,
        operators: Sequence[Operator | BinaryOperator],
        inputs: Sequence[str],
        sink: _Sink,
        root_id: int,
    ) -> list[Stage]:
        """Wire hand-built operators as one query's chain of stages.

        The first operator reads the sources ``inputs`` (one per input
        side), each next one the one before; the last delivers to ``sink``.
        """
        from .epoch import EpochTransition

        transition = EpochTransition(self, root_id, reason="register")
        stages = transition.install_operators(operators, inputs, sink)
        transition.commit()
        return stages

    def remove_plan(self, root_id: int, stages: Iterable[Stage]) -> None:
        """Drop one query: unsubscribe, then prune stages nobody needs."""
        from .epoch import EpochTransition

        transition = EpochTransition(self, root_id, reason="deregister")
        transition.retire(stages)
        transition.commit()

    # -- execution -----------------------------------------------------------------

    @property
    def source_ids(self) -> list[str]:
        return sorted(self.taps)

    @property
    def stages_total(self) -> int:
        return len(self.order)

    @property
    def stages_shared(self) -> int:
        return sum(1 for s in self.order if len(s.subscribers) > 1)

    def feed(self, stream_id: str, chunk: Chunk, active: Iterable[int] | None = None) -> None:
        """Push one source chunk through every active consumer of it.

        ``active`` (root/query ids the router matched for this chunk)
        gates propagation: an edge is taken only when some active query
        is downstream of it, so shared stages run at most once per chunk
        regardless of subscriber count.
        """
        if self._flushed:
            raise PlanError("push network already flushed")
        self._active = frozenset(active) if active is not None else None
        try:
            for edge in self.taps.get(stream_id, ()):
                if self._active is None or edge.accepts(self._active):
                    edge.deliver(chunk)
        finally:
            self._active = None

    def feed_many(self, stream_id: str, chunks: list[Chunk]) -> None:
        """Push a block of one source's chunks (see :meth:`Stage.feed_many`)."""
        if self._flushed:
            raise PlanError("push network already flushed")
        for edge in self.taps.get(stream_id, ()):
            if edge.stage is not None:
                edge.stage.feed_many(chunks)
            else:
                for chunk in chunks:
                    edge.deliver(chunk)

    def flush(self) -> None:
        """End of input: drain every stage, producers before consumers."""
        if self._flushed:
            return
        self._flushed = True
        for stage in list(self.order):
            stage.flush()

    def reset(self) -> None:
        """Fresh operator state and probes, for a run over the same wiring."""
        for stage in self.order:
            stage.op.reset()
            stage._probe = None
        self._flushed = False

    def operators(self) -> list[Operator | BinaryOperator]:
        """Each distinct physical operator once, in topological order."""
        return [stage.op for stage in self.order]

    def stage_fingerprints(
        self, root_id: int | None = None, epoch: int | None = None
    ) -> set[str]:
        """Fingerprints of the stages serving one query (or every query).

        This is exactly the set a delivered frame's provenance tag should
        list after a full run under a stats collector. With ``epoch``,
        the *committed* stage set of that historical epoch is returned
        instead of the live one — the set frames delivered under that
        epoch must have traversed.
        """
        if epoch is not None:
            if root_id is None:
                raise PlanError("epoch lookup requires a root_id")
            for record in self.epoch_history.get(root_id, ()):
                if record.epoch == epoch:
                    return set(record.fingerprints)
            raise PlanError(f"query {root_id} has no recorded epoch {epoch}")
        return {
            stage.node.fingerprint
            for stage in self.order
            if root_id is None or root_id in stage.subscribers
        }

    def current_epoch(self, root_id: int) -> int:
        """The query's live plan epoch (0 when it was never registered)."""
        return self.epoch_of.get(root_id, 0)

    # -- introspection -------------------------------------------------------------

    def render(self) -> str:
        """Human-readable DAG listing for EXPLAIN output."""
        lines = [
            f"shared plan DAG: {self.stages_total} stages "
            f"({self.stages_shared} shared), sources: {', '.join(self.source_ids) or '-'}"
        ]
        if self.epoch_of:
            epochs = ", ".join(
                f"q{rid}@e{ep}" for rid, ep in sorted(self.epoch_of.items())
            )
            lines.append(f"  epochs: {epochs}")
        labels = {id(stage): f"s{i}" for i, stage in enumerate(self.order)}

        def edge_text(edge: Edge) -> str:
            if edge.stage is not None:
                side = f".{edge.side}" if edge.side else ""
                return f"{labels[id(edge.stage)]}{side}"
            roots = ",".join(str(r) for r in sorted(edge.roots))
            return f"sink[q{roots}]"

        for stream_id in self.source_ids:
            targets = ", ".join(edge_text(e) for e in self.taps[stream_id])
            lines.append(f"  source {stream_id} -> {targets}")
        for stage in self.order:
            subs = ",".join(
                f"{r}@e{stage.epochs[r]}" if r in stage.epochs else str(r)
                for r in sorted(stage.subscribers)
            )
            targets = ", ".join(edge_text(e) for e in stage.outputs) or "-"
            lines.append(
                f"  {labels[id(stage)]}: {stage.node.describe()}"
                f"  #{stage.node.fingerprint}"
                f"  subscribers=[{subs}] -> {targets}"
            )
        return "\n".join(lines)
