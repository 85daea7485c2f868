"""The one instrument slot and the one timed-step record.

Everything that observes a run — the span :class:`~repro.obs.tracing.Tracer`,
the :class:`~repro.obs.stats.StatsCollector`, the per-frame
:class:`~repro.obs.trace.FrameTracer`, the timeline
:class:`~repro.obs.timeline.MetricStore` and the
:class:`~repro.obs.timeline.EventJournal` — is installed through a single
module slot holding an immutable :class:`Instruments` record.
:func:`install` is its only writer; the five ``current_*`` readers in the
sibling modules are one-line views of it.

The executor (a :class:`~repro.plan.stages.Stage` of a plan DAG, which
the DSMS and every derived GeoStream run) accounts an operator call
through a :class:`StageProbe`: one :func:`now` pair around the call, one
:meth:`StageProbe.record`. The stage's ``Span``, its ``StageStats``
ledger, the frame trace's hop and the provenance / trace-context stamp on
the outputs are all folds of that one ``(chunk, outs, t0, t1)`` record,
so EXPLAIN ANALYZE, ``/metrics``, a frame waterfall and ``top`` cannot
disagree about a stage: none of them is the authority, the record is.

Zero-cost rule: with nothing installed the executor's whole test is
``current().steps``; with only a frame tracer installed a sampled-out
chunk (``chunk.trace is None``) is not timed either. This is the only
module under ``src/repro`` that may read the clock around an operator
step (lint rule RL001, perf-guard tests in ``tests/test_obs_stats.py``).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from ..core.chunk import GridChunk, PointChunk, chunk_time, restamp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.chunk import Chunk
    from ..core.provenance import Provenance
    from ..operators.base import BinaryOperator, Operator
    from ..query.ast import QueryNode
    from .registry import Histogram
    from .stats import StageStats, StatsCollector
    from .timeline import EventJournal, MetricStore
    from .trace import FrameTrace, FrameTracer, TraceContext
    from .tracing import Span, Tracer

__all__ = [
    "Instruments",
    "StageProbe",
    "current",
    "disagreements",
    "install",
    "installed",
    "now",
]


@dataclass(frozen=True)
class Instruments:
    """What is observing this process right now (all off by default)."""

    tracer: Tracer | None = None
    stats: StatsCollector | None = None
    frame_tracer: FrameTracer | None = None
    store: MetricStore | None = None
    journal: EventJournal | None = None
    #: Derived: does anything here observe operator steps? The executor's
    #: fast-path test (the store and journal never look at a step).
    steps: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "steps",
            not (self.tracer is None and self.stats is None and self.frame_tracer is None),
        )


_IDLE = Instruments()
_current = _IDLE


def current() -> Instruments:
    """The installed instruments (an all-``None`` record when idle)."""
    return _current


def install(instruments: Instruments) -> Instruments:
    """Replace the installed instruments; returns the previous record."""
    global _current
    previous, _current = _current, instruments
    return previous


@contextlib.contextmanager
def installed(**changes: Any) -> Iterator[Instruments]:
    """Install the current record with ``changes`` applied, for a block."""
    instruments = dc_replace(_current, **changes)
    previous = install(instruments)
    try:
        yield instruments
    finally:
        install(previous)


def now() -> float:
    """The step clock: read once before and once after an operator call."""
    return perf_counter()


class StageProbe:
    """One operator's bookkeeping under one :class:`Instruments` record.

    The key is the subplan fingerprint (``pull:<name>`` for a hand-built
    operator, which has no plan node), shared by the span's ``stage``
    attribute, the ``StageStats`` ledger and the frame hop. The executor
    owns topology — when to :meth:`bind`, which parent :meth:`open_span`
    hangs the span off — the probe owns everything measured.
    """

    __slots__ = (
        "op", "key", "label", "kind", "hop_kind", "ins", "span", "prov", "pending",
        "_always", "_entry", "_hist",
    )

    def __init__(self, op: Operator | BinaryOperator, node: QueryNode | None = None) -> None:
        self.op = op
        if node is not None:
            self.key, self.hop_kind = node.fingerprint, "stage"
            self.label, self.kind = node.describe(), type(node).__name__
        else:
            self.key, self.hop_kind = f"pull:{op.name}", "pull"
            self.label, self.kind = op.name, type(op).__name__
        self.ins = _IDLE
        self.span: Span | None = None
        # Merged provenance of the inputs the operator can still use:
        # the open frame's, or everything since the operator last held
        # no points (see _open_tag).
        self.prov: Provenance | None = None
        # Trace contexts consumed since the last emission (buffering
        # operators hold inputs; their eventual outputs merge these).
        self.pending: list[TraceContext] = []
        self._always = False
        self._entry: StageStats | None = None
        self._hist: Histogram | None = None

    def bind(self, ins: Instruments) -> StageProbe:
        """Point the probe at ``ins``; state survives only its own instrument."""
        if ins.tracer is not self.ins.tracer:
            self.span = None
        if ins.frame_tracer is not self.ins.frame_tracer:
            self.pending = []
        self._entry = self._hist = None
        self._always = ins.tracer is not None or ins.stats is not None
        self.ins = ins
        return self

    def open_span(self, parent: Span | None, **attrs: Any) -> Span:
        """Open this operator's span under the bound tracer."""
        tracer = self.ins.tracer
        assert tracer is not None, "open_span needs a bound tracer"
        self.span = tracer.begin_operator(self.op, parent=parent, stage=self.key, **attrs)
        return self.span

    def observes(self, chunk: Chunk | None) -> bool:
        """Must this step be timed? ``chunk`` is None for the flush.

        Always under a tracer or collector. Under a frame tracer alone
        only a sampled-in chunk is (sampling happened at the source), or
        a flush still holding sampled-in inputs.
        """
        if self._always:
            return True
        return chunk.trace is not None if chunk is not None else bool(self.pending)

    def record(
        self, chunk: Chunk | None, outs: list[Chunk], t0: float, t1: float
    ) -> list[Chunk]:
        """Account one operator call; returns ``outs``, re-stamped if tagged."""
        ins = self.ins
        dt = t1 - t0
        points_in = chunk.n_points if chunk is not None else 0
        chunks_in = 1 if chunk is not None else 0
        points_out = sum(c.n_points for c in outs)
        chunks_out = len(outs)
        stamp: dict[str, object] = {}

        span = self.span
        if span is not None:
            span.record(
                points_in=points_in,
                points_out=points_out,
                chunks_out=chunks_out,
                wall_s=dt,
                stream_t=chunk_time(chunk) if chunk is not None else None,
                chunks_in=chunks_in,
            )
            if chunk is None:
                span.finish()
            else:
                hist = self._hist
                if hist is None and ins.tracer is not None:
                    hist = self._hist = ins.tracer.operator_histogram(self.op.name)
                if hist is not None:
                    hist.observe(dt)

        stats = ins.stats
        if stats is not None:
            entry = self._entry
            if entry is None:
                entry = self._entry = stats.stage(self.key, label=self.label, kind=self.kind)
            entry.observe(
                points_in=points_in,
                points_out=points_out,
                bytes_in=chunk.nbytes if chunk is not None else 0,
                bytes_out=sum(c.nbytes for c in outs),
                chunks_out=chunks_out,
                wall_s=dt,
                chunks_in=chunks_in,
            )
            if stats.provenance:
                tag = chunk.provenance if chunk is not None else None
                prov = self.prov if tag is None else tag.merge(self.prov)
                if prov is not None:
                    if outs:
                        stamp["provenance"] = prov.with_stage(self.key)
                    if self.op.stats.buffered_points == 0:
                        prov = _open_tag(chunk, prov, outs)
                self.prov = prov

        ftracer = ins.frame_tracer
        if ftracer is not None:
            pending = self.pending
            # A flush is accounted against the oldest buffered context
            # (queue wait = time spent held).
            ctx = chunk.trace if chunk is not None else (pending[0] if pending else None)
            if ctx is not None:
                ftracer.record_hop(
                    ctx,
                    key=self.key,
                    label=self.label,
                    kind=self.hop_kind,
                    t0=t0,
                    t1=t1,
                    points_in=points_in,
                    points_out=points_out,
                    chunks_out=chunks_out,
                )
                if outs:
                    consumed = pending + [ctx] if chunk is not None else pending
                    stamp["trace"] = ftracer.output_ctx(consumed, self.key)
                    self.pending = []
                elif chunk is not None:
                    pending.append(ctx)

        if stamp:
            return [restamp(c, **stamp) for c in outs]
        return outs


def _open_tag(chunk: Chunk | None, prov: Provenance, outs: list[Chunk]) -> Provenance | None:
    """What of ``prov`` an operator holding no points can still use after a step.

    Nothing once the step ends a frame: its input or an output is a row
    with ``last_in_frame`` (a restriction narrows it to its box) or an
    output is an aggregate record. A region aggregate emits the previous
    frame's record on the first chunk of the next: that chunk's tag stays.
    """
    if isinstance(chunk, GridChunk) and chunk.last_in_frame:
        return None
    for out in reversed(outs):
        if isinstance(out, PointChunk):
            return chunk.provenance if chunk is not None else None
        if out.last_in_frame:
            return None
    return prov


def disagreements(
    tracer: Tracer, stats: StatsCollector, traces: Iterable[FrameTrace] | None = None
) -> list[str]:
    """Where the folds of one run's step records differ (empty: nowhere).

    A stage's span and its ``StageStats`` ledger were handed the same
    durations in the same order, so their call counts and wall seconds
    must be *equal* (given one span per stage key: a shared DAG, or a
    pipeline opened once). ``traces`` adds the third fold, the frame
    hops, which only ever see a step that has a trace context: pass every
    delivered frame's trace of a fully sampled run in which no stage is
    shared between queries, no chunk is pruned and end of input has not
    been flushed yet (the flush of an operator holding nothing belongs to
    no frame), and each key's hop walls must add up to the ledger's
    within 1e-9 relative (same durations, summed per frame first).
    """
    by_key: dict[str, list[Span]] = {}
    for span in tracer.spans:
        if "stage" in span.attrs:
            by_key.setdefault(span.attrs["stage"], []).append(span)
    traces = list(traces) if traces is not None else None
    problems = []
    for key, entry in stats.stages.items():
        spans = by_key.pop(key, [])
        calls = sum(s.calls for s in spans)
        wall = sum(s.wall_time_s for s in spans)
        if (calls, wall) != (entry.calls, entry.wall_s):
            problems.append(
                f"{key}: spans say {calls} calls / {wall!r} s, "
                f"ledger {entry.calls} calls / {entry.wall_s!r} s"
            )
        if traces is not None:
            hops = sum(h.wall_s for t in traces for h in t.hops if h.key == key)
            if abs(hops - entry.wall_s) > 1e-9 * entry.wall_s:
                problems.append(f"{key}: frame hops add up to {hops!r} s, ledger {entry.wall_s!r} s")
    problems.extend(f"{key}: span without a ledger" for key in by_key)
    return problems
