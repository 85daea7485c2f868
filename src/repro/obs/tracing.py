"""Span tracing for pipeline execution.

A :class:`Span` aggregates one operator's (or one scheduler stage's)
per-chunk work over a run: wall-clock processing time, chunk and point
throughput, and the stream-time interval it covered — so stream-time vs
wall-time lag falls out per operator, not just per run. Spans carry
``parent_id`` links mirroring the operator DAG: a plan-DAG stage's parent
is its *consumer* (the span tree mirrors the query tree), which its
``direction`` attribute records (``"consumer"``; spans with no operator
parent, such as the scheduler's, say ``"dataflow"``);
:func:`repro.obs.export.normalize_spans` re-parents the tree into
dataflow order for exporters and waterfalls. Raw ``to_dicts()`` output
keeps the original links.

Tracing follows the same zero-cost rule as the registry: the tracer is
one field of the installed :class:`~repro.obs.probe.Instruments` record,
and the executors take the untraced code path when nothing is installed.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Optional

from .probe import current
from .registry import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    get_registry,
    metrics_enabled,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..operators.base import BinaryOperator, Operator

__all__ = ["Span", "Tracer", "current_tracer"]


class Span:
    """Aggregated trace of one operator (or stage) across a run."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "kind",
        "direction",
        "attrs",
        "started_unix",
        "wall_time_s",
        "calls",
        "chunks_in",
        "chunks_out",
        "points_in",
        "points_out",
        "first_stream_t",
        "last_stream_t",
        "finished",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        kind: str = "operator",
        parent_id: int | None = None,
        attrs: dict | None = None,
        direction: str = "dataflow",
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.direction = direction
        self.attrs = attrs or {}
        self.started_unix = time.time()
        self.wall_time_s = 0.0
        self.calls = 0
        self.chunks_in = 0
        self.chunks_out = 0
        self.points_in = 0
        self.points_out = 0
        self.first_stream_t: float | None = None
        self.last_stream_t: float | None = None
        self.finished = False

    def record(
        self,
        points_in: int,
        points_out: int,
        chunks_out: int,
        wall_s: float,
        stream_t: float | None = None,
        chunks_in: int = 1,
    ) -> None:
        """Account one processing call (one chunk in, ``chunks_out`` out)."""
        self.calls += 1
        self.chunks_in += chunks_in
        self.chunks_out += chunks_out
        self.points_in += points_in
        self.points_out += points_out
        self.wall_time_s += wall_s
        if stream_t is not None:
            if self.first_stream_t is None:
                self.first_stream_t = stream_t
            self.last_stream_t = stream_t

    def finish(self) -> None:
        self.finished = True

    @property
    def stream_time_span_s(self) -> float:
        """Stream-time interval covered (0 until two timestamps are seen)."""
        if self.first_stream_t is None or self.last_stream_t is None:
            return 0.0
        return self.last_stream_t - self.first_stream_t

    @property
    def wall_lag_s(self) -> float:
        """Wall time spent minus stream time covered.

        Negative while processing runs faster than the stream advances
        (the normal replay/simulation case); positive means the operator
        is the bottleneck relative to stream rate.
        """
        return self.wall_time_s - self.stream_time_span_s

    def to_dict(self) -> dict:
        return {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "direction": self.direction,
            "attrs": dict(self.attrs),
            "started_unix": self.started_unix,
            "wall_time_s": self.wall_time_s,
            "calls": self.calls,
            "chunks_in": self.chunks_in,
            "chunks_out": self.chunks_out,
            "points_in": self.points_in,
            "points_out": self.points_out,
            "first_stream_t": self.first_stream_t,
            "last_stream_t": self.last_stream_t,
            "stream_time_span_s": self.stream_time_span_s,
            "wall_lag_s": self.wall_lag_s,
            "finished": self.finished,
        }

    def __repr__(self) -> str:
        return (
            f"Span(#{self.span_id} {self.name!r} kind={self.kind} "
            f"chunks={self.chunks_in}/{self.chunks_out} "
            f"points={self.points_in}/{self.points_out} "
            f"wall={self.wall_time_s:.4f}s)"
        )


class Tracer:
    """Collects spans for one (or several) pipeline runs.

    When the metrics registry is enabled the tracer additionally publishes
    a per-operator wall-clock histogram (``pipeline_op_seconds``) so span
    data and registry exports agree.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 1
        self._registry = registry

    def begin_span(
        self,
        name: str,
        kind: str = "operator",
        parent: Span | None = None,
        direction: str = "dataflow",
        **attrs: object,
    ) -> Span:
        with self._lock:
            span = Span(
                self._next_id,
                name,
                kind=kind,
                parent_id=parent.span_id if parent is not None else None,
                attrs=dict(attrs),
                direction=direction,
            )
            self._next_id += 1
            self.spans.append(span)
        return span

    def begin_operator(
        self,
        op: "Operator | BinaryOperator",
        parent: Span | None = None,
        kind: str = "operator",
        direction: str = "dataflow",
        **attrs: object,
    ) -> Span:
        return self.begin_span(
            op.name, kind=kind, parent=parent, direction=direction, op=repr(op), **attrs
        )

    def operator_histogram(self, name: str) -> Histogram | None:
        """The ``pipeline_op_seconds`` series for one operator name.

        None while there is no registry to publish into; a stage probe
        resolves this once and observes each processing duration.
        """
        registry = self._registry
        if registry is None:
            if not metrics_enabled():
                return None
            registry = get_registry()
        return registry.histogram(
            "pipeline_op_seconds", buckets=DEFAULT_BUCKETS, operator=name
        )

    # -- inspection -----------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        with self._lock:
            return [span.to_dict() for span in self.spans]

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self._next_id = 1

    def __len__(self) -> int:
        return len(self.spans)


def current_tracer() -> Tracer | None:
    """The active tracer, or None when tracing is off (the common case)."""
    return current().tracer
