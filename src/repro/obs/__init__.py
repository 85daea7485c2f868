"""Observability: metrics registry, pipeline span tracing, exporters.

Usage pattern (the CLI's ``--trace`` / ``--metrics-out`` flags and the
benchmark snapshot hook all go through this)::

    from repro import obs

    with obs.observe(trace=True) as ob:
        frames = plan.collect_frames()          # instrumented run
    lines = obs.snapshot_lines(reports, tracer=ob.tracer, registry=ob.registry)
    obs.write_jsonl("run.jsonl", lines)

Everything is off by default: the engine's hot paths check
:func:`metrics_enabled` and the one installed :class:`Instruments` record
(:mod:`repro.obs.probe`) and do no registry, span or timing work when
observability is disabled. See docs/observability.md.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator, Optional

from .export import (
    collect_run,
    normalize_spans,
    register_build_info,
    snapshot_lines,
    to_prometheus,
    traces_to_chrome,
    traces_to_otlp,
    write_jsonl,
)
from .probe import Instruments, StageProbe, disagreements, install, installed
from .probe import current as current_instruments
from .registry import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObservabilityError,
    disable_metrics,
    enable_metrics,
    get_registry,
    metrics_enabled,
    set_registry,
)
from .slo import SLOBreach, SLOMonitor, SLOPolicy
from .timeline import (
    EventJournal,
    HealthModel,
    HealthPolicy,
    HealthReport,
    JournalEvent,
    MetricStore,
    QueryHealth,
    Rollup,
    current_journal,
    current_metric_store,
)
from .stats import (
    Reservoir,
    StageStats,
    StatsCollector,
    current_collector,
    format_lineage,
    lineage,
)
from .trace import (
    FlightRecorder,
    FrameHop,
    FrameTrace,
    FrameTracer,
    TraceContext,
    current_frame_tracer,
    hop_tree,
    render_waterfall,
    trace_source,
)
from .tracing import Span, Tracer, current_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObservabilityError",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "get_registry",
    "set_registry",
    "metrics_enabled",
    "enable_metrics",
    "disable_metrics",
    "Instruments",
    "StageProbe",
    "current_instruments",
    "disagreements",
    "install",
    "installed",
    "Span",
    "Tracer",
    "current_tracer",
    "collect_run",
    "snapshot_lines",
    "to_prometheus",
    "write_jsonl",
    "normalize_spans",
    "traces_to_chrome",
    "traces_to_otlp",
    "TraceContext",
    "FrameHop",
    "FrameTrace",
    "FrameTracer",
    "FlightRecorder",
    "current_frame_tracer",
    "trace_source",
    "hop_tree",
    "render_waterfall",
    "Reservoir",
    "StageStats",
    "StatsCollector",
    "current_collector",
    "lineage",
    "format_lineage",
    "SLOPolicy",
    "SLOBreach",
    "SLOMonitor",
    "MetricStore",
    "Rollup",
    "EventJournal",
    "JournalEvent",
    "HealthModel",
    "HealthPolicy",
    "HealthReport",
    "QueryHealth",
    "current_metric_store",
    "current_journal",
    "register_build_info",
    "Observation",
    "observe",
]


@dataclass
class Observation:
    """Handles to the registry/tracer/stats active inside ``observe()``."""

    registry: MetricsRegistry
    tracer: Optional[Tracer]
    stats: Optional[StatsCollector] = None
    frame_tracer: Optional[FrameTracer] = None
    store: Optional[MetricStore] = None
    journal: Optional[EventJournal] = None


@contextlib.contextmanager
def observe(
    trace: bool = False,
    reset: bool = True,
    stats: bool = False,
    frame_trace: bool | float = False,
    store: bool | MetricStore = False,
    journal: bool | EventJournal = False,
) -> Iterator[Observation]:
    """Enable metrics (and optionally tracing/stage stats) for a block.

    Resets the process registry on entry by default so each observed run
    starts from clean counters, and restores the previous enabled flag and
    :class:`Instruments` record on exit — nesting and test isolation both
    work. With ``stats=True`` a :class:`StatsCollector` is installed, so DAG stages
    accumulate :class:`StageStats` and chunks carry provenance tags. With
    ``frame_trace=True`` (or a 0..1 head-sampling rate) a
    :class:`FrameTracer` with a :class:`FlightRecorder` is installed, so
    delivered frames carry end-to-end :class:`FrameTrace` waterfalls.
    With ``store=True`` (or a preconfigured :class:`MetricStore`) the
    DSMS samples the registry into rolling time-series rings on its
    logical-clock cadence; with ``journal=True`` (or an
    :class:`EventJournal`) operational events — SLO edges, epoch swaps,
    faults, shed escalations, dead letters — land in one bounded ring.
    """
    registry = get_registry()
    was_enabled = metrics_enabled()
    if reset:
        registry.reset()
    enable_metrics()
    changes: dict[str, object] = {}
    if trace:
        changes["tracer"] = Tracer(registry)
    if stats:
        changes["stats"] = StatsCollector()
    if frame_trace is not False:
        rate = 1.0 if frame_trace is True else float(frame_trace)
        changes["frame_tracer"] = FrameTracer(sample_rate=rate)
    if store is not False:
        changes["store"] = store if isinstance(store, MetricStore) else MetricStore()
    if journal is not False:
        changes["journal"] = journal if isinstance(journal, EventJournal) else EventJournal()
    try:
        with installed(**changes) as ins:
            yield Observation(
                registry=registry,
                tracer=ins.tracer,
                stats=ins.stats,
                frame_tracer=ins.frame_tracer,
                store=ins.store,
                journal=ins.journal,
            )
    finally:
        if not was_enabled:
            disable_metrics()
