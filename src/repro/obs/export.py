"""Exporters: JSON-lines snapshots, Prometheus text, and trace formats.

Two consumers, two formats. Benchmarks and tests want a machine-readable
record of a whole run — :func:`collect_run` merges operator reports,
tracer spans, and registry state into one serializable record, and
:func:`snapshot_lines` / :func:`write_jsonl` flatten that into one JSON
object per line (``type`` discriminates: meta / operator / span / counter
/ gauge / histogram). Scrapers want the Prometheus exposition format —
:func:`to_prometheus` renders the registry with proper label escaping.

Span trees are *normalized* on export: plan-DAG stage spans record their
parent in consumer order (see ``Span.direction``), and
:func:`normalize_spans` re-parents those edges into dataflow order so
exported trees read source-to-sink. The raw ``Tracer.to_dicts()`` output
is left untouched.

Frame traces (:mod:`repro.obs.trace`) export two ways:
:func:`traces_to_chrome` emits Chrome trace-event JSON (load it in
``chrome://tracing`` / Perfetto) and :func:`traces_to_otlp` emits an
OTLP-shaped ``resourceSpans`` document.

This module deliberately knows nothing about the engine: operator reports
arrive as dataclasses (or dicts) and are serialized generically, so the
exporters cannot create import cycles with the instrumented code.
"""

from __future__ import annotations

import io
import json
import math
import pathlib
import re
import time
from dataclasses import asdict, is_dataclass
from typing import Iterable, Optional, Sequence

from .registry import MetricsRegistry, get_registry
from .trace import FrameHop, FrameTrace, hop_tree, span_id_for
from .tracing import Tracer, current_tracer

__all__ = [
    "collect_run",
    "snapshot_lines",
    "write_jsonl",
    "to_prometheus",
    "register_build_info",
    "normalize_spans",
    "traces_to_chrome",
    "traces_to_otlp",
]

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _report_dict(report: object) -> dict:
    """Serialize an OperatorReport (or any dataclass / mapping) generically."""
    if is_dataclass(report) and not isinstance(report, type):
        out = asdict(report)
    elif isinstance(report, dict):
        out = dict(report)
    else:
        raise TypeError(f"cannot serialize operator report of type {type(report)!r}")
    out["type"] = "operator"
    return out


def normalize_spans(spans: Sequence[dict]) -> list[dict]:
    """Re-parent consumer-direction spans into dataflow order.

    Plan-DAG stages open their spans parented on their *consumer*
    (``direction == "consumer"``; the only spans with a parent); here
    each such edge is reversed so the consumer's exported parent is one
    of its producers. On fan-in the
    lowest-id producer wins and the rest land in
    ``attrs["extra_parents"]`` — the tree stays a tree but no lineage is
    lost. Input dicts are not mutated.
    """
    out = [dict(span) for span in spans]
    by_id = {span["span_id"]: span for span in out}
    producers: dict[int, list[int]] = {}
    for span in out:
        parent = span.get("parent_id")
        if parent is not None and parent in by_id:
            producers.setdefault(parent, []).append(span["span_id"])
        # The producer becomes a dataflow root unless some edge below
        # re-parents it onto its own producer.
        span["parent_id"] = None
        span["direction"] = "dataflow"
    for consumer_id, prods in producers.items():
        consumer = by_id[consumer_id]
        prods.sort()
        consumer["parent_id"] = prods[0]
        if len(prods) > 1:
            attrs = dict(consumer.get("attrs") or {})
            attrs["extra_parents"] = prods[1:]
            consumer["attrs"] = attrs
    return out


def collect_run(
    reports: Sequence[object] = (),
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    label: str = "",
) -> dict:
    """Merge one run's operator reports, spans, and metrics into a record.

    ``tracer`` defaults to the active tracer (if any); ``registry``
    defaults to the process registry. Spans are normalized to dataflow
    order (see :func:`normalize_spans`). The result round-trips through
    JSON.
    """
    if tracer is None:
        tracer = current_tracer()
    if registry is None:
        registry = get_registry()
    return {
        "type": "run",
        "label": label,
        "time_unix": time.time(),
        "operators": [_report_dict(r) for r in reports],
        "spans": normalize_spans(tracer.to_dicts()) if tracer is not None else [],
        "metrics": registry.snapshot(),
    }


def snapshot_lines(
    reports: Sequence[object] = (),
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    label: str = "",
) -> list[dict]:
    """Flatten :func:`collect_run` into JSON-lines records (header first)."""
    run = collect_run(reports=reports, tracer=tracer, registry=registry, label=label)
    lines: list[dict] = [
        {
            "type": "meta",
            "label": run["label"],
            "time_unix": run["time_unix"],
            "n_operators": len(run["operators"]),
            "n_spans": len(run["spans"]),
            "n_metrics": len(run["metrics"]),
        }
    ]
    lines.extend(run["operators"])
    lines.extend(run["spans"])
    lines.extend(run["metrics"])
    return lines


def write_jsonl(
    path: str | pathlib.Path, records: Iterable[dict], append: bool = False
) -> int:
    """Write records one JSON object per line; returns the line count."""
    path = pathlib.Path(path)
    if path.parent != path:
        path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with path.open("a" if append else "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, default=str))
            fh.write("\n")
            n += 1
    return n


# -- Prometheus text exposition format ----------------------------------------


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _metric_name(name: str) -> str:
    name = _NAME_SANITIZE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _format_labels(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{_LABEL_SANITIZE.sub("_", k)}="{_escape_label_value(str(v))}"'
        for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


# Operator-facing help text for the well-known metric families. Families
# not listed fall back to a generated one-liner; either way every family
# gets exactly one ``# HELP`` line in the exposition output.
_HELP: dict[str, str] = {
    "repro_build_info": "Build identity (constant 1; labels carry the facts).",
    "repro_slo_lag_seconds": "Current delivery lag per query (worst of event/clock lag).",
    "repro_slo_watermark_seconds": "Newest delivered event time per query.",
    "repro_slo_breached": "1 while the query is inside an SLO breach episode.",
    "repro_slo_breaches_total": "Rising-edge SLO breaches per query.",
    "repro_faults_injected_total": "Injected faults by kind.",
    "repro_faults_shed_escalations_total": "Load-shed pressure escalations.",
    "repro_faults_dead_letter_total": "Items quarantined to the dead-letter sink.",
    "dsms_chunks_scanned_total": "Chunks admitted from all scanned sources.",
    "dsms_stream_clock_seconds": "Stream-time clock of the latest routed chunk.",
    "dsms_delivery_lag_seconds": "Per-delivery lag between stream clock and frame time.",
    "repro_plan_epoch_swaps_total": "Committed live plan-epoch swaps.",
}


def _help_text(name: str) -> str:
    text = _HELP.get(name, f"repro metric {name}.")
    # HELP escaping per the exposition format: backslash and newline
    # (quotes are NOT escaped in help text, unlike label values).
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _render_series(out: io.StringIO, name: str, snap: dict) -> None:
    labels = snap["labels"]
    if snap["type"] in ("counter", "gauge"):
        out.write(f"{name}{_format_labels(labels)} {_format_value(snap['value'])}\n")
        return
    # Histogram: cumulative buckets, then sum and count.
    running = 0
    for bound, count in zip(snap["buckets"], snap["counts"]):
        running += count
        le = _format_labels(labels, {"le": _format_value(bound)})
        out.write(f"{name}_bucket{le} {running}\n")
    le = _format_labels(labels, {"le": "+Inf"})
    out.write(f"{name}_bucket{le} {snap['count']}\n")
    out.write(f"{name}_sum{_format_labels(labels)} {_format_value(snap['sum'])}\n")
    out.write(f"{name}_count{_format_labels(labels)} {snap['count']}\n")
    # Interpolated quantiles (summary-style companion series).
    for key, q in (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")):
        value = snap.get(key)
        if value is not None:
            ql = _format_labels(labels, {"quantile": q})
            out.write(f"{name}{ql} {_format_value(value)}\n")


def to_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """Render the registry in the Prometheus text exposition format.

    Series are grouped by metric *family* (labeled series of one metric
    registered at different times still render contiguously), and each
    family gets exactly one ``# HELP`` and one ``# TYPE`` line — the
    exposition format forbids repeating or interleaving them.
    """
    if registry is None:
        registry = get_registry()
    families: dict[str, list[dict]] = {}
    for metric in registry:
        snap = metric.snapshot()
        families.setdefault(_metric_name(snap["name"]), []).append(snap)
    out = io.StringIO()
    for name, snaps in families.items():  # first-registered family order
        out.write(f"# HELP {name} {_help_text(name)}\n")
        out.write(f"# TYPE {name} {snaps[0]['type']}\n")
        for snap in snaps:
            _render_series(out, name, snap)
    return out.getvalue()


def register_build_info(registry: Optional[MetricsRegistry] = None) -> None:
    """Register the ``repro_build_info`` gauge (constant 1).

    Labels identify the build: package version and Python version.
    Get-or-create semantics make this safe to call once per server
    construction *and* once per scrape.
    """
    import importlib
    import platform

    if registry is None:
        registry = get_registry()
    version = getattr(importlib.import_module("repro"), "__version__", "unknown")
    registry.gauge(
        "repro_build_info",
        version=version,
        python=platform.python_version(),
    ).set(1.0)


# -- frame-trace exporters -----------------------------------------------------


def _trace_base_s(trace: FrameTrace) -> float:
    """Timeline origin: earliest queue-entry instant across the hops."""
    starts = [
        hop.first_s - hop.queue_s for hop in trace.hops if hop.first_s != float("inf")
    ]
    return min(starts) if starts else 0.0


def _hop_parent_key(trace: FrameTrace, hop: FrameHop) -> str | None:
    keys = {h.key for h in trace.hops}
    in_trace = sorted(parent for parent in hop.parents if parent in keys)
    return in_trace[0] if in_trace else None


def traces_to_chrome(traces: Sequence[FrameTrace]) -> dict:
    """Render frame traces as Chrome trace-event JSON (Perfetto-loadable).

    One *process* per frame trace, one *thread* per hop; every hop emits a
    queue-wait slice followed by a compute slice, so the waterfall shows
    where each frame's latency went. Serialize with ``json.dumps`` and
    load in ``chrome://tracing``.
    """
    events: list[dict] = []
    for pid, trace in enumerate(traces, start=1):
        title = trace.query if trace.query is not None else "frame"
        name = f"q{title} t={trace.frame_t:g}" if trace.frame_t is not None else str(title)
        if trace.pinned:
            name += " [pinned]"
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": name},
            }
        )
        base = _trace_base_s(trace)
        for tid, (depth, hop) in enumerate(hop_tree(trace), start=1):
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": ("  " * depth) + hop.label},
                }
            )
            start = hop.first_s - hop.queue_s
            ts = max(0.0, (start - base) * 1e6)
            args = {
                "key": hop.key,
                "kind": hop.kind,
                "chunks": hop.chunks,
                "points_in": hop.points_in,
                "points_out": hop.points_out,
            }
            if hop.queue_s > 0.0:
                events.append(
                    {
                        "ph": "X",
                        "pid": pid,
                        "tid": tid,
                        "cat": "queue",
                        "name": f"{hop.label} (wait)",
                        "ts": ts,
                        "dur": hop.queue_s * 1e6,
                        "args": args,
                    }
                )
            events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "cat": hop.kind,
                    "name": hop.label,
                    "ts": ts + hop.queue_s * 1e6,
                    "dur": hop.wall_s * 1e6,
                    "args": args,
                }
            )
        for note in trace.annotations:
            events.append(
                {
                    "ph": "i",
                    "pid": pid,
                    "tid": 0,
                    "s": "p",
                    "name": note,
                    "ts": 0.0,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def traces_to_otlp(traces: Sequence[FrameTrace]) -> dict:
    """Render frame traces as an OTLP-shaped ``resourceSpans`` document.

    Hop ids come from :func:`repro.obs.trace.span_id_for`, so a hop's
    span id is stable across exports of the same trace. Timestamps are
    relative nanoseconds on the trace's own timeline (the recorder stores
    monotonic-clock offsets, not wall-clock epochs).
    """

    def attr(key: str, value: object) -> dict:
        if isinstance(value, bool):
            return {"key": key, "value": {"boolValue": value}}
        if isinstance(value, int):
            return {"key": key, "value": {"intValue": str(value)}}
        if isinstance(value, float):
            return {"key": key, "value": {"doubleValue": value}}
        return {"key": key, "value": {"stringValue": str(value)}}

    scope_spans = []
    for trace in traces:
        base = _trace_base_s(trace)
        trace_hex = f"{trace.trace_id & (2**128 - 1):032x}"
        spans = []
        for _depth, hop in hop_tree(trace):
            parent_key = _hop_parent_key(trace, hop)
            start = hop.first_s - hop.queue_s
            start_ns = max(0, int((start - base) * 1e9))
            end_ns = start_ns + int((hop.queue_s + hop.wall_s) * 1e9)
            span = {
                "traceId": trace_hex,
                "spanId": span_id_for(trace.trace_id, hop.key),
                "name": hop.label,
                "kind": "SPAN_KIND_INTERNAL",
                "startTimeUnixNano": str(start_ns),
                "endTimeUnixNano": str(end_ns),
                "attributes": [
                    attr("repro.hop.key", hop.key),
                    attr("repro.hop.kind", hop.kind),
                    attr("repro.hop.chunks", hop.chunks),
                    attr("repro.hop.points_in", hop.points_in),
                    attr("repro.hop.points_out", hop.points_out),
                    attr("repro.hop.queue_s", hop.queue_s),
                    attr("repro.hop.wall_s", hop.wall_s),
                ],
            }
            if parent_key is not None:
                span["parentSpanId"] = span_id_for(trace.trace_id, parent_key)
            if hop.kind == "delivery" and trace.annotations:
                span["events"] = [
                    {"timeUnixNano": str(end_ns), "name": note}
                    for note in trace.annotations
                ]
            spans.append(span)
        resource_attrs = [
            attr("service.name", "repro.dsms"),
            attr("repro.trace.pinned", trace.pinned),
            attr("repro.trace.partial", trace.partial),
        ]
        if trace.query is not None:
            resource_attrs.append(attr("repro.query", trace.query))
        if trace.stream_id is not None:
            resource_attrs.append(attr("repro.stream", trace.stream_id))
        if trace.pin_reason:
            resource_attrs.append(attr("repro.trace.pin_reason", trace.pin_reason))
        scope_spans.append(
            {
                "resource": {"attributes": resource_attrs},
                "scopeSpans": [
                    {
                        "scope": {"name": "repro.obs.trace", "version": "1"},
                        "spans": spans,
                    }
                ],
            }
        )
    return {"resourceSpans": scope_spans}
