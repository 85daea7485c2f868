"""Execution statistics reporting.

Benchmarks, the CLI and the DSMS inspect operator-level counters through
these helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..core.stream import GeoStream
from ..operators.base import BinaryOperator, Operator, OperatorStats
from .pipeline import iter_pipeline_operators

if TYPE_CHECKING:
    from ..obs.registry import MetricsRegistry

__all__ = ["OperatorReport", "pipeline_report", "format_report"]


@dataclass(frozen=True)
class OperatorReport:
    """Snapshot of one operator's counters after a run."""

    name: str
    repr: str
    points_in: int
    points_out: int
    chunks_in: int
    chunks_out: int
    max_buffered_points: int
    max_buffered_bytes: int
    nonblocking: bool
    mean_wait_time: float = 0.0
    max_wait_time: float = 0.0
    accounting_errors: int = 0

    @staticmethod
    def from_operator(op: Operator | BinaryOperator) -> "OperatorReport":
        s: OperatorStats = op.stats
        return OperatorReport(
            name=op.name,
            repr=repr(op),
            points_in=s.points_in,
            points_out=s.points_out,
            chunks_in=s.chunks_in,
            chunks_out=s.chunks_out,
            max_buffered_points=s.max_buffered_points,
            max_buffered_bytes=s.max_buffered_bytes,
            nonblocking=s.is_nonblocking,
            mean_wait_time=s.mean_wait_time,
            max_wait_time=s.wait_time_max,
            accounting_errors=s.accounting_errors,
        )


def pipeline_report(stream: GeoStream) -> list[OperatorReport]:
    """Reports for every operator reachable upstream of ``stream``.

    Call after consuming the stream; counters reflect the most recent run.
    """
    return [OperatorReport.from_operator(op) for op in iter_pipeline_operators(stream)]


def format_report(
    reports: Sequence[OperatorReport], registry: "MetricsRegistry | None" = None
) -> str:
    """Human-readable table of operator counters.

    Columns mirror the :class:`OperatorReport` fields: point and chunk
    throughput, buffering high-water marks, and both mean and max wait
    times (a composition's typical vs worst-case partner wait differ by
    orders of magnitude under sequential band scans).

    Passing a :class:`~repro.obs.registry.MetricsRegistry` appends a
    quantile section: interpolated p50/p95/p99 for every histogram the
    run published (delivery lag, per-operator wall time, ...).
    """
    header = (
        f"{'operator':<28} {'pts_in':>10} {'pts_out':>10} {'chunks_in/out':>13} "
        f"{'max_buf_pts':>12} {'max_buf_KB':>11} {'mean_wait_s':>12} {'max_wait_s':>11}"
    )
    lines = [header, "-" * len(header)]
    for r in reports:
        chunks = f"{r.chunks_in}/{r.chunks_out}"
        mean_wait = f"{r.mean_wait_time:.1f}" if r.mean_wait_time else "-"
        max_wait = f"{r.max_wait_time:.1f}" if r.max_wait_time else "-"
        lines.append(
            f"{r.repr:<28.28} {r.points_in:>10} {r.points_out:>10} {chunks:>13} "
            f"{r.max_buffered_points:>12} {r.max_buffered_bytes / 1024:>11.1f} "
            f"{mean_wait:>12} {max_wait:>11}"
        )
    if registry is not None:
        quantile_lines = []
        for metric in registry:
            if metric.kind != "histogram":
                continue
            snap = metric.snapshot()
            if not snap["count"]:
                continue
            label_text = ",".join(f"{k}={v}" for k, v in sorted(snap["labels"].items()))
            name = snap["name"] + (f"{{{label_text}}}" if label_text else "")

            def fmt(v: float | None) -> str:
                return f"{v:.4g}" if v is not None else "-"

            quantile_lines.append(
                f"  {name:<48.48} p50 {fmt(snap['p50']):>9} "
                f"p95 {fmt(snap['p95']):>9} p99 {fmt(snap['p99']):>9} "
                f"(n={snap['count']})"
            )
        if quantile_lines:
            lines.append("")
            lines.append("histogram quantiles (interpolated from buckets):")
            lines.extend(quantile_lines)
    return "\n".join(lines)
