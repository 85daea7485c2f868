"""The benchmark's metric names, units, directions and bounds (normative).

``BENCHMARK.json`` at the repo root lists exactly these; ``test_harness.py``
holds the two together.
"""

from __future__ import annotations

from dataclasses import dataclass

P95_MIN_SAMPLES = 200  # p95 needs ten samples beyond it
DRIFT_LIMIT = 0.05  # calibration_ms apart by more than this between A/A sets: machine drift


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float  # share of the parent's median by which it may get worse


# The timing bounds are as tight as ten 10-second runs on ten seeds could hold on
# the shared 2-core box this was written on (README, "departures"): the largest
# quartile spreads seen in four such batches were 9 %, 14 % and 18 %.
END_TO_END = [
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("points_per_s", "points/s", "higher", 0.15),
    EndToEnd("result_latency_ms_p50", "ms", "lower", 0.20),
    EndToEnd("result_latency_ms_p95", "ms", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10),
]
# Always 0 on a correct program, so the driver reads it as failed/attempted
# of the result line and not as a metric; run.py prints it and --aa holds it
# to "any increase".
FAILED_SHARE = EndToEnd("failed_share", "ratio", "lower", 0.0)

OPERATOR_KINDS = (
    "spatial-restriction", "value-transform", "frame-stretch", "composition",
    "region-aggregate", "magnify", "coarsen", "reproject", "delivery",
)
OBSERVATION_COUNTS = (
    "obs.spans", "obs.stage_stats_entries", "obs.frame_traces", "obs.journal_events",
    "obs.store_samples",
)

PER_LAYER = [
    "ingest.generate_s", "ingest.points_per_s", "ingest.chunks",
    "query.parse_ms_p50", "query.optimize_ms_p50", "plan.canonicalize_ms_p50",
    "query.rules_applied",
    "dsms.register_calls", "dsms.register_self_s", "dsms.run_self_s", "dsms.chunks_scanned",
    "dsms.pairs_routed", "dsms.pairs_skipped", "dsms.prune_fraction",
    "scheduler.merge_s", "scheduler.chunks",
    "index.insert_calls", "index.insert_s", "index.overlapping_calls", "index.overlapping_s",
    "index.matched_per_call",
    "plan.dag_feed_calls", "plan.dag_self_s", "plan.stage_feed_calls", "plan.stage_self_s",
    "plan.stages_total", "plan.stages_shared", "plan.stage_executions", "plan.chunks_saved",
    "plan.subplan_hits", "plan.shared_exec_ratio",
    *(
        f"operators.{kind}.{what}"
        for kind in OPERATOR_KINDS
        for what in ("calls", "busy_s", "points_in", "points_out", "max_buffered_points")
    ),
    "session.receive_calls", "session.self_s", "session.frames", "session.records",
    "png.encode_calls", "png.encode_s", "png.pixels_in", "png.bytes_out", "png.ms_per_mpixel",
    "obs.slowdown_ratio", *OBSERVATION_COUNTS,
    "trace.slowdown_ratio", "trace.unattributed_share",
    "harness.cpu_wall_ratio", "harness.calibration_ms",
]

_HIGHER = {
    "ingest.points_per_s", "dsms.pairs_skipped", "dsms.prune_fraction", "plan.stages_shared",
    "plan.chunks_saved", "plan.subplan_hits", "plan.shared_exec_ratio", "session.frames",
    "session.records", "harness.cpu_wall_ratio",
}
_UNIT_BY_SUFFIX = (
    ("points_per_s", "points/s"), ("ms_per_mpixel", "ms/Mpx"), ("_s", "s"), ("_ms", "ms"),
    ("_ms_p50", "ms"), ("_ratio", "ratio"), ("_share", "ratio"), ("_fraction", "ratio"),
    ("points_in", "points"), ("points_out", "points"), ("buffered_points", "points"),
    ("pixels_in", "px"), ("bytes_out", "B"), ("matched_per_call", "ids/call"),
)


def unit_of(name: str) -> str:
    for metric in END_TO_END:
        if metric.name == name:
            return metric.unit
    for suffix, unit in _UNIT_BY_SUFFIX:
        if name.endswith(suffix):
            return unit
    return "count"


def better_of(name: str) -> str:
    return "higher" if name in _HIGHER else "lower"
