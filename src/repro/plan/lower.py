"""Lowering: canonical plan -> GeoStream, on a private PlanDAG.

:func:`plan_to_stream` wires the plan into a fresh
:class:`~repro.plan.stages.PlanDAG` (one stage per distinct subplan,
built by the one operator table, :func:`~repro.plan.ops.make_operator`)
and returns the stream that DAG delivers when fed the plan's sources in
measured-time order (:func:`repro.engine.pipeline.dag_stream`) — the same
stages, step and fan-out the DSMS runs, for one query.
"""

from __future__ import annotations

from typing import Callable

from ..core.stream import GeoStream
from ..engine.pipeline import dag_stream
from ..query import ast as q

__all__ = ["plan_to_stream", "empty_stream"]


def empty_stream(reason: str = "") -> GeoStream:
    """A stream that never produces chunks (optimizer-proven empty query)."""
    from ..core.stream import Organization, StreamMetadata
    from ..core.valueset import FLOAT32
    from ..geo.crs import LATLON

    metadata = StreamMetadata(
        stream_id=f"(empty:{reason})" if reason else "(empty)",
        band="",
        crs=LATLON,
        organization=Organization.IMAGE_BY_IMAGE,
        value_set=FLOAT32,
        description=f"provably empty: {reason}" if reason else "provably empty",
    )
    return GeoStream(metadata, lambda: iter(()))


def plan_to_stream(plan: q.QueryNode, resolve: Callable[[str], GeoStream]) -> GeoStream:
    """Build the executable GeoStream for a canonical plan.

    Fresh operator instances are created per call so that concurrently
    planned queries never share mutable state.
    """
    if isinstance(plan, q.Empty):
        return empty_stream(plan.reason)
    # In plan order, so that sources tie the way a composition's inputs do.
    refs = (n.stream_id for n in q.walk(plan) if isinstance(n, q.StreamRef))
    sources = {sid: resolve(sid) for sid in dict.fromkeys(refs)}
    return dag_stream(sources, lambda dag, sink: dag.add_plan(plan, sink, 0))
