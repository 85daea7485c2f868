"""Physical planning: lower a query tree onto an operator pipeline.

The planner is a thin lowering over the plan IR (``repro.plan``): the
query tree is compiled *as written* (no optimizer rewrites) by
:func:`~repro.plan.compile_query` — the same step every other path
uses — and the canonical plan is turned into a lazy GeoStream with fresh
operator instances per call (fresh so that concurrently registered
queries never share mutable state).
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..core.stream import GeoStream
from ..errors import PlanError
from . import ast as q

__all__ = ["plan_query"]


def plan_query(
    node: q.QueryNode,
    catalog: Mapping[str, GeoStream] | Callable[[str], GeoStream],
) -> GeoStream:
    """Build the executable GeoStream for a query tree.

    ``catalog`` resolves stream ids to source GeoStreams (a mapping or a
    resolver function). Fresh operator instances are created per call.
    """
    # Imported lazily: repro.plan itself imports the query package.
    from ..plan import compile_query, plan_to_stream, source_ids

    def resolve(stream_id: str) -> GeoStream:
        if callable(catalog):
            return catalog(stream_id)
        try:
            return catalog[stream_id]
        except KeyError:
            raise PlanError(f"unknown stream {stream_id!r}") from None

    # Resolve every referenced source up front: their CRSs and timestamp
    # policies feed compilation (and unknown streams fail early).
    sources = {sid: resolve(sid) for sid in source_ids(node)}
    plan = compile_query(node, sources, optimize=False).plan
    return plan_to_stream(plan, sources.__getitem__)
