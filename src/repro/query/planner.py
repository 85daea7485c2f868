"""Physical planning: lower a query tree onto operator pipelines.

The planner is a thin lowering over the plan IR (``repro.plan``): the
query tree is canonicalized — commutative compositions ordered, adjacent
restrictions folded, regions resolved into their input CRS — and the
canonical plan is turned into a lazy GeoStream with fresh operator
instances per call (fresh so that concurrently registered queries never
share mutable state). The push compiler lowers from the same IR, so
operator construction lives in exactly one place.
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
    from ..plan import canonicalize, plan_to_stream

    def resolve(stream_id: str) -> GeoStream:
        if callable(catalog):
            return catalog(stream_id)
        try:
            return catalog[stream_id]
        except KeyError:
            raise PlanError(f"unknown stream {stream_id!r}") from None

    # Resolve every referenced source up front: their CRSs and timestamp
    # policies feed canonicalization (and unknown streams fail early).
    sources: dict[str, GeoStream] = {}
    for ref in (n for n in q.walk(node) if isinstance(n, q.StreamRef)):
        if ref.stream_id not in sources:
            sources[ref.stream_id] = resolve(ref.stream_id)
    plan = canonicalize(
        node,
        crs_of={sid: s.crs for sid, s in sources.items()},
        policy_of={sid: s.metadata.timestamp_policy for sid, s in sources.items()},
        default_policy="measured",
    )
    return plan_to_stream(
        plan, lambda sid: sources[sid] if sid in sources else resolve(sid)
    )
