"""Pull-side lowering: canonical plan → lazy GeoStream pipeline.

The pull executor re-opens sources per query, so no stages are shared;
what it shares with the push executor is the *plan* and the single
operator-construction table (:func:`~repro.plan.ops.make_operator`).
"""

from __future__ import annotations

from typing import Callable, TypeVar

from ..core.stream import GeoStream
from ..engine.pipeline import compose_streams
from ..operators.base import BinaryOperator, Operator
from ..query import ast as q
from .ops import make_operator

__all__ = ["plan_to_stream", "empty_stream"]

_OpT = TypeVar("_OpT", bound="Operator | BinaryOperator")


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


def _stamp(op: _OpT, plan: q.QueryNode) -> _OpT:
    """Tag a fresh operator with its plan node's identity.

    The pull executor has no shared stages, but stamping the subplan
    fingerprint lets :mod:`repro.obs.stats` account pull-path work in the
    same per-subplan ledgers the push DAG uses.
    """
    op.plan_fingerprint = plan.fingerprint
    op.plan_label = plan.describe()
    op.plan_kind = type(plan).__name__
    return op


def plan_to_stream(plan: q.QueryNode, resolve: Callable[[str], GeoStream]) -> GeoStream:
    """Build the executable GeoStream for a canonical plan.

    Fresh operator instances are created per call so that concurrently
    planned queries never share mutable state.
    """
    if isinstance(plan, q.StreamRef):
        return resolve(plan.stream_id)
    if isinstance(plan, q.Empty):
        return empty_stream(plan.reason)
    if isinstance(plan, q.Compose):
        left = plan_to_stream(plan.left, resolve)
        right = plan_to_stream(plan.right, resolve)
        return compose_streams(left, right, _stamp(make_operator(plan), plan))
    child = plan_to_stream(plan.children[0], resolve)
    op = _stamp(make_operator(plan), plan)
    assert isinstance(op, Operator), f"unary plan node built a binary operator: {plan.describe()}"
    return child.pipe(op)
