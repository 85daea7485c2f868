"""Operator cost model (Section 3's space/time discussion, quantified).

For each query node the model predicts, per source frame:

* ``work`` — point touches (time proxy),
* ``buffer`` — points of intermediate image data the operator must hold,

from stream profiles (frame geometry per source stream). The predictions
deliberately use only information the paper says is available — known
maximum frame sizes, scan organizations, region geometry — and experiment
A1 compares them against the engine's measured buffer high-water marks.

The optimizer uses the aggregate estimate to pick between equivalent
rewrites; "optimizing queries with respect to regions of interest has the
greatest benefit" falls out of the spatial-selectivity term.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

from ..core.stream import Organization, StreamMetadata
from ..errors import PlanError
from ..geo.crs import CRS
from ..geo.region import BoundingBox
from . import ast as q
from .calibration import CalibrationProfile
from .types import StaticContext, StreamType, infer_types

__all__ = ["StreamProfile", "Estimate", "NodeCost", "estimate_query", "REPROJECT_BAND_FRACTION"]

# Fraction of a frame a re-projection is assumed to buffer when emitting
# incrementally (row-band reprojection; see operators/reprojection.py).
REPROJECT_BAND_FRACTION = 0.2


@dataclass(frozen=True)
class StreamProfile:
    """What the planner knows about a source stream's geometry."""

    frame_points: int
    frame_bbox: BoundingBox
    row_width: int
    organization: Organization
    crs: CRS

    @staticmethod
    def from_metadata(metadata: StreamMetadata, frame_bbox: BoundingBox) -> "StreamProfile":
        if metadata.max_frame_shape is None:
            raise PlanError(
                f"stream {metadata.stream_id!r} has no max_frame_shape; cost "
                "estimation needs the known frame size (Section 3.2)"
            )
        h, w = metadata.max_frame_shape
        return StreamProfile(
            frame_points=h * w,
            frame_bbox=frame_bbox,
            row_width=w,
            organization=metadata.organization,
            crs=metadata.crs,
        )


@dataclass(frozen=True)
class Estimate:
    """Per-frame totals of a query tree."""

    points: float  # points per source frame flowing out of the root
    work: float
    buffer: float  # total buffered points across operators
    max_op_buffer: float
    # Predicted wall seconds per frame; only set when a CalibrationProfile
    # was supplied (work is otherwise a unitless point touch count).
    seconds: float | None = None


@dataclass(frozen=True)
class NodeCost:
    """Per-node breakdown entry for EXPLAIN output and the A1 ablation."""

    node: q.QueryNode
    points_in: float
    points_out: float
    op_buffer: float
    op_work: float


def _compose_buffer(n: q.Compose, a: StreamType, b: StreamType, out: StreamType) -> float:
    if a.organization is Organization.IMAGE_BY_IMAGE:
        return min(_pts(a), _pts(b))  # a full image waits
    return max(_width(a), _width(b))  # one row waits


def _pts(t: StreamType) -> float:
    assert t.points is not None
    return t.points


def _width(t: StreamType) -> float:
    assert t.row_width is not None
    return t.row_width


# (op_work, op_buffer) per node kind, from its input types and output type.
_Formula = Callable[..., tuple[float, float]]
_LEAF: _Formula = lambda n, out: (0.0, 0.0)  # noqa: E731
_SCAN: _Formula = lambda n, c, out: (_pts(c), 0.0)  # noqa: E731
_FORMULAS: dict[type[q.QueryNode], _Formula] = {
    q.StreamRef: _LEAF,
    q.Empty: _LEAF,
    q.SpatialRestrict: _SCAN,
    q.TemporalRestrict: _SCAN,
    q.ValueRestrict: _SCAN,
    q.ValueMap: _SCAN,
    q.RegionAgg: _SCAN,
    q.Stretch: lambda n, c, out: (2.0 * _pts(c), _pts(c)),
    q.Magnify: lambda n, c, out: (_pts(out), 0.0),
    q.Coarsen: lambda n, c, out: (_pts(c), n.k * _width(c)),
    # The output covers the rotated extent; points grow by <= 2x.
    q.Rotate: lambda n, c, out: (2.0 * _pts(c), _pts(c)),
    # Bilinear: four taps per output point.
    q.Reproject: lambda n, c, out: (4.0 * _pts(c), REPROJECT_BAND_FRACTION * _pts(c)),
    q.TemporalAgg: lambda n, c, out: (_pts(c) * n.window, float(n.window) * _pts(c)),
    q.Compose: lambda n, a, b, out: (_pts(a) + _pts(b), _compose_buffer(n, a, b, out)),
}


def estimate_query(
    node: q.QueryNode,
    profiles: Mapping[str, StreamProfile],
    calibration: CalibrationProfile | None = None,
) -> tuple[Estimate, list[NodeCost]]:
    """Estimate per-frame cost of a query tree bottom-up.

    With a :class:`~repro.query.calibration.CalibrationProfile` the
    returned estimate also carries ``seconds`` — the work units priced by
    measured per-operator-kind coefficients.
    """
    types = infer_types(node, StaticContext(profiles=profiles))
    breakdown: list[NodeCost] = []

    def visit(n: q.QueryNode) -> Estimate:
        below = [visit(child) for child in n.children]
        out = types[id(n)]
        if out.points is None:
            if isinstance(n, q.StreamRef):
                raise PlanError(f"no profile for stream {n.stream_id!r}")
            raise PlanError(f"cost model cannot size the output of {n.describe()}")
        formula = _FORMULAS.get(type(n))
        if formula is None:
            raise PlanError(f"cost model does not know node type {type(n).__name__}")
        inputs = [types[id(child)] for child in n.children]
        work, op_buffer = formula(n, *inputs, out)
        points_in = sum((_pts(t) for t in inputs), 0.0)
        breakdown.append(NodeCost(n, points_in, out.points, op_buffer, work))
        return Estimate(
            points=out.points,
            work=sum(e.work for e in below) + work,
            buffer=sum(e.buffer for e in below) + op_buffer,
            max_op_buffer=max([op_buffer, *(e.max_op_buffer for e in below)]),
        )

    total = visit(node)
    if calibration is not None:
        total = replace(total, seconds=calibration.cost_seconds(breakdown))
    return total, breakdown
