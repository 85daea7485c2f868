"""Static stream types: one bottom-up pass over a query tree.

The algebra is closed (Section 3): every operator maps GeoStreams to a
GeoStream, so the static *type* of a node's output — CRS, spatial
extent, value domain, band arity, measured-time and scan-sector windows,
and (given a :class:`~repro.query.cost.StreamProfile`) points per frame,
row width and organization — is a pure function of its inputs' types
and the catalog facts. :func:`infer_types` computes it once per node
from one table of per-kind rules; the analyzer, the cost model, the
optimizer and the canonicalizer all read that table.

Every field is a conservative bound: ``None`` means unknown, an extent
is a superset of where the stream's points can lie, and a value domain
is a superset of the values it can carry. A consumer may therefore prove
a query wrong from a type, never from a loose approximation of one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Mapping

from ..core.stream import Organization
from ..core.timeset import TimeInterval, TimeSet
from ..errors import GeoStreamsError
from ..geo.crs import CRS
from ..geo.region import BoundingBox, Region
from . import ast as q

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..server.catalog import StreamCatalog
    from .cost import StreamProfile

__all__ = ["StaticContext", "StreamType", "infer_types", "region_box"]

STRETCH_KINDS = frozenset({"linear", "equalize", "gaussian"})
# Contrast stretches normalize onto the 8-bit display range.
_STRETCH_RANGE: tuple[float | None, float | None] = (0.0, 255.0)


@dataclass(frozen=True)
class StaticContext:
    """Catalog-derived facts the type rules can lean on (all optional).

    Explicit maps win; a stream's :class:`StreamProfile` fills in its
    CRS and extent when they are absent, so ``StaticContext(profiles=...)``
    alone is enough to price a query.
    """

    known_streams: frozenset[str] | None = None
    crs_of: Mapping[str, CRS] | None = None
    extents: Mapping[str, BoundingBox] | None = None
    value_bounds: Mapping[str, tuple[float | None, float | None]] | None = None
    channels: Mapping[str, int] | None = None
    profiles: "Mapping[str, StreamProfile] | None" = None

    @classmethod
    def from_catalog(cls, catalog: "StreamCatalog") -> "StaticContext":
        ids = list(catalog.ids())
        value_sets = {sid: catalog.get(sid).metadata.value_set for sid in ids}
        return cls(
            known_streams=frozenset(ids),
            crs_of=dict(catalog.crs_of()),
            extents={sid: catalog.extent(sid) for sid in ids},
            value_bounds={sid: (v.lo, v.hi) for sid, v in value_sets.items()},
            channels={sid: v.channels for sid, v in value_sets.items()},
            profiles=catalog.profiles(),
        )


@dataclass(frozen=True)
class StreamType:
    """Static type of a sub-expression's output (None = unknown)."""

    crs: CRS | None = None
    bbox: BoundingBox | None = None  # carries its own CRS
    restricted: bool = False  # bbox tightened by a restriction already?
    points: float | None = None  # points per source frame
    row_width: float | None = None
    organization: Organization | None = None
    lo: float | None = None
    hi: float | None = None
    channels: int | None = None
    t_lo: float = -math.inf  # accumulated measured-time window
    t_hi: float = math.inf
    s_lo: float = -math.inf  # accumulated scan-sector window
    s_hi: float = math.inf

    @property
    def space(self) -> CRS | None:
        """The CRS regions are mapped into before meeting this stream."""
        return self.crs or (self.bbox.crs if self.bbox is not None else None)


_UNKNOWN = StreamType()


def region_box(region: Region, t: StreamType) -> BoundingBox | None:
    """``region``'s bounding box in ``t``'s CRS (None: the region has none).

    Raises :class:`GeoStreamsError` when the box cannot be mapped.
    """
    try:
        box = region.bounding_box
    except GeoStreamsError:
        return None
    space = t.space
    if space is not None and box.crs != space:
        box = box.transformed(space)
    return box


def half_open_empty(timeset: TimeSet) -> bool:
    return (
        isinstance(timeset, TimeInterval)
        and timeset.start == timeset.end
        and not (timeset.closed_start and timeset.closed_end)
    )


def windowed(timeset: TimeSet) -> bool:
    """Does ``timeset`` narrow the measured-time window (is it bounded)?"""
    lo, hi = timeset.bounds()
    return isinstance(timeset, TimeInterval) or not (math.isinf(lo) and math.isinf(hi))


def _scaled(t: StreamType, frac: float, wfrac: float) -> StreamType:
    """``t`` with its frame size scaled by an area and a width fraction."""
    return replace(
        t,
        points=None if t.points is None else t.points * frac,
        row_width=None if t.row_width is None else t.row_width * wfrac,
    )


def _both(f: Callable[[float, float], float], a: float | None, b: float | None) -> float | None:
    """``f(a, b)``, unknown when either side is."""
    return None if a is None or b is None else f(a, b)


# -- the rules: one per node kind ---------------------------------------------------


def _stream(n: q.StreamRef, ctx: StaticContext) -> StreamType:
    sid = n.stream_id
    if ctx.known_streams is not None and sid not in ctx.known_streams:
        return _UNKNOWN
    prof = (ctx.profiles or {}).get(sid)
    lo, hi = (ctx.value_bounds or {}).get(sid, (None, None))
    return StreamType(
        crs=(ctx.crs_of or {}).get(sid, None if prof is None else prof.crs),
        bbox=(ctx.extents or {}).get(sid, None if prof is None else prof.frame_bbox),
        points=None if prof is None else float(prof.frame_points),
        row_width=None if prof is None else float(prof.row_width),
        organization=None if prof is None else prof.organization,
        lo=lo,
        hi=hi,
        channels=(ctx.channels or {}).get(sid),
    )


def _empty(n: q.Empty, ctx: StaticContext) -> StreamType:
    return StreamType(points=0.0, row_width=0.0, organization=Organization.IMAGE_BY_IMAGE)


def _spatial(n: q.SpatialRestrict, ctx: StaticContext, c: StreamType) -> StreamType:
    # A restriction that keeps nothing leaves the extent bound as it was
    # (a superset is still sound) and the frame empty.
    out = replace(c, restricted=True)
    empty = _scaled(out, 0.0, 0.0)
    if getattr(n.region, "is_empty_hint", False):
        return empty
    try:
        box = region_box(n.region, c)
    except GeoStreamsError:
        return empty
    if box is None:
        return out
    if c.bbox is None or box.crs != c.bbox.crs:
        return replace(out, bbox=box)
    inter = box.intersection(c.bbox)
    if inter is None or c.bbox.area == 0:
        return replace(empty, bbox=inter or c.bbox)
    wfrac = inter.width / c.bbox.width if c.bbox.width else 1.0
    return _scaled(replace(out, bbox=inter), inter.area / c.bbox.area, wfrac)


def _temporal(n: q.TemporalRestrict, ctx: StaticContext, c: StreamType) -> StreamType:
    if n.timeset.definitely_empty or half_open_empty(n.timeset):
        return c  # an empty window leaves the windows as they were
    lo, hi = n.timeset.bounds()
    if n.on_sector and hi >= 0:
        return replace(c, s_lo=max(c.s_lo, lo), s_hi=min(c.s_hi, hi))
    if not n.on_sector and windowed(n.timeset):
        return replace(c, t_lo=max(c.t_lo, lo), t_hi=min(c.t_hi, hi))
    return c


def _vrange(n: q.ValueRestrict, ctx: StaticContext, c: StreamType) -> StreamType:
    lo = c.lo if n.lo is None else (n.lo if c.lo is None else max(n.lo, c.lo))
    hi = c.hi if n.hi is None else (n.hi if c.hi is None else min(n.hi, c.hi))
    if lo is not None and hi is not None and lo > hi:
        return c  # an empty range leaves the domain as it was
    return replace(c, lo=lo, hi=hi)


def _value_map(n: q.ValueMap, ctx: StaticContext, c: StreamType) -> StreamType:
    kind, lo, hi = n.kind, c.lo, c.hi
    if kind == "reflectance":
        lo, hi = 0.0, 1.0
    elif kind == "rescale":
        gain = float(n.param("gain", 1.0))
        offset = float(n.param("offset", 0.0))
        a = None if lo is None else lo * gain + offset
        b = None if hi is None else hi * gain + offset
        lo, hi = (b, a) if gain < 0 else (a, b)
    elif kind == "negate":
        lo, hi = (None if hi is None else -hi), (None if lo is None else -lo)
    elif kind == "absolute":
        lo, hi = 0.0, (None if lo is None or hi is None else max(abs(lo), abs(hi)))
    elif kind == "gamma" and lo is not None and hi is not None and lo >= 0.0:
        exponent = float(n.param("exponent", 1.0))
        lo, hi = (lo**exponent, hi**exponent) if exponent > 0 else (None, None)
    else:  # unknown kinds, and gamma off the non-negative domain: unbounded
        lo, hi = None, None
    return replace(c, lo=lo, hi=hi)


def _stretch(n: q.Stretch, ctx: StaticContext, c: StreamType) -> StreamType:
    lo, hi = _STRETCH_RANGE if n.kind in STRETCH_KINDS else (None, None)
    return replace(c, lo=lo, hi=hi)


def _magnify(n: q.Magnify, ctx: StaticContext, c: StreamType) -> StreamType:
    return _scaled(c, float(n.k * n.k), float(n.k))


def _coarsen(n: q.Coarsen, ctx: StaticContext, c: StreamType) -> StreamType:
    if n.k < 1:
        return replace(c, points=None, row_width=None)
    return replace(
        c,
        points=None if c.points is None else c.points / (n.k * n.k),
        row_width=None if c.row_width is None else c.row_width / n.k,
    )


def _rotate(n: q.Rotate, ctx: StaticContext, c: StreamType) -> StreamType:
    # The warp sizes its output lattice to the rotated corners, which can
    # reach past the input extent. Unknown is sound; a tight bound needs
    # the rotated lattice's geometry.
    return replace(c, bbox=None)


def _reproject(n: q.Reproject, ctx: StaticContext, c: StreamType) -> StreamType:
    try:
        bbox = None if c.bbox is None else c.bbox.transformed(n.dst_crs)
    except GeoStreamsError:
        bbox = None
    return replace(c, crs=n.dst_crs, bbox=bbox)


def _compose(n: q.Compose, ctx: StaticContext, a: StreamType, b: StreamType) -> StreamType:
    # Composition pairs only chunks with identical lattice windows
    # (operators/composition.py), so its output lies inside the
    # *intersection* of the operand extents; disjoint extents leave none.
    space = a.space or b.space
    boxes = [t.bbox for t in (a, b) if t.bbox is not None and t.bbox.crs == space]
    bbox = boxes[0] if boxes else None
    if len(boxes) == 2:
        bbox = boxes[0].intersection(boxes[1])
    lo, hi = _compose_bounds(n.gamma, a, b)
    out = StreamType(
        crs=a.crs or b.crs,
        bbox=bbox,
        restricted=a.restricted or b.restricted,
        points=_both(min, a.points, b.points),
        row_width=_both(min, a.row_width, b.row_width),
        organization=a.organization or b.organization,
        lo=lo,
        hi=hi,
        channels=a.channels or b.channels,
        t_lo=min(a.t_lo, b.t_lo),
        t_hi=max(a.t_hi, b.t_hi),
        s_lo=min(a.s_lo, b.s_lo),
        s_hi=max(a.s_hi, b.s_hi),
    )
    return _scaled(out, 0.0, 0.0) if len(boxes) == 2 and bbox is None else out


def _temporal_agg(n: q.TemporalAgg, ctx: StaticContext, c: StreamType) -> StreamType:
    if n.window < 1:
        return c
    if n.func == "count":
        return replace(c, lo=0.0, hi=float(n.window))
    if n.func == "sum":
        lo = None if c.lo is None else min(0.0, n.window * c.lo)
        hi = None if c.hi is None else max(0.0, n.window * c.hi)
        return replace(c, lo=lo, hi=hi)
    return c


def _region_agg(n: q.RegionAgg, ctx: StaticContext, c: StreamType) -> StreamType:
    return replace(c, points=float(len(n.regions)), lo=None, hi=None)


_RULES: dict[type[q.QueryNode], Callable[..., StreamType]] = {
    q.StreamRef: _stream,
    q.Empty: _empty,
    q.SpatialRestrict: _spatial,
    q.TemporalRestrict: _temporal,
    q.ValueRestrict: _vrange,
    q.ValueMap: _value_map,
    q.Stretch: _stretch,
    q.Magnify: _magnify,
    q.Coarsen: _coarsen,
    q.Rotate: _rotate,
    q.Reproject: _reproject,
    q.Compose: _compose,
    q.TemporalAgg: _temporal_agg,
    q.RegionAgg: _region_agg,
}


def infer_types(tree: q.QueryNode, ctx: StaticContext) -> dict[int, StreamType]:
    """The output type of every node of ``tree``, keyed by ``id(node)``."""
    table: dict[int, StreamType] = {}
    for node in q.post_order(tree):
        inputs = [table[id(child)] for child in node.children]
        rule = _RULES.get(type(node))
        if rule is not None:
            table[id(node)] = rule(node, ctx, *inputs)
        else:  # unknown node kinds flow through their first child untouched
            table[id(node)] = inputs[0] if inputs else _UNKNOWN
    return table


# -- value-bound arithmetic (None = unknown/unbounded, propagated conservatively) ---


def _compose_bounds(
    gamma: str, left: StreamType, right: StreamType
) -> tuple[float | None, float | None]:
    if gamma == "ndvi":
        return -1.0, 1.0
    if gamma == "evi2":
        return -2.5, 2.5
    ll, lh, rl, rh = left.lo, left.hi, right.lo, right.hi
    if gamma == "+":
        return _both(operator.add, ll, rl), _both(operator.add, lh, rh)
    if gamma == "-":
        return _both(operator.sub, ll, rh), _both(operator.sub, lh, rl)
    if gamma == "*":
        if ll is None or lh is None or rl is None or rh is None:
            return None, None
        prods = (ll * rl, ll * rh, lh * rl, lh * rh)
        return min(prods), max(prods)
    if gamma == "sup":
        return max((v for v in (ll, rl) if v is not None), default=None), _both(max, lh, rh)
    if gamma == "inf":
        return _both(min, ll, rl), min((v for v in (lh, rh) if v is not None), default=None)
    if gamma == "mosaic":
        return _both(min, ll, rl), _both(max, lh, rh)
    return None, None  # "/" and unknown kernels: unbounded
