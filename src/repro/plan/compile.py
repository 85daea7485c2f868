"""The one compile step: query AST → optimized tree → canonical plan → routes.

Every path that turns a query into a plan (DSMS registration and
re-planning, ``repro query``/``replay``/``explain``, ``plan_query`` and
the analyzer) calls :func:`compile_query`, so the timestamp policy, the
restriction folds and the routing rectangles are decided once. The one
policy rule: the sources' common policy when they all agree, ``"sector"``
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from ..geo.region import BoundingBox
from ..query import ast as q
from ..query.optimizer import OptimizeResult, optimize as optimize_tree
from .canonical import canonicalize, source_ids

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.stream import GeoStream
    from ..server.catalog import StreamCatalog

__all__ = ["Compiled", "compile_query", "source_prune_boxes"]

# Nodes a source-level pruning box may pass through unchanged: they keep
# point geometry intact (values and timestamps may change freely).
_GEOMETRY_PRESERVING = (q.TemporalRestrict, q.ValueRestrict, q.ValueMap, q.Stretch, q.TemporalAgg)


@dataclass(frozen=True)
class Compiled:
    """One query, compiled: what was asked, what runs, and how it routes.

    ``optimized`` is ``tree`` itself when compiled without the optimizer;
    ``inexact`` lists the firings in ``applied`` that were inexact.
    """

    tree: q.QueryNode
    optimized: q.QueryNode
    applied: tuple[str, ...]
    inexact: tuple[str, ...]
    plan: q.QueryNode
    route_boxes: Mapping[str, BoundingBox | None]


def compile_query(
    tree: q.QueryNode, catalog: "StreamCatalog | Mapping[str, GeoStream]", *, optimize: bool = True
) -> Compiled:
    """Compile a query tree against ``catalog`` (stream id → GeoStream).

    Streams the catalog does not know contribute no CRS and no policy.
    """
    streams = {sid: catalog[sid] for sid in source_ids(tree) if sid in catalog}
    crs_of = {sid: s.crs for sid, s in streams.items()}
    result = optimize_tree(tree, crs_of) if optimize else OptimizeResult(tree, [])
    kept = source_ids(result.node) & set(streams)
    policies = {streams[sid].metadata.timestamp_policy for sid in kept}
    policy = policies.pop() if len(policies) == 1 else "sector"
    plan = canonicalize(result.node, crs_of=crs_of, default_policy=policy)
    # A region above a composition of two CRSs is resolved into one of
    # them; the other side's source then needs every chunk.
    routes = {
        sid: box if box is None or box.crs == crs_of.get(sid, box.crs) else None
        for sid, box in source_prune_boxes(plan).items()
    }
    applied, inexact = tuple(result.applied), tuple(result.inexact)
    return Compiled(tree, result.node, applied, inexact, plan, routes)


def source_prune_boxes(node: q.QueryNode) -> dict[str, BoundingBox | None]:
    """Per-source routing rectangles implied by a canonical plan.

    Walks the plan carrying the intersection of spatial restrictions seen
    on the path, resetting at geometry-changing operators (re-projection,
    zooming, warps). A source mapped to ``None`` needs every chunk.
    Multiple references to the same source union their boxes.
    """
    out: dict[str, BoundingBox | None] = {}

    def visit(n: q.QueryNode, box: BoundingBox | None) -> None:
        if isinstance(n, q.StreamRef):
            sid = n.stream_id
            if sid not in out:
                out[sid] = box
            else:
                prev = out[sid]
                same_crs = prev is not None and box is not None and prev.crs == box.crs
                out[sid] = prev.union(box) if same_crs else None
            return
        if isinstance(n, q.SpatialRestrict):
            rbox = n.region.bounding_box
            if box is not None and box.crs == rbox.crs:
                inter = box.intersection(rbox)
                rbox = inter if inter is not None else BoundingBox(
                    rbox.xmin, rbox.ymin, rbox.xmin, rbox.ymin, rbox.crs
                )
            visit(n.child, rbox)
            return
        if isinstance(n, _GEOMETRY_PRESERVING):
            visit(n.children[0], box)
            return
        if isinstance(n, q.Compose):
            visit(n.left, box)
            visit(n.right, box)
            return
        # Geometry-changing operator: the box (in output coordinates) says
        # nothing directly about source coordinates.
        for child in n.children:
            visit(child, None)

    visit(node, None)
    return out
