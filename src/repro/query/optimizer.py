"""Query rewriting (Section 3.4).

The paper's running example: in
``((f_val((G1 - G2) / (G2 + G1))) f_UTM) |R`` the final spatial
restriction R "can be pushed inwards and applied first to G1 and G2
before any composition. However, because in the query R is based on the
UTM coordinate system, R needs to be mapped to the coordinate system C."
And: "the query optimizer has to identify such rewrites in particular for
spatial selections, as these result in the most significant space and
time gains."

Implemented rules (each records its name when applied):

* ``merge-spatial`` / ``merge-temporal`` — collapse stacked restrictions
  by intersecting regions / time sets.
* ``push-spatial-valuemap`` — R(f_val(G)) = f_val(R(G)) (exact for
  pointwise transforms).
* ``push-spatial-stretch`` — same through frame stretches; *inexact*:
  the stretch then normalizes over the restricted region instead of the
  full frame (usually the intent; disable with ``allow_inexact=False``).
* ``push-spatial-compose`` — R(G1 γ G2) = R(G1) γ R(G2).
* ``push-spatial-reproject`` — insert a conservative source-CRS bounding
  box below the re-projection (the region mapped through the CRS change),
  keeping the exact restriction on top. This is the paper's R -> C
  mapping; the inner box prunes data early, the outer restriction keeps
  semantics exact.
* ``push-spatial-magnify`` — restrict before magnification. *Inexact* at
  pixel boundaries (a coarse pixel centered just outside R may own fine
  sub-pixels inside R), so gated behind ``allow_inexact`` like the
  stretch pushdown; the outer restriction is kept either way.
* ``push-temporal-*`` — temporal restrictions commute with every unary
  operator and distribute over composition. Exact for sector-id
  restrictions and through ValueMap/Magnify; a measured-time push through
  a buffering operator or a composition is *inexact* at window edges.
  Exactness is thus per firing: :attr:`OptimizeResult.inexact` lists the
  names that fired inexactly.
* ``temporal-first`` — evaluate the O(1)-per-chunk temporal test before
  per-point spatial tests.
* ``drop-identity`` — remove Magnify/Coarsen k=1 and Rotate 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..core.timeset import intersect_timesets
from ..errors import RegionError
from ..geo.crs import CRS
from ..geo.region import BoundingBox, intersect_regions
from . import ast as q
from .types import StaticContext, infer_types

__all__ = ["optimize", "OptimizeResult", "Rewriter", "Rule"]


@dataclass
class OptimizeResult:
    """A rewritten tree, the applied rule names and the inexact firings."""

    node: q.QueryNode
    applied: list[str]
    inexact: list[str] = field(default_factory=list)

    def explain(self) -> str:
        rules = ", ".join(self.applied) if self.applied else "(no rewrites)"
        return f"applied: {rules}\n{self.node.pretty()}"


class Rewriter:
    """Bottom-up rewriting to fixpoint over one table of named rules.

    A rule returns a replacement node or ``None``; when it fires, the
    driver notes its table name unless the rule noted a finer one itself.
    """

    def __init__(
        self,
        rules: Sequence[tuple[str, "Rule"]],
        crs_of_stream: Mapping[str, CRS],
        allow_inexact: bool = True,
    ) -> None:
        self.rules = rules
        self.facts = StaticContext(crs_of=crs_of_stream)
        self.allow_inexact = allow_inexact
        self.applied: list[str] = []
        self.inexact: list[str] = []

    def crs_of(self, node: q.QueryNode) -> CRS | None:
        """Static output CRS of a subtree (``None`` when unknown)."""
        return infer_types(node, self.facts)[id(node)].crs

    # -- individual rules; return a replacement node or None ------------------

    def merge_spatial(self, node: q.QueryNode) -> q.QueryNode | None:
        if not (
            isinstance(node, q.SpatialRestrict)
            and isinstance(node.child, q.SpatialRestrict)
        ):
            return None
        inner = node.child
        if node.region.crs != inner.region.crs:
            return None
        if node.region is inner.region or node.region == inner.region:
            return inner  # identical restriction twice
        merged = intersect_regions(node.region, inner.region)
        return q.SpatialRestrict(inner.child, merged)

    def merge_temporal(self, node: q.QueryNode) -> q.QueryNode | None:
        if not (
            isinstance(node, q.TemporalRestrict)
            and isinstance(node.child, q.TemporalRestrict)
            and node.on_sector == node.child.on_sector
        ):
            return None
        inner = node.child
        if node.timeset == inner.timeset:
            return inner
        merged = intersect_timesets(node.timeset, inner.timeset)
        return q.TemporalRestrict(inner.child, merged, node.on_sector)

    @staticmethod
    def _pruned_below(subtree: q.QueryNode, box: BoundingBox) -> bool:
        """True when the subtree already contains a spatial restriction at
        least as tight as ``box`` (same CRS), so inserting another one
        would only loop: the inserted restriction sinks toward the leaves
        on later passes, and without this check the push rule would keep
        re-firing on the then-unrestricted intermediate node."""
        slack = box.expanded(
            1e-9 * (abs(box.width) + abs(box.height) + 1.0)
        )
        for sub in q.walk(subtree):
            if isinstance(sub, q.SpatialRestrict) and sub.region.crs == box.crs:
                inner_box = sub.region.bounding_box
                if slack.contains_box(inner_box):
                    return True
        return False

    def push_spatial(self, node: q.QueryNode) -> q.QueryNode | None:
        if not isinstance(node, q.SpatialRestrict):
            return None
        child = node.child
        region = node.region

        if isinstance(child, q.ValueMap):
            self.note("push-spatial-valuemap")
            return child.with_children(q.SpatialRestrict(child.child, region))

        if isinstance(child, q.Stretch):
            if not self.allow_inexact:
                return None
            self.note("push-spatial-stretch", exact=False)
            return child.with_children(q.SpatialRestrict(child.child, region))

        if isinstance(child, q.Compose):
            self.note("push-spatial-compose")
            return q.Compose(
                q.SpatialRestrict(child.left, region),
                q.SpatialRestrict(child.right, region),
                child.gamma,
            )

        if isinstance(child, q.Magnify):
            # Inexact at pixel boundaries: a coarse pixel whose *center*
            # lies just outside R can still own fine sub-pixels whose
            # centers are inside R; pruning it first loses those points.
            # (Hypothesis found this; see test_property_algebra.)
            if not self.allow_inexact:
                return None
            if self._pruned_below(child, region.bounding_box):
                return None  # pruning already in place
            self.note("push-spatial-magnify", exact=False)
            # Keep the outer restriction for pixel-exact boundaries; the
            # inner bounding box does the bulk pruning before zooming.
            return q.SpatialRestrict(
                child.with_children(
                    q.SpatialRestrict(child.child, region.bounding_box)
                ),
                region,
            )

        if isinstance(child, q.Reproject):
            src_crs = self.crs_of(child.child)
            if src_crs is None:
                return None
            try:
                mapped = region.bounding_box.transformed(src_crs)
            except RegionError:
                return None
            # Margin for the resampling kernel's footprint at the region
            # boundary (source resolution is unknown at this level, so a
            # small relative margin stands in for a few pixels).
            mapped = mapped.expanded(0.03 * mapped.width, 0.03 * mapped.height)
            # Do not re-insert if pruning is already in place below.
            if self._pruned_below(child, mapped):
                return None
            self.note("push-spatial-reproject")
            return q.SpatialRestrict(
                child.with_children(q.SpatialRestrict(child.child, mapped)),
                region,
            )
        return None

    def push_temporal(self, node: q.QueryNode) -> q.QueryNode | None:
        if not isinstance(node, q.TemporalRestrict):
            return None
        child = node.child
        # ValueMap and Magnify are chunk-at-a-time and timestamp-preserving,
        # so the push is always exact. Stretch/Coarsen/Rotate/Reproject
        # buffer multi-row bands or whole frames whose rows carry different
        # measured timestamps: restricting the *input* rows by measured time
        # can split a frame and change the result at interval boundaries.
        # Sector-id restrictions are frame-granular, so they stay exact.
        exact = isinstance(child, (q.ValueMap, q.Magnify)) or node.on_sector
        if isinstance(
            child,
            (q.ValueMap, q.Stretch, q.Magnify, q.Coarsen, q.Rotate, q.Reproject),
        ) and (exact or self.allow_inexact):
            self.note("push-temporal-unary", exact)
            return child.with_children(
                q.TemporalRestrict(child.child, node.timeset, node.on_sector)
            )
        # Composition pairs chunks by scan sector, not measured time, so a
        # measured-time window pushed into each operand can drop a pair whose
        # two halves fall on either side of the window edge.
        if isinstance(child, q.Compose) and (node.on_sector or self.allow_inexact):
            self.note("push-temporal-compose", node.on_sector)
            return q.Compose(
                q.TemporalRestrict(child.left, node.timeset, node.on_sector),
                q.TemporalRestrict(child.right, node.timeset, node.on_sector),
                child.gamma,
            )
        return None

    def temporal_first(self, node: q.QueryNode) -> q.QueryNode | None:
        # TemporalRestrict(SpatialRestrict(x)) -> SpatialRestrict(TemporalRestrict(x)):
        # the whole-chunk temporal check then runs before per-point tests.
        if isinstance(node, q.TemporalRestrict) and isinstance(
            node.child, q.SpatialRestrict
        ):
            inner = node.child
            return q.SpatialRestrict(
                q.TemporalRestrict(inner.child, node.timeset, node.on_sector),
                inner.region,
            )
        return None

    def push_value_through_rescale(self, node: q.QueryNode) -> q.QueryNode | None:
        """V-restriction through an affine value map is exact: invert the
        bounds. gain*v + offset in [lo, hi]  <=>  v in [(lo-offset)/gain,
        (hi-offset)/gain] (swapped when gain < 0)."""
        if not (
            isinstance(node, q.ValueRestrict)
            and isinstance(node.child, q.ValueMap)
            and node.child.kind == "rescale"
        ):
            return None
        vm = node.child
        gain = vm.param("gain", 1.0)
        offset = vm.param("offset", 0.0)
        if gain == 0.0:
            return None  # constant output; restriction can't be inverted
        lo = (node.lo - offset) / gain if node.lo is not None else None
        hi = (node.hi - offset) / gain if node.hi is not None else None
        if gain < 0:
            lo, hi = hi, lo
        self.note("push-value-rescale")
        return vm.with_children(q.ValueRestrict(vm.child, lo, hi))

    def prune_empty(self, node: q.QueryNode) -> q.QueryNode | None:
        """Replace provably-empty subtrees with an Empty leaf."""
        from ..geo.region import IntersectionRegion

        if isinstance(node, q.SpatialRestrict):
            region = node.region
            if isinstance(region, IntersectionRegion) and region.is_empty_hint:
                return q.Empty("disjoint spatial restrictions")
            bbox = region.bounding_box
            if bbox.is_degenerate and bbox.area == 0.0 and bbox.width == 0.0 and bbox.height == 0.0:
                # A zero-extent box only arises from an empty intersection.
                return q.Empty("degenerate region")
        if isinstance(node, q.TemporalRestrict) and node.timeset.definitely_empty:
            return q.Empty("empty time set")
        if isinstance(node, q.ValueRestrict):
            if node.lo is not None and node.hi is not None and node.lo > node.hi:
                return q.Empty("inverted value range")
        # Emptiness propagates through every operator.
        if isinstance(node, q.Compose):
            if isinstance(node.left, q.Empty) or isinstance(node.right, q.Empty):
                return q.Empty("composition with an empty input")
        elif node.children and isinstance(node.children[0], q.Empty) and not isinstance(
            node, q.Empty
        ):
            return node.children[0]
        return None

    def drop_identity(self, node: q.QueryNode) -> q.QueryNode | None:
        if isinstance(node, q.Magnify) and node.k == 1:
            return node.child
        if isinstance(node, q.Coarsen) and node.k == 1:
            return node.child
        if isinstance(node, q.Rotate) and node.angle_deg % 360.0 == 0.0:
            return node.child
        return None

    # -- driving ------------------------------------------------------------------

    def note(self, name: str, exact: bool = True) -> None:
        self.applied.append(name)
        if not exact:
            self.inexact.append(name)

    def rewrite(self, node: q.QueryNode) -> q.QueryNode:
        # Bottom-up: rewrite children first, then try rules at this node.
        children = node.children
        if children:
            new_children = tuple(self.rewrite(c) for c in children)
            if any(nc is not oc for nc, oc in zip(new_children, children)):
                node = node.with_children(*new_children)
        for name, rule in self.rules:
            noted = len(self.applied)
            replacement = rule(self, node)
            if replacement is not None:
                if len(self.applied) == noted:
                    self.note(name)
                return self.rewrite(replacement)
        return node

    def run(self, node: q.QueryNode, max_passes: int = 8) -> OptimizeResult:
        """Rewrite ``node`` to fixpoint (or ``max_passes``)."""
        current = node
        for _ in range(max_passes):
            new = self.rewrite(current)
            if new == current:
                break
            current = new
        return OptimizeResult(current, self.applied, self.inexact)


Rule = Callable[[Rewriter, q.QueryNode], "q.QueryNode | None"]

OPTIMIZER_RULES: tuple[tuple[str, Rule], ...] = (
    ("prune-empty", Rewriter.prune_empty),
    ("merge-spatial", Rewriter.merge_spatial),
    ("merge-temporal", Rewriter.merge_temporal),
    ("drop-identity", Rewriter.drop_identity),
    ("temporal-first", Rewriter.temporal_first),
    ("push-spatial", Rewriter.push_spatial),
    ("push-temporal", Rewriter.push_temporal),
    ("push-value-rescale", Rewriter.push_value_through_rescale),
)


def optimize(
    node: q.QueryNode,
    crs_of_stream: Mapping[str, CRS] | None = None,
    allow_inexact: bool = True,
    max_passes: int = 8,
) -> OptimizeResult:
    """Rewrite a query tree to fixpoint (or ``max_passes``)."""
    rewriter = Rewriter(OPTIMIZER_RULES, crs_of_stream or {}, allow_inexact)
    return rewriter.run(node, max_passes)
