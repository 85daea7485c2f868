"""Logical AST → the same AST in canonical form, which is the physical plan.

Canonicalization makes structurally different but equivalent query trees
produce *equal* nodes (hence equal fingerprints), which is what subplan
sharing keys on:

* commutative compositions (γ in ``+ * sup inf``) order their children
  deterministically by fingerprint;
* adjacent restrictions of the same kind fold into one (mirroring the
  optimizer's ``merge-spatial``/``merge-temporal`` rules, plus value
  ranges by interval intersection);
* spatial-restriction regions are resolved into the child's CRS when the
  source CRSs are known (the planner's safety net, applied once at plan
  time instead of per lowering);
* value-map parameters are materialized against their declared defaults
  so ``reflectance()`` and ``reflectance(bits=10)`` hash identically;
* each composition's timestamp-matching policy is resolved from the
  source metadata (or a supplied default) and recorded in the plan.
"""

from __future__ import annotations

from typing import Mapping

from ..core.timeset import intersect_timesets
from ..geo.crs import CRS
from ..geo.region import intersect_regions
from ..query import ast as q
from ..query.types import StaticContext, infer_types
from .ops import VALUE_MAP_DEFAULTS

__all__ = ["canonicalize", "source_ids", "COMMUTATIVE_GAMMAS"]

# Compositions that commute pointwise; canonicalization may reorder their
# children. 'mosaic' is excluded: first-wins semantics are order-sensitive.
COMMUTATIVE_GAMMAS = frozenset({"+", "*", "sup", "inf"})


def source_ids(node: q.QueryNode) -> set[str]:
    """The source streams a plan scans."""
    return {n.stream_id for n in q.walk(node) if isinstance(n, q.StreamRef)}


def _leaf_policy(
    plan: q.QueryNode, policy_of: Mapping[str, str], default_policy: str
) -> str:
    """Timestamp policy of the leftmost source below ``plan``.

    Matches what the pull executor historically derived from stream
    metadata: operators preserve the policy, so the composed stream's
    policy is its leftmost source's.
    """
    cur = plan
    while True:
        if isinstance(cur, q.StreamRef):
            return policy_of.get(cur.stream_id, default_policy)
        children = cur.children
        if not children:
            return default_policy
        cur = children[0]


def canonicalize(
    node: q.QueryNode,
    *,
    crs_of: Mapping[str, CRS] | None = None,
    policy_of: Mapping[str, str] | None = None,
    default_policy: str = "sector",
) -> q.QueryNode:
    """Rewrite a logical query tree into its canonical physical plan."""
    types = infer_types(node, StaticContext(crs_of=crs_of))
    policy_map = dict(policy_of or {})

    def visit(n: q.QueryNode) -> q.QueryNode:
        if isinstance(n, q.Compose):
            left = visit(n.left)
            right = visit(n.right)
            # Policy from the original left subtree, mirroring pull-path
            # semantics, *before* any commutative reordering.
            policy = _leaf_policy(left, policy_map, default_policy)
            if n.gamma in COMMUTATIVE_GAMMAS and right.fingerprint < left.fingerprint:
                left, right = right, left
            return q.Compose(left, right, n.gamma, policy)
        if isinstance(n, q.SpatialRestrict):
            child = visit(n.child)
            region = n.region
            child_crs = types[id(n.child)].crs
            if child_crs is not None and region.crs != child_crs:
                # Safety net: the optimizer normally maps regions across
                # CRSs; do it here too so unoptimized queries still run.
                region = region.transformed(child_crs)
            if isinstance(child, q.SpatialRestrict) and child.region.crs == region.crs:
                inner = child
                if region is inner.region or region == inner.region:
                    return inner  # identical restriction twice
                region = intersect_regions(region, inner.region)
                child = inner.child
            return q.SpatialRestrict(child, region)
        if isinstance(n, q.TemporalRestrict):
            child = visit(n.child)
            timeset = n.timeset
            if isinstance(child, q.TemporalRestrict) and child.on_sector == n.on_sector:
                inner = child
                if timeset == inner.timeset:
                    return inner
                timeset = intersect_timesets(timeset, inner.timeset)
                child = inner.child
            return q.TemporalRestrict(child, timeset, n.on_sector)
        if isinstance(n, q.ValueRestrict):
            child = visit(n.child)
            lo, hi = n.lo, n.hi
            if isinstance(child, q.ValueRestrict):
                inner = child
                lo = inner.lo if lo is None else (lo if inner.lo is None else max(lo, inner.lo))
                hi = inner.hi if hi is None else (hi if inner.hi is None else min(hi, inner.hi))
                child = inner.child
            return q.ValueRestrict(child, lo, hi)
        if isinstance(n, q.ValueMap):
            child = visit(n.child)
            defaults = VALUE_MAP_DEFAULTS.get(n.kind)
            if defaults is None:
                params = tuple(sorted(n.params))
            else:
                params = tuple(
                    (name, float(n.param(name, default))) for name, default in defaults
                )
            return q.ValueMap(child, n.kind, params)
        if isinstance(n, q.RegionAgg):
            return q.RegionAgg(visit(n.child), tuple(n.regions), n.func)
        # Leaves stay as they are; every other kind only canonicalizes below.
        return n.with_children(*map(visit, n.children))

    return visit(node)
