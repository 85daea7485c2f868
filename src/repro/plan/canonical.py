"""Logical AST → the same AST in canonical form, which is the physical plan.

Canonicalization makes equivalent query trees produce *equal* nodes (hence
equal fingerprints), which is what subplan sharing keys on. It is one more
rule table for the optimizer's fixpoint driver
(:class:`~repro.query.optimizer.Rewriter`): regions resolve into their
child's CRS; adjacent restrictions fold (the optimizer's own
``merge-spatial``/``merge-temporal`` rules, plus value ranges); value-map
parameters are materialized against their defaults, so ``reflectance()``
and ``reflectance(bits=10)`` hash identically; every composition records
the one timestamp policy it is given; and commutative compositions
(γ in ``+ * sup inf``) order their children by fingerprint.
"""

from __future__ import annotations

from typing import Mapping

from ..geo.crs import CRS
from ..query import ast as q
from ..query.optimizer import Rewriter, Rule
from .ops import VALUE_MAP_DEFAULTS

__all__ = ["canonicalize", "source_ids", "COMMUTATIVE_GAMMAS"]

# Compositions that commute pointwise; canonicalization may reorder their
# children. 'mosaic' is excluded: first-wins semantics are order-sensitive.
COMMUTATIVE_GAMMAS = frozenset({"+", "*", "sup", "inf"})


def source_ids(node: q.QueryNode) -> set[str]:
    """The source streams a plan scans."""
    return {n.stream_id for n in q.walk(node) if isinstance(n, q.StreamRef)}


def _resolve_region_crs(rw: Rewriter, n: q.QueryNode) -> q.QueryNode | None:
    if not isinstance(n, q.SpatialRestrict):
        return None
    child_crs = rw.crs_of(n.child)
    if child_crs is None or n.region.crs == child_crs:
        return None
    return q.SpatialRestrict(n.child, n.region.transformed(child_crs))


def _merge_value_range(rw: Rewriter, n: q.QueryNode) -> q.QueryNode | None:
    if not (isinstance(n, q.ValueRestrict) and isinstance(n.child, q.ValueRestrict)):
        return None
    inner = n.child
    lo = inner.lo if n.lo is None else (n.lo if inner.lo is None else max(n.lo, inner.lo))
    hi = inner.hi if n.hi is None else (n.hi if inner.hi is None else min(n.hi, inner.hi))
    return q.ValueRestrict(inner.child, lo, hi)


def _value_map_defaults(rw: Rewriter, n: q.QueryNode) -> q.QueryNode | None:
    if not isinstance(n, q.ValueMap):
        return None
    defaults = VALUE_MAP_DEFAULTS.get(n.kind)
    if defaults is None:
        params = tuple(sorted(n.params))
    else:
        params = tuple((name, float(n.param(name, default))) for name, default in defaults)
    return None if params == n.params else q.ValueMap(n.child, n.kind, params)


def _order_commutative(rw: Rewriter, n: q.QueryNode) -> q.QueryNode | None:
    if isinstance(n, q.Compose) and n.gamma in COMMUTATIVE_GAMMAS:
        if n.right.fingerprint < n.left.fingerprint:
            return q.Compose(n.right, n.left, n.gamma, n.timestamp_policy)
    return None


def canonicalize(
    node: q.QueryNode,
    *,
    crs_of: Mapping[str, CRS] | None = None,
    default_policy: str = "sector",
) -> q.QueryNode:
    """Rewrite a logical query tree into its canonical physical plan.

    ``default_policy`` is the one timestamp-matching policy every
    composition in the plan gets; :func:`~repro.plan.compile_query`
    derives it from the catalog.
    """

    def set_policy(rw: Rewriter, n: q.QueryNode) -> q.QueryNode | None:
        if not isinstance(n, q.Compose) or n.timestamp_policy == default_policy:
            return None
        return q.Compose(n.left, n.right, n.gamma, default_policy)

    rules: tuple[tuple[str, Rule], ...] = (
        ("resolve-region-crs", _resolve_region_crs),
        ("merge-spatial", Rewriter.merge_spatial),
        ("merge-temporal", Rewriter.merge_temporal),
        ("merge-value-range", _merge_value_range),
        ("value-map-defaults", _value_map_defaults),
        ("set-policy", set_policy),
        ("commutative-order", _order_commutative),
    )
    return Rewriter(rules, crs_of or {}).run(node).node
