"""Cost estimation over the canonical plan IR.

Estimates are computed on canonicalized plans (so queries that share
execution share a cost figure), and the estimated point counts must be
monotone non-increasing under added restrictions — a property test over
randomly generated query trees.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import Organization, TimeInterval
from repro.geo import BoundingBox, goes_geostationary
from repro.plan import canonicalize
from repro.query import ast as q
from repro.query.cost import StreamProfile, estimate_query

GEOS = goes_geostationary(-135.0)
FRAME_BBOX = BoundingBox(800_000.0, 3_300_000.0, 2_000_000.0, 4_100_000.0, GEOS)
PROFILES = {
    "goes.vis": StreamProfile(
        frame_points=96 * 48,
        frame_bbox=FRAME_BBOX,
        row_width=96,
        organization=Organization.ROW_BY_ROW,
        crs=GEOS,
    ),
    "goes.nir": StreamProfile(
        frame_points=96 * 48,
        frame_bbox=FRAME_BBOX,
        row_width=96,
        organization=Organization.ROW_BY_ROW,
        crs=GEOS,
    ),
}


def _estimate(tree: q.QueryNode):
    plan = canonicalize(tree, crs_of={sid: p.crs for sid, p in PROFILES.items()})
    est, _ = estimate_query(plan, PROFILES)
    return est


def _subbox(fx0: float, fy0: float, fx1: float, fy1: float) -> BoundingBox:
    b = FRAME_BBOX
    return BoundingBox(
        b.xmin + b.width * fx0,
        b.ymin + b.height * fy0,
        b.xmin + b.width * fx1,
        b.ymin + b.height * fy1,
        GEOS,
    )


class TestCanonicalPlanCosts:
    def test_estimate_on_canonical_plan_equals_folded_form(self):
        """Folded adjacent restrictions cost the same as the stacked tree."""
        big = _subbox(0.0, 0.0, 0.8, 0.8)
        small = _subbox(0.2, 0.2, 0.6, 0.6)
        stacked = q.SpatialRestrict(
            q.SpatialRestrict(q.StreamRef("goes.vis"), big), small
        )
        merged = canonicalize(stacked)
        est_stacked = _estimate(stacked)
        est_merged, _ = estimate_query(merged, PROFILES)
        assert est_stacked.points == est_merged.points

    def test_commutative_orderings_share_one_estimate(self):
        ab = q.Compose(q.StreamRef("goes.vis"), q.StreamRef("goes.nir"), "+")
        ba = q.Compose(q.StreamRef("goes.nir"), q.StreamRef("goes.vis"), "+")
        assert _estimate(ab).points == _estimate(ba).points
        assert canonicalize(ab) == canonicalize(ba)

    def test_spatial_restriction_reduces_points(self):
        base = q.ValueMap(q.StreamRef("goes.vis"), "reflectance")
        restricted = q.SpatialRestrict(base, _subbox(0.25, 0.25, 0.75, 0.75))
        assert _estimate(restricted).points < _estimate(base).points


# -- property: added restrictions never increase estimated points -------------

_fractions = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def base_trees(draw) -> q.QueryNode:
    """Small random query trees over the profiled sources."""
    tree: q.QueryNode = q.StreamRef(draw(st.sampled_from(sorted(PROFILES))))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(
            st.sampled_from(["value_map", "stretch", "spatial", "value", "temporal"])
        )
        if kind == "value_map":
            tree = q.ValueMap(tree, "reflectance", (("bits", 10.0),))
        elif kind == "stretch":
            tree = q.Stretch(tree, "linear")
        elif kind == "spatial":
            fx0, fy0 = draw(_fractions) * 0.5, draw(_fractions) * 0.5
            w, h = draw(_fractions) * 0.5, draw(_fractions) * 0.5
            tree = q.SpatialRestrict(tree, _subbox(fx0, fy0, fx0 + w, fy0 + h))
        elif kind == "value":
            tree = q.ValueRestrict(tree, 0.0, draw(_fractions))
        else:
            lo = draw(st.floats(0.0, 1_000.0, allow_nan=False))
            tree = q.TemporalRestrict(tree, TimeInterval(lo, lo + 100.0))
    return tree


@st.composite
def restrictions(draw):
    kind = draw(st.sampled_from(["spatial", "value", "temporal"]))
    if kind == "spatial":
        fx0, fy0 = draw(_fractions) * 0.5, draw(_fractions) * 0.5
        w, h = draw(_fractions) * 0.5, draw(_fractions) * 0.5
        return lambda t: q.SpatialRestrict(t, _subbox(fx0, fy0, fx0 + w, fy0 + h))
    if kind == "value":
        hi = draw(_fractions)
        return lambda t: q.ValueRestrict(t, 0.0, hi)
    lo = draw(st.floats(0.0, 1_000.0, allow_nan=False))
    return lambda t: q.TemporalRestrict(t, TimeInterval(lo, lo + 50.0))


@given(tree=base_trees(), restrict=restrictions())
@settings(max_examples=60, deadline=None)
def test_estimated_points_monotone_under_added_restriction(tree, restrict):
    base = _estimate(tree)
    tightened = _estimate(restrict(tree))
    assert tightened.points <= base.points
