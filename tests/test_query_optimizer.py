"""Query rewriting (Section 3.4): pushdown rules and plan equivalence."""

import numpy as np
import pytest

from repro.core import TimeInterval
from repro.geo import BoundingBox, utm
from repro.query import ast as q, optimize, plan_query


def subbox(imager, fx0, fy0, fx1, fy1):
    box = imager.sector_lattice.bbox
    return BoundingBox(
        box.xmin + box.width * fx0,
        box.ymin + box.height * fy0,
        box.xmin + box.width * fx1,
        box.ymin + box.height * fy1,
        box.crs,
    )


@pytest.fixture()
def crs_of(catalog):
    return dict(catalog.crs_of())


class TestRules:
    def test_push_through_valuemap(self, small_imager, crs_of):
        region = subbox(small_imager, 0.2, 0.2, 0.8, 0.8)
        tree = q.SpatialRestrict(
            q.ValueMap(q.StreamRef("goes.vis"), "reflectance", (("bits", 10.0),)),
            region,
        )
        result = optimize(tree, crs_of)
        assert "push-spatial-valuemap" in result.applied
        assert isinstance(result.node, q.ValueMap)
        assert isinstance(result.node.child, q.SpatialRestrict)

    def test_push_through_compose(self, small_imager, crs_of):
        region = subbox(small_imager, 0.2, 0.2, 0.8, 0.8)
        tree = q.SpatialRestrict(
            q.Compose(q.StreamRef("goes.nir"), q.StreamRef("goes.vis"), "ndvi"),
            region,
        )
        result = optimize(tree, crs_of)
        assert "push-spatial-compose" in result.applied
        assert isinstance(result.node, q.Compose)
        assert isinstance(result.node.left, q.SpatialRestrict)
        assert isinstance(result.node.right, q.SpatialRestrict)

    def test_push_through_reproject_maps_region(self, small_imager, crs_of):
        """The paper's example: R in UTM must be mapped to the source CRS C."""
        utm10 = utm(10)
        x0, y0 = (float(v) for v in utm10.from_lonlat(-122.0, 38.0))
        x1, y1 = (float(v) for v in utm10.from_lonlat(-120.0, 40.0))
        region = BoundingBox(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1), utm10)
        tree = q.SpatialRestrict(q.Reproject(q.StreamRef("goes.vis"), utm10), region)
        result = optimize(tree, crs_of)
        assert "push-spatial-reproject" in result.applied
        # Exact restriction kept on top; pruning box below, in the source CRS.
        assert isinstance(result.node, q.SpatialRestrict)
        inner = result.node.child
        assert isinstance(inner, q.Reproject)
        pruning = inner.child
        assert isinstance(pruning, q.SpatialRestrict)
        assert pruning.region.crs == crs_of["goes.vis"]
        # The pruning box covers the region's image in the source CRS.
        geos = crs_of["goes.vis"]
        gx, gy = geos.from_lonlat(-121.0, 39.0)  # region-interior point
        assert pruning.region.bounding_box.contains_point(float(gx), float(gy))

    def test_push_reproject_idempotent(self, small_imager, crs_of):
        utm10 = utm(10)
        region = subbox(small_imager, 0.2, 0.2, 0.8, 0.8).transformed(utm10)
        tree = q.SpatialRestrict(q.Reproject(q.StreamRef("goes.vis"), utm10), region)
        once = optimize(tree, crs_of)
        twice = optimize(once.node, crs_of)
        assert twice.node == once.node

    def test_merge_spatial(self, small_imager, crs_of):
        r1 = subbox(small_imager, 0.0, 0.0, 0.6, 0.6)
        r2 = subbox(small_imager, 0.4, 0.4, 1.0, 1.0)
        tree = q.SpatialRestrict(q.SpatialRestrict(q.StreamRef("goes.vis"), r1), r2)
        result = optimize(tree, crs_of)
        assert "merge-spatial" in result.applied
        assert isinstance(result.node, q.SpatialRestrict)
        assert isinstance(result.node.child, q.StreamRef)
        merged = result.node.region
        expected = r1.intersection(r2)
        assert merged.bounding_box.xmin == pytest.approx(expected.xmin)
        assert merged.bounding_box.ymax == pytest.approx(expected.ymax)

    def test_merge_temporal(self, crs_of):
        tree = q.TemporalRestrict(
            q.TemporalRestrict(q.StreamRef("goes.vis"), TimeInterval(0.0, 100.0)),
            TimeInterval(50.0, 200.0),
        )
        result = optimize(tree, crs_of)
        assert "merge-temporal" in result.applied
        assert isinstance(result.node.child, q.StreamRef)
        assert result.node.timeset == TimeInterval(50.0, 100.0)

    def test_push_temporal_through_unary_and_compose(self, crs_of):
        tree = q.TemporalRestrict(
            q.Stretch(
                q.Compose(q.StreamRef("goes.nir"), q.StreamRef("goes.vis"), "-"),
                "linear",
            ),
            TimeInterval(0.0, 100.0),
        )
        result = optimize(tree, crs_of)
        assert "push-temporal-unary" in result.applied
        assert "push-temporal-compose" in result.applied
        assert isinstance(result.node, q.Stretch)
        assert isinstance(result.node.child, q.Compose)
        assert isinstance(result.node.child.left, q.TemporalRestrict)

    def test_temporal_before_spatial(self, small_imager, crs_of):
        region = subbox(small_imager, 0.2, 0.2, 0.8, 0.8)
        tree = q.TemporalRestrict(
            q.SpatialRestrict(q.StreamRef("goes.vis"), region),
            TimeInterval(0.0, 100.0),
        )
        result = optimize(tree, crs_of)
        assert "temporal-first" in result.applied
        assert isinstance(result.node, q.SpatialRestrict)
        assert isinstance(result.node.child, q.TemporalRestrict)

    def test_drop_identity(self, crs_of):
        tree = q.Magnify(q.Coarsen(q.Rotate(q.StreamRef("s"), 0.0), 1), 1)
        result = optimize(tree, crs_of)
        assert result.node == q.StreamRef("s")
        assert result.applied.count("drop-identity") == 3

    def test_stretch_pushdown_gated_by_allow_inexact(self, small_imager, crs_of):
        region = subbox(small_imager, 0.2, 0.2, 0.8, 0.8)
        tree = q.SpatialRestrict(q.Stretch(q.StreamRef("goes.vis"), "linear"), region)
        strict = optimize(tree, crs_of, allow_inexact=False)
        assert "push-spatial-stretch" not in strict.applied
        assert isinstance(strict.node, q.SpatialRestrict)
        loose = optimize(tree, crs_of, allow_inexact=True)
        assert "push-spatial-stretch" in loose.applied

    def test_no_rules_is_stable(self, crs_of):
        tree = q.StreamRef("goes.vis")
        result = optimize(tree, crs_of)
        assert result.node == tree
        assert result.applied == []

    def test_explain_mentions_rules(self, small_imager, crs_of):
        region = subbox(small_imager, 0.2, 0.2, 0.8, 0.8)
        tree = q.SpatialRestrict(
            q.ValueMap(q.StreamRef("goes.vis"), "negate"), region
        )
        text = optimize(tree, crs_of).explain()
        assert "push-spatial-valuemap" in text


class TestPlanEquivalence:
    """Rewritten plans must produce the same data (exact rules only)."""

    def assert_streams_equal(self, a, b):
        fa = a.collect_frames()
        fb = b.collect_frames()
        assert len(fa) == len(fb)
        for x, y in zip(fa, fb):
            assert x.lattice == y.lattice
            np.testing.assert_allclose(x.values, y.values, atol=1e-5, equal_nan=True)

    def test_pushdown_through_valuemap_equivalent(self, small_imager, catalog, crs_of):
        region = subbox(small_imager, 0.1, 0.2, 0.7, 0.9)
        tree = q.SpatialRestrict(
            q.ValueMap(q.StreamRef("goes.vis"), "reflectance", (("bits", 10.0),)),
            region,
        )
        optimized = optimize(tree, crs_of).node
        assert optimized != tree
        sources = {sid: catalog.get(sid) for sid in catalog.ids()}
        self.assert_streams_equal(plan_query(tree, sources), plan_query(optimized, sources))

    def test_pushdown_through_compose_equivalent(self, small_imager, catalog, crs_of):
        region = subbox(small_imager, 0.25, 0.25, 0.75, 0.75)
        tree = q.SpatialRestrict(
            q.Compose(
                q.ValueMap(q.StreamRef("goes.nir"), "reflectance", (("bits", 10.0),)),
                q.ValueMap(q.StreamRef("goes.vis"), "reflectance", (("bits", 10.0),)),
                "ndvi",
            ),
            region,
        )
        optimized = optimize(tree, crs_of).node
        sources = {sid: catalog.get(sid) for sid in catalog.ids()}
        self.assert_streams_equal(plan_query(tree, sources), plan_query(optimized, sources))

    def test_temporal_pushdown_equivalent(self, small_imager, catalog, crs_of):
        t0 = small_imager.t0
        tree = q.TemporalRestrict(
            q.Compose(q.StreamRef("goes.nir"), q.StreamRef("goes.vis"), "-"),
            TimeInterval(t0, t0 + small_imager.frame_period * 10),
        )
        optimized = optimize(tree, crs_of).node
        sources = {sid: catalog.get(sid) for sid in catalog.ids()}
        self.assert_streams_equal(plan_query(tree, sources), plan_query(optimized, sources))

    def test_merged_restrictions_equivalent(self, small_imager, catalog, crs_of):
        r1 = subbox(small_imager, 0.0, 0.0, 0.7, 0.7)
        r2 = subbox(small_imager, 0.3, 0.3, 1.0, 1.0)
        tree = q.SpatialRestrict(q.SpatialRestrict(q.StreamRef("goes.vis"), r1), r2)
        optimized = optimize(tree, crs_of).node
        sources = {sid: catalog.get(sid) for sid in catalog.ids()}
        self.assert_streams_equal(plan_query(tree, sources), plan_query(optimized, sources))


class TestMagnifyPushdownInexactness:
    """Regression for a hypothesis-found boundary case: a coarse pixel
    centered just outside R owns fine sub-pixels inside R, so restricting
    before magnification loses points. The rule is therefore gated behind
    ``allow_inexact`` (like the stretch pushdown)."""

    def boundary_tree(self, small_imager):
        lattice = small_imager.sector_lattice
        # Region starting half a coarse pixel left of a pixel center: the
        # neighbouring coarse pixel's center is outside, but after x2
        # magnification one of its fine columns falls inside.
        x_center = float(lattice.x_of_col(10))
        region = BoundingBox(
            x_center - abs(lattice.dx) * 0.45,
            lattice.bbox.ymin,
            lattice.bbox.xmax,
            lattice.bbox.ymax,
            lattice.crs,
        )
        return q.SpatialRestrict(q.Magnify(q.StreamRef("goes.vis"), 2), region)

    def test_exact_mode_does_not_push(self, small_imager, catalog, crs_of):
        tree = self.boundary_tree(small_imager)
        result = optimize(tree, crs_of, allow_inexact=False)
        assert "push-spatial-magnify" not in result.applied
        sources = {sid: catalog.get(sid) for sid in catalog.ids()}
        a = plan_query(tree, sources).count_points()
        b = plan_query(result.node, sources).count_points()
        assert a == b

    def test_inexact_mode_pushes_and_may_trim_boundary(self, small_imager, catalog, crs_of):
        tree = self.boundary_tree(small_imager)
        result = optimize(tree, crs_of, allow_inexact=True)
        assert "push-spatial-magnify" in result.applied
        sources = {sid: catalog.get(sid) for sid in catalog.ids()}
        a = plan_query(tree, sources).count_points()
        b = plan_query(result.node, sources).count_points()
        # At most one boundary fine-column per row may be trimmed.
        assert b <= a
        assert a - b <= small_imager.sector_lattice.height * 2 * 2
