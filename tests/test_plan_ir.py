"""The plan IR: canonicalization, fingerprints, and lowering parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GeoStream, Organization, StreamMetadata, TimeInterval, assemble_frames
from repro.engine.scheduler import merge_sources
from repro.errors import PlanError
from repro.geo import latlon
from repro.plan import (
    PlanDAG,
    build_composition,
    build_value_map,
    canonicalize,
    compile_query,
    make_operator,
    plan_to_stream,
)
from repro.query import ast as q, parse_query, plan_query

from .conftest import sector_subbox


def _scan(sid: str = "s") -> q.QueryNode:
    return q.StreamRef(sid)


def _policy_stream(sid: str, policy: str) -> GeoStream:
    meta = StreamMetadata(sid, "vis", latlon(), Organization.ROW_BY_ROW, timestamp_policy=policy)
    return GeoStream(meta, lambda: iter(()))


class TestCanonicalization:
    def test_commutative_compose_orders_children(self):
        ab = canonicalize(q.Compose(_scan("a"), _scan("b"), "+"))
        ba = canonicalize(q.Compose(_scan("b"), _scan("a"), "+"))
        assert ab == ba
        assert ab.fingerprint == ba.fingerprint

    def test_noncommutative_compose_keeps_order(self):
        ab = canonicalize(q.Compose(_scan("a"), _scan("b"), "-"))
        ba = canonicalize(q.Compose(_scan("b"), _scan("a"), "-"))
        assert ab != ba
        assert ab.fingerprint != ba.fingerprint

    def test_mosaic_not_reordered(self):
        # First-wins semantics: mosaic is order-sensitive.
        ab = canonicalize(q.Compose(_scan("a"), _scan("b"), "mosaic"))
        assert isinstance(ab.left, q.StreamRef) and ab.left.stream_id == "a"

    def test_value_map_defaults_normalized(self):
        bare = canonicalize(q.ValueMap(_scan(), "reflectance"))
        explicit = canonicalize(q.ValueMap(_scan(), "reflectance", (("bits", 10.0),)))
        assert bare == explicit
        assert bare.fingerprint == explicit.fingerprint

    def test_adjacent_value_restricts_fold(self):
        tree = q.ValueRestrict(q.ValueRestrict(_scan(), 0.0, 0.8), 0.2, None)
        plan = canonicalize(tree)
        assert isinstance(plan, q.ValueRestrict)
        assert plan.lo == 0.2 and plan.hi == 0.8
        assert isinstance(plan.child, q.StreamRef)

    def test_adjacent_temporal_restricts_fold(self):
        outer = TimeInterval(0.0, 100.0)
        inner = TimeInterval(50.0, 200.0)
        tree = q.TemporalRestrict(q.TemporalRestrict(_scan(), inner), outer)
        plan = canonicalize(tree)
        assert isinstance(plan, q.TemporalRestrict)
        assert isinstance(plan.child, q.StreamRef)
        lo, hi = plan.timeset.bounds()
        assert (lo, hi) == (50.0, 100.0)

    def test_adjacent_spatial_restricts_fold(self, small_imager):
        big = sector_subbox(small_imager, 0.0, 0.0, 0.8, 0.8)
        small = sector_subbox(small_imager, 0.2, 0.2, 0.6, 0.6)
        tree = q.SpatialRestrict(q.SpatialRestrict(_scan(), big), small)
        plan = canonicalize(tree)
        assert isinstance(plan, q.SpatialRestrict)
        assert isinstance(plan.child, q.StreamRef)

    def test_duplicate_spatial_restriction_dedupes(self, small_imager):
        box = sector_subbox(small_imager, 0.1, 0.1, 0.5, 0.5)
        tree = q.SpatialRestrict(q.SpatialRestrict(_scan(), box), box)
        plan = canonicalize(tree)
        assert plan == canonicalize(q.SpatialRestrict(_scan(), box))

    def test_region_resolved_to_source_crs(self, small_imager, geos_crs):
        ll = latlon()
        from repro.geo import BoundingBox

        region = BoundingBox(-124.0, 36.0, -120.0, 40.0, ll)
        tree = q.SpatialRestrict(q.StreamRef("goes.vis"), region)
        plan = canonicalize(tree, crs_of={"goes.vis": geos_crs})
        assert plan.region.crs == geos_crs
        # Without a CRS map the region is kept as written.
        plan_raw = canonicalize(tree)
        assert plan_raw.region.crs == ll

    def test_compose_policy_is_the_sources_common_one(self):
        # Mixed policies fall back to "sector", whichever source is leftmost.
        tree = q.Compose(_scan("a"), _scan("b"), "ndvi")
        for policies, expected in (
            ({"a": "measured", "b": "sector"}, "sector"),
            ({"a": "measured", "b": "measured"}, "measured"),
        ):
            catalog = {sid: _policy_stream(sid, p) for sid, p in policies.items()}
            assert compile_query(tree, catalog).plan.timestamp_policy == expected

    def test_policy_in_fingerprint(self):
        tree = q.Compose(_scan("a"), _scan("b"), "ndvi")
        sector = canonicalize(tree, default_policy="sector")
        measured = canonicalize(tree, default_policy="measured")
        assert sector.fingerprint != measured.fingerprint


class TestOperatorTable:
    def test_build_value_map_kinds(self):
        assert "2*v" in repr(build_value_map("rescale", {"gain": 2.0}))
        assert build_value_map("reflectance").name
        assert build_value_map("negate").name
        with pytest.raises(PlanError):
            build_value_map("no-such-kind")

    def test_build_composition_macros(self):
        assert build_composition("ndvi").name
        assert build_composition("evi2").name
        assert build_composition("+", "measured").name

    def test_every_node_type_lowers_to_an_operator(self, small_imager, geos_crs):
        box = sector_subbox(small_imager, 0.0, 0.0, 1.0, 1.0)
        cases = [
            q.SpatialRestrict(_scan(), box),
            q.TemporalRestrict(_scan(), TimeInterval(0.0, 1.0)),
            q.ValueRestrict(_scan(), 0.0, 1.0),
            q.ValueMap(_scan(), "rescale", (("gain", 2.0),)),
            q.Stretch(_scan(), "linear"),
            q.Magnify(_scan(), 2),
            q.Coarsen(_scan(), 2),
            q.Rotate(_scan(), 30.0),
            q.Reproject(_scan(), geos_crs),
            q.TemporalAgg(_scan(), "mean", 2, "sliding"),
            q.RegionAgg(_scan(), (("r", box),), "mean"),
        ]
        for tree in cases:
            plan = canonicalize(tree)
            assert make_operator(plan) is not None

    def test_leaves_have_no_operator(self):
        for leaf in (q.StreamRef("s"), q.Empty("disjoint")):
            with pytest.raises(PlanError, match="no physical operator"):
                make_operator(leaf)
        # A logical composition has no timestamp policy yet: the DAG refuses
        # it with a typed error before wiring anything.
        logical = parse_query("ndvi(reflectance(goes.nir), reflectance(goes.vis))")
        dag = PlanDAG()
        with pytest.raises(PlanError, match="unresolved timestamp policy"):
            dag.add_plan(logical, lambda c: None, root_id=1)
        assert dag.order == [] and dag.taps == {} and dag.epoch_of == {}


class TestLoweringParity:
    def test_pull_and_push_agree_after_canonicalization(self, catalog, small_imager):
        """Both executors lower the same canonical plan to identical frames."""
        box = sector_subbox(small_imager, 0.2, 0.2, 0.8, 0.8)
        tree = q.ValueRestrict(
            q.ValueMap(q.SpatialRestrict(q.StreamRef("goes.vis"), box), "reflectance"),
            0.0,
            0.9,
        )
        sources = {sid: catalog.get(sid) for sid in catalog.ids()}
        pull_frames = plan_query(tree, sources).collect_frames()

        received = []
        network = PlanDAG()
        plan = canonicalize(tree, crs_of=dict(catalog.crs_of()))
        network.add_plan(plan, received.append, root_id=0)
        for sid, chunk in merge_sources({"goes.vis": catalog.get("goes.vis")}):
            network.feed(sid, chunk)
        network.flush()
        push_frames = list(assemble_frames(received))
        assert len(push_frames) == len(pull_frames)
        for a, b in zip(push_frames, pull_frames):
            np.testing.assert_allclose(a.values, b.values, atol=1e-6, equal_nan=True)

    def test_plan_to_stream_uses_fresh_operators(self, catalog):
        tree = q.ValueMap(q.StreamRef("goes.vis"), "reflectance")
        plan = canonicalize(tree)
        resolve = catalog.get
        a = plan_to_stream(plan, resolve)
        b = plan_to_stream(plan, resolve)
        assert a.pipeline_operators[0] is not b.pipeline_operators[0]

    def test_planner_shim_removed(self):
        # The deprecated repro.query.planner.build_value_map shim is gone;
        # the one construction table lives in repro.plan.
        import repro.query.planner as planner

        assert not hasattr(planner, "build_value_map")
        assert planner.__all__ == ["plan_query"]


class TestPlanDAGUnit:
    def test_within_query_duplicate_subplans_share(self):
        # a + a: both Compose inputs are the same canonical subplan.
        tree = q.Compose(
            q.ValueMap(_scan("a"), "reflectance"),
            q.ValueMap(_scan("a"), "reflectance"),
            "+",
        )
        plan = canonicalize(tree)
        dag = PlanDAG()
        dag.add_plan(plan, lambda c: None, root_id=1)
        kinds = [type(s.node).__name__ for s in dag.order]
        assert kinds.count("ValueMap") == 1  # reused for both sides
        assert dag.stats.subplan_hits == 1

    def test_share_disabled_duplicates_stages(self):
        tree = q.ValueMap(_scan("a"), "reflectance")
        plan = canonicalize(tree)
        dag = PlanDAG(share=False)
        dag.add_plan(plan, lambda c: None, root_id=1)
        dag.add_plan(plan, lambda c: None, root_id=2)
        assert dag.stages_total == 2
        assert dag.stats.subplan_hits == 0

    def test_render_lists_stages_and_sources(self):
        plan = canonicalize(q.ValueMap(_scan("a"), "reflectance"))
        dag = PlanDAG()
        dag.add_plan(plan, lambda c: None, root_id=7)
        text = dag.render()
        assert "source a" in text
        assert "ValueMap(reflectance" in text
        assert "q7" in text
