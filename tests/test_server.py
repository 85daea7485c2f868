"""DSMS server: protocol, push networks, routing, sessions (Fig. 3)."""

import numpy as np
import pytest

from repro.errors import PlanError, ProtocolError, ServerError
from repro.geo import BoundingBox
from repro.index import GridRegionIndex, NaiveRegionIndex
from repro.plan import PlanDAG, canonicalize
from repro.query import ast as q
from repro.server import (
    DSMSServer,
    StreamCatalog,
    format_query_request,
    parse_request,
    source_prune_boxes,
)


def subbox(imager, fx0, fy0, fx1, fy1):
    box = imager.sector_lattice.bbox
    return BoundingBox(
        box.xmin + box.width * fx0,
        box.ymin + box.height * fy0,
        box.xmin + box.width * fx1,
        box.ymin + box.height * fy1,
        box.crs,
    )


def bbox_text(box):
    return f"bbox({box.xmin!r}, {box.ymin!r}, {box.xmax!r}, {box.ymax!r}, crs='geos:-135')"


class TestProtocol:
    def test_parse_query_request(self):
        req = parse_request("GET /query?q=goes.vis&format=png HTTP/1.1")
        assert req.kind == "register-query"
        assert req.params["q"] == "goes.vis"
        assert req.params["format"] == "png"

    def test_parse_streams_request(self):
        assert parse_request("GET /streams").kind == "list-streams"

    def test_parse_deregister(self):
        req = parse_request("DELETE /query/7 HTTP/1.1")
        assert req.kind == "deregister-query"
        assert req.session_id == 7

    def test_format_query_request_roundtrip(self):
        text = "within(goes.vis, bbox(0, 0, 1, 1, crs='latlon'))"
        line = format_query_request(text)
        req = parse_request(line)
        assert req.params["q"] == text

    def test_malformed_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request("GARBAGE")
        with pytest.raises(ProtocolError):
            parse_request("POST /query?q=x HTTP/1.1")
        with pytest.raises(ProtocolError):
            parse_request("GET /unknown HTTP/1.1").kind
        with pytest.raises(ProtocolError):
            parse_request("DELETE /query/abc").session_id


def push_dag(tree, sink):
    """One query wired into its own push DAG, results pushed to ``sink``."""
    dag = PlanDAG()
    dag.add_plan(canonicalize(tree), sink, root_id=0)
    return dag


class TestPushNetwork:
    def test_equivalent_to_pull_plan(self, small_imager, catalog):
        """Push execution produces the same frames as pull execution."""
        from repro.core import assemble_frames
        from repro.query import plan_query

        region = subbox(small_imager, 0.2, 0.2, 0.8, 0.8)
        tree = q.SpatialRestrict(
            q.Compose(q.StreamRef("goes.nir"), q.StreamRef("goes.vis"), "ndvi"),
            region,
        )
        sources = {sid: catalog.get(sid) for sid in catalog.ids()}
        pull_frames = plan_query(tree, sources).collect_frames()

        received = []
        network = push_dag(tree, received.append)
        from repro.engine.scheduler import merge_sources

        for sid, chunk in merge_sources(sources):
            network.feed(sid, chunk)
        network.flush()
        push_frames = list(assemble_frames(received))
        assert len(push_frames) == len(pull_frames)
        for a, b in zip(push_frames, pull_frames):
            np.testing.assert_allclose(a.values, b.values, atol=1e-6, equal_nan=True)

    def test_feed_after_flush_rejected(self, small_imager, catalog):
        network = push_dag(q.StreamRef("goes.vis"), lambda c: None)
        network.flush()
        chunk = catalog.get("goes.vis").collect_chunks(limit=1)[0]
        with pytest.raises(PlanError):
            network.feed("goes.vis", chunk)

    def test_source_ids(self):
        tree = q.Compose(q.StreamRef("a"), q.StreamRef("b"), "+")
        network = push_dag(tree, lambda c: None)
        assert network.source_ids == ["a", "b"]


class TestSourcePruneBoxes:
    def test_restriction_above_source(self, small_imager):
        region = subbox(small_imager, 0.1, 0.1, 0.5, 0.5)
        tree = q.SpatialRestrict(q.StreamRef("goes.vis"), region)
        boxes = source_prune_boxes(tree)
        assert boxes["goes.vis"] == region

    def test_passes_through_geometry_preserving_ops(self, small_imager):
        region = subbox(small_imager, 0.1, 0.1, 0.5, 0.5)
        tree = q.SpatialRestrict(
            q.Stretch(q.ValueMap(q.StreamRef("goes.vis"), "negate"), "linear"),
            region,
        )
        boxes = source_prune_boxes(tree)
        assert boxes["goes.vis"] is not None

    def test_distributes_over_compose(self, small_imager):
        region = subbox(small_imager, 0.1, 0.1, 0.5, 0.5)
        tree = q.SpatialRestrict(
            q.Compose(q.StreamRef("goes.nir"), q.StreamRef("goes.vis"), "-"), region
        )
        boxes = source_prune_boxes(tree)
        assert boxes["goes.nir"] == region and boxes["goes.vis"] == region

    def test_resets_at_reproject(self, small_imager):
        from repro.geo import utm

        region = BoundingBox(0.0, 0.0, 1.0, 1.0, utm(10))
        tree = q.SpatialRestrict(q.Reproject(q.StreamRef("goes.vis"), utm(10)), region)
        boxes = source_prune_boxes(tree)
        assert boxes["goes.vis"] is None  # geometry changed; no claim

    def test_unrestricted_source(self):
        boxes = source_prune_boxes(q.StreamRef("goes.vis"))
        assert boxes == {"goes.vis": None}

    def test_stacked_restrictions_intersect(self, small_imager):
        r1 = subbox(small_imager, 0.0, 0.0, 0.6, 0.6)
        r2 = subbox(small_imager, 0.4, 0.4, 1.0, 1.0)
        tree = q.SpatialRestrict(q.SpatialRestrict(q.StreamRef("s"), r1), r2)
        boxes = source_prune_boxes(tree)
        inter = r1.intersection(r2)
        assert boxes["s"].xmin == pytest.approx(inter.xmin)


class TestCatalog:
    def test_register_and_lookup(self, small_imager):
        cat = StreamCatalog()
        cat.register_imager(small_imager)
        assert "goes.vis" in cat and "goes.nir" in cat
        assert len(cat) == 2
        assert cat.ids() == ["goes.nir", "goes.vis"]
        assert cat.extent("goes.vis") == small_imager.sector_lattice.bbox

    def test_duplicate_rejected(self, small_imager):
        cat = StreamCatalog()
        cat.register_imager(small_imager)
        with pytest.raises(ServerError):
            cat.register_imager(small_imager)

    def test_unknown_lookup(self):
        with pytest.raises(ServerError):
            StreamCatalog().get("nope")

    def test_profiles(self, catalog):
        profiles = catalog.profiles()
        assert profiles["goes.vis"].frame_points == 48 * 96


class TestDSMS:
    def test_register_run_deliver(self, small_imager, catalog):
        server = DSMSServer(catalog)
        region = subbox(small_imager, 0.2, 0.2, 0.7, 0.7)
        session = server.register(
            f"within(ndvi(reflectance(goes.nir), reflectance(goes.vis)), {bbox_text(region)})"
        )
        server.run()
        assert session.closed
        assert len(session.frames) == 2
        assert session.frames[0].png.startswith(b"\x89PNG")

    def test_multiple_queries_one_scan(self, small_imager, catalog):
        server = DSMSServer(catalog)
        s1 = server.register(
            f"within(reflectance(goes.vis), {bbox_text(subbox(small_imager, 0.0, 0.0, 0.3, 0.3))})"
        )
        s2 = server.register(
            f"within(reflectance(goes.vis), {bbox_text(subbox(small_imager, 0.6, 0.6, 0.9, 0.9))})"
        )
        s3 = server.register(
            f"ragg(reflectance(goes.nir), 'mean', 'all', {bbox_text(subbox(small_imager, 0.0, 0.0, 1.0, 1.0))})"
        )
        stats = server.run()
        assert len(s1.frames) == 2 and len(s2.frames) == 2
        assert len(s3.records) == 2
        # The two small disjoint regions prune most of their pairs (the
        # whole-sector aggregate necessarily receives everything).
        assert stats.pairs_skipped > 0
        assert stats.prune_fraction > 0.3

    def test_router_prunes_disjoint_queries(self, small_imager, catalog):
        server = DSMSServer(catalog)
        region = subbox(small_imager, 0.0, 0.0, 0.2, 0.2)
        session = server.register(f"within(reflectance(goes.vis), {bbox_text(region)})")
        stats = server.run()
        assert stats.prune_fraction > 0.5
        assert len(session.frames) == 2

    def test_pruning_does_not_change_results(self, small_imager, catalog):
        region = subbox(small_imager, 0.1, 0.3, 0.5, 0.6)
        text = f"within(reflectance(goes.vis), {bbox_text(region)})"
        with_router = DSMSServer(catalog)
        s_routed = with_router.register(text)
        with_router.run()
        # Same query, optimizer off and naive index: baseline result.
        baseline = DSMSServer(catalog, index_factory=NaiveRegionIndex, optimize_queries=False)
        s_base = baseline.register(text)
        baseline.run()
        assert len(s_routed.frames) == len(s_base.frames)
        for a, b in zip(s_routed.frames, s_base.frames):
            np.testing.assert_allclose(
                a.image.values, b.image.values, atol=1e-6, equal_nan=True
            )

    def test_handle_request_flow(self, small_imager, catalog):
        server = DSMSServer(catalog)
        listing = server.handle_request("GET /streams HTTP/1.1")
        assert listing == ["goes.nir", "goes.vis"]
        region = subbox(small_imager, 0.2, 0.2, 0.8, 0.8)
        text = f"within(reflectance(goes.vis), {bbox_text(region)})"
        session = server.handle_request(format_query_request(text))
        assert session.session_id >= 1
        server.handle_request(f"DELETE /query/{session.session_id} HTTP/1.1")
        assert session.closed

    def test_unknown_stream_rejected(self, catalog):
        server = DSMSServer(catalog)
        with pytest.raises(ServerError, match="unknown stream"):
            server.register("within(modis.b1, bbox(0,0,1,1))")

    def test_deregister_unknown(self, catalog):
        with pytest.raises(ServerError):
            DSMSServer(catalog).deregister(99)

    def test_optimizer_applied_at_registration(self, small_imager, catalog):
        server = DSMSServer(catalog)
        region = subbox(small_imager, 0.2, 0.2, 0.8, 0.8)
        session = server.register(
            f"within(reflectance(goes.vis), {bbox_text(region)})"
        )
        assert "push-spatial-valuemap" in session.applied_rules

    def test_grid_index_variant(self, small_imager, catalog):
        def factory():
            return GridRegionIndex(small_imager.sector_lattice.bbox, 8, 8)

        server = DSMSServer(catalog, index_factory=factory)
        region = subbox(small_imager, 0.2, 0.2, 0.5, 0.5)
        session = server.register(f"within(reflectance(goes.vis), {bbox_text(region)})")
        server.run()
        assert len(session.frames) == 2

    def test_ast_registration(self, small_imager, catalog):
        server = DSMSServer(catalog)
        region = subbox(small_imager, 0.2, 0.2, 0.8, 0.8)
        session = server.register(q.SpatialRestrict(q.StreamRef("goes.vis"), region))
        server.run()
        assert len(session.frames) == 2

    def test_max_chunks_limits_scan(self, small_imager, catalog):
        server = DSMSServer(catalog)
        session = server.register("reflectance(goes.vis)")
        server.run(max_chunks=10)
        assert session.chunks_received <= 10
