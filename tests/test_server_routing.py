"""The shared restriction stage as one object: `repro.server.routing.Router`.

Four contracts of the run loop / router split:

* the routing table always equals what the live registrations imply;
* routed / skipped pair counts are set arithmetic over `Router.consumers`;
* the table is dynamic — a change between two run slices is seen by the
  very next chunk;
* the merged shed / kept flow ticks clock, journal and store in the order
  the parent commit did (golden values recorded there).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro import obs
from repro.errors import RegionError, StreamError
from repro.faults.recovery import RecoveryContext
from repro.index import CascadeTree, NaiveRegionIndex
from repro.ingest import GOESImager, western_us_sector
from repro.obs.slo import SLOPolicy
from repro.obs.timeline import EventJournal, MetricStore
from repro.operators.shedding import AdaptiveLoadShedder
from repro.server import DSMSServer, StreamCatalog, source_prune_boxes

from tests.conftest import sector_subbox

LATLON_BOX = "bbox(-122.0, 36.0, -118.0, 40.0, crs='latlon')"


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.install(obs.Instruments())
    obs.get_registry().reset()
    yield
    obs.install(obs.Instruments())
    obs.get_registry().reset()


def bbox_text(box):
    return (
        f"bbox({box.xmin!r}, {box.ymin!r}, {box.xmax!r}, {box.ymax!r}, "
        "crs='geos:-135')"
    )


def within(imager, inner, fx0, fy0, fx1, fy1):
    return f"within({inner}, {bbox_text(sector_subbox(imager, fx0, fy0, fx1, fy1))})"


def implied_table(server):
    """The routing table the live registrations imply, from first principles."""
    table = {}
    for rid, reg in server._registrations.items():
        for sid, box in source_prune_boxes(reg.compiled.optimized).items():
            stream_crs = server.catalog.get(sid).crs
            if box is not None and box.crs != stream_crs:
                try:
                    box = box.transformed(stream_crs)
                except RegionError:
                    box = None
            table.setdefault(sid, {})[rid] = box
    return table


def assert_table_consistent(server):
    assert server.router.table() == implied_table(server)
    for sid in server.catalog.ids():
        readers = [r for r in server._registrations.values() if sid in r.sources]
        assert server.router.consumers(sid) == len(readers)


class BrokenIndex(NaiveRegionIndex):
    """An index whose overlap queries fail — forces the naive fallback."""

    def overlapping(self, box):
        raise StreamError("cascade tree corrupted")


class CountingTree(CascadeTree):
    """Counts overlap queries across every instance the server builds."""

    calls = 0

    def overlapping(self, box):
        type(self).calls += 1
        return super().overlapping(box)


class TestTableInvariant:
    def test_table_tracks_every_registration_change(self, small_imager, catalog):
        server = DSMSServer(
            catalog,
            index_factory=BrokenIndex,
            optimize_queries=False,
            recovery=RecoveryContext(),
        )
        assert server.router.table() == {}

        restricted = within(small_imager, "reflectance(goes.vis)", 0.1, 0.1, 0.5, 0.5)
        a = server.register(restricted, encode_png=False)
        assert_table_consistent(server)
        server.register("reflectance(goes.vis)", encode_png=False)
        assert_table_consistent(server)
        twin = server.register(restricted, encode_png=False)  # shares a's plan
        assert server.shared_network_count == 2
        assert_table_consistent(server)
        ndvi = within(small_imager, "ndvi(goes.nir, goes.vis)", 0.4, 0.4, 0.9, 0.9)
        server.register(ndvi, encode_png=False)
        assert_table_consistent(server)
        # Unoptimized, the re-projection hides the region from the source.
        warped = server.register(
            f"within(reproject(reflectance(goes.vis), 'latlon'), {LATLON_BOX})",
            encode_png=False,
        )
        assert_table_consistent(server)
        warped_rid = server._session_to_reg[warped.session_id]
        assert server.router.table()["goes.vis"][warped_rid] is None

        # Forced fallback: the first overlap query of each stream fails.
        server.run(max_chunks=4, close=False)
        assert server.router_stats.fallbacks == 2  # goes.nir and goes.vis
        assert_table_consistent(server)

        # Re-plan, boxes unchanged: the restriction only moves below the map.
        before = server.router.table()
        assert server.request_replan(a)
        server.run(max_chunks=1, close=False)
        assert len(server.swap_log) == 1
        assert server.router.table() == before
        assert_table_consistent(server)

        # Re-plan, boxes changed: push-down re-maps the region to the source.
        assert server.request_replan(warped)
        server.run(max_chunks=1, close=False)
        assert len(server.swap_log) == 2
        assert server.router.table()["goes.vis"][warped_rid] is not None
        assert_table_consistent(server)

        server.deregister(twin.session_id)  # a still subscribes
        assert server.shared_network_count == 4
        assert_table_consistent(server)
        for session in list(server.active_sessions()):
            server.deregister(session.session_id)
            assert_table_consistent(server)
        assert server.router.table() == {}

    def test_region_in_another_crs_is_transformed_at_insert(self, catalog):
        server = DSMSServer(catalog, optimize_queries=False)
        session = server.register(
            f"within(reflectance(goes.vis), {LATLON_BOX})", encode_png=False
        )
        rid = server._session_to_reg[session.session_id]
        box = server.router.table()["goes.vis"][rid]
        assert box.crs == catalog.get("goes.vis").crs
        assert_table_consistent(server)


class TestEmptyRouterIsDropped:
    def test_last_region_leaving_drops_the_index(self, small_imager, catalog):
        CountingTree.calls = 0
        server = DSMSServer(catalog, index_factory=CountingTree)
        restricted = server.register(
            within(small_imager, "reflectance(goes.vis)", 0.0, 0.0, 0.2, 0.2),
            encode_png=False,
        )
        plain = server.register("reflectance(goes.vis)", encode_png=False)
        server.deregister(restricted.session_id)
        with obs.observe():
            stats = server.run()
            snapshot = obs.get_registry().snapshot()
        assert stats.chunks_scanned > 0
        # No region is left on goes.vis: nothing to stab, nothing to export.
        assert CountingTree.calls == 0
        assert not [m for m in snapshot if m["name"] == "dsms_router_regions"]

        only = DSMSServer(catalog)
        reference = only.register("reflectance(goes.vis)", encode_png=False)
        only_stats = only.run()
        assert vars(stats) == vars(only_stats)
        assert len(plain.frames) == len(reference.frames) > 0
        for mine, theirs in zip(plain.frames, reference.frames):
            assert np.array_equal(mine.image.values, theirs.image.values)


class TestCountingIdentity:
    def queries(self, imager):
        return [
            within(imager, "reflectance(goes.vis)", 0.0, 0.0, 0.3, 0.3),
            within(imager, "reflectance(goes.nir)", 0.5, 0.5, 1.0, 1.0),
            within(imager, "ndvi(goes.nir, goes.vis)", 0.2, 0.2, 0.6, 0.6),
            "reflectance(goes.vis)",
        ]

    def test_pairs_are_consumers_per_scanned_chunk(self, small_imager, catalog):
        server = DSMSServer(catalog)
        for text in self.queries(small_imager):
            server.register(text, encode_png=False)
        per_stream = {
            sid: sum(1 for _ in catalog.get(sid).chunks()) for sid in catalog.ids()
        }
        stats = server.run()
        assert stats.chunks_scanned == sum(per_stream.values())
        assert stats.pairs_routed > 0 and stats.pairs_skipped > 0
        assert stats.pairs_routed + stats.pairs_skipped == sum(
            n * server.router.consumers(sid) for sid, n in per_stream.items()
        )

    def test_per_query_counters_sum_to_the_pair_totals(self, small_imager, catalog):
        with obs.observe():
            server = DSMSServer(catalog)
            for text in self.queries(small_imager):
                server.register(text, encode_png=False)
            stats = server.run()
            snapshot = obs.get_registry().snapshot()

            def total(name):
                return sum(m["value"] for m in snapshot if m["name"] == name)

            assert total("dsms_query_chunks_routed_total") == stats.pairs_routed
            assert total("dsms_query_chunks_pruned_total") == stats.pairs_skipped
            assert total("dsms_pairs_routed_total") == stats.pairs_routed
            assert total("dsms_pairs_skipped_total") == stats.pairs_skipped
            assert total("dsms_chunks_scanned_total") == stats.chunks_scanned


class TestDynamism:
    def test_changes_between_slices_apply_from_the_next_chunk(
        self, small_imager, catalog
    ):
        server = DSMSServer(catalog)
        first = server.register("reflectance(goes.vis)", encode_png=False)
        server.run(max_chunks=3, close=False)
        assert first.chunks_received == 3

        # Registered between two slices: matched from the very next chunk
        # (each slice re-opens the scan at its first row).
        late = server.register(
            within(small_imager, "reflectance(goes.vis)", 0.0, 0.5, 1.0, 1.0),
            encode_png=False,
        )
        server.run(max_chunks=1, close=False)
        assert late.chunks_received == 1
        assert first.chunks_received == 4
        assert server.router_stats.pairs_routed == 3 + 2

        # Deregistered between two slices: not matched again.
        server.deregister(first.session_id)
        server.run(max_chunks=2, close=False)
        assert first.chunks_received == 4
        assert late.chunks_received == 3
        assert server.router_stats.pairs_routed == 3 + 2 + 2
        assert server.router_stats.pairs_skipped == 0


class TestOneTick:
    """Shed and kept chunks take one flow; its order of effects is the parent's.

    The digests were recorded at the parent commit (two copies of the clock
    / journal / store / SLO block) with this exact scenario.
    """

    GOLDEN = {
        # everything shed: the clock still advances, nothing is ever routed
        True: (
            [("epoch-install", 0.0, 1), ("epoch-install", 0.0, 2)],
            "64464454c65a6d9534a843e86b764d95ebff484b77395445f08e3f7450ad15a2",
        ),
        # first frame kept, the rest shed: breaches and escalations follow
        False: (
            [
                ("epoch-install", 0.0, 1),
                ("epoch-install", 0.0, 2),
                ("slo-breach", 72445.3125, 1),
                ("shed-escalate", 72445.3125, None),
                ("slo-breach", 73800.0, 2),
                ("shed-escalate", 73800.0, None),
            ],
            "e0acfd1a9003faf7f3ebc42b4b9fccf61445ccdde44eba9412635e17a2f0f823",
        ),
    }

    @pytest.mark.parametrize("drop_all", [True, False])
    def test_journal_and_store_match_the_parent(self, scene, geos_crs, drop_all):
        imager = GOESImager(
            scene=scene,
            lon_0=-135.0,
            sector_lattice=western_us_sector(geos_crs, width=96, height=48),
            n_frames=3,
            bands=("vis", "nir"),
            t0=72_000.0,
        )
        catalog = StreamCatalog()
        catalog.register_imager(imager)
        shedder = AdaptiveLoadShedder(points_per_frame_budget=1.0)
        if drop_all:
            shedder._credit = -1e18  # never recovers: every frame is shed
        journal, store = EventJournal(), MetricStore(cadence_s=0.5)
        with obs.observe(store=store, journal=journal):
            server = DSMSServer(
                catalog, ingest_shedder=shedder, slo=SLOPolicy(max_lag_s=0.25)
            )
            server.register("reflectance(goes.vis)", encode_png=False)
            server.register("ndvi(goes.nir, goes.vis)", encode_png=False)
            stats = server.run()

        assert stats.chunks_shed == (288 if drop_all else 192)
        assert stats.chunks_scanned == 288 - stats.chunks_shed
        events, digest = self.GOLDEN[drop_all]
        assert [(e.kind, e.t, e.query) for e in journal] == events
        series = sorted(
            (key.name, sorted(key.label_dict().items()), store.series(
                key.name, **key.label_dict()
            ))
            for key in store.keys()
            if key.name != "repro_build_info"  # labelled with the interpreter
        )
        blob = json.dumps(series, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest
