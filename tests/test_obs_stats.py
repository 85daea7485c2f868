"""EXPLAIN ANALYZE stack: stage statistics, provenance, calibration, SLOs.

Covers the observed-statistics layer end to end: deterministic reservoir
quantiles, per-stage ledgers accumulated by the shared plan DAG, chunk
provenance matching ``explain_dag``'s stage fingerprints exactly, cost
calibration fitting/persistence, ``DSMSServer.explain_analyze``, and
watermark/SLO breach detection under injected stall faults — plus the
zero-overhead guarantee of the no-observability fast path.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import build_demo_catalog
from repro.core import GeoStream
from repro.core.provenance import MAX_TRACKED_SCANS, Provenance
from repro.errors import PlanError, ServerError
from repro.faults import FaultSpec, RecoveryContext, harden_catalog, recovering
from repro.geo import goes_geostationary
from repro.ingest import GOESImager, SyntheticEarth, western_us_sector
from repro.obs.registry import ObservabilityError
from repro.obs.slo import SLOMonitor, SLOPolicy
from repro.obs.stats import Reservoir, format_lineage, lineage
from repro.operators import AdaptiveLoadShedder
from repro.plan import canonicalize, compile_query
from repro.query import (
    CalibrationProfile,
    CalibrationSample,
    estimate_query,
    optimize,
    parse_query,
)
from repro.query.planner import plan_query
from repro.server import DSMSServer, StreamCatalog

from tests.conftest import DAY_T0, sector_subbox
from tests.reference import reference_kernels
from tests.reference.provenance import ReferenceTag
from tests.test_examples import load_example
from tests.test_executor_gate import clean_queries

Q_VRANGE = "vrange(reflectance(goes.vis), 0.0, 0.4)"
Q_STRETCH = "stretch(reflectance(goes.vis), 'linear')"
Q_NDVI = "stretch(ndvi(reflectance(goes.nir),reflectance(goes.vis)),'linear')"

EXPLAIN_DAG_SHARED = """\
shared plan DAG: 3 stages (1 shared), sources: goes.vis
  epochs: q1@e1, q2@e1
  source goes.vis -> s0
  s0: ValueMap(reflectance, bits=10)  #dc86b50749ee6b3170b2  subscribers=[1@e1,2@e1] -> s1, s2
  s1: ValueRestrict([0.0, 0.4])  #0aab02fcf0b0623c7fca  subscribers=[1@e1] -> sink[q1]
  s2: Stretch(linear)  #e6798fb6b93aee32aa00  subscribers=[2@e1] -> sink[q2]"""


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable_metrics()
    obs.install(obs.Instruments())
    obs.get_registry().reset()
    yield
    obs.disable_metrics()
    obs.install(obs.Instruments())
    obs.get_registry().reset()


def run_shared(catalog):
    """Two queries sharing the reflectance prefix, observed with stats."""
    with obs.observe(stats=True) as ob:
        server = DSMSServer(catalog)
        s1 = server.register(Q_VRANGE, encode_png=False)
        s2 = server.register(Q_STRETCH, encode_png=False)
        server.run()
    return server, (s1, s2), ob.stats


class TestReservoir:
    def test_deterministic_for_same_seed(self):
        a, b = Reservoir(capacity=16, seed="stage-fp"), Reservoir(capacity=16, seed="stage-fp")
        for i in range(1000):
            a.add(i % 97)
            b.add(i % 97)
        assert a.quantile(0.5) == b.quantile(0.5)
        assert a.quantile(0.99) == b.quantile(0.99)

    def test_linear_interpolation_exact_when_unsampled(self):
        r = Reservoir(capacity=128)
        for v in range(101):  # 0..100, capacity not exceeded
            r.add(v)
        assert r.quantile(0.0) == 0.0
        assert r.quantile(0.5) == 50.0
        assert r.quantile(1.0) == 100.0
        assert r.quantile(0.995) == pytest.approx(99.5)

    def test_capacity_bound_and_counters(self):
        r = Reservoir(capacity=8, seed=1)
        for v in range(1000):
            r.add(v)
        assert len(r) == 8
        assert r.seen == 1000

    def test_empty_and_invalid(self):
        r = Reservoir(capacity=4)
        assert r.quantile(0.5) is None
        with pytest.raises(ObservabilityError):
            r.quantile(1.5)
        with pytest.raises(ObservabilityError):
            Reservoir(capacity=0)


class TestProvenance:
    def test_scan_with_stage_merge(self):
        p = Provenance.scan("goes.vis", 3).with_stage("aaaa")
        q = Provenance.scan("goes.nir", 1).with_stage("bbbb")
        merged = p.merge(q).with_stage("cccc")
        assert merged.stream_ids == frozenset({"goes.vis", "goes.nir"})
        assert merged.scan_ordinals("goes.vis") == (3,)
        assert merged.stages == frozenset({"aaaa", "bbbb", "cccc"})
        # with_stage is idempotent and merge(None) is identity.
        assert merged.with_stage("cccc") is merged
        assert p.merge(None) is p

    def test_scan_cap_keeps_newest_ordinals(self):
        p = Provenance.scan("s", 0)
        for i in range(1, MAX_TRACKED_SCANS + 10):
            p = p.merge(Provenance.scan("s", i))
        assert len(p.sources) == MAX_TRACKED_SCANS
        assert p.dropped_sources == 10
        kept = p.scan_ordinals("s")
        assert kept[-1] == MAX_TRACKED_SCANS + 9  # newest survive
        assert "(+10 earlier" in format_lineage(p)  # dropped count surfaced


RUN = st.tuples(st.sampled_from(("goes.vis", "goes.nir")), st.integers(0, 400), st.integers(1, 300))


def chain(tag, ref, stream, ordinals):
    """Merge one-scan tags into ``tag`` (and ``ref``), one at a time."""
    for o in ordinals:
        tag, ref = tag.merge(Provenance.scan(stream, o)), ref.merge(ReferenceTag.scan(stream, o))
    return tag, ref


class TestProvenanceReference:
    """``merge`` against the untruncated union of tests/reference/provenance.py."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        runs=st.lists(st.tuples(RUN, st.booleans()), min_size=1, max_size=4),
        merges=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=8),
        extra=st.integers(1, 60),
    )
    def test_merge_lists_the_newest_of_the_union(self, runs, merges, extra):
        """Backwards chains (newest scan first) only bound the dropped count."""
        chains = []
        for i, ((stream, lo, n), backwards) in enumerate(runs):
            ordinals = range(lo + n - 1, lo - 1, -1) if backwards else range(lo, lo + n)
            tag, ref = chain(Provenance(), ReferenceTag(), stream, ordinals)
            chains.append((tag.with_stage(f"s{i}"), ref.with_stage(f"s{i}")))
        for (_, backwards), (tag, ref) in zip(runs, chains):
            # Exact along a chain in scan order, and against its own extension.
            exact = tag.dropped_sources == ref.dropped_sources
            assert exact or backwards
            longer, rlonger = chain(tag, ref, "goes.vis", range(500, 500 + extra))
            extended = tag.merge(longer).dropped_sources == ref.merge(rlonger).dropped_sources
            assert extended or backwards
            assert longer.merge(tag).sources == longer.sources
        pool = list(chains)
        for i, j in merges:
            (a, ra), (b, rb) = pool[i % len(pool)], pool[j % len(pool)]
            pool.append((a.merge(b), ra.merge(rb)))
        for tag, ref in pool:
            assert tag.sources == ref.sources
            assert tag.stages == ref.stages
            assert tag.dropped_sources <= ref.dropped_sources

    def test_merging_an_extension_does_not_count_a_scan_twice(self):
        p, _ = chain(Provenance(), ReferenceTag(), "s", range(MAX_TRACKED_SCANS + 10))
        q = p.merge(Provenance.scan("s", MAX_TRACKED_SCANS + 10))
        assert (p.dropped_sources, q.dropped_sources) == (10, 11)
        assert p.merge(q).dropped_sources == 11  # the parent summed them: 21
        assert p.merge(p) is p


def source_scans(catalog):
    """stream id -> its raw chunks in scan order (index = scan ordinal)."""
    return {sid: list(catalog.get(sid).chunks()) for sid in catalog.ids()}


def used_scans(scans, sid, sectors, box):
    """Scans of ``sid`` in the frames ``sectors`` whose rows meet ``box``."""
    return {
        (sid, o)
        for o, c in enumerate(scans[sid])
        if c.sector in sectors and (box is None or c.lattice.intersect_window(box) is not None)
    }


class TestFrameLineage:
    """A delivered frame's lineage names the scans of that frame (§3)."""

    @staticmethod
    def _imager_catalog(scene, geos_crs):
        """A 3-frame 48x96 imager, its catalog, a box B inside it and B as query text."""
        imager = GOESImager(
            scene=scene,
            lon_0=-135.0,
            sector_lattice=western_us_sector(geos_crs, width=96, height=48),
            n_frames=3,
            bands=("vis", "nir"),
            t0=DAY_T0,
        )
        catalog = StreamCatalog()
        catalog.register_imager(imager)
        box = sector_subbox(imager, 0.2, 0.3, 0.7, 0.6)
        b = f"bbox({box.xmin!r}, {box.ymin!r}, {box.xmax!r}, {box.ymax!r}, crs='geos:-135')"
        return imager, catalog, box, b

    def test_each_frame_names_exactly_its_own_scans(self, scene, geos_crs):
        _, catalog, box, b = self._imager_catalog(scene, geos_crs)
        queries = {
            f"within(reflectance(goes.vis), {b})": (("goes.vis",), box),
            f"within(ndvi(reflectance(goes.nir), reflectance(goes.vis)), {b})": (
                ("goes.nir", "goes.vis"),
                box,
            ),
            Q_STRETCH: (("goes.vis",), None),
        }
        with obs.observe(stats=True):
            server = DSMSServer(catalog)
            sessions = {text: server.register(text, encode_png=False) for text in queries}
            server.run()
        scans = source_scans(catalog)
        for text, (streams, region) in queries.items():
            frames = sessions[text].frames
            assert len(frames) == 3, text
            for frame in frames:
                prov = lineage(frame)
                expected = set().union(
                    *(used_scans(scans, sid, {frame.image.sector}, region) for sid in streams)
                )
                assert expected and prov.sources == expected, (text, frame.image.sector)
                assert prov.dropped_sources == 0

    def test_region_aggregate_record_names_its_frame(self, scene, geos_crs, monkeypatch):
        """Without ``last_in_frame`` a record leaves on the next frame's first
        row, whose scan must stay in the tag of the next record."""
        imager, catalog, box, b = self._imager_catalog(scene, geos_crs)
        vis = imager.stream("vis")
        rows = [dc_replace(c, last_in_frame=False) for c in vis.chunks()]
        unmarked = StreamCatalog()
        unmarked.register(GeoStream.from_chunks(vis.metadata, rows), catalog.extent("goes.vis"))
        records = []
        with obs.observe(stats=True):
            server = DSMSServer(unmarked)
            session = server.register(f"ragg(goes.vis, 'mean', 'roi', {b})")
            receive = session.receive
            monkeypatch.setattr(session, "receive", lambda c: (records.append(c), receive(c)))
            server.run()
        scans = source_scans(unmarked)
        sectors = sorted({c.sector for c in scans["goes.vis"]})
        assert [r.sector for r in records] == sectors
        for record in records:
            k = sectors.index(record.sector)
            own = used_scans(scans, "goes.vis", {sectors[k]}, None)
            reach = used_scans(scans, "goes.vis", set(sectors[k : k + 2]), None)
            assert own <= lineage(record).sources <= reach

    def test_explain_analyze_example_names_the_last_frame(self, capsys):
        load_example("explain_analyze").main()
        out = capsys.readouterr().out
        lineage_lines = [line for line in out.splitlines() if "ordinals" in line]
        assert len(lineage_lines) == 2  # one per query, both of the last frame
        assert all(line.endswith("goes.vis ordinals [96..191]") for line in lineage_lines)

    def test_clean_corpus_lineage_is_sound(self):
        """Every frame names each scan of its own frame that reached the query.

        One shared DSMS runs the whole clean golden corpus. A tag may be
        wider than its frame: an operator still holding points (a
        composition side whose partner never came) keeps accumulating,
        and a stage that never sees a frame's last row (routing pruned
        it) never closes the frame. Never narrower.
        """
        catalog = build_demo_catalog(seed=7, n_frames=2, width=96, height=48)[1]
        queries = clean_queries()
        with obs.observe(stats=True) as ob:
            server = DSMSServer(catalog)
            sessions = {text: server.register(text, encode_png=False) for text in queries}
            server.run()
        scans = source_scans(catalog)
        consumed = sum(ob.stats.scans.values())
        frames = widened = 0
        for text, session in sessions.items():
            compiled = compile_query(parse_query(text), catalog)
            for frame in session.frames:
                prov = lineage(frame)
                own = {frame.image.sector}
                need = set().union(
                    *(used_scans(scans, sid, own, box) for sid, box in compiled.route_boxes.items())
                )
                assert need <= prov.sources, (text, sorted(need - prov.sources))
                assert len(prov.sources) + prov.dropped_sources <= consumed
                frames += 1
                widened += not prov.sources <= set().union(
                    *(used_scans(scans, sid, own, None) for sid in compiled.route_boxes)
                )
        assert frames > 300
        # Recorded when frame-scoped lineage landed; the parent's tags
        # reached back to frame 0 in every later frame (184).
        assert widened <= 26

    @pytest.mark.parametrize("mode", ("sliding", "tumbling"))
    def test_temporal_aggregate_names_its_window(self, mode):
        catalog = build_demo_catalog(seed=7, n_frames=4, width=48, height=24)[1]
        text = f"tagg(reflectance(goes.vis), 'max', 2, mode='{mode}')"
        with obs.observe(stats=True) as ob:
            server = DSMSServer(catalog)
            session = server.register(text, encode_png=False)
            server.run()
        scans = source_scans(catalog)
        sectors = sorted({c.sector for c in scans["goes.vis"]})
        assert len(session.frames) == (3 if mode == "sliding" else 2)
        for frame in session.frames:
            prov = lineage(frame)
            k = sectors.index(frame.image.sector)
            window = used_scans(scans, "goes.vis", set(sectors[k - 1 : k + 1]), None)
            assert window <= prov.sources
            assert len(prov.sources) + prov.dropped_sources <= sum(ob.stats.scans.values())
            if mode == "tumbling":  # the window is released: the tag closes with it
                assert prov.sources == window


class TestStageStatsViaDAG:
    def test_ledgers_accumulate_per_stage(self, catalog):
        server, _, collector = run_shared(catalog)
        assert len(collector) == len(server.plan_dag.order)
        for st in collector:
            assert st.calls > 0 and st.chunks_in > 0
            assert st.wall_s > 0
            assert st.p50 is not None and st.p50 <= st.p99
            sel = st.selectivity
            assert sel is None or sel >= 0.0

    def test_provenance_lists_exactly_the_query_stages(self, catalog):
        server, sessions, _ = run_shared(catalog)
        for session in sessions:
            rid = server._session_to_reg[session.session_id]
            expected = server.plan_dag.stage_fingerprints(rid)
            assert session.frames, "query delivered no frames"
            for frame in session.frames:
                prov = lineage(frame)
                assert prov is not None
                assert set(prov.stages) == expected
                assert prov.stream_ids == frozenset({"goes.vis"})

    def test_shared_prefix_appears_in_both_queries(self, catalog):
        server, sessions, _ = run_shared(catalog)
        fps = [
            server.plan_dag.stage_fingerprints(
                server._session_to_reg[s.session_id]
            )
            for s in sessions
        ]
        shared = fps[0] & fps[1]
        assert shared, "overlapping queries must share prefix stages"
        assert fps[0] != fps[1]  # but each keeps a private suffix
        assert server.plan_dag.stages_shared > 0

    def test_explain_dag_is_pinned(self, catalog):
        # Stage labels and fingerprints are the sharing contract; this text
        # was recorded before plans became canonical query ASTs.
        server, _, _ = run_shared(catalog)
        assert server.explain_dag() == EXPLAIN_DAG_SHARED

    def test_format_lineage_resolves_fingerprints(self, catalog):
        server, sessions, _ = run_shared(catalog)
        text = format_lineage(sessions[0].frames[-1], dag=server.plan_dag)
        assert "goes.vis" in text
        assert "ValueMap" in text or "reflectance" in text

    def test_no_provenance_without_stats(self, catalog):
        server = DSMSServer(catalog)
        session = server.register(Q_VRANGE, encode_png=False)
        server.run()
        assert session.frames
        assert all(lineage(f) is None for f in session.frames)


class TestStageStatsViaPullPath:
    @pytest.mark.parametrize("query", (Q_STRETCH, Q_NDVI), ids=("chain", "composition"))
    def test_same_ledgers_with_and_without_a_tracer(self, catalog, query):
        """The pull executor's traced branch used to ignore the collector."""

        def ledgers(**instruments):
            with obs.observe(stats=True, **instruments) as ob:
                points = plan_query(parse_query(query), catalog.get).count_points()
            return points, {fp: st.calls for fp, st in ob.stats.stages.items()}

        plain = ledgers()
        assert plain[0] > 0 and len(plain[1]) >= 2
        assert all(calls > 1 for calls in plain[1].values())
        assert not any(fp.startswith("pull:") for fp in plain[1])
        assert ledgers(trace=True) == plain
        assert ledgers(trace=True, frame_trace=True) == plain


class TestCalibration:
    def test_fit_is_the_per_kind_ratio_estimator(self):
        samples = [
            CalibrationSample("A", 100.0, 1e-4),
            CalibrationSample("A", 300.0, 3e-4),
            CalibrationSample("B", 50.0, 1e-3),
        ]
        profile = CalibrationProfile.fit(samples)
        assert profile.coefficient("A") == pytest.approx(1e-6)
        assert profile.coefficient("B") == pytest.approx(2e-5)
        assert profile.seconds("A", 200.0) == pytest.approx(2e-4)
        # Unknown kinds fall back to the pooled default.
        pooled = (1e-4 + 3e-4 + 1e-3) / (100.0 + 300.0 + 50.0)
        assert profile.coefficient("Z") == pytest.approx(pooled)
        assert profile.n_samples == 3

    def test_json_roundtrip_and_validation(self, tmp_path):
        profile = CalibrationProfile.fit([CalibrationSample("A", 10.0, 1e-4)])
        path = tmp_path / "cal.json"
        profile.save(path)
        loaded = CalibrationProfile.load(path)
        assert dict(loaded.coefficients) == dict(profile.coefficients)
        assert loaded.default_coefficient == profile.default_coefficient
        with pytest.raises(PlanError):
            CalibrationProfile.from_json("not json {")
        with pytest.raises(PlanError):
            CalibrationProfile.from_json("{}")

    def test_kind_fingerprint_roundtrip_and_tamper_detection(self):
        profile = CalibrationProfile.fit(
            [CalibrationSample("A", 10.0, 1e-4), CalibrationSample("B", 20.0, 1e-4)]
        )
        assert profile.kinds == ("A", "B")
        loaded = CalibrationProfile.from_json(profile.to_json())
        assert loaded.kinds == profile.kinds
        assert loaded.kind_fingerprint == profile.kind_fingerprint
        # The fingerprint identifies the kind *set*, not the coefficients.
        refit = CalibrationProfile.fit(
            [CalibrationSample("B", 5.0, 1e-5), CalibrationSample("A", 1.0, 1e-5)]
        )
        assert refit.kind_fingerprint == profile.kind_fingerprint
        other = CalibrationProfile.fit([CalibrationSample("A", 10.0, 1e-4)])
        assert other.kind_fingerprint != profile.kind_fingerprint
        # A hand-edited kind list no longer matches the recorded digest.
        tampered = profile.to_json().replace('"A"', '"C"')
        with pytest.raises(PlanError, match="fingerprint"):
            CalibrationProfile.from_json(tampered)

    def test_stale_kinds_partitions_the_divergence(self):
        profile = CalibrationProfile.fit(
            [CalibrationSample("A", 1.0, 1e-5), CalibrationSample("B", 1.0, 1e-5)]
        )
        unfitted, unused = profile.stale_kinds({"A", "C"})
        assert unfitted == ("C",) and unused == ("B",)
        assert profile.stale_kinds({"A", "B"}) == ((), ())
        # A legacy profile with no recorded kinds can never be stale.
        assert CalibrationProfile.uncalibrated().stale_kinds({"A"}) == (("A",), ())
        assert CalibrationProfile.uncalibrated().kinds == ()

    def test_estimate_plan_prices_seconds_only_when_calibrated(self, catalog):
        crs_of = dict(catalog.crs_of())
        node = optimize(parse_query(Q_STRETCH), crs_of).node
        plan = canonicalize(node, crs_of=crs_of)
        profiles = catalog.profiles()
        bare, _ = estimate_query(plan, profiles)
        assert bare.seconds is None
        est, _ = estimate_query(
            plan, profiles, calibration=CalibrationProfile.uncalibrated()
        )
        assert est.seconds is not None and est.seconds > 0

    def test_fitted_profile_beats_seed_estimates(self, catalog):
        server, _, collector = run_shared(catalog)
        samples = server.calibration_samples(collector)
        assert samples
        fitted = CalibrationProfile.fit(samples)
        seed = CalibrationProfile.uncalibrated()

        def err(profile):
            rel = [
                abs(profile.seconds(s.kind, s.work_units) - s.wall_s) / s.wall_s
                for s in samples
            ]
            return sum(rel) / len(rel)

        assert err(fitted) < err(seed)

    def test_samples_require_a_collector(self, catalog):
        server = DSMSServer(catalog)
        server.register(Q_VRANGE, encode_png=False)
        server.run()
        with pytest.raises(ServerError, match="stats"):
            server.calibration_samples()


class TestExplainAnalyze:
    def test_requires_observed_statistics(self, catalog):
        server = DSMSServer(catalog)
        server.register(Q_VRANGE, encode_png=False)
        server.run()
        with pytest.raises(ServerError, match="observe"):
            server.explain_analyze()

    def test_renders_observed_and_estimated_cost_per_stage(self, catalog):
        server, _, collector = run_shared(catalog)
        text = server.explain_analyze(collector=collector)
        assert "EXPLAIN ANALYZE" in text
        assert "2 queries" in text
        for stage in server.plan_dag.order:
            assert f"#{stage.node.fingerprint}" in text
        assert "observed:" in text and "rows" in text and "bytes" in text
        assert "estimated:" in text and "est/obs ratio" in text
        assert "summary: mean relative cost-estimation error" in text

    def test_flagging_and_ratio_validation(self, catalog):
        server, _, collector = run_shared(catalog)
        with pytest.raises(ServerError):
            server.explain_analyze(collector=collector, flag_ratio=1.0)
        # An absurd coefficient drives every ratio out of tolerance.
        wild = CalibrationProfile.uncalibrated(default=10.0)
        text = server.explain_analyze(collector=collector, calibration=wild)
        assert "** off by more than 3x **" in text

    def test_flags_stale_calibration_profile(self, catalog):
        server, _, collector = run_shared(catalog)
        # A profile fitted over a different operator mix is stale for
        # this DAG: it names its fingerprint and says how the sets differ.
        stale = CalibrationProfile.fit([CalibrationSample("Mosaic", 100.0, 1e-3)])
        text = server.explain_analyze(collector=collector, calibration=stale)
        assert "stale calibration profile" in text
        assert stale.kind_fingerprint in text
        assert "re-fit with --fit-calibration" in text
        # A profile fitted from this very run matches: no warning. A
        # legacy profile with no recorded kinds is never flagged either.
        fresh = CalibrationProfile.fit(server.calibration_samples(collector))
        text = server.explain_analyze(collector=collector, calibration=fresh)
        assert "stale calibration profile" not in text
        legacy = CalibrationProfile.uncalibrated()
        text = server.explain_analyze(collector=collector, calibration=legacy)
        assert "stale calibration profile" not in text


def make_stall_server():
    """A tiny hardened catalog whose source stalls deterministically."""
    crs = goes_geostationary(-135.0)
    imager = GOESImager(
        scene=SyntheticEarth(seed=5),
        sector_lattice=western_us_sector(crs, width=16, height=8),
        n_frames=3,
        t0=DAY_T0,
    )
    catalog = StreamCatalog()
    catalog.register_imager(imager)
    spec = FaultSpec(seed=202, stall=0.5, stall_seconds=30.0)
    ctx = RecoveryContext(stall_threshold_s=10.0)
    hardened, injector, ctx = harden_catalog(catalog, spec, context=ctx)
    breaches = []
    shedder = AdaptiveLoadShedder(points_per_frame_budget=16 * 8 * 2.0)
    server = DSMSServer(
        hardened,
        ingest_shedder=shedder,
        recovery=ctx,
        slo=SLOPolicy(max_lag_s=20.0, callback=breaches.append),
    )
    server.register("reflectance(goes.vis)", encode_png=False)
    return server, ctx, injector, shedder, breaches


class TestSLO:
    def test_monitor_rising_edge_and_hysteresis(self):
        fired = []
        monitor = SLOMonitor(SLOPolicy(max_lag_s=10.0, callback=fired.append, relax_after=2))
        assert monitor.observe(1, watermark=0.0, stream_t=5.0) is None
        breach = monitor.observe(1, watermark=0.0, stream_t=50.0)
        assert breach is not None and breach.kind == "event" and breach.lag_s == 50.0
        # Still inside the same episode: no second callback.
        assert monitor.observe(1, watermark=0.0, stream_t=60.0) is None
        assert len(fired) == 1 and monitor.is_breached(1)
        # Two healthy observations re-arm, the next breach fires again.
        monitor.observe(1, watermark=100.0, stream_t=101.0)
        monitor.observe(1, watermark=100.0, stream_t=102.0)
        assert not monitor.is_breached(1)
        assert monitor.observe(1, watermark=100.0, stream_t=200.0) is not None
        assert monitor.breach_count(1) == 2

    def test_clock_lag_breaches_without_watermark(self):
        monitor = SLOMonitor(SLOPolicy(max_lag_s=10.0))
        breach = monitor.observe(7, clock_lag_s=30.0)
        assert breach is not None and breach.kind == "clock"
        assert monitor.watermark(7) is None

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SLOMonitor(SLOPolicy(max_lag_s=0.0))

    def test_stall_fault_breaches_deterministically(self):
        def run_once():
            server, ctx, injector, shedder, breaches = make_stall_server()
            with recovering(ctx):
                server.run()
            assert injector.counts["stall"] > 0
            return breaches, shedder, server

        breaches_a, shedder, server = run_once()
        assert breaches_a, "stalls past the SLO must surface as breaches"
        assert server.slo_monitor.breach_count() == len(breaches_a)
        # The breach edge drove the same valve the stall detector uses.
        assert shedder.escalations > 0
        # Byte-for-byte reproducible under the seeded SimClock.
        breaches_b, _, _ = run_once()
        assert [(b.query, b.kind, b.lag_s) for b in breaches_a] == [
            (b.query, b.kind, b.lag_s) for b in breaches_b
        ]

    def test_slo_metrics_published(self):
        with obs.observe() as ob:
            server, ctx, _, _, _ = make_stall_server()
            with recovering(ctx):
                server.run()
        names = {snap["name"] for snap in ob.registry.snapshot()}
        assert "repro_slo_lag_seconds" in names
        assert "repro_slo_breached" in names
        assert "repro_slo_breaches_total" in names
        assert "repro_slo_watermark_seconds" in names


class TestFastPathOverhead:
    def test_no_timing_calls_when_observability_off(self, catalog, monkeypatch):
        """The no-tracer/no-stats path must never touch perf_counter.

        The telemetry timeline rides the same zero-cost contract: with no
        MetricStore or EventJournal installed the run must never call into
        them either.
        """

        def forbidden():
            raise AssertionError("perf_counter called on the fast path")

        def forbidden_timeline(*args, **kwargs):
            raise AssertionError("timeline touched with no store/journal installed")

        # obs.probe is the one module that may time an operator step.
        monkeypatch.setattr("repro.obs.probe.perf_counter", forbidden)
        monkeypatch.setattr("repro.obs.trace.perf_counter", forbidden)
        monkeypatch.setattr("repro.operators.delivery.perf_counter", forbidden)
        monkeypatch.setattr(
            "repro.obs.timeline.MetricStore.maybe_sample", forbidden_timeline
        )
        monkeypatch.setattr("repro.obs.timeline.MetricStore.sample", forbidden_timeline)
        monkeypatch.setattr("repro.obs.timeline.EventJournal.append", forbidden_timeline)
        monkeypatch.setattr(
            "repro.obs.timeline.EventJournal.set_time", forbidden_timeline
        )
        server = DSMSServer(catalog)
        session = server.register(Q_VRANGE, encode_png=False)
        server.run()
        assert session.frames  # the run completed untimed
        assert plan_query(parse_query(Q_NDVI), catalog.get).count_points() > 0

    def test_timed_path_does_use_perf_counter(self, catalog, monkeypatch):
        """Sanity check that the guard above actually guards something."""

        def forbidden():
            raise AssertionError("timed")

        monkeypatch.setattr("repro.obs.probe.perf_counter", forbidden)
        with obs.observe(stats=True):
            server = DSMSServer(catalog)
            server.register(Q_VRANGE, encode_png=False)
            with pytest.raises(AssertionError, match="timed"):
                server.run()
            with pytest.raises(AssertionError, match="timed"):
                plan_query(parse_query(Q_NDVI), catalog.get).count_points()

    @staticmethod
    def _per_point_query(small_imager):
        box = sector_subbox(small_imager, 0.1, 0.1, 0.9, 0.9)
        return (
            "reproject(within(coarsen(stretch(reflectance(goes.vis), 'linear'), 2), "
            f"bbox({box.xmin!r}, {box.ymin!r}, {box.xmax!r}, {box.ymax!r}, "
            "crs='geos:-135')), 'utm:10')"
        )

    def test_columnar_mode_makes_no_per_point_callbacks(
        self, catalog, small_imager, monkeypatch
    ):
        """The kernels never fall back to per-chunk Python derivation.

        ``GridChunk.subwindow`` / ``with_values`` are the per-point
        reference's per-row and per-chunk callbacks; production must
        construct its outputs from whole-buffer operations only.
        """
        from repro.core import GridChunk

        def forbidden(self, *args, **kwargs):
            raise AssertionError("per-point callback in a production kernel")

        monkeypatch.setattr(GridChunk, "subwindow", forbidden)
        monkeypatch.setattr(GridChunk, "with_values", forbidden)
        server = DSMSServer(catalog)
        session = server.register(
            self._per_point_query(small_imager), encode_png=False
        )
        server.run()
        assert session.frames  # the run completed without the reference hooks

    def test_per_point_mode_does_use_the_callbacks(
        self, catalog, small_imager, monkeypatch
    ):
        """Sanity check: the same query trips the guard on the reference."""
        from repro.core import GridChunk

        def forbidden(self, *args, **kwargs):
            raise AssertionError("per-point")

        monkeypatch.setattr(GridChunk, "subwindow", forbidden)
        monkeypatch.setattr(GridChunk, "with_values", forbidden)
        with reference_kernels():
            server = DSMSServer(catalog)
            server.register(self._per_point_query(small_imager), encode_png=False)
            with pytest.raises(AssertionError, match="per-point"):
                server.run()


class TestGaugeSnapshotGap:
    def test_zero_delivery_session_still_exports_gauges(self, catalog, small_imager):
        """Regression: sessions that never deliver must still appear in the
        snapshot with zero-valued gauges, not vanish from lag dashboards."""
        box = sector_subbox(small_imager, 1.5, 1.5, 1.75, 1.75)  # fully outside
        query = (
            f"within(reflectance(goes.vis), bbox({box.xmin!r}, {box.ymin!r}, "
            f"{box.xmax!r}, {box.ymax!r}, crs='geos:-135'))"
        )
        with obs.observe() as ob:
            server = DSMSServer(catalog)
            session = server.register(query, encode_png=False)
            server.run()
        assert not session.frames  # nothing delivered
        snaps = {
            (s["name"], s["labels"].get("session")): s
            for s in ob.registry.snapshot()
        }
        sid = str(session.session_id)
        pending = snaps.get(("dsms_session_pending_frames", sid))
        assert pending is not None, "gauge missing from the snapshot"
        assert pending["value"] == 0.0
        lag = snaps.get(("dsms_delivery_lag_seconds", sid))
        assert lag is not None and lag["count"] == 0
