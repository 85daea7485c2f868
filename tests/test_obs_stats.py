"""EXPLAIN ANALYZE stack: stage statistics, provenance, calibration, SLOs.

Covers the observed-statistics layer end to end: deterministic reservoir
quantiles, per-stage ledgers accumulated by the shared plan DAG, chunk
provenance matching ``explain_dag``'s stage fingerprints exactly, cost
calibration fitting/persistence, ``DSMSServer.explain_analyze``, and
watermark/SLO breach detection under injected stall faults — plus the
zero-overhead guarantee of the no-observability fast path.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.provenance import MAX_TRACKED_SCANS, Provenance
from repro.errors import PlanError, ServerError
from repro.faults import FaultSpec, RecoveryContext, harden_catalog, recovering
from repro.geo import goes_geostationary
from repro.ingest import GOESImager, SyntheticEarth, western_us_sector
from repro.obs.registry import ObservabilityError
from repro.obs.slo import SLOMonitor, SLOPolicy
from repro.obs.stats import Reservoir, format_lineage, lineage
from repro.operators import AdaptiveLoadShedder
from repro.plan import canonicalize
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
        assert "+" in p.describe()  # dropped count surfaced


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
