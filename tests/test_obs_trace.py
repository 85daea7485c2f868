"""Frame-level distributed tracing: tracer, flight recorder, exporters.

The acceptance contract of the tracing layer:

* every delivered frame of a fully-sampled run carries a
  :class:`~repro.obs.trace.FrameTrace` whose stage hops **exactly** match
  the query's plan-DAG stage fingerprints (the same keys ``explain_dag``
  and ``StageStats`` use) — under subplan sharing, each query's trace
  keeps only its own dataflow path;
* the flight recorder is bounded (rings evict, pins dedup and cap) and
  SLO breaches / faults / dead letters auto-pin the affected frame;
* head sampling is honored and the untraced path records nothing;
* exporters render the same trace as an ASCII waterfall, Chrome
  trace-event JSON, and OTLP-shaped JSON, with stable span ids.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.errors import ServerError
from repro.faults import FaultSpec, RecoveryContext, harden_catalog, recovering
from repro.geo import goes_geostationary
from repro.ingest import GOESImager, SyntheticEarth, western_us_sector
from repro.obs.slo import SLOPolicy
from repro.obs.trace import span_id_for
from repro.operators import AdaptiveLoadShedder
from repro.server import DSMSServer, StreamCatalog

from tests.conftest import DAY_T0, install_frame_tracer

Q_REFL = "reflectance(goes.vis)"
Q_STRETCH = "stretch(reflectance(goes.vis), 'linear')"


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable_metrics()
    obs.install(obs.Instruments())
    obs.get_registry().reset()
    yield
    obs.install(obs.Instruments())


def run_traced(catalog, *queries, sample_rate=1.0, capacity=16, seed=0):
    ftracer = install_frame_tracer(sample_rate=sample_rate, capacity=capacity, seed=seed)
    server = DSMSServer(catalog)
    sessions = [server.register(q, encode_png=False) for q in queries]
    server.run()
    return server, sessions, ftracer


def dag_fps(server, session):
    rid = server._session_to_reg[session.session_id]
    return set(server.plan_dag.stage_fingerprints(rid))


class TestFrameTraceAcceptance:
    def test_every_frame_traced_and_stages_match_dag_exactly(self, catalog):
        server, (session,), ftracer = run_traced(catalog, Q_STRETCH)
        traces = session.frame_traces()
        assert len(traces) == 2 and all(t is not None for t in traces)
        expected = dag_fps(server, session)
        assert expected  # the query compiled to shared DAG stages
        for trace in traces:
            assert trace.stage_fingerprints() == expected
            assert trace.hop_by_key("source:goes.vis") is not None
            delivery = trace.hop_by_key("delivery")
            assert delivery is not None and delivery.kind == "delivery"
            assert not trace.partial

    def test_hop_metrics_and_causality(self, catalog):
        server, (session,), _ = run_traced(catalog, Q_STRETCH)
        trace = session.frame_traces()[0]
        keys = {h.key for h in trace.hops}
        for hop in trace.hops:
            if hop.kind == "source":
                continue
            # Every non-source hop is causally linked into the trace.
            assert hop.parents & keys, f"orphan hop {hop.key}"
            assert hop.wall_s >= 0.0 and hop.queue_s >= 0.0
            assert hop.chunks > 0
        stage_hops = [h for h in trace.hops if h.kind == "stage"]
        assert all(h.points_in > 0 for h in stage_hops)
        assert trace.total_wall_s > 0.0

    def test_fanout_traces_keep_only_each_querys_path(self, catalog):
        server, sessions, _ = run_traced(catalog, Q_REFL, Q_STRETCH)
        fps_a, fps_b = (dag_fps(server, s) for s in sessions)
        assert fps_a < fps_b  # shared reflectance prefix, stretch on top
        for session, expected in zip(sessions, (fps_a, fps_b)):
            for trace in session.frame_traces():
                assert trace.stage_fingerprints() == expected

    def test_shared_stage_executes_once_but_appears_in_both_traces(self, catalog):
        server, sessions, _ = run_traced(catalog, Q_REFL, Q_STRETCH)
        (shared_fp,) = dag_fps(server, sessions[0])
        for session in sessions:
            trace = session.frame_traces()[0]
            assert trace.hop_by_key(shared_fp) is not None


class TestSampling:
    def test_rate_zero_traces_nothing(self, catalog):
        _, (session,), ftracer = run_traced(catalog, Q_REFL, sample_rate=0.0)
        assert session.frames
        assert all(t is None for t in session.frame_traces())
        assert ftracer.recorder.recorded == 0
        assert ftracer.chunks_traced == 0 and ftracer.chunks_sampled_out > 0

    def test_rate_one_traces_everything(self, catalog):
        _, (session,), ftracer = run_traced(catalog, Q_REFL, sample_rate=1.0)
        assert all(t is not None for t in session.frame_traces())
        assert ftracer.chunks_sampled_out == 0

    def test_fractional_rate_is_seed_deterministic(self, catalog, small_imager):
        def traced_count(seed):
            obs.install(obs.Instruments())
            cat = StreamCatalog()
            cat.register_imager(small_imager)
            _, _, ftracer = run_traced(cat, Q_REFL, sample_rate=0.5, seed=seed)
            obs.install(obs.Instruments())
            return ftracer.chunks_traced

        a, b = traced_count(7), traced_count(7)
        assert a == b and 0 < a

    def test_untraced_chunks_cost_nothing(self, catalog, monkeypatch):
        # With a tracer installed but rate 0, the per-chunk path must not
        # time anything (same discipline as the no-observability path).
        def forbidden():
            raise AssertionError("perf_counter on sampled-out path")

        install_frame_tracer(sample_rate=0.0)
        monkeypatch.setattr("repro.obs.probe.perf_counter", forbidden)
        monkeypatch.setattr("repro.operators.delivery.perf_counter", forbidden)
        server = DSMSServer(catalog)
        session = server.register(Q_REFL, encode_png=False)
        server.run()
        assert session.frames


class TestFlightRecorder:
    def test_ring_bound_and_evictions(self, catalog):
        server, (session,), ftracer = run_traced(catalog, Q_REFL, capacity=1)
        assert ftracer.recorder.within_bounds()
        assert ftracer.recorder.evictions >= 1
        recent = server.recent_traces(session)
        assert len(recent) == 1
        # Newest-last: the surviving trace is the final frame's.
        assert recent[-1].frame_t == session.frames[-1].image.t

    def test_pin_dedups_and_is_bounded(self, catalog):
        _, (session,), ftracer = run_traced(catalog, Q_REFL)
        trace = session.frame_traces()[0]
        for _ in range(3):
            ftracer.recorder.pin(trace, reason="manual")
        assert ftracer.recorder.pinned.count(trace) == 1
        assert trace.pinned and trace.pin_reason == "manual"
        assert ftracer.recorder.within_bounds()

    def test_recorder_metrics_published(self, catalog):
        with obs.observe():
            run_traced(catalog, Q_REFL, capacity=1)
            names = {m["name"] for m in obs.get_registry().snapshot()}
        assert "repro_trace_chunks_total" in names
        assert "repro_trace_frames_total" in names
        assert "repro_trace_recorder_evictions_total" in names


class TestServerAPI:
    def test_frame_trace_and_recent_traces(self, catalog):
        server, (session,), _ = run_traced(catalog, Q_REFL)
        trace = server.frame_trace(session.frames[-1])
        assert trace is session.frames[-1].trace
        recent = server.recent_traces(session)
        assert trace in recent
        # Registration-id lookups work too (the SLO monitor's keying).
        rid = server._session_to_reg[session.session_id]
        assert server.recent_traces(rid) == recent

    def test_untraced_frame_is_a_server_error(self, catalog):
        server = DSMSServer(catalog)
        session = server.register(Q_REFL, encode_png=False)
        server.run()
        with pytest.raises(ServerError, match="trace"):
            server.frame_trace(session.frames[0])
        with pytest.raises(ServerError, match="tracer"):
            server.recent_traces(session)

    def test_observe_frame_trace_installs_and_restores(self, catalog):
        assert obs.current_frame_tracer() is None
        with obs.observe(frame_trace=True) as ob:
            assert obs.current_frame_tracer() is ob.frame_tracer
            server = DSMSServer(catalog)
            session = server.register(Q_REFL, encode_png=False)
            server.run()
            assert all(t is not None for t in session.frame_traces())
        assert obs.current_frame_tracer() is None


def make_stall_server():
    """Hardened catalog whose source stalls past the SLO deterministically."""
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
    shedder = AdaptiveLoadShedder(points_per_frame_budget=16 * 8 * 2.0)
    server = DSMSServer(
        hardened,
        ingest_shedder=shedder,
        recovery=ctx,
        slo=SLOPolicy(max_lag_s=20.0),
    )
    session = server.register(Q_REFL, encode_png=False)
    return server, session, ctx, injector


class TestAutoPinning:
    def test_slo_breach_pins_the_breaching_frame(self):
        ftracer = install_frame_tracer()
        server, session, ctx, injector = make_stall_server()
        with recovering(ctx):
            server.run()
        assert injector.counts["stall"] > 0
        assert server.slo_monitor.breach_count() > 0
        pinned = ftracer.recorder.pinned
        assert pinned, "SLO breach must auto-pin a frame trace"
        assert any(
            (t.pin_reason or "").startswith("slo-breach:")
            or any(n.startswith("slo-breach:") for n in t.annotations)
            for t in pinned
        ), "the breach must be recorded on a pinned trace"
        rid = server._session_to_reg[session.session_id]
        assert ftracer.is_breached(rid)

    def test_breached_query_forces_sampling_on(self):
        ftracer = install_frame_tracer(sample_rate=0.0)
        server, session, ctx, injector = make_stall_server()
        with recovering(ctx):
            server.run()
        assert server.slo_monitor.breach_count() > 0
        # Rate 0 would normally trace nothing; the breach overrides it for
        # every chunk admitted after the breach fired.
        assert ftracer.chunks_traced > 0

    def test_quarantine_pins_a_partial_trace(self):
        ftracer = install_frame_tracer()
        spec = FaultSpec(seed=101, drop=0.1)
        hardened, injector, ctx = harden_catalog(make_stall_catalog(), spec)
        server = DSMSServer(hardened, recovery=ctx)
        server.register(Q_REFL, encode_png=False)
        with recovering(ctx):
            server.run()
        assert injector.counts["drop"] > 0
        assert ctx.dead_letter.total > 0
        partials = [t for t in ftracer.recorder.pinned if t.partial]
        assert partials, "quarantined frames must pin partial traces"
        assert any(
            any(n.startswith("recovery:quarantined:") for n in t.annotations)
            for t in partials
        )


def make_stall_catalog() -> StreamCatalog:
    crs = goes_geostationary(-135.0)
    imager = GOESImager(
        scene=SyntheticEarth(seed=5),
        sector_lattice=western_us_sector(crs, width=16, height=8),
        n_frames=3,
        t0=DAY_T0,
    )
    catalog = StreamCatalog()
    catalog.register_imager(imager)
    return catalog


class TestWaterfall:
    def test_render_contains_every_hop_and_the_split(self, catalog):
        server, (session,), _ = run_traced(catalog, Q_STRETCH)
        trace = session.frame_traces()[-1]
        text = obs.render_waterfall(trace)
        for hop in trace.hops:
            assert hop.label in text
        assert "compute" in text and "queue" in text
        assert "total" in text
        # Stage hops show their StageStats fingerprint (the exemplar link
        # into EXPLAIN ANALYZE / provenance output).
        for fp in trace.stage_fingerprints():
            assert f"#{fp[:10]}" in text

    def test_render_marks_pins_and_annotations(self, catalog):
        _, (session,), ftracer = run_traced(catalog, Q_REFL)
        trace = session.frame_traces()[0]
        ftracer.recorder.pin(trace, reason="because")
        trace.annotations = tuple(trace.annotations) + ("fault:demo",)
        text = obs.render_waterfall(trace)
        assert "PINNED: because" in text
        assert "! fault:demo" in text


class TestExporters:
    def test_chrome_trace_events(self, catalog):
        server, (session,), _ = run_traced(catalog, Q_STRETCH)
        trace = session.frame_traces()[-1]
        doc = obs.traces_to_chrome([trace])
        json.dumps(doc)  # must serialize
        events = doc["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in slices}
        for hop in trace.hops:
            assert hop.label in names
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in slices)
        threads = [e for e in events if e.get("name") == "thread_name"]
        assert len(threads) == len(trace.hops)

    def test_otlp_spans_link_parents_with_stable_ids(self, catalog):
        server, (session,), _ = run_traced(catalog, Q_STRETCH)
        trace = session.frame_traces()[-1]
        doc = obs.traces_to_otlp([trace])
        json.dumps(doc)
        spans = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert len(spans) == len(trace.hops)
        ids = {s["spanId"] for s in spans}
        assert len(ids) == len(spans)
        roots = [s for s in spans if "parentSpanId" not in s]
        assert len(roots) == 1 and roots[0]["name"].startswith("scan ")
        for span in spans:
            assert len(span["traceId"]) == 32
            if "parentSpanId" in span:
                assert span["parentSpanId"] in ids
        # Exported ids are a pure function of (trace id, hop key).
        assert span_id_for(trace.trace_id, "delivery") in ids
        assert span_id_for(trace.trace_id, "delivery") == span_id_for(
            trace.trace_id, "delivery"
        )
        assert span_id_for(trace.trace_id + 1, "delivery") not in ids


class TestSpanDirectionNormalization:
    def test_push_spans_record_consumer_direction_raw(self, catalog):
        with obs.observe(trace=True) as ob:
            server = DSMSServer(catalog)
            server.register(Q_STRETCH, encode_png=False)
            server.run()
        raw = ob.tracer.to_dicts()
        stage_spans = [s for s in raw if s["direction"] == "consumer"]
        assert len(stage_spans) == 2  # reflectance + stretch
        producer = next(s for s in stage_spans if s["name"] == "value-transform")
        consumer = next(s for s in stage_spans if s["name"] == "frame-stretch")
        # Raw (unchanged contract): the producer parents on its consumer.
        assert producer["parent_id"] == consumer["span_id"]
        assert consumer["parent_id"] is None

        normalized = obs.normalize_spans(raw)
        producer_n = next(s for s in normalized if s["name"] == "value-transform")
        consumer_n = next(s for s in normalized if s["name"] == "frame-stretch")
        # Normalized: dataflow order, the producer is the root.
        assert producer_n["parent_id"] is None
        assert consumer_n["parent_id"] == producer_n["span_id"]
        assert all(s["direction"] == "dataflow" for s in normalized)
        # The raw dicts were not mutated.
        assert producer["direction"] == "consumer"

    def test_pipe_spans_normalize_to_dataflow_order(self, small_imager):
        from repro.operators import Rescale

        first, second = Rescale(2.0), Rescale(0.5)
        with obs.observe(trace=True) as ob:
            small_imager.stream("vis").pipe(first, second).count_points()
        raw = ob.tracer.to_dicts()
        # A piped stream runs on a plan DAG: stage spans parent on consumers.
        assert all(s["direction"] == "consumer" for s in raw)
        by_op = {s["attrs"]["op"]: s for s in obs.normalize_spans(raw)}
        assert by_op[repr(first)]["parent_id"] is None
        assert by_op[repr(second)]["parent_id"] == by_op[repr(first)]["span_id"]

    def test_collect_run_exports_normalized_spans(self, catalog):
        with obs.observe(trace=True) as ob:
            server = DSMSServer(catalog)
            server.register(Q_STRETCH, encode_png=False)
            server.run()
            run = obs.collect_run(tracer=ob.tracer, registry=ob.registry)
        assert all(s["direction"] == "dataflow" for s in run["spans"])
