"""The single instrument slot and the single timed-step record.

``repro.obs.probe`` owns the only install point (one immutable
``Instruments`` record) and the only per-step bookkeeping
(``StageProbe.record``). These tests pin down the slot's lifecycle, the
record's folds on synthetic timestamps, and the property the design
exists for: after a real run, a stage's span, its ``StageStats`` ledger
and its frame hops agree because they were fed one measurement.
"""

from __future__ import annotations

import dataclasses
from itertools import islice

import pytest

from repro import obs
from repro.core.provenance import Provenance
from repro.operators import Rescale
from repro.query import parse_query
from repro.query.planner import plan_query
from repro.server import DSMSServer

Q_CHAIN = "stretch(reflectance(goes.vis), 'linear')"
Q_COMPOSE = "stretch(ndvi(reflectance(goes.nir), reflectance(goes.vis)), 'linear')"
EVERYTHING = dict(trace=True, stats=True, frame_trace=True)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable_metrics()
    obs.install(obs.Instruments())
    obs.get_registry().reset()
    yield
    obs.disable_metrics()
    obs.install(obs.Instruments())


class TestInstrumentSlot:
    def test_idle_by_default_and_readers_are_views(self):
        ins = obs.current_instruments()
        assert ins == obs.Instruments() and not ins.steps
        tracer, journal = obs.Tracer(), obs.EventJournal()
        obs.install(obs.Instruments(tracer=tracer, journal=journal))
        assert obs.current_tracer() is tracer
        assert obs.current_journal() is journal
        assert obs.current_collector() is None
        assert obs.current_frame_tracer() is None
        assert obs.current_metric_store() is None

    def test_install_returns_the_previous_record(self):
        first = obs.Instruments(stats=obs.StatsCollector())
        assert obs.install(first) == obs.Instruments()
        assert obs.install(obs.Instruments()) is first

    def test_record_is_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            obs.current_instruments().tracer = obs.Tracer()

    def test_only_step_observers_leave_the_fast_path(self):
        assert not obs.Instruments(store=obs.MetricStore(), journal=obs.EventJournal()).steps
        assert obs.Instruments(tracer=obs.Tracer()).steps
        assert obs.Instruments(stats=obs.StatsCollector()).steps
        assert obs.Instruments(frame_tracer=obs.FrameTracer()).steps

    def test_installed_restores_on_error(self):
        outer = obs.Instruments(journal=obs.EventJournal())
        obs.install(outer)
        with pytest.raises(RuntimeError):
            with obs.installed(tracer=obs.Tracer()) as ins:
                assert obs.current_instruments() is ins
                assert ins.journal is outer.journal  # changes apply on top
                raise RuntimeError("boom")
        assert obs.current_instruments() is outer

    def test_observe_nests_and_restores_the_whole_record(self):
        with obs.observe(trace=True, journal=True) as outer:
            before = obs.current_instruments()
            with obs.observe(stats=True, reset=False) as inner:
                assert inner.tracer is outer.tracer and inner.journal is outer.journal
                assert inner.stats is not None and outer.stats is None
            assert obs.current_instruments() is before
        assert obs.current_instruments() == obs.Instruments()
        assert not obs.metrics_enabled()

    def test_the_setters_are_gone(self):
        for name in (
            "enable_tracing", "disable_tracing", "enable_stats", "disable_stats",
            "enable_frame_tracing", "disable_frame_tracing", "install_metric_store",
            "clear_metric_store", "install_journal", "clear_journal",
        ):
            assert not hasattr(obs, name), name


def _traced_chunk(small_imager, ftracer):
    chunk = next(iter(small_imager.stream("vis").chunks()))
    chunk = dataclasses.replace(chunk, provenance=Provenance.scan("goes.vis", 0))
    return ftracer.admit("goes.vis", chunk)


class TestStageProbeRecord:
    def test_one_record_feeds_every_fold(self, small_imager):
        ins = obs.Instruments(
            tracer=obs.Tracer(), stats=obs.StatsCollector(), frame_tracer=obs.FrameTracer()
        )
        probe = obs.StageProbe(Rescale(2.0)).bind(ins)
        span = probe.open_span(None)
        chunk = _traced_chunk(small_imager, ins.frame_tracer)
        (out,) = probe.record(chunk, [chunk], 10.0, 10.5)
        probe.record(None, [], 11.0, 11.25)  # flush, nothing held

        entry = ins.stats.stages[probe.key]
        assert probe.key == "pull:" + Rescale(2.0).name == span.attrs["stage"]
        assert (span.calls, span.chunks_in, span.wall_time_s) == (2, 1, 0.75)
        assert (entry.calls, entry.chunks_in, entry.wall_s) == (2, 1, 0.75)
        assert span.points_in == entry.points_in == chunk.n_points
        assert span.finished
        # One re-stamp carries both tags.
        assert out.provenance.stages == {probe.key}
        assert out.trace.parent_key == probe.key and out.trace.ids == chunk.trace.ids
        trace = ins.frame_tracer.finalize_frame("q", [out.trace])
        hop = trace.hop_by_key(probe.key)
        assert (hop.chunks, hop.wall_s, hop.kind) == (1, 0.5, "pull")

    def test_buffered_contexts_merge_and_flush_bills_the_oldest(self, small_imager):
        ftracer = obs.FrameTracer()
        probe = obs.StageProbe(Rescale(2.0)).bind(obs.Instruments(frame_tracer=ftracer))
        first = _traced_chunk(small_imager, ftracer)
        second = _traced_chunk(small_imager, ftracer)
        assert probe.record(first, [], 1.0, 2.0) == []
        assert probe.record(second, [], 2.0, 3.0) == []
        assert probe.observes(None)  # a flush holding sampled-in inputs is timed
        (out,) = probe.record(None, [second], 5.0, 6.0)
        assert out.trace.trace_id == first.trace.trace_id
        assert out.trace.ids == first.trace.ids + second.trace.ids
        assert probe.pending == [] and not probe.observes(None)
        trace = ftracer.finalize_frame("q", [out.trace])
        assert trace.hop_by_key(probe.key).wall_s == 3.0

    def test_frame_tracer_alone_skips_untraced_chunks(self, small_imager):
        untraced = next(iter(small_imager.stream("vis").chunks()))
        ftracer = obs.FrameTracer(sample_rate=0.0)
        probe = obs.StageProbe(Rescale(2.0)).bind(obs.Instruments(frame_tracer=ftracer))
        assert not probe.observes(untraced) and not probe.observes(None)
        with_stats = dataclasses.replace(probe.ins, stats=obs.StatsCollector())
        assert probe.bind(with_stats).observes(untraced)

    def test_rebinding_keeps_only_what_its_instrument_still_owns(self, small_imager):
        tracer, ftracer = obs.Tracer(), obs.FrameTracer()
        ins = obs.Instruments(tracer=tracer, stats=obs.StatsCollector(), frame_tracer=ftracer)
        probe = obs.StageProbe(Rescale(2.0)).bind(ins)
        span = probe.open_span(None)
        probe.record(_traced_chunk(small_imager, ftracer), [], 0.0, 1.0)
        probe.bind(dataclasses.replace(ins, stats=obs.StatsCollector()))
        assert probe.span is span and len(probe.pending) == 1 and probe.prov is not None
        probe.bind(obs.Instruments(stats=ins.stats))
        assert probe.span is None and probe.pending == [] and probe.prov is not None


class TestThreeWayAgreement:
    """Span == ledger exactly; frame hops add up to the same seconds."""

    @pytest.mark.parametrize("query", (Q_CHAIN, Q_COMPOSE))
    def test_push_dag(self, catalog, query):
        with obs.observe(**EVERYTHING) as ob:
            server = DSMSServer(catalog)
            session = server.register(query, encode_png=False)
            # Hops are compared before the end-of-input flush: the flush
            # of an operator holding nothing belongs to no frame.
            server.run(close=False)
            assert len(session.frames) == 2
            assert obs.disagreements(ob.tracer, ob.stats, session.frame_traces()) == []
            server.run(max_chunks=0)
        assert obs.disagreements(ob.tracer, ob.stats) == []
        rid = server._session_to_reg[session.session_id]
        assert set(ob.stats.stages) == server.plan_dag.stage_fingerprints(rid)
        for entry in ob.stats:
            assert entry.calls == entry.chunks_in + 1 and entry.wall_s > 0

    @pytest.mark.parametrize("query", (Q_CHAIN, Q_COMPOSE))
    def test_pull_pipeline(self, catalog, query):
        with obs.observe(**EVERYTHING) as ob:
            plan_query(parse_query(query), catalog.get).count_points()
        assert obs.disagreements(ob.tracer, ob.stats) == []
        assert len(ob.stats) == len(ob.tracer.spans) > 1
        for entry in ob.stats:
            assert entry.calls == entry.chunks_in + 1 and entry.wall_s > 0

    def test_pull_pipeline_frame_hops(self, catalog):
        # A unary chain only: a composition drains (and flushes) its
        # earlier-ending input before its own last output, so the "not
        # flushed yet" point below does not exist for it.
        node = parse_query(Q_CHAIN)
        n_outputs = len(plan_query(node, catalog.get).collect_chunks())
        assert n_outputs > 0
        with obs.observe(**EVERYTHING) as ob:
            it = iter(
                plan_query(node, lambda sid: obs.trace_source(catalog.get(sid))).chunks()
            )
            # Every output, with each generator still short of its flush.
            outs = list(islice(it, n_outputs))
            trace = ob.frame_tracer.finalize_frame("pull", [c.trace for c in outs])
            assert trace.stage_fingerprints() == set(ob.stats.stages)
            assert obs.disagreements(ob.tracer, ob.stats, [trace]) == []
            assert list(it) == []
        assert obs.disagreements(ob.tracer, ob.stats) == []

    def test_a_disagreement_is_reported(self, catalog):
        with obs.observe(trace=True, stats=True) as ob:
            plan_query(parse_query(Q_CHAIN), catalog.get).count_points()
        entry = next(iter(ob.stats))
        entry.calls += 1
        (problem,) = obs.disagreements(ob.tracer, ob.stats)
        assert entry.fingerprint in problem
        ob.stats.stages.pop(entry.fingerprint)
        assert obs.disagreements(ob.tracer, ob.stats) == [
            f"{entry.fingerprint}: span without a ledger"
        ]
