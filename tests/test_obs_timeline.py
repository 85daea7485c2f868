"""The telemetry timeline: metric store, event journal, health model.

Unit coverage drives each piece on a private registry with hand-rolled
logical clocks (no DSMS, no wall clock), then the integration half runs
seeded chaos through the full server and pins the ISSUE's acceptance
contract: the EventJournal of a seeded drill is bit-identical with and
without frame tracing installed, and journal links click through to the
flight recorder's pinned captures.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.faults import FaultSpec, SimClock, harden_catalog, recovering
from repro.geo import goes_geostationary
from repro.ingest import GOESImager, SyntheticEarth, western_us_sector
from repro.obs import EventJournal, HealthModel, HealthPolicy, MetricStore
from repro.obs.registry import MetricsRegistry, ObservabilityError
from repro.obs.timeline import (
    VERDICT_DEGRADED,
    VERDICT_HEALTHY,
    VERDICT_UNHEALTHY,
    current_journal,
    current_metric_store,
)
from repro.obs.trace import FrameTrace
from repro.server import DSMSServer, StreamCatalog

DAY_T0 = 72_000.0


@pytest.fixture(autouse=True)
def _clean_state():
    obs.install(obs.Instruments())
    yield
    obs.install(obs.Instruments())


def make_catalog() -> StreamCatalog:
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


# -- MetricStore --------------------------------------------------------------


class TestMetricStore:
    def test_cadence_gates_sampling(self):
        reg = MetricsRegistry()
        counter = reg.counter("ticks_total")
        store = MetricStore(capacity=16, cadence_s=10.0)
        taken = 0
        for i in range(50):
            counter.inc()
            taken += store.maybe_sample(float(i), reg)
        # t=0 samples, then every 10 logical seconds: 0,10,20,30,40.
        assert taken == 5
        assert store.samples_taken == 5
        points = store.series("ticks_total")
        assert [t for t, _ in points] == [0.0, 10.0, 20.0, 30.0, 40.0]
        # Counter values captured at each tick (inc'd before the sample).
        assert [v for _, v in points] == [1.0, 11.0, 21.0, 31.0, 41.0]

    def test_capacity_bounds_every_ring(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("depth")
        store = MetricStore(capacity=4, cadence_s=0.0)
        for i in range(10):
            gauge.set(float(i))
            store.sample(float(i), reg)
        points = store.series("depth")
        assert len(points) == 4
        assert points == [(6.0, 6.0), (7.0, 7.0), (8.0, 8.0), (9.0, 9.0)]
        assert store.samples_taken == 10  # evicted, not forgotten

    def test_clock_regression_resets(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        store = MetricStore(capacity=8, cadence_s=1.0)
        store.maybe_sample(100.0, reg)
        store.maybe_sample(105.0, reg)
        assert len(store.series("c")) == 2
        # A fresh run restarts the logical clock: the store resets.
        store.maybe_sample(3.0, reg)
        assert store.resets == 1
        assert [t for t, _ in store.series("c")] == [3.0]

    def test_repeat_tick_updates_in_place(self):
        """The forced end-of-run sample at the same logical t wins."""
        reg = MetricsRegistry()
        counter = reg.counter("done_total")
        store = MetricStore(capacity=8, cadence_s=0.0)
        counter.inc()
        store.sample(50.0, reg)
        counter.inc(9)
        store.sample(50.0, reg)  # same logical time: update, don't append
        points = store.series("done_total")
        assert points == [(50.0, 10.0)]
        assert store.samples_taken == 1  # in-place update is not a new tick
        times = [t for t, _ in points]
        assert times == sorted(set(times)), "tick times stay strictly monotone"

    def test_labeled_series_are_distinct(self):
        reg = MetricsRegistry()
        reg.gauge("lag", query=1).set(2.0)
        reg.gauge("lag", query=2).set(7.0)
        store = MetricStore(capacity=8, cadence_s=0.0)
        store.sample(0.0, reg)
        assert store.series("lag", query=1) == [(0.0, 2.0)]
        assert store.series("lag", query=2) == [(0.0, 7.0)]
        assert len(store.matching("lag")) == 2

    def test_histogram_fans_out_derived_series(self):
        reg = MetricsRegistry()
        hist = reg.histogram("latency_seconds")
        store = MetricStore(capacity=8, cadence_s=0.0)
        for i, v in enumerate([0.1, 0.2, 0.3, 0.4]):
            hist.observe(v)
            store.sample(float(i), reg)
        names = {k.name for k in store.keys()}
        assert {"latency_seconds:count", "latency_seconds:sum", "latency_seconds:p99"} <= names
        counts = store.series("latency_seconds:count")
        assert [v for _, v in counts] == [1.0, 2.0, 3.0, 4.0]
        sums = store.series("latency_seconds:sum")
        assert sums[-1][1] == pytest.approx(1.0)

    def test_rollup_rate_and_distribution(self):
        reg = MetricsRegistry()
        counter = reg.counter("frames_total")
        store = MetricStore(capacity=16, cadence_s=0.0)
        for i in range(5):
            counter.inc(2)
            store.sample(float(i * 10), reg)
        roll = store.rollup("frames_total")
        assert roll is not None
        assert roll.window == 5
        assert roll.delta == 8.0  # 10 - 2
        assert roll.rate == pytest.approx(8.0 / 40.0)
        assert roll.span_s == 40.0
        assert (roll.vmin, roll.vmax) == (2.0, 10.0)
        assert roll.mean == pytest.approx(6.0)
        windowed = store.rollup("frames_total", window=2)
        assert windowed is not None
        assert windowed.window == 2
        assert windowed.delta == 2.0
        assert store.rollup("no_such_series") is None
        with pytest.raises(ObservabilityError):
            store.rollup("frames_total", window=0)

    def test_trend_rising(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("lag_seconds")
        store = MetricStore(capacity=16, cadence_s=0.0)
        for i, v in enumerate([1.0, 2.0, 4.0, 8.0]):
            gauge.set(v)
            store.sample(float(i), reg)
        assert store.trend_rising("lag_seconds", window=4)
        for i, v in enumerate([8.0, 4.0, 2.0, 1.0]):
            gauge.set(v)
            store.sample(float(10 + i), reg)
        assert not store.trend_rising("lag_seconds", window=4)
        assert not store.trend_rising("lag_seconds", window=2)  # < 3 points

    def test_to_dict_is_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("c", query=1).inc()
        store = MetricStore(capacity=8, cadence_s=0.0)
        store.sample(1.0, reg)
        payload = json.loads(json.dumps(store.to_dict(window=4)))
        assert payload["capacity"] == 8
        assert payload["samples_taken"] == 1
        [series] = payload["series"]
        assert series["name"] == "c"
        assert series["labels"] == {"query": "1"}
        assert series["points"] == [[1.0, 1.0]]
        assert series["rollup"]["window"] == 1

    def test_rejects_bad_configuration(self):
        with pytest.raises(ObservabilityError):
            MetricStore(capacity=0)
        with pytest.raises(ObservabilityError):
            MetricStore(cadence_s=-1.0)


# -- EventJournal -------------------------------------------------------------


class TestEventJournal:
    def test_seq_survives_eviction(self):
        journal = EventJournal(capacity=4)
        for i in range(10):
            journal.append("fault", reason=f"r{i}", t=float(i))
        assert len(journal) == 4
        assert journal.total == 10
        seqs = [e.seq for e in journal]
        assert seqs == [7, 8, 9, 10]  # strictly increasing, never reused
        assert [e.t for e in journal] == [6.0, 7.0, 8.0, 9.0]

    def test_set_time_defaults_event_timestamps(self):
        journal = EventJournal()
        journal.set_time(123.5)
        event = journal.append("slo-breach", query=1)
        assert event.t == 123.5
        explicit = journal.append("fault", t=7.0)
        assert explicit.t == 7.0

    def test_filters_and_tail(self):
        journal = EventJournal()
        journal.append("fault", reason="drop", t=1.0)
        journal.append("slo-breach", query=1, t=2.0)
        journal.append("fault", reason="stall", t=3.0)
        journal.append("slo-breach", query=2, t=4.0)
        assert [e.reason for e in journal.events(kind="fault")] == [
            "drop",
            "stall",
        ]
        assert [e.t for e in journal.events(query=2)] == [4.0]
        assert [e.seq for e in journal.events(since_seq=2)] == [3, 4]
        assert [e.seq for e in journal.tail(2)] == [3, 4]
        assert journal.counts_by_kind() == {"fault": 2, "slo-breach": 2}

    def test_schema_is_stable_and_json_ready(self):
        journal = EventJournal()
        journal.append("epoch-swap", query=3, epoch=2, reason="r", link="epoch-swap:e1->e2")
        [event] = json.loads(json.dumps(journal.to_dicts()))
        assert set(event) == {"seq", "t", "kind", "query", "epoch", "reason", "link"}

    def test_rejects_bad_capacity(self):
        with pytest.raises(ObservabilityError):
            EventJournal(capacity=0)

    @staticmethod
    def _trace(query, annotations=(), pin_reason=None):
        return FrameTrace(
            trace_id=1,
            trace_ids=(1,),
            query=query,
            stream_id="goes.vis",
            frame_t=None,
            band=None,
            shape=None,
            hops=[],
            annotations=tuple(annotations),
            pinned=True,
            pin_reason=pin_reason,
        )

    def test_captures_links_into_the_flight_recorder(self):
        from repro.obs.trace import FlightRecorder

        recorder = FlightRecorder()
        hit = self._trace(1, annotations=("fault:drop:attempt=2",))
        other_kind = self._trace(1, pin_reason="fault:stall")
        other_query = self._trace(2, annotations=("fault:drop",))
        for trace in (hit, other_kind, other_query):
            recorder.pin(trace)
        journal = EventJournal()
        event = journal.append("fault", query=1, link="fault:drop", t=1.0)
        # Prefix match against annotations, filtered to the event's query.
        assert journal.captures(event, recorder) == [hit]
        # Pin reasons match too.
        stall = journal.append("fault", query=1, link="fault:stall", t=2.0)
        assert journal.captures(stall, recorder) == [other_kind]
        # No link, no captures.
        bare = journal.append("shed-relax", t=3.0)
        assert journal.captures(bare, recorder) == []


# -- HealthModel --------------------------------------------------------------


class TestHealthModel:
    def test_query_verdicts(self):
        model = HealthModel()
        verdict, reasons = model.query_verdict(breached=False, lag_s=1.0, max_lag_s=60.0)
        assert (verdict, reasons) == (VERDICT_HEALTHY, ())
        verdict, reasons = model.query_verdict(breached=False, lag_s=45.0, max_lag_s=60.0)
        assert verdict == VERDICT_DEGRADED
        assert "above 50%" in reasons[0]
        verdict, reasons = model.query_verdict(
            breached=True, lag_s=90.0, max_lag_s=60.0, breaches=3
        )
        assert verdict == VERDICT_UNHEALTHY
        assert "SLO breach active" in reasons[0]
        assert "3 SLO breach(es)" in reasons[1]

    def test_rising_lag_degrades_even_under_budget(self):
        model = HealthModel()
        verdict, reasons = model.query_verdict(
            breached=False, lag_s=5.0, max_lag_s=60.0, lag_rising=True
        )
        assert verdict == VERDICT_DEGRADED
        assert any("rising" in r for r in reasons)

    def test_server_verdict_folds_global_signals(self):
        model = HealthModel(HealthPolicy(dead_letter_unhealthy=4))
        verdict, _ = model.server_verdict([VERDICT_HEALTHY, VERDICT_HEALTHY])
        assert verdict == VERDICT_HEALTHY
        # Worst query wins.
        verdict, _ = model.server_verdict([VERDICT_HEALTHY, VERDICT_UNHEALTHY])
        assert verdict == VERDICT_UNHEALTHY
        # A single dead letter degrades; the threshold goes unhealthy.
        verdict, reasons = model.server_verdict([VERDICT_HEALTHY], dead_letters=1)
        assert verdict == VERDICT_DEGRADED
        verdict, reasons = model.server_verdict([VERDICT_HEALTHY], dead_letters=4)
        assert verdict == VERDICT_UNHEALTHY
        assert ">= 4" in reasons[0]
        # Shed pressure and epoch churn degrade with explained reasons.
        verdict, reasons = model.server_verdict([VERDICT_HEALTHY], shed_pressure=2.0)
        assert verdict == VERDICT_DEGRADED
        assert "shed pressure" in reasons[0]
        verdict, reasons = model.server_verdict([VERDICT_HEALTHY], recent_swaps=5)
        assert verdict == VERDICT_DEGRADED
        assert "epoch churn" in reasons[0]

    def test_assess_on_a_live_server(self):
        with obs.observe(store=MetricStore(cadence_s=30.0), journal=True):
            server = DSMSServer(make_catalog())
            server.register("reflectance(goes.vis)", encode_png=False)
            server.run()
            report = HealthModel().assess(server)
        assert report.verdict in (VERDICT_HEALTHY, VERDICT_DEGRADED, VERDICT_UNHEALTHY)
        assert len(report.queries) == 1
        [query] = report.queries
        assert query.query == 1
        assert query.epoch >= 1
        payload = json.loads(json.dumps(report.to_dict()))
        assert set(payload) >= {"verdict", "reasons", "queries", "at", "dead_letters"}


# -- installation & the observe() context -------------------------------------


class TestInstallation:
    def test_observe_installs_and_restores(self):
        assert current_metric_store() is None
        assert current_journal() is None
        store = MetricStore(capacity=8)
        with obs.observe(store=store, journal=True) as ob:
            assert current_metric_store() is store
            assert ob.store is store
            assert current_journal() is ob.journal
            assert isinstance(ob.journal, EventJournal)
        assert current_metric_store() is None
        assert current_journal() is None

    def test_dsms_run_populates_store_and_journal(self):
        with obs.observe(store=MetricStore(cadence_s=30.0), journal=True) as ob:
            server = DSMSServer(make_catalog())
            session = server.register("reflectance(goes.vis)", encode_png=False)
            server.run()
        assert session.frames
        assert ob.store.samples_taken > 0
        assert len(ob.store) > 0, "the run must sample live registry metrics"
        # The run's plan install lands in the journal with the query id.
        installs = ob.journal.events(kind="epoch-install")
        assert installs and installs[0].query == 1
        # Every journal timestamp is logical stream time, inside the scan.
        assert all(e.t >= DAY_T0 or e.t == 0.0 for e in ob.journal)


# -- seeded chaos: the determinism acceptance test ----------------------------


def run_chaos_journal(seed: int, traced: bool) -> tuple[list[dict], object]:
    """One hardened run; returns the journal's serialized events."""
    spec = FaultSpec.default(seed=seed)
    with obs.observe(journal=True, frame_trace=traced) as ob:
        hardened, injector, ctx = harden_catalog(make_catalog(), spec)
        server = DSMSServer(hardened, recovery=ctx)
        server.register("reflectance(goes.vis)", encode_png=False)
        with recovering(ctx):
            server.run()
        ftracer = obs.current_frame_tracer()
        recorder = ftracer.recorder if ftracer is not None else None
        return ob.journal.to_dicts(), (injector, recorder)


class TestChaosJournal:
    @pytest.mark.parametrize("seed", (101, 404))
    def test_journal_is_bit_identical_with_and_without_tracing(self, seed):
        """ISSUE acceptance: tracing must not perturb the journal at all."""
        untraced, (injector_a, _) = run_chaos_journal(seed, traced=False)
        obs.install(obs.Instruments())
        traced, (injector_b, _) = run_chaos_journal(seed, traced=True)
        assert injector_a.counts == injector_b.counts
        assert untraced == traced  # byte-for-byte identical event streams
        assert untraced, "a default-mix drill must journal events"
        kinds = {e["kind"] for e in untraced}
        assert "fault" in kinds

    def test_journal_links_click_through_to_pinned_traces(self):
        events, (injector, recorder) = run_chaos_journal(101, traced=True)
        assert recorder is not None and recorder.pinned
        with obs.observe(journal=True) as ob:
            pass  # a fresh journal just for reconstruction
        journal = EventJournal()
        linked = 0
        for payload in events:
            event = journal.append(
                payload["kind"],
                query=payload["query"],
                epoch=payload["epoch"],
                reason=payload["reason"],
                link=payload["link"],
                t=payload["t"],
            )
            linked += bool(journal.captures(event, recorder))
        assert linked > 0, "fault events must resolve to pinned captures"
        del ob

    def test_fault_events_carry_simclock_time(self):
        from repro.faults import RecoveryContext

        spec = FaultSpec.single("drop", seed=202)
        context = RecoveryContext(clock=SimClock())
        with obs.observe(journal=True) as ob:
            hardened, injector, ctx = harden_catalog(make_catalog(), spec, context)
            server = DSMSServer(hardened, recovery=ctx)
            server.register("reflectance(goes.vis)", encode_png=False)
            with recovering(ctx):
                server.run()
        assert injector.counts["drop"] > 0
        faults = ob.journal.events(kind="fault")
        assert faults
        # Sim-clock times are small logical offsets, not stream-time epochs.
        assert all(e.t < DAY_T0 for e in faults)
