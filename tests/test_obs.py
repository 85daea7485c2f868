"""Observability subsystem: registry, tracing, exporters, CLI snapshots."""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.cli import main
from repro.engine import pipeline_report
from repro.obs.registry import MetricsRegistry, ObservabilityError
from repro.operators import Rescale
from repro.server import DSMSServer


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with observability fully off and empty."""
    obs.disable_metrics()
    obs.install(obs.Instruments())
    obs.get_registry().reset()
    yield
    obs.disable_metrics()
    obs.install(obs.Instruments())
    obs.get_registry().reset()


class TestRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("events_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ObservabilityError):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13

    def test_get_or_create_same_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total", a="1") is reg.counter("x_total", a="1")
        assert reg.counter("x_total", a="1") is not reg.counter("x_total", a="2")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ObservabilityError):
            reg.gauge("thing")

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc()
        reg.gauge("b").set(1)
        assert len(reg) == 2
        reg.reset()
        assert len(reg) == 0 and reg.snapshot() == []

    def test_thread_safe_counting(self):
        reg = MetricsRegistry()
        c = reg.counter("races_total")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestHistogram:
    def test_bucket_boundaries_are_inclusive(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 1.00001, 5.0, 10.0, 11.0):
            h.observe(v)
        # le semantics: a value equal to a bound lands in that bucket.
        assert h.counts == (2, 2, 1, 1)
        assert h.count == 6
        assert h.sum == pytest.approx(28.50001)

    def test_cumulative_ends_at_total(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        cumulative = h.cumulative()
        assert cumulative[0] == (1.0, 1)
        assert cumulative[1] == (2.0, 2)
        assert cumulative[-1][1] == 3 and cumulative[-1][0] == float("inf")

    def test_buckets_must_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.histogram("bad", buckets=(1.0, 1.0))
        with pytest.raises(ObservabilityError):
            reg.histogram("empty", buckets=())

    def test_min_max_tracked(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0,))
        h.observe(0.25)
        h.observe(4.0)
        snap = h.snapshot()
        assert snap["min"] == 0.25 and snap["max"] == 4.0


class TestPrometheusExport:
    def test_counter_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", route="/q").inc(3)
        reg.gauge("depth").set(2.5)
        text = obs.to_prometheus(reg)
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{route="/q"} 3' in text
        assert "depth 2.5" in text

    def test_histogram_exposition(self):
        reg = MetricsRegistry()
        h = reg.histogram("lag_seconds", buckets=(1.0, 5.0))
        for v in (0.5, 0.7, 3.0, 100.0):
            h.observe(v)
        text = obs.to_prometheus(reg)
        assert 'lag_seconds_bucket{le="1"} 2' in text
        assert 'lag_seconds_bucket{le="5"} 3' in text
        assert 'lag_seconds_bucket{le="+Inf"} 4' in text
        assert "lag_seconds_count 4" in text
        assert "lag_seconds_sum 104.2" in text

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("odd_total", path='a"b\\c\nd').inc()
        text = obs.to_prometheus(reg)
        assert r'path="a\"b\\c\nd"' in text

    def test_metric_name_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("weird.name-total").inc()
        assert "weird_name_total 1" in obs.to_prometheus(reg)

    def test_one_type_and_help_per_family(self):
        """Interleaved label registrations must not repeat family headers."""
        reg = MetricsRegistry()
        reg.counter("reqs_total", query=1).inc()
        reg.gauge("depth").set(1.0)
        reg.counter("reqs_total", query=2).inc(5)  # same family, registered later
        reg.counter("reqs_total", query=3).inc(7)
        text = obs.to_prometheus(reg)
        assert text.count("# TYPE reqs_total counter") == 1
        assert text.count("# HELP reqs_total ") == 1
        assert text.count("# TYPE depth gauge") == 1
        # All of a family's series render contiguously under its header.
        lines = text.splitlines()
        type_idx = lines.index("# TYPE reqs_total counter")
        series = [i for i, ln in enumerate(lines) if ln.startswith("reqs_total{")]
        assert len(series) == 3
        assert series == list(range(type_idx + 1, type_idx + 4))
        # HELP immediately precedes TYPE.
        assert lines[type_idx - 1].startswith("# HELP reqs_total ")

    def test_help_text_known_and_fallback(self):
        reg = MetricsRegistry()
        reg.counter("dsms_chunks_scanned_total").inc()
        reg.counter("my_custom_total").inc()
        text = obs.to_prometheus(reg)
        assert (
            "# HELP dsms_chunks_scanned_total Chunks admitted from all scanned sources."
            in text
        )
        assert "# HELP my_custom_total repro metric my_custom_total." in text

    def test_histogram_family_header_not_repeated_across_labels(self):
        reg = MetricsRegistry()
        reg.histogram("lag_seconds", query=1, buckets=(1.0,)).observe(0.5)
        reg.histogram("lag_seconds", query=2, buckets=(1.0,)).observe(2.0)
        text = obs.to_prometheus(reg)
        assert text.count("# TYPE lag_seconds histogram") == 1
        assert 'lag_seconds_bucket{le="1",query="1"} 1' in text
        assert 'lag_seconds_bucket{le="1",query="2"} 0' in text

    def test_build_info_gauge(self):
        reg = MetricsRegistry()
        obs.register_build_info(reg)
        obs.register_build_info(reg)  # idempotent (scrape path)
        text = obs.to_prometheus(reg)
        assert text.count("# TYPE repro_build_info gauge") == 1
        assert "columnar" not in text  # one execution mode: not a dimension
        assert 'python="' in text
        assert 'version="' in text
        [snap] = reg.snapshot()
        assert snap["value"] == 1.0


class TestSnapshotRoundTrip:
    def test_registry_snapshot_survives_json(self):
        reg = MetricsRegistry()
        reg.counter("a_total", x="1").inc(2)
        reg.gauge("b").set(-1.5)
        reg.histogram("c", buckets=(1.0, 2.0)).observe(1.5)
        snap = reg.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        kinds = {m["type"] for m in snap}
        assert kinds == {"counter", "gauge", "histogram"}

    def test_collect_run_merges_reports_spans_metrics(self, small_imager):
        with obs.observe(trace=True) as ob:
            out = small_imager.stream("vis").pipe(Rescale(2.0))
            out.count_points()
            reports = pipeline_report(out)
        run = obs.collect_run(reports, tracer=ob.tracer, registry=ob.registry, label="t")
        assert run["type"] == "run" and run["label"] == "t"
        assert json.loads(json.dumps(run)) == json.loads(json.dumps(run))
        assert run["operators"][0]["name"] == "value-transform"
        assert run["spans"] and run["spans"][0]["points_in"] > 0
        assert any(m["name"] == "pipeline_op_seconds" for m in run["metrics"])

    def test_write_jsonl(self, tmp_path):
        path = tmp_path / "snap.jsonl"
        n = obs.write_jsonl(path, [{"a": 1}, {"b": 2}])
        assert n == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == [{"a": 1}, {"b": 2}]
        obs.write_jsonl(path, [{"c": 3}], append=True)
        assert len(path.read_text().splitlines()) == 3


class TestTracing:
    def test_pipeline_spans_mirror_operator_chain(self, small_imager):
        op1, op2 = Rescale(2.0), Rescale(0.5)
        with obs.observe(trace=True) as ob:
            out = small_imager.stream("vis").pipe(op1, op2)
            out.count_points()
        # Lineage in dataflow order: op1 is the root and feeds op2.
        spans = obs.normalize_spans(ob.tracer.to_dicts())
        assert [s["name"] for s in spans] == ["value-transform", "value-transform"]
        first, second = ({s["attrs"]["op"]: s for s in spans}[repr(op)] for op in (op1, op2))
        assert first["parent_id"] is None
        assert second["parent_id"] == first["span_id"]
        # Span throughput agrees with the operators' own cost accounting.
        assert first["points_in"] == op1.stats.points_in
        assert second["chunks_out"] == op2.stats.chunks_out
        assert all(s["wall_time_s"] > 0 and s["finished"] for s in spans)

    def test_compose_span_links_both_inputs(self, catalog):
        from repro.query import parse_query, plan_query

        query = "rescale(goes.nir, 1.0, 0.0) - rescale(goes.vis, 1.0, 0.0)"
        with obs.observe(trace=True) as ob:
            plan_query(parse_query(query), catalog.get).count_points()
        spans = {s["span_id"]: s for s in obs.normalize_spans(ob.tracer.to_dicts())}
        comp = next(s for s in spans.values() if s["name"] == "composition")
        inputs = [comp["parent_id"], *comp["attrs"]["extra_parents"]]
        assert sorted(spans[i]["name"] for i in inputs) == ["value-transform"] * 2
        assert comp["points_out"] > 0

    def test_spans_carry_stream_time(self, small_imager):
        with obs.observe(trace=True) as ob:
            small_imager.stream("vis").pipe(Rescale(1.0)).count_points()
        span = ob.tracer.to_dicts()[0]
        assert span["first_stream_t"] is not None
        assert span["last_stream_t"] >= span["first_stream_t"]
        assert span["stream_time_span_s"] == (
            span["last_stream_t"] - span["first_stream_t"]
        )

    def test_merge_sources_span(self, catalog):
        from repro.engine.scheduler import merge_sources

        sources = {sid: catalog.get(sid) for sid in catalog.ids()}
        with obs.observe(trace=True) as ob:
            n = sum(1 for _ in merge_sources(sources))
        scheduler_spans = [s for s in ob.tracer.to_dicts() if s["kind"] == "scheduler"]
        assert len(scheduler_spans) == 1
        span = scheduler_spans[0]
        assert span["chunks_in"] == n and span["finished"]
        assert span["attrs"]["sources"] == sorted(sources)


class TestZeroCostWhenDisabled:
    """The acceptance bar: disabled observability performs no registry writes."""

    def test_pipeline_run_leaves_registry_empty(self, small_imager):
        small_imager.stream("vis").pipe(Rescale(2.0)).count_points()
        assert len(obs.get_registry()) == 0
        assert obs.current_tracer() is None

    def test_dsms_run_leaves_registry_empty(self, catalog, small_imager):
        from tests.conftest import sector_subbox

        box = sector_subbox(small_imager, 0.1, 0.1, 0.6, 0.6)
        server = DSMSServer(catalog)
        session = server.register(
            f"within(reflectance(goes.vis), bbox({box.xmin!r}, {box.ymin!r}, "
            f"{box.xmax!r}, {box.ymax!r}, crs='geos:-135'))"
        )
        server.run()
        assert session.frames
        assert len(obs.get_registry()) == 0


class TestDSMSMetrics:
    def _run_demo(self, catalog, small_imager):
        from tests.conftest import sector_subbox

        box = sector_subbox(small_imager, 0.1, 0.1, 0.6, 0.6)
        server = DSMSServer(catalog)
        session = server.register(
            f"within(reflectance(goes.vis), bbox({box.xmin!r}, {box.ymin!r}, "
            f"{box.xmax!r}, {box.ymax!r}, crs='geos:-135'))"
        )
        server.run()
        return server, session

    def test_router_counters_match_stats(self, catalog, small_imager):
        with obs.observe() as ob:
            server, _ = self._run_demo(catalog, small_imager)
        by_name = {(m.name, tuple(sorted(m.labels.items()))): m for m in ob.registry}
        scanned = by_name[("dsms_chunks_scanned_total", ())]
        routed = by_name[("dsms_pairs_routed_total", ())]
        skipped = by_name[("dsms_pairs_skipped_total", ())]
        assert scanned.value == server.router_stats.chunks_scanned
        assert routed.value == server.router_stats.pairs_routed
        assert skipped.value == server.router_stats.pairs_skipped

    def test_session_latency_histogram_published(self, catalog, small_imager):
        with obs.observe() as ob:
            _, session = self._run_demo(catalog, small_imager)
        hists = [m for m in ob.registry if m.name == "dsms_delivery_lag_seconds"]
        assert len(hists) == 1
        assert hists[0].count == len(session.latencies)
        assert hists[0].labels == {"session": str(session.session_id)}

    def test_shedding_metrics_published(self, small_imager):
        from repro.operators import FrameSubsampler

        with obs.observe() as ob:
            small_imager.stream("vis").pipe(FrameSubsampler(2)).count_points()
        names = {m.name for m in ob.registry}
        assert "shed_frames_seen_total" in names
        assert "shed_frames_dropped_total" in names


class TestAccountingErrors:
    def test_buffer_remove_clamps_and_counts(self):
        from repro.errors import OperatorError
        from repro.operators.base import OperatorStats

        stats = OperatorStats()
        stats.buffer_add(10, 100)
        with pytest.raises(OperatorError):
            stats.buffer_remove(20, 400)
        # Post-mortem readability: counters clamped, violation recorded.
        assert stats.buffered_points == 0
        assert stats.buffered_bytes == 0
        assert stats.accounting_errors == 1

    def test_report_carries_accounting_errors(self, small_imager):
        out = small_imager.stream("vis").pipe(Rescale(1.0))
        out.count_points()
        report = pipeline_report(out)[0]
        assert report.accounting_errors == 0


SMALL = ["--sector", "48", "24", "--frames", "1"]


class TestCLISnapshots:
    def test_query_metrics_out_snapshot_schema(self, capsys, tmp_path):
        """Acceptance: per-operator spans + a DSMS latency histogram."""
        path = tmp_path / "run.jsonl"
        rc = main(
            [
                "query",
                "stretch(reflectance(goes.vis), 'linear')",
                "--metrics-out",
                str(path),
                *SMALL,
            ]
        )
        assert rc == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        by_type: dict[str, list] = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        assert by_type["meta"][0]["n_spans"] > 0
        op_spans = [s for s in by_type["span"] if s["kind"] == "operator"]
        assert op_spans, "snapshot must contain per-operator spans"
        for span in op_spans:
            assert span["wall_time_s"] >= 0
            assert span["points_in"] > 0 and span["points_out"] > 0
        latency_hists = [
            m
            for m in by_type["histogram"]
            if m["name"] == "dsms_delivery_lag_seconds" and m["count"] > 0
        ]
        assert latency_hists, "snapshot must contain a DSMS latency histogram"
        assert by_type["operator"], "snapshot must contain operator reports"
        # And the observed run must not leak enabled state into the process.
        assert not obs.metrics_enabled() and obs.current_tracer() is None

    def test_query_without_flags_is_unobserved(self, capsys):
        rc = main(["query", "stretch(reflectance(goes.vis), 'linear')", *SMALL])
        assert rc == 0
        assert len(obs.get_registry()) == 0

    def test_serve_demo_metrics_out(self, capsys, tmp_path):
        path = tmp_path / "demo.jsonl"
        rc = main(
            ["serve-demo", "--clients", "2", "--metrics-out", str(path), *SMALL]
        )
        assert rc == 0
        records = [json.loads(line) for line in path.read_text().splitlines()]
        names = {r.get("name") for r in records}
        assert "dsms_chunks_scanned_total" in names

    def test_metrics_prometheus_output(self, capsys):
        rc = main(["metrics", "--clients", "2", *SMALL])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE dsms_chunks_scanned_total counter" in out
        assert "dsms_delivery_lag_seconds_bucket" in out

    def test_metrics_self_test(self, capsys):
        assert main(["metrics", "--self-test"]) == 0
        assert "self-test: ok" in capsys.readouterr().out


class TestHistogramQuantiles:
    def test_interpolated_within_observed_range(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 2.0, 4.0, 8.0))
        for v in (0.5, 1.5, 1.5, 3.0, 6.0, 7.0):
            h.observe(v)
        for q in (0.1, 0.5, 0.95, 0.99):
            est = h.quantile(q)
            assert est is not None and 0.5 <= est <= 7.0

    def test_quantiles_are_monotone(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0, 10.0, 100.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0, 500.0, 42.0, 0.2):
            h.observe(v)
        snap = h.snapshot()
        assert snap["p50"] <= snap["p95"] <= snap["p99"]

    def test_overflow_bucket_resolves_to_observed_max(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0,))
        for v in (0.5, 30.0, 99.0):
            h.observe(v)
        assert h.quantile(0.99) == 99.0

    def test_extremes_and_empty(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 2.0))
        assert h.quantile(0.5) is None
        h.observe(0.25)
        h.observe(1.75)
        assert h.quantile(0.0) == 0.25
        assert h.quantile(1.0) == 1.75
        with pytest.raises(ObservabilityError):
            h.quantile(-0.1)

    def test_snapshot_and_prometheus_render_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("lag_seconds", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 3.5):
            h.observe(v)
        snap = h.snapshot()
        assert {"p50", "p95", "p99"} <= set(snap)
        text = obs.to_prometheus(reg)
        assert 'lag_seconds{quantile="0.5"}' in text
        assert 'lag_seconds{quantile="0.95"}' in text
        assert 'lag_seconds{quantile="0.99"}' in text
        # Companion series come after the canonical histogram lines.
        assert text.index("lag_seconds_count") < text.index('quantile="0.5"')

    def test_format_report_appends_quantile_section(self, small_imager):
        from repro.engine import format_report

        with obs.observe(trace=True) as ob:
            small_imager.stream("vis").pipe(Rescale(2.0)).count_points()
            ob.registry.histogram("lag_seconds", buckets=(1.0,)).observe(0.5)
            reports = []
        plain = format_report(reports)
        assert "histogram quantiles" not in plain
        rich = format_report(reports, ob.registry)
        assert "histogram quantiles" in rich
        assert "lag_seconds" in rich and "p95" in rich


class TestExporterEdgeCases:
    def test_label_escaping_all_specials_and_multiple_labels(self):
        reg = MetricsRegistry()
        reg.counter("esc_total", a="x\\", b='"', c="line1\nline2").inc()
        text = obs.to_prometheus(reg)
        assert r'a="x\\"' in text
        assert r'b="\""' in text
        assert r'c="line1\nline2"' in text
        # No raw newline may survive inside a label value.
        for line in text.splitlines():
            assert "line2" not in line or r"\n" in line

    def test_label_names_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("odd_total", **{"weird-key.name": "v"}).inc()
        assert 'weird_key_name="v"' in obs.to_prometheus(reg)

    def test_cumulative_bucket_counts_are_monotone(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 0.5, 1.0, 5.0, 10.0))
        for i in range(200):
            h.observe((i % 23) * 0.6)
        cumulative = h.cumulative()
        counts = [c for _, c in cumulative]
        assert counts == sorted(counts), "cumulative counts must be monotone"
        assert counts[-1] == h.count
        # The rendered exposition preserves the same monotone ladder.
        text = obs.to_prometheus(reg)
        rendered = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("lat_bucket")
        ]
        assert rendered == counts


class TestSelfTestExitCodes:
    def test_success_exit_zero(self, capsys):
        assert main(["metrics", "--self-test"]) == 0
        assert "self-test: ok" in capsys.readouterr().out

    def test_failure_exit_one(self, capsys, monkeypatch):
        import repro.cli as cli

        def broken() -> None:
            raise AssertionError("forced invariant failure")

        monkeypatch.setattr(cli, "_metrics_self_test_body", broken)
        assert main(["metrics", "--self-test"]) == 1
        err = capsys.readouterr().err
        assert "FAILED" in err and "forced invariant failure" in err
