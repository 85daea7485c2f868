"""Command-line interface.

A small operational front door over the library, driving the built-in
simulated GOES catalog::

    geostreams streams
    geostreams explain "within(ndvi(reflectance(goes.nir), reflectance(goes.vis)), \\
                        bbox(-124, 36, -119, 41, crs='latlon'))"
    geostreams query   "stretch(reflectance(goes.vis), 'linear')" --frames 2 --out ./png
    geostreams query   "..." --metrics-out run.jsonl   # traced run via the DSMS
    geostreams serve-demo --clients 4
    geostreams metrics                                 # demo workload -> Prometheus text

(Also runnable as ``python -m repro.cli ...``.) Regions given in
``latlon`` are transformed onto the satellite's fixed grid automatically
by the planner's safety net, so queries can be written in plain
geographic coordinates.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
import time
from typing import TYPE_CHECKING, Sequence

from . import obs
from .engine import format_report
from .errors import GeoStreamsError
from .ingest import GOESImager, SyntheticEarth
from .plan import compile_query
from .query import estimate_query, parse_query
from .server import DSMSServer, StreamCatalog, format_query_request

if TYPE_CHECKING:
    from .faults import FaultInjector, RecoveryContext
    from .obs import StatsCollector
    from .query import CalibrationProfile

__all__ = ["main", "build_demo_catalog"]


def build_demo_catalog(
    seed: int = 7, n_frames: int = 2, width: int = 192, height: int = 96
) -> tuple[GOESImager, StreamCatalog]:
    """The demo environment: one GOES-West-like imager, both bands."""
    from .geo import goes_geostationary
    from .ingest import western_us_sector

    crs = goes_geostationary(-135.0)
    sector = western_us_sector(crs, width=width, height=height)
    imager = GOESImager(
        scene=SyntheticEarth(seed=seed),
        sector_lattice=sector,
        n_frames=n_frames,
        t0=72_000.0,
    )
    catalog = StreamCatalog()
    catalog.register_imager(imager)
    return imager, catalog


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7, help="scene seed (default 7)")
    parser.add_argument("--frames", type=int, default=2, help="scan frames to simulate")
    parser.add_argument(
        "--sector", type=int, nargs=2, metavar=("WIDTH", "HEIGHT"), default=(192, 96),
        help="scan sector size in pixels (default 192 96)",
    )


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", action="store_true",
        help="record per-operator execution spans (see docs/observability.md)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a JSON-lines observability snapshot of the run to PATH",
    )


def _obs_requested(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "trace", False) or getattr(args, "metrics_out", None))


def _add_analyze(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--analyze", action="store_true",
        help="EXPLAIN ANALYZE: execute the plan DAG with stage statistics on "
             "and print observed vs estimated cost per stage",
    )
    parser.add_argument(
        "--calibration", default=None, metavar="PATH",
        help="load a fitted cost-calibration profile (JSON) for the estimates",
    )
    parser.add_argument(
        "--fit-calibration", default=None, metavar="PATH",
        help="after the analyzed run, fit a calibration profile from the "
             "observed stage statistics and save it to PATH",
    )


def _load_calibration(args: argparse.Namespace) -> "CalibrationProfile | None":
    path = getattr(args, "calibration", None)
    if not path:
        return None
    from .query import CalibrationProfile

    profile = CalibrationProfile.load(path)
    print(
        f"loaded calibration profile from {path} "
        f"({len(profile.coefficients)} operator kinds, {profile.n_samples} samples, "
        f"kind fingerprint {profile.kind_fingerprint})"
    )
    return profile


def _maybe_fit_calibration(
    server: DSMSServer, collector: "StatsCollector | None", args: argparse.Namespace
) -> None:
    path = getattr(args, "fit_calibration", None)
    if not path:
        return
    from .query import CalibrationProfile

    samples = list(server.calibration_samples(collector))
    profile = CalibrationProfile.fit(samples)
    profile.save(path)
    print(
        f"fitted calibration profile ({len(profile.coefficients)} operator kinds, "
        f"{profile.n_samples} samples) -> {path}"
    )


def _add_faults(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="chaos drill: inject seeded faults into every source and run the "
             "recovery stack (grammar in docs/faults.md; e.g. 'default' or "
             "'drop=0.05,disconnect=1,seed=42')",
    )


def _maybe_harden(
    catalog: StreamCatalog, args: argparse.Namespace
) -> "tuple[StreamCatalog, RecoveryContext | None, FaultInjector | None]":
    """Apply ``--inject-faults``: (catalog', recovery ctx | None, injector | None)."""
    spec_text = getattr(args, "inject_faults", None)
    if not spec_text:
        return catalog, None, None
    from .faults import FaultSpec, harden_catalog

    hardened, injector, ctx = harden_catalog(catalog, FaultSpec.parse(spec_text))
    return hardened, ctx, injector


def _fault_scope(ctx: "RecoveryContext | None") -> "contextlib.AbstractContextManager[object]":
    """Install the recovery context for the run (no-op without faults)."""
    if ctx is None:
        return contextlib.nullcontext()
    from .faults import recovering

    return recovering(ctx)


def _print_fault_summary(injector: "FaultInjector", ctx: "RecoveryContext") -> None:
    injected = {k: v for k, v in injector.counts.items() if v}
    dl = ctx.dead_letter
    print(f"\nfaults injected: {injected or 'none'}")
    print(
        f"recovery: {ctx.retries} reconnect(s), {dl.total} item(s) quarantined "
        f"{dict(dl.by_reason)}, {ctx.stalls_observed} stall(s) observed, "
        f"sim clock advanced {getattr(ctx.clock, 'total_slept', 0.0):g}s"
    )


def _run_query(
    catalog: StreamCatalog, args: argparse.Namespace, counted: str, png_prefix: str
) -> int:
    """Run ``args.query`` on a DSMS; print frames, the stats table, write PNGs.

    ``--trace`` / ``--metrics-out`` run it under full observability, so the
    report adds the routing counters and delivery-latency histograms the
    server publishes, plus per-operator spans and the source-scan merge.
    """
    catalog, fctx, finj = _maybe_harden(catalog, args)
    observed = _obs_requested(args)
    with obs.observe(trace=True) if observed else contextlib.nullcontext() as ob:
        server = DSMSServer(catalog, optimize_queries=not args.no_optimize)
        session = server.register(args.query, encode_png=args.out is not None)
        start = time.perf_counter()
        with _fault_scope(fctx):
            server.run()
        elapsed = time.perf_counter() - start
        reports = server.operator_reports()
    traced = " (traced)" if observed else ""
    print(f"{len(session.frames)} {counted} in {elapsed:.3f}s{traced}")
    print(format_report(reports, ob.registry if observed else None))
    if observed:
        spans = ob.tracer.to_dicts()
        op_spans = [s for s in spans if s["kind"] != "scheduler"]
        print(
            f"observability: {len(spans)} spans ({len(op_spans)} operator), "
            f"{len(ob.registry)} metrics"
        )
    if args.metrics_out is not None:
        lines = obs.snapshot_lines(
            reports, tracer=ob.tracer, registry=ob.registry, label=args.query
        )
        n = obs.write_jsonl(args.metrics_out, lines)
        print(f"wrote {n} snapshot records to {args.metrics_out}")
    if args.out is not None:
        target = pathlib.Path(args.out)
        target.mkdir(parents=True, exist_ok=True)
        for i, frame in enumerate(session.frames):
            (target / f"{png_prefix}_{i:03d}.png").write_bytes(frame.png)
        print(f"wrote {len(session.frames)} PNGs to {target}")
    if finj is not None:
        _print_fault_summary(finj, fctx)
    return 0


def cmd_streams(args: argparse.Namespace) -> int:
    _, catalog = build_demo_catalog(args.seed, args.frames, *args.sector)
    for sid in catalog.ids():
        stream = catalog.get(sid)
        meta = stream.metadata
        print(
            f"{sid:<12} band={meta.band:<4} crs={meta.crs.name:<12} "
            f"org={meta.organization.value:<14} frame={meta.max_frame_shape}"
        )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    _, catalog = build_demo_catalog(args.seed, args.frames, *args.sector)
    tree = parse_query(args.query)
    print("parsed:")
    print(tree.pretty(indent=1))
    compiled = compile_query(tree, catalog)
    print("\noptimized (rules: " + (", ".join(compiled.applied) or "none") + "):")
    print("inexact: " + (", ".join(compiled.inexact) or "none"))
    print(compiled.optimized.pretty(indent=1))
    print("\nphysical plan (canonical, subplan fingerprints):")
    print(compiled.plan.pretty(indent=1, fingerprints=True))
    profiles = catalog.profiles()
    try:
        before, _ = estimate_query(tree, profiles)
        after, _ = estimate_query(compiled.optimized, profiles)
        print(
            f"\nestimated per-frame work: {before.work:,.0f} -> {after.work:,.0f} "
            f"point-touches; buffered points: {before.buffer:,.0f} -> {after.buffer:,.0f}"
        )
    except GeoStreamsError as exc:
        print(f"\n(cost estimate unavailable: {exc})")
    if args.analyze:
        calibration = _load_calibration(args)
        with obs.observe(stats=True) as ob:
            server = DSMSServer(catalog)
            server.register(args.query)
            server.run()
            print("\nEXPLAIN ANALYZE (one observed demo scan):")
            print(server.explain_analyze(collector=ob.stats, calibration=calibration))
            _maybe_fit_calibration(server, ob.stats, args)
    if args.check:
        from .analysis import analyze

        report = analyze(args.query, catalog)
        print("\nstatic analysis:")
        print(report.render())
        return report.exit_code()
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: static analysis as a pre-commit/CI gate.

    Exit code 0 when the query analyzes clean, 1 on error-level
    diagnostics (with ``--strict``: warnings too), 2 on internal errors
    — mirroring the conventions of compilers and linters.
    """
    from .analysis import analyze

    _, catalog = build_demo_catalog(args.seed, args.frames, *args.sector)
    calibration = _load_calibration(args)
    report = analyze(
        args.query, catalog, slo=args.slo, calibration=calibration
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return report.exit_code(strict=args.strict)


def cmd_query(args: argparse.Namespace) -> int:
    _, catalog = build_demo_catalog(args.seed, args.frames, *args.sector)
    return _run_query(catalog, args, "frames", "frame")


def _serve_demo_once(args: argparse.Namespace) -> tuple[DSMSServer, list, float]:
    """Register the demo clients and run the scan (shared by serve-demo/metrics)."""
    imager, catalog = build_demo_catalog(args.seed, args.frames, *args.sector)
    catalog, fctx, finj = _maybe_harden(catalog, args)
    args._fault_ctx, args._fault_injector = fctx, finj
    server = DSMSServer(catalog, recovery=fctx)
    box = imager.sector_lattice.bbox
    sessions = []
    for i in range(args.clients):
        f0 = 0.7 * i / max(args.clients, 1)
        region = (
            f"bbox({box.xmin + box.width * f0!r}, {box.ymin + box.height * f0!r}, "
            f"{box.xmin + box.width * (f0 + 0.25)!r}, "
            f"{box.ymin + box.height * (f0 + 0.25)!r}, crs='geos:-135')"
        )
        text = (
            "within(stretch(ndvi(reflectance(goes.nir), reflectance(goes.vis)),"
            f" 'linear'), {region})"
            if i % 2 == 0
            else f"within(reflectance(goes.vis), {region})"
        )
        session = server.handle_request(format_query_request(text))
        sessions.append(session)
        print(f"client {i}: session #{session.session_id}, "
              f"rewrites: {', '.join(sorted(set(session.applied_rules))) or 'none'}")
    start = time.perf_counter()
    with _fault_scope(fctx):
        server.run()
    elapsed = time.perf_counter() - start
    return server, sessions, elapsed


def cmd_serve_demo(args: argparse.Namespace) -> int:
    analyzed = None
    if _obs_requested(args) or args.analyze:
        with obs.observe(trace=args.trace, stats=args.analyze) as ob:
            server, sessions, elapsed = _serve_demo_once(args)
            reports = server.operator_reports()
            if args.analyze:
                calibration = _load_calibration(args)
                analyzed = server.explain_analyze(
                    collector=ob.stats, calibration=calibration
                )
                _maybe_fit_calibration(server, ob.stats, args)
        if args.metrics_out is not None:
            lines = obs.snapshot_lines(
                reports, tracer=ob.tracer, registry=ob.registry, label="serve-demo"
            )
            n = obs.write_jsonl(args.metrics_out, lines)
            print(f"wrote {n} snapshot records to {args.metrics_out}")
    else:
        server, sessions, elapsed = _serve_demo_once(args)
    if args.explain:
        print(server.explain_dag())
    if analyzed is not None:
        print(analyzed)
    stats = server.router_stats
    plan_stats = server.plan_stats
    print(
        f"\nscan: {stats.chunks_scanned} chunks in {elapsed:.2f}s; routing pruned "
        f"{stats.prune_fraction:.0%} of (chunk, query) pairs; subplan sharing "
        f"saved {plan_stats.chunks_saved} operator steps "
        f"({server.plan_dag.stages_shared}/{server.plan_dag.stages_total} stages shared)"
    )
    for session in sessions:
        print(
            f"session #{session.session_id}: {len(session.frames)} frames, "
            f"{len(session.records)} records, {session.points_received} points"
        )
    if getattr(args, "_fault_injector", None) is not None:
        _print_fault_summary(args._fault_injector, args._fault_ctx)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one traced demo scan and render frame waterfalls.

    Registers ``query`` on the DSMS with a frame tracer + flight recorder
    installed, runs the scan, and prints the ASCII waterfall of the most
    recent (or pinned) frame traces. ``--export-chrome`` /
    ``--export-otlp`` additionally write the rendered traces as Chrome
    trace-event JSON / OTLP-shaped JSON.
    """
    _, catalog = build_demo_catalog(args.seed, args.frames, *args.sector)
    catalog, fctx, finj = _maybe_harden(catalog, args)
    with obs.observe(stats=True):
        ftracer = obs.FrameTracer(
            sample_rate=args.sample_rate, recorder=obs.FlightRecorder(capacity=args.keep)
        )
        with obs.installed(frame_tracer=ftracer):
            slo = obs.SLOPolicy(max_lag_s=args.slo) if args.slo is not None else None
            server = DSMSServer(catalog, recovery=fctx, slo=slo)
            session = server.register(args.query)
            with _fault_scope(fctx):
                server.run()
            if args.pinned_only:
                traces = list(ftracer.recorder.pinned)
            else:
                traces = server.recent_traces(session)[-args.last :]
                traces += [
                    t for t in ftracer.recorder.pinned if t not in traces
                ]
            if not traces:
                print(
                    "no frame traces recorded"
                    + (" (no pinned traces)" if args.pinned_only else "")
                    + f"; sample rate was {args.sample_rate:g}"
                )
                return 1
            for trace in traces:
                print(obs.render_waterfall(trace))
                print()
            print(
                f"flight recorder: {ftracer.recorder.recorded} recorded, "
                f"{ftracer.recorder.evictions} evicted, "
                f"{len(ftracer.recorder.pinned)} pinned; "
                f"{ftracer.chunks_traced} chunks traced, "
                f"{ftracer.chunks_sampled_out} sampled out"
            )
            if args.export_chrome is not None:
                doc = obs.traces_to_chrome(traces)
                pathlib.Path(args.export_chrome).write_text(
                    json.dumps(doc, indent=1), encoding="utf-8"
                )
                print(
                    f"wrote {len(doc['traceEvents'])} Chrome trace events "
                    f"to {args.export_chrome} (open in chrome://tracing)"
                )
            if args.export_otlp is not None:
                doc = obs.traces_to_otlp(traces)
                pathlib.Path(args.export_otlp).write_text(
                    json.dumps(doc, indent=1), encoding="utf-8"
                )
                print(f"wrote {len(traces)} OTLP resource spans to {args.export_otlp}")
    if finj is not None:
        _print_fault_summary(finj, fctx)
    return 0


def _metrics_self_test() -> int:
    """Exercise the observability layer's invariants end to end.

    Returns 0 on success and 1 on any failed invariant (distinct from the
    argparse/usage exit code 2), so CI can gate on it directly.
    """
    try:
        _metrics_self_test_body()
    except AssertionError as exc:
        print(f"metrics self-test: FAILED ({exc})", file=sys.stderr)
        return 1
    print(
        "metrics self-test: ok (registry, histograms, escaping, spans, "
        "frame traces, flight recorder, span/ledger/hop agreement, "
        "timeline store, journal, health, zero-cost)"
    )
    return 0


def _metrics_self_test_body() -> None:
    from .obs.export import to_prometheus
    from .obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    counter = registry.counter("demo_events_total", kind="a")
    counter.inc()
    counter.inc(2)
    assert counter.value == 3, "counter arithmetic"
    gauge = registry.gauge("demo_depth")
    gauge.set(5)
    gauge.dec(2)
    assert gauge.value == 3, "gauge arithmetic"
    hist = registry.histogram("demo_seconds", buckets=(0.1, 1.0))
    for v in (0.1, 0.5, 100.0):  # boundary lands in its own bucket (le)
        hist.observe(v)
    assert hist.counts == (1, 1, 1), f"bucket boundaries: {hist.counts}"
    text = to_prometheus(registry)
    assert 'demo_seconds_bucket{le="+Inf"} 3' in text, "prometheus histogram"
    weird = registry.counter("escaped_total", path='a"b\\c\nd')
    weird.inc()
    assert r'path="a\"b\\c\nd"' in to_prometheus(registry), "label escaping"

    # Snapshot must survive a JSON round-trip unchanged.
    snap = registry.snapshot()
    assert json.loads(json.dumps(snap)) == snap, "snapshot JSON round-trip"

    # Tracing a real (tiny) run produces operator spans with throughput;
    # with observability off the same run must leave the registry empty.
    from .operators import Rescale

    imager, _ = build_demo_catalog(n_frames=1, width=32, height=16)
    with obs.observe(trace=True) as ob:
        imager.stream("vis").pipe(Rescale(2.0), Rescale(0.5)).count_points()
    spans = ob.tracer.to_dicts()
    assert len(spans) == 2 and spans[1]["parent_id"] == spans[0]["span_id"], "span DAG"
    assert all(s["points_in"] > 0 and s["wall_time_s"] > 0 for s in spans), "span data"

    # Histogram quantiles: interpolated estimates stay inside the observed
    # value range and the exporter renders them as companion series.
    qh = registry.histogram("demo_quantile_seconds", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 1.5, 3.0):
        qh.observe(v)
    p50 = qh.quantile(0.5)
    assert p50 is not None and 1.0 <= p50 <= 2.0, f"p50 interpolation: {p50}"
    assert 'demo_quantile_seconds{quantile="0.95"}' in to_prometheus(registry), (
        "prometheus quantile series"
    )

    # Frame tracer + flight recorder invariants: every delivered frame of
    # a fully-sampled run carries a complete trace (its stage hops exactly
    # match the query's plan-DAG stages), and the recorder never grows
    # past its bound (a capacity-1 ring must evict, not accumulate).
    _, catalog = build_demo_catalog(n_frames=2, width=32, height=16)
    ftracer = obs.FrameTracer(recorder=obs.FlightRecorder(capacity=1))
    with obs.installed(frame_tracer=ftracer):
        server = DSMSServer(catalog)
        session = server.register("reflectance(goes.vis)")
        server.run()
        traces = session.frame_traces()
        assert traces and all(t is not None for t in traces), "frames missing traces"
        rid = server._session_to_reg[session.session_id]
        dag_fps = set(server.plan_dag.stage_fingerprints(rid))
        for trace in traces:
            assert trace.stage_fingerprints() == dag_fps, "trace/DAG stage mismatch"
            assert trace.hop_by_key("delivery") is not None, "trace missing delivery"
        assert ftracer.recorder.within_bounds(), "flight recorder exceeded its bound"
        assert ftracer.recorder.evictions >= 1, "capacity-1 ring never evicted"
        assert len(server.recent_traces(session)) == 1, "ring kept more than capacity"

    # Sampling: rate 0.0 must trace nothing (and record nothing).
    ftracer = obs.FrameTracer(sample_rate=0.0)
    with obs.installed(frame_tracer=ftracer):
        server = DSMSServer(catalog)
        session = server.register("reflectance(goes.vis)")
        server.run()
        assert all(t is None for t in session.frame_traces()), "rate-0 run traced"
        assert ftracer.recorder.recorded == 0, "rate-0 run recorded traces"
        assert ftracer.chunks_sampled_out > 0, "rate-0 run saw no chunks"

    # One record, three folds: after a run with everything on, each
    # stage's span and StageStats ledger agree exactly and the delivered
    # frames' hop walls add up to the same seconds (one full-sector query
    # at rate 1.0: nothing shared, nothing pruned, every frame delivered).
    with obs.observe(trace=True, stats=True, frame_trace=True) as ob:
        server = DSMSServer(catalog)
        session = server.register("stretch(reflectance(goes.vis), 'linear')")
        # Hops are compared before the end-of-input flush: the flush of
        # an operator holding nothing belongs to no frame.
        server.run(close=False)
        differing = obs.disagreements(ob.tracer, ob.stats, session.frame_traces())
        server.run(max_chunks=0)
        differing += obs.disagreements(ob.tracer, ob.stats)
    assert ob.stats.stages and len(session.frames) == 2, "agreement run delivered nothing"
    assert not differing, "span/ledger/hop disagreement: " + "; ".join(differing)

    # Timeline store invariants: ring capacity bound, strictly monotone
    # sample timestamps, rollup consistent with the raw ring contents,
    # and a logical-clock regression resetting (not corrupting) the rings.
    from .obs.timeline import EventJournal, HealthModel, MetricStore

    reg2 = MetricsRegistry()
    walker = reg2.counter("walk_total")
    store = MetricStore(capacity=8, cadence_s=10.0)
    for step in range(40):
        walker.inc(step)
        store.maybe_sample(float(step), registry=reg2)  # cadence gates to every 10th
    store.sample(1000.0, registry=reg2)
    points = store.series("walk_total")
    assert len(points) <= store.capacity, "store ring exceeded its capacity"
    times = [t for t, _ in points]
    assert times == sorted(times) and len(set(times)) == len(times), (
        "sample timestamps not strictly monotone"
    )
    assert store.samples_taken == 5, f"cadence gating broke: {store.samples_taken}"
    roll = store.rollup("walk_total", window=4)
    raw = [v for _, v in points][-4:]
    assert roll is not None and roll.vmin == min(raw) and roll.vmax == max(raw), (
        "rollup disagrees with the raw ring"
    )
    assert abs(roll.mean - sum(raw) / len(raw)) < 1e-9, "rollup mean mismatch"
    assert roll.delta == raw[-1] - raw[0], "rollup delta mismatch"
    store.sample(0.0, registry=reg2)  # clock regression: a new run began
    assert store.resets == 1 and len(store.series("walk_total")) == 1, (
        "clock regression must reset the rings"
    )

    # Journal invariants: capacity bound, strictly increasing seq (stable
    # across eviction), filtered reads, and schema-stable JSON.
    journal = EventJournal(capacity=4)
    for i in range(10):
        journal.set_time(float(i))
        journal.append("fault" if i % 2 else "slo-breach", query=i % 3, reason=f"r{i}")
    assert len(journal) == 4 and journal.total == 10, "journal capacity bound"
    seqs = [e.seq for e in journal]
    assert seqs == sorted(seqs) and seqs[-1] == 10, "journal seq not increasing"
    ts = [e.t for e in journal]
    assert ts == sorted(ts), "journal event ordering"
    assert all(e.kind == "fault" for e in journal.events(kind="fault")), "kind filter"
    dicts = journal.to_dicts()
    assert json.loads(json.dumps(dicts)) == dicts, "journal JSON round-trip"
    assert all(
        set(d) == {"seq", "t", "kind", "query", "epoch", "reason", "link"}
        for d in dicts
    ), "journal schema drift"

    # Health folds: pure-core verdicts behave monotonically.
    model = HealthModel()
    ok, _ = model.query_verdict(breached=False, lag_s=1.0, max_lag_s=60.0)
    warn, why = model.query_verdict(breached=False, lag_s=45.0, max_lag_s=60.0)
    bad, _ = model.query_verdict(breached=True, lag_s=90.0, max_lag_s=60.0)
    assert (ok, warn, bad) == ("healthy", "degraded", "unhealthy"), "query verdicts"
    assert why, "degraded verdict must carry a reason"
    worst, why = model.server_verdict(["healthy", "degraded"], dead_letters=100)
    assert worst == "unhealthy" and any("dead-letter" in r for r in why), (
        "server verdict must explain dead-letter escalation"
    )

    obs.get_registry().reset()
    imager.stream("vis").pipe(Rescale(2.0)).count_points()
    assert len(obs.get_registry()) == 0, "disabled runs must not touch the registry"
    assert obs.current_frame_tracer() is None, "frame tracer leaked out of self-test"
    assert obs.current_metric_store() is None, "metric store leaked out of self-test"
    assert obs.current_journal() is None, "journal leaked out of self-test"


def cmd_metrics(args: argparse.Namespace) -> int:
    if args.self_test:
        return _metrics_self_test()
    with obs.observe(trace=True) as ob:
        server, _, _ = _serve_demo_once(args)
        reports = server.operator_reports()
    if args.format == "jsonl":
        lines = obs.snapshot_lines(
            reports, tracer=ob.tracer, registry=ob.registry, label="metrics"
        )
        text = "\n".join(json.dumps(line, sort_keys=True) for line in lines) + "\n"
    else:
        text = obs.to_prometheus(ob.registry)
    if args.out is not None:
        pathlib.Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote metrics to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_serve_telemetry(args: argparse.Namespace) -> int:
    """Run the demo workload with the full telemetry timeline installed.

    Serves ``/metrics``, ``/health``, ``/timeseries``, ``/events``, and
    ``/traces/<id>`` over HTTP while (and after) the scan runs. With
    ``--snapshot-out`` the health and events payloads are fetched back
    through the real HTTP endpoint and written as JSON files; with
    ``--linger`` the endpoint stays up for live inspection
    (``repro top --url ...``).
    """
    from .obs import MetricStore
    from .server.telemetry import fetch_json

    imager, catalog = build_demo_catalog(args.seed, args.frames, *args.sector)
    catalog, fctx, finj = _maybe_harden(catalog, args)
    store = MetricStore(cadence_s=args.cadence)
    with obs.observe(store=store, journal=True, frame_trace=bool(args.trace)):
        slo = obs.SLOPolicy(max_lag_s=args.slo) if args.slo is not None else None
        server = DSMSServer(catalog, recovery=fctx, slo=slo)
        box = imager.sector_lattice.bbox
        for i in range(args.clients):
            f0 = 0.7 * i / max(args.clients, 1)
            region = (
                f"bbox({box.xmin + box.width * f0!r}, {box.ymin + box.height * f0!r}, "
                f"{box.xmin + box.width * (f0 + 0.25)!r}, "
                f"{box.ymin + box.height * (f0 + 0.25)!r}, crs='geos:-135')"
            )
            text = (
                "within(stretch(ndvi(reflectance(goes.nir), reflectance(goes.vis)),"
                f" 'linear'), {region})"
                if i % 2 == 0
                else f"within(reflectance(goes.vis), {region})"
            )
            server.register(text)
        with server.serve_telemetry(port=args.port) as endpoint:
            print(f"telemetry endpoint: {endpoint.url}")
            print(f"  try: python -m repro.cli top --url {endpoint.url}")
            start = time.perf_counter()
            with _fault_scope(fctx):
                server.run()
            elapsed = time.perf_counter() - start
            print(
                f"scan: {server.router_stats.chunks_scanned} chunks in {elapsed:.2f}s; "
                f"{store.samples_taken} timeline samples, "
                f"{len(obs.current_journal() or ())} journal events"
            )
            if args.snapshot_out is not None:
                out_dir = pathlib.Path(args.snapshot_out)
                out_dir.mkdir(parents=True, exist_ok=True)
                # Round-trip through the real HTTP endpoint on purpose:
                # the snapshot is what a scraper would actually see.
                for name in ("health", "events"):
                    payload = fetch_json(f"{endpoint.url}/{name}")
                    path = out_dir / f"{name}.json"
                    path.write_text(
                        json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
                    )
                    print(f"wrote {path}")
            if args.linger > 0:
                print(f"serving for another {args.linger:g}s (ctrl-c to stop)...")
                try:
                    time.sleep(args.linger)
                except KeyboardInterrupt:
                    pass
    if finj is not None and fctx is not None:
        _print_fault_summary(finj, fctx)
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live ANSI operator console over the telemetry endpoints.

    With ``--url`` it polls a running ``serve-telemetry`` endpoint; with
    no url it runs one in-process demo scan and renders its final state
    (same payloads, same renderer).
    """
    from .server.telemetry import (
        events_payload,
        fetch_json,
        health_payload,
        render_top,
        timeseries_payload,
    )

    color = not args.no_color
    if args.url is not None:
        url = args.url.rstrip("/")
        iteration = 0
        while True:
            iteration += 1
            health = fetch_json(f"{url}/health")
            ts = fetch_json(f"{url}/timeseries?window={args.window}")
            ev = fetch_json(f"{url}/events?limit={args.events}")
            screen = render_top(
                health, ts, ev["events"], color=color, source=url
            )
            if args.iterations != 1 and color:
                print("\x1b[2J\x1b[H", end="")
            print(screen)
            if args.iterations and iteration >= args.iterations:
                return 0
            try:
                time.sleep(args.interval)
            except KeyboardInterrupt:
                return 0

    from .obs import MetricStore

    store = MetricStore(cadence_s=args.cadence)
    with obs.observe(store=store, journal=True) as ob:
        slo = obs.SLOPolicy(max_lag_s=args.slo) if args.slo is not None else None
        _, catalog = build_demo_catalog(args.seed, args.frames, *args.sector)
        server = DSMSServer(catalog, slo=slo)
        server.register("stretch(reflectance(goes.vis), 'linear')")
        server.register("reflectance(goes.nir)")
        server.run()
        health = health_payload(server, store=ob.store, journal=ob.journal)
        ts = timeseries_payload(ob.store, window=args.window)
        ev = events_payload(ob.journal, limit=args.events)
    print(render_top(health, ts, ev["events"], color=color, source="in-process demo"))
    return 0


def cmd_archive(args: argparse.Namespace) -> int:
    from .io import write_archive

    _, catalog = build_demo_catalog(args.seed, args.frames, *args.sector)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for sid in catalog.ids():
        path = out_dir / f"{sid.replace('.', '_')}.gsar"
        chunks = write_archive(catalog.get(sid), path)
        print(f"{sid}: {chunks} chunks -> {path} ({path.stat().st_size / 1024:,.0f} KiB)")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from .server import StreamCatalog

    catalog = StreamCatalog()
    for path in args.archives:
        stream = catalog.register_archive(path)
        print(f"registered {stream.stream_id!r} from {path}")
    return _run_query(catalog, args, "frames replayed", "replay")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geostreams",
        description="GeoStreams demo CLI (EDBT 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("streams", help="list the demo catalog")
    _add_common(p)
    p.set_defaults(func=cmd_streams)

    p = sub.add_parser("explain", help="parse, optimize, and cost a query")
    p.add_argument("query", help="query text (see repro.query.parser)")
    p.add_argument(
        "--check", action="store_true",
        help="also run the static analyzer and print its diagnostics "
             "(exit 1 on error-level findings)",
    )
    _add_common(p)
    _add_analyze(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "check",
        help="statically analyze a query against the demo catalog "
             "(see docs/static-analysis.md)",
    )
    p.add_argument("query", help="query text to analyze")
    p.add_argument(
        "--strict", action="store_true",
        help="treat warnings as failures (exit non-zero on any finding)",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the diagnostics as JSON"
    )
    p.add_argument(
        "--slo", type=float, default=None, metavar="MAX_LAG_S",
        help="also check the cost estimate against this SLO lag budget",
    )
    p.add_argument(
        "--calibration", default=None, metavar="PATH",
        help="price the SLO-budget check with a fitted calibration profile",
    )
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("query", help="execute a query and optionally write PNGs")
    p.add_argument("query", help="query text")
    p.add_argument("--out", default=None, help="directory for PNG output")
    p.add_argument("--no-optimize", action="store_true", help="skip query rewriting")
    _add_common(p)
    _add_obs(p)
    _add_faults(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("serve-demo", help="run the multi-client DSMS demo")
    p.add_argument("--clients", type=int, default=4, help="number of demo clients")
    p.add_argument(
        "--explain",
        action="store_true",
        help="print the shared operator DAG (stages, subscribers, fan-out)",
    )
    _add_common(p)
    _add_obs(p)
    _add_analyze(p)
    _add_faults(p)
    p.set_defaults(func=cmd_serve_demo)

    p = sub.add_parser(
        "trace",
        help="run one query traced and render delivered-frame waterfalls "
             "(see docs/observability.md)",
    )
    p.add_argument(
        "query", nargs="?", default="reflectance(goes.vis)",
        help="query text (default: reflectance(goes.vis))",
    )
    p.add_argument(
        "--sample-rate", type=float, default=1.0, metavar="RATE",
        help="head-sampling rate 0..1 (breached queries are always traced)",
    )
    p.add_argument(
        "--last", type=int, default=1, metavar="N",
        help="render the N most recent frame traces (default 1)",
    )
    p.add_argument(
        "--keep", type=int, default=16, metavar="N",
        help="flight recorder ring capacity per query (default 16)",
    )
    p.add_argument(
        "--pinned-only", action="store_true",
        help="render only auto-pinned traces (SLO breaches, faults, dead letters)",
    )
    p.add_argument(
        "--slo", type=float, default=None, metavar="MAX_LAG_S",
        help="install a delivery-lag SLO; breaches auto-pin the breaching frame",
    )
    p.add_argument(
        "--export-chrome", default=None, metavar="PATH",
        help="write the rendered traces as Chrome trace-event JSON",
    )
    p.add_argument(
        "--export-otlp", default=None, metavar="PATH",
        help="write the rendered traces as OTLP-shaped JSON",
    )
    _add_common(p)
    _add_faults(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "metrics", help="run the demo workload observed and export its metrics"
    )
    p.add_argument(
        "--self-test", action="store_true",
        help="verify the observability layer's invariants and exit",
    )
    p.add_argument(
        "--format", choices=("prom", "jsonl"), default="prom",
        help="export format: Prometheus text (default) or JSON lines",
    )
    p.add_argument("--out", default=None, help="write the export to a file")
    p.add_argument("--clients", type=int, default=2, help="number of demo clients")
    _add_common(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "serve-telemetry",
        help="run the demo workload with the telemetry timeline and serve "
             "/metrics /health /timeseries /events /traces over HTTP",
    )
    p.add_argument("--port", type=int, default=0, help="HTTP port (default: ephemeral)")
    p.add_argument("--clients", type=int, default=4, help="number of demo clients")
    p.add_argument(
        "--slo", type=float, default=None, metavar="MAX_LAG_S",
        help="install a delivery-lag SLO so /health folds breach state",
    )
    p.add_argument(
        "--cadence", type=float, default=30.0, metavar="SECONDS",
        help="timeline sampling cadence in logical stream seconds (default 30)",
    )
    p.add_argument(
        "--trace", action="store_true",
        help="also install the frame tracer so /traces/<id> serves captures",
    )
    p.add_argument(
        "--linger", type=float, default=0.0, metavar="SECONDS",
        help="keep the endpoint up this long after the scan (for repro top)",
    )
    p.add_argument(
        "--snapshot-out", default=None, metavar="DIR",
        help="fetch /health and /events over HTTP and write them to DIR",
    )
    _add_common(p)
    _add_faults(p)
    p.set_defaults(func=cmd_serve_telemetry)

    p = sub.add_parser(
        "top",
        help="live ANSI health/lag/journal console against a telemetry "
             "endpoint (or one in-process demo run)",
    )
    p.add_argument(
        "--url", default=None, metavar="URL",
        help="telemetry endpoint base URL (from serve-telemetry); omit to "
             "render one in-process demo scan",
    )
    p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh interval when polling a URL (default 2s)",
    )
    p.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="stop after N refreshes (default 0: until interrupted)",
    )
    p.add_argument(
        "--window", type=int, default=20, metavar="N",
        help="rollup window in timeline samples (default 20)",
    )
    p.add_argument(
        "--events", type=int, default=8, metavar="N",
        help="journal tail length to show (default 8)",
    )
    p.add_argument(
        "--slo", type=float, default=None, metavar="MAX_LAG_S",
        help="in-process mode: install a delivery-lag SLO",
    )
    p.add_argument(
        "--cadence", type=float, default=30.0, metavar="SECONDS",
        help="in-process mode: timeline sampling cadence (default 30)",
    )
    p.add_argument("--no-color", action="store_true", help="plain-text output")
    _add_common(p)
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("archive", help="capture the demo downlink to .gsar files")
    p.add_argument("--out", default="./archives", help="output directory")
    _add_common(p)
    p.set_defaults(func=cmd_archive)

    p = sub.add_parser("replay", help="run a query against archived streams")
    p.add_argument("archives", nargs="+", help=".gsar files to register")
    p.add_argument("query", help="query text over the archived stream ids")
    p.add_argument("--out", default=None, help="directory for PNG output")
    p.add_argument("--no-optimize", action="store_true", help="skip query rewriting")
    _add_obs(p)
    _add_faults(p)
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeoStreamsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
