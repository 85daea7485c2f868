"""Frame-level tracing and the flight recorder, end to end.

Every chunk a traced source emits carries a ``TraceContext``; delivery
stitches the contexts into a ``FrameTrace`` — a per-hop waterfall of
wall time, queue wait, and point throughput whose stage hops are keyed
by the same subplan fingerprints EXPLAIN ANALYZE uses. The flight
recorder keeps a bounded ring of recent traces per query plus pinned
captures of anything interesting: SLO breaches, injected faults, and
quarantined frames pin automatically.

This example runs the demo scan three ways:

1. a clean traced run — render the last delivered frame's waterfall and
   walk the recorder ring,
2. a chaos run behind the seeded fault injector — show the auto-pinned
   traces with their ``fault:<kind>`` / ``recovery:*`` annotations,
3. export — the pinned captures serialize to Chrome trace-event JSON
   (load in chrome://tracing or Perfetto) and an OTLP-shaped document.

Run:  python examples/flight_recorder.py
"""

from __future__ import annotations

import json
import pathlib

from repro import DSMSServer, GOESImager, StreamCatalog, obs
from repro.faults import FaultSpec, harden_catalog, recovering
from repro.obs import traces_to_chrome, traces_to_otlp

QUERY = "stretch(reflectance(goes.vis), 'linear')"
OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def make_catalog() -> StreamCatalog:
    imager = GOESImager(n_frames=3, t0=72_000.0)
    catalog = StreamCatalog()
    catalog.register_imager(imager)
    return catalog


def clean_run() -> None:
    print("=== 1. clean traced run ===")
    with obs.observe(frame_trace=True):  # sample every chunk
        server = DSMSServer(make_catalog())
        session = server.register(QUERY, encode_png=False)
        server.run()

        trace = server.frame_trace(session.frames[-1])
        print(obs.render_waterfall(trace))

        ring = server.recent_traces(session)
        print(f"flight-recorder ring holds {len(ring)} trace(s) for this query:")
        for t in ring:
            ship = t.hop_by_key("delivery")
            compute = sum(h.wall_s for h in t.hops)
            print(
                f"  t={t.frame_t:g}  {len(t.hops)} hops  "
                f"{ship.points_in} points  {compute * 1e3:.2f} ms compute"
            )
        # Stage hops cross-reference EXPLAIN ANALYZE by fingerprint.
        fps = sorted(fp[:10] for fp in trace.stage_fingerprints())
        print(f"stage fingerprints (link into the cost table): {fps}")


def chaos_run():
    print("\n=== 2. chaos run: faults auto-pin traces ===")
    ftracer = obs.FrameTracer()  # a tracer of your own, installed for the block
    with obs.installed(frame_tracer=ftracer):
        spec = FaultSpec(seed=101, drop=0.08, bitflip=0.03)
        hardened, injector, ctx = harden_catalog(make_catalog(), spec)
        server = DSMSServer(hardened, recovery=ctx)
        server.register(QUERY, encode_png=False)
        with recovering(ctx):
            server.run()

        injected = {k: v for k, v in injector.counts.items() if v}
        print(f"faults injected: {injected}")
        pinned = list(ftracer.recorder.pinned)
        reasons: dict[str, int] = {}
        for t in pinned:
            reasons[t.pin_reason] = reasons.get(t.pin_reason, 0) + 1
        print(f"auto-pinned captures: {len(pinned)}")
        for reason, count in sorted(reasons.items()):
            print(f"  {count:3d} x pinned for {reason!r}")
        # Show the fault-struck captures in detail — the ones a debugging
        # session would open first.
        for t in pinned:
            if not any(n.startswith("fault:") for n in t.annotations):
                continue
            flavor = "PARTIAL" if t.partial else f"t={t.frame_t:g}"
            print(f"  [{flavor}] annotations: {list(t.annotations)}")
        return pinned


def export(pinned) -> None:
    print("\n=== 3. export pinned captures ===")
    chrome = traces_to_chrome(pinned)
    otlp = traces_to_otlp(pinned)
    print(f"chrome trace-event doc: {len(chrome['traceEvents'])} events")
    spans = sum(
        len(scope["spans"])
        for res in otlp["resourceSpans"]
        for scope in res["scopeSpans"]
    )
    print(f"otlp doc: {len(otlp['resourceSpans'])} resourceSpans, {spans} spans")
    # Write them next to this script the way the CLI's --export-chrome /
    # --export-otlp flags would:
    OUTPUT_DIR.mkdir(exist_ok=True)
    for name, doc in (("flight_chrome.json", chrome), ("flight_otlp.json", otlp)):
        (OUTPUT_DIR / name).write_text(json.dumps(doc, indent=1), encoding="utf-8")
        print(f"wrote {OUTPUT_DIR.name}/{name}")


def main() -> None:
    clean_run()
    pinned = chaos_run()
    if pinned:
        export(pinned)


if __name__ == "__main__":
    main()
