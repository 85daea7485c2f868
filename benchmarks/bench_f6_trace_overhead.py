"""F6 — Frame-tracing overhead: untraced / sampled / fully traced.

Measures: DSMS scan throughput with (a) no frame tracer installed, (b) a
tracer installed but sampling 0% (the always-on production setting),
(c) 25% head sampling, and (d) every chunk traced. The zero-cost claim
under test: an *installed but sampling-out* tracer adds only a per-chunk
``chunk.trace is None`` check to the hot path — no ``perf_counter``
calls, no allocation — so (b) must sit within noise of (a). Full tracing
pays for hop recording and trace assembly, bounded by the flight
recorder's rings. Snapshots dump via ``REPRO_BENCH_OUT``.
"""

import time

from repro import obs
from repro.server import DSMSServer, StreamCatalog

from conftest import BENCH_SMOKE, make_imager, write_bench_snapshot

SECTOR = (48, 24) if BENCH_SMOKE else (128, 64)
N_FRAMES = 2 if BENCH_SMOKE else 4
REPEATS = 3 if BENCH_SMOKE else 5
QUERY = "stretch(reflectance(goes.vis), 'linear')"

# mode -> head-sampling rate (None = no tracer installed at all)
MODES = (
    ("untraced", None),
    ("installed_rate0", 0.0),
    ("sampled_25", 0.25),
    ("traced_full", 1.0),
)


def run_scan(imager, rate):
    """One full DSMS scan; returns (points delivered, frames delivered)."""
    catalog = StreamCatalog()
    catalog.register_imager(imager)
    changes = {} if rate is None else {"frame_tracer": obs.FrameTracer(sample_rate=rate)}
    with obs.installed(**changes):
        server = DSMSServer(catalog)
        session = server.register(QUERY, encode_png=False)
        server.run()
        return session.points_received, len(session.frames)


def best_of(imager, rate, repeats=REPEATS):
    """Best wall time across repeats (noise floor, not the mean)."""
    best, points = float("inf"), 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        points, frames = run_scan(imager, rate)
        dt = time.perf_counter() - t0
        best = min(best, dt)
        assert frames == N_FRAMES
    return best, points


def test_trace_overhead_untraced_within_noise(claims, scene, geos_crs):
    imager = make_imager(scene, geos_crs, *SECTOR, n_frames=N_FRAMES)
    run_scan(imager, None)  # warm caches before timing anything

    rows = {}
    for mode, rate in MODES:
        seconds, points = best_of(imager, rate)
        rows[mode] = {
            "rate": rate,
            "seconds": seconds,
            "points": points,
            "points_per_s": points / seconds,
        }

    base = rows["untraced"]["seconds"]
    overhead = {
        mode: rows[mode]["seconds"] / base - 1.0 for mode, _ in MODES[1:]
    }
    for mode in overhead:
        rows[mode]["overhead_vs_untraced"] = overhead[mode]

    # The production-relevant claim: an installed-but-idle tracer is free.
    # The measured number (typically well under 2%) goes into the snapshot;
    # the hard gate is lenient so CI noise cannot flake the suite.
    claims.record(
        "F6",
        "installed tracer @ rate 0 overhead vs no tracer",
        f"{overhead['installed_rate0'] * 100:+.1f}%",
        "within noise of untraced (< 20% hard gate, ~2% typical)",
        overhead["installed_rate0"] < 0.20,
    )
    claims.record(
        "F6",
        "full tracing overhead vs no tracer",
        f"{overhead['traced_full'] * 100:+.1f}%",
        "bounded: tracing every chunk stays under 3x",
        rows["traced_full"]["seconds"] < 3.0 * base,
    )
    # Sampling must interpolate: 25% costs no more than full tracing
    # (small slack for timer noise on fast runs).
    claims.record(
        "F6",
        "25% sampling cost vs full tracing",
        f"{rows['sampled_25']['seconds'] / rows['traced_full']['seconds']:.2f}x",
        "<= full tracing (plus noise)",
        rows["sampled_25"]["seconds"] <= rows["traced_full"]["seconds"] * 1.25,
    )
    # Identical delivery regardless of tracing mode.
    delivered = {row["points"] for row in rows.values()}
    claims.record(
        "F6",
        "points delivered identical across tracing modes",
        sorted(delivered),
        "one value (tracing never changes results)",
        len(delivered) == 1,
    )
    write_bench_snapshot(
        "f6_trace_overhead",
        {
            "sector": list(SECTOR),
            "n_frames": N_FRAMES,
            "repeats": REPEATS,
            "query": QUERY,
            "modes": rows,
        },
    )
