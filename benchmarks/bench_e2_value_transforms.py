"""E2 — Section 3.2: stretch transforms buffer a whole frame (cost set by
the largest frame); pointwise value transforms buffer nothing.

Measures: stretch buffer high-water mark across growing frame sizes
(must equal the frame's point count); pointwise transform buffer (0);
throughput of both.
"""

import pytest

from repro.operators import CountsToReflectance, FrameStretch

from conftest import BENCH_SMOKE, columnar_speedup, make_imager, write_bench_snapshot

# Kernel-speedup workload: a narrow, tall, multi-frame sector delivered
# row by row — the many-small-chunks regime whose per-chunk dispatch cost
# the batch kernels exist to eliminate.
SPEEDUP_SECTOR = (48, 64) if BENCH_SMOKE else (64, 256)
SPEEDUP_FRAMES = 2 if BENCH_SMOKE else 6
SPEEDUP_REPEATS = 3 if BENCH_SMOKE else 5
SPEEDUP_GATE = 1.0 if BENCH_SMOKE else 5.0


def _drain(stream):
    total = 0
    for chunk in stream.chunks():
        total += chunk.n_points
    return total


@pytest.mark.parametrize("shape", [(16, 32), (32, 64), (48, 96)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_stretch_buffer_equals_frame(benchmark, claims, scene, geos_crs, shape):
    h, w = shape
    imager = make_imager(scene, geos_crs, width=w, height=h, n_frames=1)
    op = FrameStretch("linear")
    stream = imager.stream("vis").pipe(op)
    benchmark(_drain, stream)
    claims.record(
        "E2",
        f"stretch buffer @ {h}x{w} frame",
        op.stats.max_buffered_points,
        f"{h * w} (one frame)",
        op.stats.max_buffered_points == h * w,
    )


def test_pointwise_transform_zero_buffer(benchmark, claims, scene, geos_crs):
    imager = make_imager(scene, geos_crs, n_frames=1)
    op = CountsToReflectance(bits=10)
    stream = imager.stream("vis").pipe(op)
    benchmark(_drain, stream)
    claims.record(
        "E2",
        "pointwise f_val buffer",
        op.stats.max_buffered_points,
        "0 (point-by-point)",
        op.stats.max_buffered_points == 0,
    )


@pytest.mark.parametrize("kind", ["linear", "equalize", "gaussian"])
def test_stretch_kinds_throughput(benchmark, claims, scene, geos_crs, kind):
    imager = make_imager(scene, geos_crs, width=64, height=32, n_frames=1)
    op = FrameStretch(kind)
    stream = imager.stream("vis").pipe(op)
    points = benchmark(_drain, stream)
    claims.record(
        "E2",
        f"{kind} stretch output points",
        points,
        f"{64 * 32} (frame preserved)",
        points == 64 * 32,
    )


def test_columnar_pointwise_speedup(claims, scene, geos_crs):
    """Batch kernels vs the per-point reference (tests/reference/) on a
    row-chunked radiometric calibration (the archetypal pointwise value
    transform)."""
    imager = make_imager(scene, geos_crs, *SPEEDUP_SECTOR, n_frames=SPEEDUP_FRAMES)
    pointwise = columnar_speedup(
        imager, "vis", lambda: [CountsToReflectance(bits=10)], SPEEDUP_REPEATS
    )
    stretch = columnar_speedup(
        imager, "vis", lambda: [FrameStretch("linear")], SPEEDUP_REPEATS
    )
    claims.record(
        "E2",
        "columnar pointwise-transform speedup",
        f"{pointwise['speedup']:.2f}x",
        f">= {SPEEDUP_GATE:g}x (vectorized kernels)",
        pointwise["speedup"] >= SPEEDUP_GATE,
    )
    write_bench_snapshot(
        "e2_value_transforms",
        {
            "sector": list(SPEEDUP_SECTOR),
            "n_frames": SPEEDUP_FRAMES,
            "repeats": SPEEDUP_REPEATS,
            "speedup_gate": SPEEDUP_GATE,
            "pipelines": {
                "counts_to_reflectance": pointwise,
                "stretch_linear": stretch,
            },
        },
    )
