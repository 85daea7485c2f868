"""E3 — Fig. 2a: magnification needs no neighbours (zero buffer); a 1/k
resolution decrease buffers a k-row band (k x k neighbourhood per output
point).

Measures: buffer high-water marks as k sweeps; throughput of both
directions; full-frame rotation as the frame-buffered extreme.
"""

import pytest

from repro.operators import Coarsen, Magnify, Rotate

from conftest import BENCH_SMOKE, columnar_speedup, make_imager, write_bench_snapshot

# Columnar-speedup workload (see bench_e2): many small row chunks.
SPEEDUP_SECTOR = (48, 64) if BENCH_SMOKE else (64, 256)
SPEEDUP_FRAMES = 2 if BENCH_SMOKE else 6
SPEEDUP_REPEATS = 3 if BENCH_SMOKE else 5
SPEEDUP_GATE = 1.0 if BENCH_SMOKE else 5.0


def _drain(stream):
    total = 0
    for chunk in stream.chunks():
        total += chunk.n_points
    return total


@pytest.mark.parametrize("k", [2, 3])
def test_magnify_zero_buffer(benchmark, claims, scene, geos_crs, k):
    imager = make_imager(scene, geos_crs, width=64, height=32, n_frames=1)
    op = Magnify(k)
    stream = imager.stream("vis").pipe(op)
    points = benchmark(_drain, stream)
    claims.record(
        "E3",
        f"magnify k={k} buffer",
        op.stats.max_buffered_points,
        "0 (no neighbours needed)",
        op.stats.max_buffered_points == 0,
    )
    claims.record(
        "E3",
        f"magnify k={k} output points",
        points,
        f"{64 * 32 * k * k} (k^2 x input)",
        points == 64 * 32 * k * k,
    )


@pytest.mark.parametrize("k", [2, 4, 8])
def test_coarsen_buffers_k_rows(benchmark, claims, scene, geos_crs, k):
    width, height = 64, 32
    imager = make_imager(scene, geos_crs, width=width, height=height, n_frames=1)
    op = Coarsen(k)
    stream = imager.stream("vis").pipe(op)
    benchmark(_drain, stream)
    claims.record(
        "E3",
        f"coarsen k={k} buffer (rows of {width})",
        op.stats.max_buffered_points,
        f"{k * width} (k-row band)",
        op.stats.max_buffered_points == k * width,
    )


def test_rotation_buffers_full_frame(benchmark, claims, scene, geos_crs):
    imager = make_imager(scene, geos_crs, width=64, height=32, n_frames=1)
    op = Rotate(30.0)
    stream = imager.stream("vis").pipe(op)
    benchmark(_drain, stream)
    claims.record(
        "E3",
        "rotate 30deg buffer",
        op.stats.max_buffered_points,
        f"{64 * 32} (whole frame)",
        op.stats.max_buffered_points == 64 * 32,
    )


def test_columnar_coarsen_speedup(claims, scene, geos_crs):
    """Band-batched reduction vs the per-point reference
    (tests/reference/) on a row-chunked 1/4-resolution decrease."""
    imager = make_imager(scene, geos_crs, *SPEEDUP_SECTOR, n_frames=SPEEDUP_FRAMES)
    coarsen = columnar_speedup(imager, "vis", lambda: [Coarsen(4)], SPEEDUP_REPEATS)
    magnify = columnar_speedup(imager, "vis", lambda: [Magnify(2)], SPEEDUP_REPEATS)
    claims.record(
        "E3",
        "columnar coarsen k=4 speedup",
        f"{coarsen['speedup']:.2f}x",
        f">= {SPEEDUP_GATE:g}x (vectorized kernels)",
        coarsen["speedup"] >= SPEEDUP_GATE,
    )
    write_bench_snapshot(
        "e3_spatial_transforms",
        {
            "sector": list(SPEEDUP_SECTOR),
            "n_frames": SPEEDUP_FRAMES,
            "repeats": SPEEDUP_REPEATS,
            "speedup_gate": SPEEDUP_GATE,
            "pipelines": {
                "coarsen_4": coarsen,
                "magnify_2": magnify,
            },
        },
    )
