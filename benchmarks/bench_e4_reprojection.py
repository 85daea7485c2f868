"""E4 — Section 3.2 / Fig. 2b: re-projection may require arbitrarily many
input points per output point, but scan-sector metadata bounds the buffer
to a row band and enables boundary interpolation instead of blocking.

Measures: buffer fraction (row band / frame) for two target CRSs;
interpolation-method cost spread; the blocking hazard without metadata.
"""

import pytest

from repro.errors import BlockingHazardError
from repro.geo import plate_carree, utm
from repro.operators import Reproject

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


@pytest.mark.parametrize(
    "crs_name,crs_factory",
    [("plate_carree", plate_carree), ("utm10", lambda: utm(10))],
)
def test_reprojection_buffer_is_row_band(benchmark, claims, scene, geos_crs, crs_name, crs_factory):
    imager = make_imager(scene, geos_crs, width=96, height=48, n_frames=1)
    op = Reproject(crs_factory())
    stream = imager.stream("vis").pipe(op)
    benchmark(_drain, stream)
    frame_points = imager.sector_lattice.n_points
    fraction = op.stats.max_buffered_points / frame_points
    claims.record(
        "E4",
        f"geos->{crs_name} buffer fraction of frame",
        f"{fraction:.3f}",
        "< 0.5 (row band, not frame)",
        0.0 < fraction < 0.5,
    )


@pytest.mark.parametrize("method", ["nearest", "bilinear", "bicubic"])
def test_interpolation_method_cost(benchmark, scene, geos_crs, method):
    imager = make_imager(scene, geos_crs, width=64, height=32, n_frames=1)
    stream = imager.stream("vis").pipe(Reproject(plate_carree(), method=method))
    benchmark(_drain, stream)


def test_blocking_hazard_without_metadata(benchmark, claims, scene, geos_crs):
    from dataclasses import replace

    from repro.core import GeoStream

    imager = make_imager(scene, geos_crs, width=32, height=16, n_frames=1)
    base = imager.stream("vis")
    stripped = GeoStream(
        base.metadata,
        lambda: (replace(c, frame=None, last_in_frame=False) for c in base.chunks()),
    )

    def attempt():
        try:
            stripped.pipe(Reproject(plate_carree())).collect_chunks()
            return False
        except BlockingHazardError:
            return True

    raised = benchmark(attempt)
    claims.record(
        "E4",
        "no scan metadata -> blocking hazard surfaced",
        raised,
        "True ('could block forever')",
        raised,
    )


def test_columnar_reprojection_speedup(claims, scene, geos_crs):
    """Deferred batched sampling vs the per-row reference
    (tests/reference/) on a row-chunked geostationary -> UTM
    re-projection. Production memoizes the frame navigation
    (inverse-projected coordinates) across identical frames, so
    multi-frame streams amortize it away."""
    imager = make_imager(scene, geos_crs, *SPEEDUP_SECTOR, n_frames=SPEEDUP_FRAMES)
    to_utm = columnar_speedup(
        imager, "vis", lambda: [Reproject(utm(10))], SPEEDUP_REPEATS
    )
    to_pc = columnar_speedup(
        imager, "vis", lambda: [Reproject(plate_carree())], SPEEDUP_REPEATS
    )
    claims.record(
        "E4",
        "columnar geos->utm10 reprojection speedup",
        f"{to_utm['speedup']:.2f}x",
        f">= {SPEEDUP_GATE:g}x (vectorized kernels)",
        to_utm["speedup"] >= SPEEDUP_GATE,
    )
    write_bench_snapshot(
        "e4_reprojection",
        {
            "sector": list(SPEEDUP_SECTOR),
            "n_frames": SPEEDUP_FRAMES,
            "repeats": SPEEDUP_REPEATS,
            "speedup_gate": SPEEDUP_GATE,
            "pipelines": {
                "reproject_utm10": to_utm,
                "reproject_plate_carree": to_pc,
            },
        },
    )
