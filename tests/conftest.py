"""Shared fixtures: small, fast instrument configurations."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.core import GeoStream, GridLattice
from repro.geo import LATLON, BoundingBox, goes_geostationary
from repro.ingest import GOESImager, SyntheticEarth, western_us_sector
from repro.server import StreamCatalog

# Mid-day over the western US so the visible band has signal.
DAY_T0 = 72_000.0


def install_frame_tracer(
    sample_rate: float = 1.0, capacity: int = 16, seed: int = 0
) -> obs.FrameTracer:
    """Install a frame tracer beside whatever else is installed.

    It stays installed; the calling module's autouse fixture tears down
    with ``obs.install(obs.Instruments())``.
    """
    ftracer = obs.FrameTracer(
        sample_rate=sample_rate, recorder=obs.FlightRecorder(capacity), seed=seed
    )
    obs.install(dataclasses.replace(obs.current_instruments(), frame_tracer=ftracer))
    return ftracer


@pytest.fixture(scope="session")
def scene() -> SyntheticEarth:
    return SyntheticEarth(seed=7)


@pytest.fixture(scope="session")
def geos_crs():
    return goes_geostationary(-135.0)


@pytest.fixture()
def small_imager(scene, geos_crs) -> GOESImager:
    """A 2-frame, 48x96 GOES imager — fast enough for unit tests."""
    sector = western_us_sector(geos_crs, width=96, height=48)
    return GOESImager(
        scene=scene,
        lon_0=-135.0,
        sector_lattice=sector,
        n_frames=2,
        bands=("vis", "nir"),
        t0=DAY_T0,
    )


@pytest.fixture()
def catalog(small_imager) -> StreamCatalog:
    cat = StreamCatalog()
    cat.register_imager(small_imager)
    return cat


@pytest.fixture()
def latlon_lattice() -> GridLattice:
    """A simple 20x40 north-up lat/lon lattice over Northern California."""
    return GridLattice(LATLON, x0=-124.0, y0=42.0, dx=0.1, dy=-0.1, width=40, height=20)


def sector_subbox(imager: GOESImager, fx0: float, fy0: float, fx1: float, fy1: float) -> BoundingBox:
    """Fractional sub-rectangle of an imager's scan sector (native CRS)."""
    box = imager.sector_lattice.bbox
    return BoundingBox(
        box.xmin + box.width * fx0,
        box.ymin + box.height * fy0,
        box.xmin + box.width * fx1,
        box.ymin + box.height * fy1,
        box.crs,
    )


def hook_stream(stream: GeoStream, after_chunks: int, fire) -> GeoStream:
    """A GeoStream that calls ``fire()`` once, ``after_chunks`` into a scan.

    Used by the epoch-swap tests to land a ``request_replan`` from inside
    the chunk pump — exactly where the adaptive policy would raise it —
    so the cutover exercises the live drain-to-boundary path of
    ``DSMSServer.run``. Fires at most once across re-opens.
    """
    state = {"fired": False}

    def source():
        def gen():
            for i, chunk in enumerate(stream.chunks()):
                yield chunk
                if i + 1 == after_chunks and not state["fired"]:
                    state["fired"] = True
                    fire()

        return gen()

    return GeoStream(stream.metadata, source)


def nan_equal(a: np.ndarray, b: np.ndarray, atol: float = 0.0) -> bool:
    """Elementwise equality treating NaN == NaN."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    both_nan = np.isnan(a) & np.isnan(b)
    close = np.isclose(a, b, atol=atol, rtol=0.0, equal_nan=True)
    return bool(np.all(both_nan | close))
