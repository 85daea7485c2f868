"""Delivery (Section 4) and macro operators (NDVI and friends)."""

import numpy as np
import pytest

from repro.errors import OperatorError
from repro.ingest import GOESImager, LidarScanner, western_us_sector
from repro.operators import (
    CollectingSink,
    Delivery,
    evi2,
    ndvi,
    reflectance,
)
from repro.raster import decode_png

DAY_T0 = 72_000.0


def make_imager(scene, geos_crs, shape=(12, 24), n_frames=2):
    sector = western_us_sector(geos_crs, width=shape[1], height=shape[0])
    return GOESImager(scene=scene, sector_lattice=sector, n_frames=n_frames, t0=DAY_T0)


class TestDelivery:
    def test_png_per_frame(self, scene, geos_crs):
        imager = make_imager(scene, geos_crs)
        sink = CollectingSink()
        op = Delivery(sink)
        out = imager.stream("vis").pipe(op)
        chunks = out.collect_chunks()
        assert len(sink) == 2
        for frame in sink.frames:
            assert frame.png.startswith(b"\x89PNG")
            decoded = decode_png(frame.png)
            assert decoded.shape == (12, 24)
        # Delivery is a pass-through: chunks keep flowing downstream.
        assert len(chunks) == 2 * 12

    def test_encode_false_skips_png(self, scene, geos_crs):
        imager = make_imager(scene, geos_crs)
        op = Delivery(encode=False)
        imager.stream("vis").pipe(op).count_points()
        assert all(f.png == b"" for f in op.sink.frames)

    def test_georeferencing_attached(self, scene, geos_crs):
        imager = make_imager(scene, geos_crs)
        op = Delivery()
        imager.stream("vis").pipe(op).count_points()
        image = op.sink.frames[0].image
        assert image.lattice == imager.sector_lattice
        assert image.sector == 0

    def test_custom_sink_callable(self, scene, geos_crs):
        imager = make_imager(scene, geos_crs, n_frames=1)
        received = []
        op = Delivery(sink=received.append)
        imager.stream("vis").pipe(op).count_points()
        assert len(received) == 1

    def test_point_stream_rejected(self, scene):
        lidar = LidarScanner(scene=scene, n_points=50, points_per_chunk=50)
        with pytest.raises(OperatorError):
            lidar.stream().pipe(Delivery()).collect_chunks()

    def test_partial_frame_flushed(self, scene, geos_crs):
        imager = make_imager(scene, geos_crs, n_frames=1)
        op = Delivery()
        # Take only the first half of the frame's rows, then flush.
        chunks = imager.stream("vis").collect_chunks()[:6]
        for c in chunks:
            list(op.process(c))
        list(op.flush())
        assert len(op.sink) == 1

    def test_float_products_deliverable(self, scene, geos_crs):
        imager = make_imager(scene, geos_crs, n_frames=1)
        product = ndvi(
            reflectance(imager.stream("nir")), reflectance(imager.stream("vis"))
        )
        op = Delivery()
        product.pipe(op).count_points()
        assert decode_png(op.sink.frames[0].png).dtype == np.uint8


class TestMacros:
    def test_ndvi_definition(self, scene, geos_crs):
        """ndvi() equals the algebra expression (G1-G2)/(G1+G2)."""
        imager = make_imager(scene, geos_crs)
        nir_r = reflectance(imager.stream("nir"))
        vis_r = reflectance(imager.stream("vis"))
        macro = ndvi(nir_r, vis_r).collect_frames()
        n = nir_r.collect_frames()
        v = vis_r.collect_frames()
        manual = (n[0].values - v[0].values) / (n[0].values + v[0].values)
        np.testing.assert_allclose(macro[0].values, manual.astype(np.float32), atol=1e-6)
        assert macro[0].band == "ndvi"

    def test_ndvi_range_clamped(self, scene, geos_crs):
        imager = make_imager(scene, geos_crs)
        out = ndvi(
            reflectance(imager.stream("nir")), reflectance(imager.stream("vis"))
        ).collect_frames()[0]
        finite = out.values[np.isfinite(out.values)]
        assert finite.min() >= -1.0 and finite.max() <= 1.0

    def test_ndvi_higher_over_vegetation_than_water(self, scene, geos_crs):
        imager = make_imager(scene, geos_crs, shape=(24, 48))
        out = ndvi(
            reflectance(imager.stream("nir")), reflectance(imager.stream("vis"))
        ).collect_frames()[0]
        lon, lat = imager.lonlat_grid(out.lattice)
        water = scene.water_mask(lon, lat)
        clear = scene.cloud_cover(lon, lat, DAY_T0) < 0.1
        land_vals = out.values[~water & clear & np.isfinite(out.values)]
        water_vals = out.values[water & clear & np.isfinite(out.values)]
        if land_vals.size > 5 and water_vals.size > 5:
            assert land_vals.mean() > water_vals.mean() + 0.2

    def test_evi2_bounded(self, scene, geos_crs):
        imager = make_imager(scene, geos_crs)
        out = evi2(
            reflectance(imager.stream("nir")), reflectance(imager.stream("vis"))
        ).collect_frames()[0]
        finite = out.values[np.isfinite(out.values)]
        assert np.abs(finite).max() <= 2.5
        assert out.band == "evi2"

    def test_reflectance_calibration(self, scene, geos_crs):
        imager = make_imager(scene, geos_crs)
        counts = imager.stream("vis").collect_frames()[0]
        refl = reflectance(imager.stream("vis")).collect_frames()[0]
        np.testing.assert_allclose(
            refl.values, counts.values.astype(np.float32) / 1023.0, atol=1e-6
        )
