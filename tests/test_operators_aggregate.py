"""Spatio-temporal aggregates (ref [27] extension, experiment X1)."""

import contextlib

import numpy as np
import pytest

from repro.core import GridChunk, Organization, PointChunk
from repro.errors import OperatorError
from repro.geo import LATLON, BoundingBox
from repro.ingest import GOESImager, LidarScanner, western_us_sector
from repro.operators import RegionAggregate, TemporalAggregate

from tests.reference import reference_kernels

DAY_T0 = 72_000.0


def make_imager(scene, geos_crs, n_frames=4, shape=(12, 24)):
    sector = western_us_sector(geos_crs, width=shape[1], height=shape[0])
    return GOESImager(scene=scene, sector_lattice=sector, n_frames=n_frames, t0=DAY_T0)


class TestTemporalAggregate:
    def test_sliding_mean(self, scene, geos_crs):
        imager = make_imager(scene, geos_crs)
        stream = imager.stream("vis")
        frames = stream.collect_frames()
        out = stream.pipe(TemporalAggregate(window=2, func="mean")).collect_frames()
        assert len(out) == 3  # 4 frames, window 2, sliding
        expected = (frames[0].values.astype(float) + frames[1].values.astype(float)) / 2
        np.testing.assert_allclose(out[0].values, expected, rtol=1e-6)

    def test_tumbling_windows(self, scene, geos_crs):
        imager = make_imager(scene, geos_crs, n_frames=4)
        out = imager.stream("vis").pipe(
            TemporalAggregate(window=2, func="max", mode="tumbling")
        ).collect_frames()
        assert len(out) == 2  # non-overlapping pairs

    @pytest.mark.parametrize("func,npfunc", [
        ("min", np.min), ("max", np.max), ("sum", np.sum),
    ])
    def test_reducers(self, scene, geos_crs, func, npfunc):
        imager = make_imager(scene, geos_crs, n_frames=3, shape=(6, 12))
        stream = imager.stream("vis")
        frames = stream.collect_frames()
        out = stream.pipe(TemporalAggregate(window=3, func=func)).collect_frames()[0]
        stack = np.stack([f.values.astype(float) for f in frames])
        np.testing.assert_allclose(out.values, npfunc(stack, axis=0), rtol=1e-6)

    def test_count_ignores_nan(self, scene, geos_crs):
        from repro.operators import ValueRestriction

        imager = make_imager(scene, geos_crs, n_frames=2, shape=(6, 12))
        stream = imager.stream("vis").pipe(ValueRestriction(lo=100.0, hi=400.0))
        out = stream.pipe(TemporalAggregate(window=2, func="count")).collect_frames()[0]
        assert out.values.max() <= 2.0
        assert out.values.min() >= 0.0

    def test_buffer_is_window_times_frame(self, scene, geos_crs):
        """X1: state is N frames of pixels."""
        imager = make_imager(scene, geos_crs, n_frames=4)
        frame_points = imager.sector_lattice.n_points
        for window in (1, 2, 3):
            op = TemporalAggregate(window=window, func="mean")
            imager.stream("vis").pipe(op).count_points()
            # window frames retained plus the frame being collected.
            assert op.stats.max_buffered_points <= (window + 1) * frame_points
            assert op.stats.max_buffered_points >= window * frame_points

    def test_band_renamed(self, scene, geos_crs):
        imager = make_imager(scene, geos_crs, n_frames=2, shape=(6, 12))
        out = imager.stream("vis").pipe(TemporalAggregate(window=2, func="max"))
        assert out.metadata.band == "max2(vis)"

    def test_validation(self):
        with pytest.raises(OperatorError):
            TemporalAggregate(window=0)
        with pytest.raises(OperatorError):
            TemporalAggregate(window=2, func="median")
        with pytest.raises(OperatorError):
            TemporalAggregate(window=2, mode="hopping")

    def test_point_stream_rejected(self, scene):
        lidar = LidarScanner(scene=scene, n_points=50, points_per_chunk=50)
        with pytest.raises(OperatorError):
            lidar.stream().pipe(TemporalAggregate(window=2)).collect_chunks()


class TestRegionAggregate:
    def region_of(self, imager, fx0=0.2, fy0=0.2, fx1=0.8, fy1=0.8):
        box = imager.sector_lattice.bbox
        return BoundingBox(
            box.xmin + box.width * fx0,
            box.ymin + box.height * fy0,
            box.xmin + box.width * fx1,
            box.ymin + box.height * fy1,
            box.crs,
        )

    def test_mean_per_frame(self, scene, geos_crs):
        imager = make_imager(scene, geos_crs, n_frames=2)
        region = self.region_of(imager)
        stream = imager.stream("vis")
        out = stream.pipe(RegionAggregate({"roi": region}, "mean")).collect_chunks()
        assert len(out) == 2  # one point chunk per frame
        # Verify against a direct computation on the assembled frame.
        frame = stream.collect_frames()[0]
        x, y = frame.lattice.meshgrid()
        mask = region.mask(x, y)
        expected = frame.values[mask].astype(float).mean()
        assert float(out[0].values[0]) == pytest.approx(expected, rel=1e-6)

    def test_multiple_regions_sorted_by_name(self, scene, geos_crs):
        imager = make_imager(scene, geos_crs, n_frames=1)
        r1 = self.region_of(imager, 0.0, 0.0, 0.5, 0.5)
        r2 = self.region_of(imager, 0.5, 0.5, 1.0, 1.0)
        out = imager.stream("vis").pipe(
            RegionAggregate({"b_right": r2, "a_left": r1}, "max")
        ).collect_chunks()[0]
        assert out.n_points == 2
        # Point order follows sorted region names; coordinates are centers.
        assert float(out.x[0]) == pytest.approx(r1.center[0])
        assert float(out.x[1]) == pytest.approx(r2.center[0])

    def test_nonblocking_in_point_storage(self, scene, geos_crs):
        """X1: only O(#regions) accumulators, never point data."""
        imager = make_imager(scene, geos_crs, n_frames=2)
        op = RegionAggregate({"roi": self.region_of(imager)}, "mean")
        list(imager.stream("vis").pipe(op).chunks())
        assert op.stats.max_buffered_points == 0

    def test_empty_region_yields_nan(self, scene, geos_crs):
        imager = make_imager(scene, geos_crs, n_frames=1)
        box = imager.sector_lattice.bbox
        far = BoundingBox(box.xmax + 1e6, box.ymax + 1e6, box.xmax + 2e6, box.ymax + 2e6, box.crs)
        out = imager.stream("vis").pipe(RegionAggregate({"far": far}, "mean")).collect_chunks()
        assert len(out) == 1
        assert np.isnan(out[0].values[0])

    @pytest.mark.parametrize("func", ["min", "max", "sum", "count"])
    def test_reducers(self, scene, geos_crs, func):
        imager = make_imager(scene, geos_crs, n_frames=1)
        region = self.region_of(imager)
        stream = imager.stream("vis")
        out = stream.pipe(RegionAggregate({"roi": region}, func)).collect_chunks()[0]
        frame = stream.collect_frames()[0]
        x, y = frame.lattice.meshgrid()
        vals = frame.values[region.mask(x, y)].astype(float)
        expected = {"min": vals.min(), "max": vals.max(), "sum": vals.sum(), "count": vals.size}[func]
        assert float(out.values[0]) == pytest.approx(expected, rel=1e-6)

    def test_point_stream_input(self, scene):
        lidar = LidarScanner(scene=scene, n_points=200, points_per_chunk=200)
        chunk = lidar.stream().collect_chunks()[0]
        region = BoundingBox(
            float(chunk.x.min()), float(chunk.y.min()),
            float(chunk.x.max()), float(chunk.y.max()),
            chunk.crs,
        )
        out = lidar.stream().pipe(RegionAggregate({"track": region}, "count")).collect_chunks()
        total = sum(c.values.sum() for c in out)
        assert total == 200

    def test_output_is_point_organization(self, scene, geos_crs):
        imager = make_imager(scene, geos_crs, n_frames=1)
        out = imager.stream("vis").pipe(
            RegionAggregate({"roi": self.region_of(imager)}, "mean")
        )
        assert out.metadata.organization is Organization.POINT_BY_POINT

    @pytest.mark.parametrize("kernels", ("production", "reference"))
    @pytest.mark.parametrize("kind", ("grid", "points"))
    def test_vector_values_rejected(self, latlon_lattice, kind, kernels):
        """One scalar per region: pooling an 8x6 RGB chunk's channels read 144."""
        rgb = np.ones(latlon_lattice.shape + (3,), dtype=np.uint8)
        if kind == "grid":
            chunk = GridChunk(rgb, latlon_lattice, "rgb", 0.0)
        else:
            x, y = latlon_lattice.meshgrid()
            chunk = PointChunk(x.ravel(), y.ravel(), rgb.reshape(-1, 3), "rgb", np.zeros(x.size), LATLON)
        with reference_kernels() if kernels == "reference" else contextlib.nullcontext():
            op = RegionAggregate({"all": latlon_lattice.bbox}, "count")
            with pytest.raises(OperatorError, match="one channel"):
                list(op.process(chunk))

    def test_validation(self, scene, geos_crs):
        with pytest.raises(OperatorError):
            RegionAggregate({}, "mean")
        imager = make_imager(scene, geos_crs, n_frames=1)
        with pytest.raises(OperatorError):
            RegionAggregate({"roi": self.region_of(imager)}, "mode")
