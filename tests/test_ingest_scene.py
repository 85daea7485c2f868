"""Synthetic Earth scene: determinism and physical plausibility."""

import hashlib

import numpy as np
import pytest

from repro.errors import StreamError
from repro.ingest import Hotspot, SyntheticEarth, ValueNoise2D

DAY = 72_000.0  # mid-day over the western US
NIGHT = 30_000.0


@pytest.fixture(scope="module")
def scene():
    return SyntheticEarth(seed=7)


class TestValueNoise:
    def test_range(self):
        noise = ValueNoise2D(1)
        rng = np.random.default_rng(0)
        x = rng.uniform(-100, 100, 1000)
        y = rng.uniform(-100, 100, 1000)
        v = noise.noise(x, y)
        assert v.min() >= 0.0 and v.max() <= 1.0

    def test_deterministic(self):
        a = ValueNoise2D(5).noise(np.array([1.5, 2.5]), np.array([3.5, 4.5]))
        b = ValueNoise2D(5).noise(np.array([1.5, 2.5]), np.array([3.5, 4.5]))
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_field(self):
        x = np.linspace(0, 10, 50)
        a = ValueNoise2D(1).noise(x, x)
        b = ValueNoise2D(2).noise(x, x)
        assert not np.allclose(a, b)

    def test_continuity(self):
        """Adjacent samples differ by much less than the field's range."""
        noise = ValueNoise2D(3)
        x = np.linspace(0, 5, 2001)
        v = noise.noise(x, np.zeros_like(x))
        assert np.abs(np.diff(v)).max() < 0.02

    def test_fbm_range(self):
        noise = ValueNoise2D(4)
        v = noise.fbm(np.linspace(0, 30, 500), np.linspace(0, 30, 500), octaves=5)
        assert v.min() >= 0.0 and v.max() <= 1.0


class TestSceneFields:
    def test_water_vegetation_disjoint(self, scene):
        rng = np.random.default_rng(1)
        lon = rng.uniform(-130, -100, 2000)
        lat = rng.uniform(25, 50, 2000)
        veg = scene.vegetation(lon, lat)
        water = scene.water_mask(lon, lat)
        assert (veg[water] == 0.0).all()

    def test_scene_has_both_land_and_water(self, scene):
        rng = np.random.default_rng(2)
        lon = rng.uniform(-180, 180, 5000)
        lat = rng.uniform(-60, 60, 5000)
        water = scene.water_mask(lon, lat)
        assert 0.1 < water.mean() < 0.9

    def test_reflectance_band_validation(self, scene):
        with pytest.raises(StreamError):
            scene.reflectance("swir", np.array([0.0]), np.array([0.0]), 0.0)

    def test_vis_nir_in_unit_range(self, scene):
        rng = np.random.default_rng(3)
        lon = rng.uniform(-130, -100, 500)
        lat = rng.uniform(25, 50, 500)
        for band in ("vis", "nir"):
            v = scene.reflectance(band, lon, lat, DAY)
            assert v.min() >= 0.0 and v.max() <= 1.0

    def test_night_darker_than_day(self, scene):
        lon = np.full(100, -120.0)
        lat = np.linspace(30, 45, 100)
        day = scene.reflectance("vis", lon, lat, DAY)
        night = scene.reflectance("vis", lon, lat, NIGHT)
        assert day.mean() > night.mean() * 2

    def test_ndvi_separates_vegetation_from_water(self, scene):
        """The headline product: vegetated land has higher NDVI than water."""
        rng = np.random.default_rng(4)
        lon = rng.uniform(-130, -100, 4000)
        lat = rng.uniform(25, 50, 4000)
        vis = scene.reflectance("vis", lon, lat, DAY)
        nir = scene.reflectance("nir", lon, lat, DAY)
        ndvi = (nir - vis) / (nir + vis + 1e-12)
        veg = scene.vegetation(lon, lat)
        water = scene.water_mask(lon, lat)
        cloud = scene.cloud_cover(lon, lat, DAY)
        clear = cloud < 0.1
        veg_ndvi = ndvi[clear & (veg > 0.35)]
        water_ndvi = ndvi[clear & water]
        assert veg_ndvi.size > 10 and water_ndvi.size > 10
        assert veg_ndvi.mean() > 0.25
        assert water_ndvi.mean() < 0.0

    def test_tir_is_brightness_temperature(self, scene):
        rng = np.random.default_rng(5)
        lon = rng.uniform(-130, -100, 500)
        lat = rng.uniform(25, 50, 500)
        t = scene.reflectance("tir", lon, lat, DAY)
        assert 180.0 < t.min() and t.max() < 340.0

    def test_clouds_move_with_time(self, scene):
        lon = np.linspace(-130, -100, 200)
        lat = np.full(200, 40.0)
        c0 = scene.cloud_cover(lon, lat, 0.0)
        c1 = scene.cloud_cover(lon, lat, 6 * 3600.0)
        assert not np.allclose(c0, c1)


class TestHotspots:
    def test_hotspot_raises_local_temperature(self):
        hs = Hotspot(lon=-121.0, lat=39.0, t_start=0.0, t_end=1e6, radius_deg=0.2)
        hot_scene = SyntheticEarth(seed=7, hotspots=(hs,))
        cold_scene = SyntheticEarth(seed=7)
        t_hot = hot_scene.reflectance("tir", np.array([-121.0]), np.array([39.0]), DAY)
        t_cold = cold_scene.reflectance("tir", np.array([-121.0]), np.array([39.0]), DAY)
        cloud = hot_scene.cloud_cover(np.array([-121.0]), np.array([39.0]), DAY)
        if cloud[0] <= 0.5:  # hotspot visible only through clear sky
            assert float(t_hot[0]) > float(t_cold[0]) + 50.0

    def test_hotspot_inactive_outside_window(self):
        hs = Hotspot(lon=-121.0, lat=39.0, t_start=1000.0, t_end=2000.0)
        s = SyntheticEarth(seed=7, hotspots=(hs,))
        base = SyntheticEarth(seed=7)
        t_before = s.reflectance("tir", np.array([-121.0]), np.array([39.0]), 0.0)
        t_base = base.reflectance("tir", np.array([-121.0]), np.array([39.0]), 0.0)
        np.testing.assert_allclose(t_before, t_base)

    def test_hotspot_local(self):
        hs = Hotspot(lon=-121.0, lat=39.0, t_start=0.0, t_end=1e6, radius_deg=0.1)
        s = SyntheticEarth(seed=7, hotspots=(hs,))
        base = SyntheticEarth(seed=7)
        far = s.reflectance("tir", np.array([-110.0]), np.array([30.0]), DAY)
        far_base = base.reflectance("tir", np.array([-110.0]), np.array([30.0]), DAY)
        np.testing.assert_allclose(far, far_base)


class TestDigitize:
    def test_counts_within_bits(self, scene):
        lon = np.linspace(-130, -100, 300)
        lat = np.linspace(25, 50, 300)
        for bits in (8, 10, 16):
            counts = scene.digitize("vis", lon, lat, DAY, bits=bits)
            assert counts.dtype == np.uint16
            assert counts.max() <= (1 << bits) - 1

    def test_deterministic(self, scene):
        lon = np.linspace(-130, -100, 50)
        lat = np.linspace(25, 50, 50)
        a = scene.digitize("vis", lon, lat, DAY)
        b = scene.digitize("vis", lon, lat, DAY)
        np.testing.assert_array_equal(a, b)

    def test_offearth_nan_is_zero(self, scene):
        counts = scene.digitize("vis", np.array([np.nan]), np.array([np.nan]), DAY)
        assert counts[0] == 0

    def test_tir_counts_inverted(self, scene):
        """Colder scenes yield higher IR counts (GVAR convention)."""
        hs = Hotspot(lon=-121.0, lat=39.0, t_start=0.0, t_end=1e9, radius_deg=0.3, peak_kelvin=420.0)
        hot = SyntheticEarth(seed=7, hotspots=(hs,))
        c_hot = hot.digitize("tir", np.array([-121.0]), np.array([39.0]), DAY)
        c_base = scene.digitize("tir", np.array([-121.0]), np.array([39.0]), DAY)
        cloud = scene.cloud_cover(np.array([-121.0]), np.array([39.0]), DAY)
        if cloud[0] <= 0.5:
            assert int(c_hot[0]) < int(c_base[0])


class TestStaticFields:
    def test_statics_path_identical_to_direct(self, scene):
        """Passing precomputed statics is a pure optimization."""
        lon = np.linspace(-130, -100, 80)
        lat = np.linspace(25, 50, 80)
        statics = scene.static_fields(lon, lat)
        for band in ("vis", "nir", "tir"):
            direct = scene.reflectance(band, lon, lat, DAY)
            cached = scene.reflectance(band, lon, lat, DAY, statics=statics)
            np.testing.assert_array_equal(direct, cached)
            d_counts = scene.digitize(band, lon, lat, DAY)
            c_counts = scene.digitize(band, lon, lat, DAY, statics=statics)
            np.testing.assert_array_equal(d_counts, c_counts)

    def test_statics_contents(self, scene):
        lon = np.linspace(-130, -100, 20)
        lat = np.linspace(25, 50, 20)
        statics = scene.static_fields(lon, lat)
        assert set(statics) == {"water", "veg", "texture"}
        np.testing.assert_array_equal(statics["water"], scene.water_mask(lon, lat))
        np.testing.assert_array_equal(statics["veg"], scene.vegetation(lon, lat))


class TestArrayTime:
    """A whole frame in one call, with an (H, 1) column of row times."""

    # Negative times (the noise seed truncates toward zero, as int(t) does)
    # and a hotspot window that opens at row 5 and closes after row 6.
    T = np.array([-7205.5, -3600.9, -0.5, 0.0, 999.7, 1500.2, 2000.0, 2000.4])
    # SHA-256 of the 16-bit counts of H scalar row calls, every band in
    # turn, recorded with the row-at-a-time scene before it took arrays.
    ROWS_DIGEST = "af44bb073058e04a3eb08782229b76847f0ef8adc5692296a23c17f14f948b20"

    @pytest.fixture(scope="class")
    def grid(self):
        h, w = len(self.T), 40
        lon = np.linspace(-130, -100, w)[None, :] + np.linspace(0, 3, h)[:, None]
        lat = np.linspace(30, 48, h)[:, None] + np.linspace(0, 2, w)[None, :]
        return lon, lat

    @pytest.fixture(scope="class")
    def hot_scene(self):
        hs = Hotspot(lon=-118.0, lat=39.0, t_start=1000.0, t_end=2000.0, radius_deg=8.0)
        return SyntheticEarth(seed=7, hotspots=(hs,))

    @pytest.mark.parametrize("band", ["vis", "nir", "tir"])
    def test_frame_call_equals_row_calls(self, hot_scene, grid, band):
        lon, lat = grid

        def row_calls(method, **kwargs):
            return np.stack(
                [method(band, lon[r], lat[r], float(t), **kwargs) for r, t in enumerate(self.T)]
            )

        column = self.T[:, None]
        np.testing.assert_array_equal(
            hot_scene.reflectance(band, lon, lat, column), row_calls(hot_scene.reflectance)
        )
        for bits in (8, 10, 16):
            np.testing.assert_array_equal(
                hot_scene.digitize(band, lon, lat, column, bits=bits),
                row_calls(hot_scene.digitize, bits=bits),
            )

    def test_hotspot_warms_only_rows_inside_its_window(self, hot_scene, grid):
        lon, lat = grid
        column = self.T[:, None]
        warmer = hot_scene.reflectance("tir", lon, lat, column) != SyntheticEarth(
            seed=7
        ).reflectance("tir", lon, lat, column)
        assert np.flatnonzero(warmer.any(axis=1)).tolist() == [5, 6]

    def test_frame_counts_match_the_scalar_scene(self, hot_scene, grid):
        lon, lat = grid
        digest = hashlib.sha256()
        for band in ("vis", "nir", "tir"):
            counts = hot_scene.digitize(band, lon, lat, self.T[:, None], bits=16)
            digest.update(counts.astype("<u2").tobytes())
        assert digest.hexdigest() == self.ROWS_DIGEST
