"""Procedural Earth scene: the synthetic data source behind all instruments.

The paper's system ingests live GOES imagery; offline we substitute a
deterministic synthetic Earth (see DESIGN.md). The scene is a pure
function of (lon, lat, t, band) built from seeded value noise, so any
instrument observing the same place at the same time sees the same
radiance — which is exactly the property stream composition (Def. 10)
relies on when combining spectral bands.

Bands provided:

* ``vis`` — visible reflectance: bright clouds, mid soil, dark vegetation
  and water, modulated by solar elevation.
* ``nir`` — near-infrared reflectance: vegetation bright, water very dark.
  ``(nir - vis) / (nir + vis)`` therefore yields a plausible NDVI field.
* ``tir`` — thermal brightness temperature (K) with diurnal cycle and
  occasional deterministic "wildfire" hotspots for the disaster-management
  example workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import StreamError

__all__ = ["ValueNoise2D", "SyntheticEarth", "Hotspot", "SCENE_BANDS"]

SCENE_BANDS = ("vis", "nir", "tir")


def _mix64(h: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: decorrelate integer lattice coordinates."""
    h = h + np.uint64(0x9E3779B97F4A7C15)
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


class ValueNoise2D:
    """Deterministic smooth noise on R^2 with values in [0, 1].

    Lattice corners get hashed pseudo-random values; points in between are
    blended with a smoothstep, giving C1-continuous fields without any
    stored state — important because instruments re-open streams and must
    regenerate identical data.
    """

    def __init__(self, seed: int) -> None:
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)

    def _corner(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        h = _mix64(
            self._seed
            ^ _mix64(ix.astype(np.int64).view(np.uint64))
            ^ _mix64(~iy.astype(np.int64).view(np.uint64))
        )
        return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)

    def noise(self, x: np.ndarray | float, y: np.ndarray | float) -> np.ndarray:
        # NaN coordinates (off-earth pixels) evaluate at the origin; the
        # scene's digitizer zeroes them afterwards.
        x = np.nan_to_num(np.asarray(x, dtype=float))
        y = np.nan_to_num(np.asarray(y, dtype=float))
        ix = np.floor(x)
        iy = np.floor(y)
        fx = x - ix
        fy = y - iy
        # Smoothstep weights.
        wx = fx * fx * (3.0 - 2.0 * fx)
        wy = fy * fy * (3.0 - 2.0 * fy)
        v00 = self._corner(ix, iy)
        v10 = self._corner(ix + 1, iy)
        v01 = self._corner(ix, iy + 1)
        v11 = self._corner(ix + 1, iy + 1)
        top = v00 * (1.0 - wx) + v10 * wx
        bot = v01 * (1.0 - wx) + v11 * wx
        return top * (1.0 - wy) + bot * wy

    def fbm(
        self,
        x: np.ndarray | float,
        y: np.ndarray | float,
        octaves: int = 4,
        lacunarity: float = 2.0,
        gain: float = 0.5,
    ) -> np.ndarray:
        """Fractal Brownian motion: octave-summed noise, rescaled to [0, 1]."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        total = np.zeros(np.broadcast(x, y).shape, dtype=float)
        amp = 1.0
        freq = 1.0
        norm = 0.0
        for _ in range(max(1, octaves)):
            total += amp * self.noise(x * freq, y * freq)
            norm += amp
            amp *= gain
            freq *= lacunarity
        return total / norm


@dataclass(frozen=True)
class Hotspot:
    """A transient thermal anomaly (synthetic wildfire)."""

    lon: float
    lat: float
    t_start: float
    t_end: float
    radius_deg: float = 0.15
    peak_kelvin: float = 420.0


@dataclass
class SyntheticEarth:
    """Deterministic radiance model of the Earth's surface and atmosphere."""

    seed: int = 7
    sea_level: float = 0.55
    hotspots: tuple[Hotspot, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self._terrain = ValueNoise2D(self.seed * 11 + 1)
        self._moisture = ValueNoise2D(self.seed * 11 + 2)
        self._cloud = ValueNoise2D(self.seed * 11 + 3)
        self._texture = ValueNoise2D(self.seed * 11 + 4)

    # -- physical fields ----------------------------------------------------

    def elevation(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        """Pseudo-elevation in [0, 1]; below ``sea_level`` is water."""
        return self._terrain.fbm(np.asarray(lon) / 8.0, np.asarray(lat) / 8.0, octaves=5)

    def water_mask(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        return self.elevation(lon, lat) < self.sea_level

    def vegetation(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        """Vegetation density in [0, 1]; zero over water."""
        moist = self._moisture.fbm(np.asarray(lon) / 5.0 + 100.0, np.asarray(lat) / 5.0, octaves=4)
        lat_factor = np.clip(1.0 - np.abs(np.asarray(lat)) / 75.0, 0.0, 1.0)
        veg = np.clip(moist * 1.4 - 0.2, 0.0, 1.0) * lat_factor
        return np.where(self.water_mask(lon, lat), 0.0, veg)

    def cloud_cover(self, lon: np.ndarray, lat: np.ndarray, t: float | np.ndarray) -> np.ndarray:
        """Cloud optical fraction in [0, 1], advected eastward with time."""
        drift = t / 3600.0 * 0.5  # degrees of longitude per hour
        raw = self._cloud.fbm(
            (np.asarray(lon) - drift) / 6.0, np.asarray(lat) / 6.0 + t / 86_400.0, octaves=4
        )
        return np.clip((raw - 0.55) * 3.0, 0.0, 1.0)

    def solar_elevation(self, lon: np.ndarray, t: float | np.ndarray) -> np.ndarray:
        """Crude solar elevation factor in [0, 1] from local hour angle."""
        hours = (t / 3600.0 + np.asarray(lon) / 15.0) % 24.0
        return np.clip(np.sin((hours - 6.0) / 12.0 * math.pi), 0.0, 1.0)

    # -- static-field caching ---------------------------------------------------

    def static_fields(self, lon: np.ndarray, lat: np.ndarray) -> dict[str, np.ndarray]:
        """Precompute the time-independent fields for a coordinate grid.

        Instruments scanning a fixed sector re-observe the same lattice
        every frame and band; water, vegetation, and surface texture do
        not change with time, so callers can compute them once and pass
        them back to :meth:`reflectance`/:meth:`digitize` via ``statics``.
        Purely an optimization — values are identical either way.
        """
        lon = np.asarray(lon, dtype=float)
        lat = np.asarray(lat, dtype=float)
        return {
            "water": self.water_mask(lon, lat),
            "veg": self.vegetation(lon, lat),
            "texture": self._texture.fbm(lon * 4.0, lat * 4.0, octaves=3) * 0.08,
        }

    # -- band radiances ----------------------------------------------------------

    def reflectance(
        self,
        band: str,
        lon: np.ndarray,
        lat: np.ndarray,
        t: float | np.ndarray,
        statics: dict[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Top-of-atmosphere value for a band at time ``t`` (seconds).

        ``vis``/``nir`` return reflectance in [0, 1]; ``tir`` returns
        brightness temperature in Kelvin. ``statics`` may carry the output
        of :meth:`static_fields` for these coordinates. ``t`` may be an
        array of per-point times that broadcasts against ``lon``/``lat``.
        """
        lon = np.asarray(lon, dtype=float)
        lat = np.asarray(lat, dtype=float)
        if band not in SCENE_BANDS:
            raise StreamError(f"unknown scene band {band!r}; expected one of {SCENE_BANDS}")
        if statics is None:
            statics = self.static_fields(lon, lat)
        water = statics["water"]
        veg = statics["veg"]
        texture = statics["texture"]
        cloud = self.cloud_cover(lon, lat, t)

        if band == "tir":
            # Surface temperature: warm tropics, diurnal swing, cool clouds.
            base = 300.0 - np.abs(lat) * 0.6
            diurnal = (self.solar_elevation(lon, t) - 0.5) * 14.0
            temp = base + diurnal - cloud * 35.0 - veg * 4.0 + texture * 20.0
            temp = np.where(water, np.minimum(temp, 295.0 - np.abs(lat) * 0.4), temp)
            times = np.asarray(t)
            for hs in self.hotspots:
                active = (hs.t_start <= times) & (times <= hs.t_end)
                if np.any(active):
                    d2 = (lon - hs.lon) ** 2 + (lat - hs.lat) ** 2
                    bump = (hs.peak_kelvin - 300.0) * np.exp(-d2 / (hs.radius_deg**2))
                    temp = temp + np.where((cloud > 0.5) | ~active, 0.0, bump)
            return temp

        if band == "vis":
            ground = np.where(water, 0.05, 0.22 - veg * 0.12 + texture)
        else:  # nir
            ground = np.where(water, 0.02, 0.24 + veg * 0.30 + texture)
        cloud_refl = 0.85 if band == "vis" else 0.80
        toa = ground * (1.0 - cloud) + cloud_refl * cloud
        sun = self.solar_elevation(lon, t)
        return np.clip(toa * (0.15 + 0.85 * sun), 0.0, 1.0)

    def digitize(
        self,
        band: str,
        lon: np.ndarray,
        lat: np.ndarray,
        t: float | np.ndarray,
        bits: int = 10,
        statics: dict[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Sensor counts: reflectance/temperature quantized to ``bits`` bits.

        Adds deterministic per-pixel shot noise derived from position and
        time so repeated scans of a static scene still differ slightly,
        like a real detector. ``t`` broadcasts as in :meth:`reflectance`.
        """
        value = self.reflectance(band, lon, lat, t, statics=statics)
        if band == "tir":
            # Map 200..420 K onto the count range (inverted, as GVAR IR is).
            norm = np.clip((420.0 - value) / 220.0, 0.0, 1.0)
        else:
            norm = value
        # Off-earth pixels (NaN lon/lat, e.g. the space corners of a full
        # geostationary disk) digitize to zero counts.
        norm = np.where(np.isfinite(norm), norm, 0.0)
        full_scale = (1 << bits) - 1
        lon_i = np.nan_to_num(np.asarray(lon, dtype=float) * 1e4).astype(np.int64)
        lat_i = np.nan_to_num(np.asarray(lat, dtype=float) * 1e4 + 1e7).astype(np.int64)
        h = _mix64(
            np.uint64(self.seed)
            ^ _mix64(lon_i.astype(np.uint64))
            ^ _mix64(lat_i.astype(np.uint64))
            # Elementwise int(t) & 0xFFFFFFFF: truncate toward zero, keep 32 bits.
            ^ (np.asarray(t).astype(np.int64) & 0xFFFFFFFF).astype(np.uint64)
        )
        noise = ((h >> np.uint64(40)).astype(np.float64) / float(1 << 24) - 0.5) * 2.0
        counts = np.rint(norm * full_scale + noise)
        return np.clip(counts, 0, full_scale).astype(np.uint16)
