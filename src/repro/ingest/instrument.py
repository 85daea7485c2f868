"""Instrument base class: shared geometry caching and helpers.

Instruments simulate the remote-sensing platforms of Fig. 1. Each exposes
one :class:`~repro.core.stream.GeoStream` per spectral band; opening a
stream twice regenerates identical data because the underlying scene is a
pure function of position and time.
"""

from __future__ import annotations

import numpy as np

from ..core.lattice import GridLattice
from .scene import SyntheticEarth

__all__ = ["Instrument"]


class Instrument:
    """Common machinery for simulated instruments."""

    def __init__(self, scene: SyntheticEarth) -> None:
        self.scene = scene
        self._lonlat_cache: dict[GridLattice, tuple[np.ndarray, np.ndarray]] = {}
        self._statics_cache: dict[GridLattice, dict[str, np.ndarray]] = {}

    def lonlat_grid(self, lattice: GridLattice) -> tuple[np.ndarray, np.ndarray]:
        """(lon, lat) degree arrays for every pixel center of ``lattice``.

        Every frame and band of a sector re-observes the same pixels, so the
        inverse projection is computed once and cached per lattice.
        """
        cached = self._lonlat_cache.get(lattice)
        if cached is None:
            x, y = lattice.meshgrid()
            lon, lat = lattice.crs.to_lonlat(x, y)
            cached = (np.asarray(lon), np.asarray(lat))
            self._lonlat_cache[lattice] = cached
        return cached

    def scene_statics(self, lattice: GridLattice) -> dict[str, np.ndarray]:
        """Time-independent scene fields for every pixel of ``lattice``.

        Re-observed every frame and band, so cached like the lon/lat grid.
        """
        cached = self._statics_cache.get(lattice)
        if cached is None:
            lon, lat = self.lonlat_grid(lattice)
            cached = self.scene.static_fields(lon, lat)
            self._statics_cache[lattice] = cached
        return cached
