"""Per-point reference for :mod:`repro.operators.aggregate`."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.chunk import Chunk, PointChunk
from repro.errors import OperatorError
from repro.operators.aggregate import RegionAggregate


class RegionAggregateReference(RegionAggregate):
    """Coordinates, CRS check and every region's mask recomputed per chunk."""

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        if chunk.channels != 1:
            raise OperatorError(f"region aggregation reduces one channel, the chunk has {chunk.channels}")
        if isinstance(chunk, PointChunk):
            x, y, values = chunk.x, chunk.y, np.asarray(chunk.values, dtype=float)
            crs = chunk.crs
            frame_id = chunk.sector
            t = float(chunk.t[-1]) if chunk.t.size else 0.0
            last = False
        else:
            x, y = chunk.flat_coords()
            values = chunk.values.astype(float).ravel()
            crs = chunk.lattice.crs
            frame_id = chunk.frame.frame_id if chunk.frame is not None else None
            t = chunk.t
            last = chunk.last_in_frame
        for region in self.regions.values():
            region.crs.require_same(crs, "region aggregation")
        if self._frame_id is not None and frame_id != self._frame_id and self._acc:
            yield from self._emit_frame()
        self._frame_id = frame_id
        self._frame_t = t
        self._sector = chunk.sector
        self._band = chunk.band
        self._crs = crs
        for name, region in self.regions.items():
            mask = region.mask(x, y)
            if np.any(mask):
                self._accumulate(name, values[mask])
        if last:
            yield from self._emit_frame()
