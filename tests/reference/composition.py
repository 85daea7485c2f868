"""Per-point reference for :mod:`repro.operators.composition`."""

from __future__ import annotations

from dataclasses import replace as dc_replace

import numpy as np

from repro.core.chunk import GridChunk
from repro.errors import CompositionError
from repro.operators.composition import StreamComposition


class StreamCompositionReference(StreamComposition):
    """Match key and alignment check recomputed for every chunk."""

    def _match_key(self, chunk: GridChunk) -> tuple:
        """Chunks compose when their key is identical: same timestamp (per
        policy) and the same lattice window."""
        tkey = chunk.timestamp_key(self.timestamp_policy)
        if self.timestamp_policy == "measured" and self.time_tolerance > 0:
            tkey = round(tkey / self.time_tolerance)
        lat = chunk.lattice
        return (
            tkey,
            chunk.row0,
            chunk.col0,
            lat.height,
            lat.width,
            round(lat.x0, 9),
            round(lat.y0, 9),
        )

    def _compose(self, left: GridChunk, right: GridChunk) -> GridChunk:
        if left.lattice.crs != right.lattice.crs:
            raise CompositionError(
                "composition requires both streams in the same coordinate "
                f"system, got {left.lattice.crs.name!r} and "
                f"{right.lattice.crs.name!r}"
            )
        if not left.lattice.aligned_with(right.lattice):
            raise CompositionError(
                "composition requires both streams over the same point lattice"
            )
        values = self.gamma(
            left.values.astype(np.float64), right.values.astype(np.float64)
        )
        if self.out_value_set is not None:
            values = self.out_value_set.coerce(values)
        else:
            values = values.astype(np.float32)
        band = self.band or f"({left.band}{self.gamma_symbol}{right.band})"
        return dc_replace(
            left,
            values=values,
            band=band,
            t=max(left.t, right.t),
            last_in_frame=left.last_in_frame and right.last_in_frame,
        )
