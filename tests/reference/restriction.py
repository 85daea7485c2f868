"""Per-point reference for :mod:`repro.operators.restriction`."""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Iterable

import numpy as np

from repro.core.chunk import Chunk, GridChunk, PointChunk
from repro.core.metadata import FrameInfo
from repro.operators.restriction import (
    SpatialRestriction,
    ValueRestriction,
    _mask_grid_values,
)


class SpatialRestrictionReference(SpatialRestriction):
    """Window, narrowed frame and region mask recomputed for every chunk."""

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        if isinstance(chunk, PointChunk):
            self._check_crs(chunk.crs)
            keep = self.region.mask(chunk.x, chunk.y)
            if np.any(keep):
                yield chunk.select(keep)
            return

        self._check_crs(chunk.lattice.crs)
        window = chunk.lattice.intersect_window(self.region.bounding_box)
        if window is None:
            return
        row0, col0, nrows, ncols = window
        cropped = chunk.subwindow(row0, col0, nrows, ncols)
        cropped = self._narrow_frame(cropped)
        if self._is_box:
            yield cropped
            return
        x, y = cropped.coords()
        keep = self.region.mask(x, y)
        if not np.any(keep):
            return
        yield cropped.with_values(_mask_grid_values(cropped.values, keep))

    def _narrow_frame(self, chunk: GridChunk) -> GridChunk:
        """Restrict the scan-sector metadata to the region as well.

        The restriction narrows not just the data but the *spatial extent
        currently scanned*: downstream frame-buffered operators (stretch,
        re-projection, warps) then size their buffers and output lattices
        to the restricted sector — which is precisely why pushing spatial
        restrictions inward yields "the most significant space and time
        gains" (Section 3.4).
        """
        frame = chunk.frame
        if frame is None:
            return chunk
        fw = frame.lattice.intersect_window(self.region.bounding_box)
        if fw is None:
            return chunk
        f_row0, f_col0, f_nrows, f_ncols = fw
        if (f_row0, f_col0, f_nrows, f_ncols) == (0, 0, frame.lattice.height, frame.lattice.width):
            return chunk
        narrowed = FrameInfo(frame.frame_id, frame.lattice.window(f_row0, f_col0, f_nrows, f_ncols))
        new_row0 = chunk.row0 - f_row0
        new_col0 = chunk.col0 - f_col0
        last = chunk.last_in_frame or (new_row0 + chunk.lattice.height == f_nrows)
        return dc_replace(
            chunk, frame=narrowed, row0=new_row0, col0=new_col0, last_in_frame=last
        )


class ValueRestrictionReference(ValueRestriction):
    """One ``with_values`` (re-validating) derivation per chunk."""

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        keep = self._keep(chunk.values)
        if isinstance(chunk, PointChunk):
            if keep.ndim == 2:
                keep = keep.all(axis=1)
            if np.any(keep):
                yield chunk.select(keep)
            return
        if keep.ndim == 3:
            keep = keep.all(axis=2)
        if not np.any(keep):
            return
        yield chunk.with_values(_mask_grid_values(chunk.values, keep))
