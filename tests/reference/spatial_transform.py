"""Per-point reference for :mod:`repro.operators.spatial_transform`."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.chunk import Chunk, GridChunk, PointChunk
from repro.core.lattice import GridLattice
from repro.core.metadata import FrameInfo
from repro.errors import BlockingHazardError, OperatorError
from repro.geo.region import BoundingBox
from repro.operators.base import Operator
from repro.operators.spatial_transform import Coarsen, Magnify, _FrameWarp
from repro.raster.interpolate import block_reduce, sample


class MagnifyReference(Magnify):
    """One validated ``GridChunk`` and two lattice derivations per chunk."""

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        if isinstance(chunk, PointChunk):
            raise OperatorError("magnification is defined on grid streams only")
        k = self.k
        if k == 1:
            yield chunk
            return
        values = np.repeat(np.repeat(chunk.values, k, axis=0), k, axis=1)
        frame = chunk.frame
        if frame is not None:
            frame = FrameInfo(frame.frame_id, frame.lattice.magnified(k))
        yield GridChunk(
            values=values,
            lattice=chunk.lattice.magnified(k),
            band=chunk.band,
            t=chunk.t,
            sector=chunk.sector,
            frame=frame,
            row0=chunk.row0 * k,
            col0=chunk.col0 * k,
            last_in_frame=chunk.last_in_frame,
        )

    process_many = Operator.process_many


class CoarsenReference(Coarsen):
    """Buffers one row chunk per band row; ``np.vstack`` per band."""

    def _reset_state(self) -> None:
        self._band: list[GridChunk] = []
        self._band_rows = 0
        self._frame_id: int | None = None

    def _drop_band(self) -> None:
        for c in self._band:
            self.stats.buffer_remove_chunk(c)
        self._band = []
        self._band_rows = 0

    def _emit_band(self, last: bool) -> GridChunk | None:
        """Reduce the buffered k-row band into one output row chunk.

        Returns None when the band is narrower than one block: every
        output row would be zero-width, so the whole frame coarsens to
        nothing (trailing columns not filling a block are dropped).
        """
        k = self.k
        stack = np.vstack([c.values for c in self._band])
        first = self._band[0]
        width = stack.shape[1]
        if width < k:
            self._drop_band()
            return None
        reduced = block_reduce(stack.astype(np.float64), k, self.reducer)
        out_lattice = first.lattice.window(0, 0, k, width).coarsened(k)
        frame = first.frame
        out_frame = None
        out_row0 = first.row0 // k
        if frame is not None:
            out_frame = FrameInfo(frame.frame_id, frame.lattice.coarsened(k))
        chunk = GridChunk(
            values=reduced.astype(np.float32),
            lattice=out_lattice,
            band=first.band,
            t=self._band[-1].t,
            sector=first.sector,
            frame=out_frame,
            row0=out_row0,
            col0=first.col0 // k,
            last_in_frame=last,
        )
        self._drop_band()
        return chunk

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        if isinstance(chunk, PointChunk):
            raise OperatorError("coarsening is defined on grid streams only")
        k = self.k
        if k == 1:
            yield chunk
            return
        frame_id = chunk.frame.frame_id if chunk.frame is not None else None
        if self._band and frame_id != self._frame_id:
            # Frame changed with an incomplete band: the trailing rows do
            # not fill a block and are dropped.
            self._drop_band()
        self._frame_id = frame_id

        # Fast path: a whole-frame chunk reduces directly, no buffering.
        if (
            not self._band
            and chunk.last_in_frame
            and chunk.row0 == 0
            and chunk.lattice.height >= k
            and chunk.lattice.width >= k
        ):
            reduced = block_reduce(chunk.values.astype(np.float64), k, self.reducer)
            frame = chunk.frame
            out_frame = FrameInfo(frame.frame_id, frame.lattice.coarsened(k)) if frame else None
            yield GridChunk(
                values=reduced.astype(np.float32),
                lattice=chunk.lattice.coarsened(k),
                band=chunk.band,
                t=chunk.t,
                sector=chunk.sector,
                frame=out_frame,
                row0=0,
                col0=chunk.col0 // k,
                last_in_frame=True,
            )
            return

        # Row-accumulation path: split multi-row chunks into rows so bands
        # always align to k-row boundaries.
        for local_row in range(chunk.lattice.height):
            row = chunk.subwindow(local_row, 0, 1, chunk.lattice.width)
            is_input_last = chunk.last_in_frame and local_row == chunk.lattice.height - 1
            self._band.append(row)
            self.stats.buffer_add_chunk(row)
            self._band_rows += 1
            if self._band_rows == k:
                out = self._emit_band(last=is_input_last)
                if out is not None:
                    yield out
            elif is_input_last:
                self._drop_band()  # incomplete trailing band

    process_many = Operator.process_many


class FrameWarpReference(_FrameWarp):
    """Fresh canvas and warp geometry for every frame."""

    def _emit(self) -> Iterable[Chunk]:
        if not self._pending:
            return
        first = self._pending[0]
        if first.frame is not None:
            frame_lattice = first.frame.lattice
        elif len(self._pending) == 1 and first.last_in_frame:
            frame_lattice = first.lattice
        else:
            raise BlockingHazardError(
                "frame warp needs scan-sector metadata (FrameInfo) to know the "
                "frame extent; without it the operator could block forever "
                "(Section 3.2)"
            )
        canvas = np.full(frame_lattice.shape, np.nan, dtype=np.float64)
        for c in self._pending:
            canvas[c.row0 : c.row0 + c.lattice.height, c.col0 : c.col0 + c.lattice.width] = (
                c.values.astype(np.float64)
            )

        affine = self._frame_affine(frame_lattice)
        inverse = affine.inverse()
        # Output lattice: same resolution, covering the warped extent.
        corners = frame_lattice.bbox.corners()
        wx, wy = affine.apply(corners[:, 0], corners[:, 1])
        out_bbox = BoundingBox.from_points(wx, wy, frame_lattice.crs)
        out_lattice = GridLattice.from_bbox(
            out_bbox, frame_lattice.dx, frame_lattice.dy, frame_lattice.crs
        )
        ox, oy = out_lattice.meshgrid()
        sx, sy = inverse.apply(ox, oy)
        rows = frame_lattice.fractional_row(sy)
        cols = frame_lattice.fractional_col(sx)
        warped = sample(self.method, canvas, rows, cols, fill=self.fill)

        frame_id = self._pending[0].frame.frame_id if self._pending[0].frame else 0
        out = GridChunk(
            values=warped.astype(np.float32),
            lattice=out_lattice,
            band=first.band,
            t=self._pending[-1].t,
            sector=first.sector,
            frame=FrameInfo(frame_id, out_lattice),
            row0=0,
            col0=0,
            last_in_frame=True,
        )
        for c in self._pending:
            self.stats.buffer_remove_chunk(c)
        self._pending = []
        self._frame_id = None
        yield out
