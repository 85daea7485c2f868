"""Per-point reference for :mod:`repro.operators.reprojection`."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.chunk import Chunk, GridChunk, PointChunk
from repro.core.metadata import FrameInfo
from repro.errors import BlockingHazardError, OperatorError
from repro.geo.crs import transform_points
from repro.operators.base import Operator
from repro.operators.reprojection import Reproject, _FrameReprojection
from repro.raster.interpolate import sample


class ReprojectReference(Reproject):
    """A dict of buffered row chunks; one stack and one sample per output row."""

    def _reset_state(self) -> None:
        self._nav: _FrameReprojection | None = None
        self._frame_id: int | None = None
        self._src_rows: dict[int, GridChunk] = {}

    def _begin_frame(self, chunk: GridChunk) -> None:
        if chunk.frame is not None:
            src_lattice = chunk.frame.lattice
            self._frame_id = chunk.frame.frame_id
        elif chunk.last_in_frame and chunk.row0 == 0:
            src_lattice = chunk.lattice
            self._frame_id = None
        else:
            raise BlockingHazardError(
                "re-projection needs scan-sector metadata (FrameInfo) or an "
                "explicit output lattice; without knowing the frame extent the "
                "operator could block forever (Section 3.2)"
            )
        self._nav = _FrameReprojection(
            src_lattice, self._derive_dst_lattice(src_lattice), self._footprint
        )

    def _store_rows(self, chunk: GridChunk) -> None:
        for local_row in range(chunk.lattice.height):
            row = chunk.subwindow(local_row, 0, 1, chunk.lattice.width)
            abs_row = row.row0
            if abs_row in self._src_rows:
                self.stats.buffer_remove_chunk(self._src_rows[abs_row])
            self._src_rows[abs_row] = row
            self.stats.buffer_add_chunk(row)

    def _highest_contiguous_row(self) -> int:
        """Highest source row r such that all rows 0..r have been seen or
        evicted (evicted rows were already consumed)."""
        # Rows are delivered in order by our instruments; the max stored
        # row is the watermark. Out-of-order delivery would need a gap set;
        # the ordered-stream model of the paper makes this sufficient.
        return max(self._src_rows, default=-1)

    def _emit_ready(self, force: bool) -> Iterable[GridChunk]:
        nav = self._nav
        assert nav is not None
        watermark = self._highest_contiguous_row()
        h_out = nav.dst_lattice.height
        while nav.next_out < h_out:
            j = nav.next_out
            if not force and nav.row_max[j] > watermark:
                break
            yield self._emit_row(j)
            nav.next_out += 1
            # Evict source rows nothing pending needs anymore.
            floor = nav.needed_floor()
            for r in [r for r in self._src_rows if r < floor]:
                self.stats.buffer_remove_chunk(self._src_rows.pop(r))
        if force:
            for r in list(self._src_rows):
                self.stats.buffer_remove_chunk(self._src_rows.pop(r))
            self._nav = None
            self._frame_id = None

    def _emit_row(self, j: int) -> GridChunk:
        nav = self._nav
        assert nav is not None
        band, t, sector = self._meta
        r_lo, r_hi = int(nav.row_min[j]), int(nav.row_max[j])
        if r_hi < r_lo:
            out = np.full((1, nav.dst_lattice.width), self.fill, dtype=np.float64)
        else:
            stack = np.full(
                (r_hi - r_lo + 1, nav.src_lattice.width), np.nan, dtype=np.float64
            )
            for r in range(r_lo, r_hi + 1):
                row = self._src_rows.get(r)
                if row is not None:
                    # Rows may be partial windows of the frame (e.g. after
                    # a spatial restriction): paste at the column offset.
                    c0 = row.col0
                    stack[r - r_lo, c0 : c0 + row.lattice.width] = row.values[0].astype(
                        np.float64
                    )
            out = sample(
                self.method,
                stack,
                nav.rows[j] - r_lo,
                nav.cols[j],
                fill=self.fill,
            ).reshape(1, -1)
        frame_id = self._frame_id if self._frame_id is not None else 0
        return GridChunk(
            values=out.astype(np.float32),
            lattice=nav.dst_lattice.row_lattice(j),
            band=band,
            t=t,
            sector=sector,
            frame=FrameInfo(frame_id, nav.dst_lattice),
            row0=j,
            col0=0,
            last_in_frame=(j == nav.dst_lattice.height - 1),
        )

    # -- operator hooks -----------------------------------------------------------

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        if isinstance(chunk, PointChunk):
            # Point streams re-project pointwise: no buffering at all.
            nx, ny = transform_points(chunk.crs, self.dst_crs, chunk.x, chunk.y)
            keep = np.isfinite(nx) & np.isfinite(ny)
            moved = PointChunk(
                x=nx[keep],
                y=ny[keep],
                values=np.asarray(chunk.values)[keep],
                band=chunk.band,
                t=chunk.t[keep],
                crs=self.dst_crs,
                sector=chunk.sector,
            )
            if moved.n_points:
                yield moved
            return

        if chunk.values.ndim != 2:
            raise OperatorError("re-projection of vector-valued streams is not supported")
        frame_id = chunk.frame.frame_id if chunk.frame is not None else None
        if self._nav is not None and frame_id != self._frame_id:
            yield from self._emit_ready(force=True)
        if self._nav is None:
            self._begin_frame(chunk)
        self._meta = (chunk.band, chunk.t, chunk.sector)
        self._store_rows(chunk)
        yield from self._emit_ready(force=chunk.last_in_frame)

    process_many = Operator.process_many
