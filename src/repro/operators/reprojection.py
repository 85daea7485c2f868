"""Re-projection to a new coordinate system (Section 3.2, Fig. 2b).

"From a query processing point of view ... such types of spatial
transform operators may block for a considerable amount of time, as the
computation of the value of a point y in Y may require any number of
points from X. An implementation ... can be tailored by utilizing
metadata about the spatial extent of the current scan sector and the
spatial resolution associated with X and Y."

:class:`Reproject` implements exactly that tailoring:

* When the first chunk of a frame arrives, the scan-sector metadata
  (:class:`~repro.core.metadata.FrameInfo`) gives the full source extent,
  from which the output lattice is derived ("a regular lattice
  corresponding in size and aspect to the lattice of the original point
  set X is overlayed over the spatial extent of the new point lattice").
* For every output row, the operator precomputes which band of source
  rows it needs (inverse-projected coordinates plus the interpolation
  kernel footprint). Output rows are emitted *as soon as* their band is
  complete, and source rows no longer needed by any pending output row
  are evicted — so the buffer high-water mark is the worst-case row band,
  not the whole frame, for row-aligned projections (experiment E4).
* At frame end, remaining output rows are emitted using boundary
  interpolation over whatever source rows exist, the paper's remedy for
  the operator that "could potentially block forever".
* A stream with **no** frame metadata and no user-supplied output lattice
  raises :class:`~repro.errors.BlockingHazardError` — the very hazard the
  paper warns about.

Point streams re-project point-by-point with no buffering at all.
"""

from __future__ import annotations

import math
from dataclasses import replace as dc_replace
from typing import Iterable

import numpy as np

from ..core.chunk import Chunk, GridChunk, PointChunk, fast_grid_chunk
from ..core.columnar import FRAME_MEMO_MAX, ROW_MEMO_MAX, Memo, RollingCanvas
from ..core.lattice import GridLattice
from ..core.metadata import FrameInfo
from ..core.stream import StreamMetadata
from ..core.valueset import FLOAT32
from ..errors import BlockingHazardError, OperatorError, RegionError
from ..geo.crs import CRS, transform_points
from ..raster.interpolate import KERNEL_FOOTPRINT, sample
from .base import Operator

__all__ = ["Reproject"]


class _FrameReprojection:
    """Per-frame navigation state: where each output row reads from."""

    def __init__(
        self,
        src_lattice: GridLattice,
        dst_lattice: GridLattice,
        footprint: int,
    ) -> None:
        self.src_lattice = src_lattice
        self.dst_lattice = dst_lattice
        ox, oy = dst_lattice.meshgrid()
        sx, sy = transform_points(dst_lattice.crs, src_lattice.crs, ox, oy)
        self.rows = src_lattice.fractional_row(sy)
        self.cols = src_lattice.fractional_col(sx)
        h_out = dst_lattice.height
        self.row_min = np.full(h_out, 0, dtype=np.int64)
        self.row_max = np.full(h_out, -1, dtype=np.int64)
        for j in range(h_out):
            finite = self.rows[j][np.isfinite(self.rows[j])]
            if finite.size == 0:
                continue  # row entirely outside the source: emit as fill
            self.row_min[j] = max(0, int(math.floor(finite.min())) - footprint)
            self.row_max[j] = min(
                src_lattice.height - 1, int(math.ceil(finite.max())) + footprint
            )
        # floor_from[j] == min(row_min[j:]) with the source height as the
        # empty-suffix sentinel, so needed_floor is an O(1) lookup instead
        # of a fresh suffix scan after every emitted row.
        self.floor_from = np.empty(h_out + 1, dtype=np.int64)
        self.floor_from[h_out] = src_lattice.height
        if h_out:
            self.floor_from[:h_out] = np.minimum.accumulate(self.row_min[::-1])[::-1]
        self.next_out = 0
        # Output row index -> that row's lattice.
        self.dst_rows: Memo[int, GridLattice] = Memo(dst_lattice.row_lattice, ROW_MEMO_MAX)

    def needed_floor(self) -> int:
        """Lowest source row any not-yet-emitted output row still needs."""
        return int(self.floor_from[self.next_out])


class Reproject(Operator):
    """Resample a stream onto a lattice in a different coordinate system."""

    name = "reproject"

    def __init__(
        self,
        dst_crs: CRS,
        dst_lattice: GridLattice | None = None,
        resolution: tuple[float, float] | None = None,
        method: str = "bilinear",
        fill: float = np.nan,
    ) -> None:
        super().__init__()
        if method not in KERNEL_FOOTPRINT:
            raise OperatorError(
                f"unknown interpolation method {method!r}; expected one of "
                f"{sorted(KERNEL_FOOTPRINT)}"
            )
        if dst_lattice is not None and dst_lattice.crs != dst_crs:
            raise OperatorError("dst_lattice must live in dst_crs")
        self.dst_crs = dst_crs
        self.dst_lattice = dst_lattice
        self.resolution = resolution
        self.method = method
        self.fill = fill
        self._footprint = KERNEL_FOOTPRINT[method]
        self._meta: tuple[str, float, int | None] = ("", 0.0, None)
        # Navigation (inverse-projected coordinates, row bands) is a pure
        # function of the source frame lattice and the operator config, so
        # it is memoized across frames and resets — the per-frame part is
        # just next_out, reset in _begin_frame. Source rows live in one
        # contiguous rolling canvas; _row_sizes keeps their buffer accounting.
        self._navigation: Memo[GridLattice, _FrameReprojection] = Memo(
            lambda src: _FrameReprojection(
                src, self._derive_dst_lattice(src), self._footprint
            ),
            FRAME_MEMO_MAX,
        )
        self._canvas: RollingCanvas | None = None
        self._reset_state()

    def _reset_state(self) -> None:
        self._nav: _FrameReprojection | None = None
        self._frame_id: int | None = None
        self._row_sizes: dict[int, tuple[int, int]] = {}

    # -- output lattice derivation --------------------------------------------

    def _derive_dst_lattice(self, src_lattice: GridLattice) -> GridLattice:
        if self.dst_lattice is not None:
            return self.dst_lattice
        try:
            dst_bbox = src_lattice.bbox.transformed(self.dst_crs)
        except RegionError as exc:
            raise OperatorError(
                f"source frame extent has no image in {self.dst_crs.name}: {exc}"
            ) from exc
        if self.resolution is not None:
            dx, dy = self.resolution
        else:
            dx = dst_bbox.width / src_lattice.width
            dy = dst_bbox.height / src_lattice.height
        return GridLattice.from_bbox(dst_bbox, dx, dy, self.dst_crs)

    # -- frame lifecycle ---------------------------------------------------------

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
        nav = self._navigation[src_lattice]
        nav.next_out = 0
        self._nav = nav
        shape = (src_lattice.height, src_lattice.width)
        if self._canvas is None or (self._canvas.height, self._canvas.width) != shape:
            self._canvas = RollingCanvas(*shape)
        else:
            self._canvas.reset()

    def _materialize_rows(
        self,
        j0: int,
        j1: int,
        metas: "list[tuple[str, float, int | None]] | None",
    ) -> Iterable[GridChunk]:
        """Build output rows ``j0..j1-1``, sampling non-fill runs in batches.

        ``metas`` gives each row's (band, t, sector) — None means every
        row carries ``self._meta``. Sampling a run of rows from one canvas
        window covering the union of their source bands is bit-identical
        to per-row windows: window bounds are integers, so fractional
        coordinates are unchanged, and a row's samples only leave its own
        band where that band was clamped at a frame edge — where the
        union window is clamped to the very same edge, making the index
        clips and the outside-fill mask resolve identically. Evicted rows
        are always strictly below every pending row's band, and rows the
        run never delivered are NaN in the canvas, as in the reference stack.
        """
        nav = self._nav
        canvas = self._canvas
        assert nav is not None and canvas is not None
        dst = nav.dst_lattice
        frame_id = self._frame_id if self._frame_id is not None else 0
        frame = FrameInfo(frame_id, dst)
        h_last = dst.height - 1
        w_out = dst.width
        row_min, row_max = nav.row_min, nav.row_max
        dst_rows = nav.dst_rows
        j = j0
        while j < j1:
            band, t, sector = self._meta if metas is None else metas[j - j0]
            if row_max[j] < row_min[j]:
                # Output row entirely outside the source frame: pure fill.
                out = np.full((1, w_out), self.fill, dtype=np.float64)
                yield fast_grid_chunk(
                    out.astype(np.float32),
                    dst_rows[j],
                    band,
                    t,
                    sector=sector,
                    frame=frame,
                    row0=j,
                    col0=0,
                    last_in_frame=(j == h_last),
                )
                j += 1
                continue
            jr = j + 1
            while jr < j1 and row_max[jr] >= row_min[jr]:
                jr += 1
            r_lo = int(row_min[j:jr].min())
            r_hi = int(row_max[j:jr].max())
            stack = canvas.rows(r_lo, r_hi + 1)
            sampled = sample(
                self.method,
                stack,
                nav.rows[j:jr] - r_lo,
                nav.cols[j:jr],
                fill=self.fill,
            ).astype(np.float32)
            for offset in range(jr - j):
                jj = j + offset
                band, t, sector = self._meta if metas is None else metas[jj - j0]
                yield fast_grid_chunk(
                    sampled[offset : offset + 1],
                    dst_rows[jj],
                    band,
                    t,
                    sector=sector,
                    frame=frame,
                    row0=jj,
                    col0=0,
                    last_in_frame=(jj == h_last),
                )
            j = jr

    def _evict_below_floor(self) -> None:
        floor = self._nav.needed_floor() if self._nav is not None else 0
        for r in [r for r in self._row_sizes if r < floor]:
            points, nbytes = self._row_sizes.pop(r)
            self.stats.buffer_remove(points, nbytes)

    def _end_frame(self) -> None:
        for r in list(self._row_sizes):
            points, nbytes = self._row_sizes.pop(r)
            self.stats.buffer_remove(points, nbytes)
        self._nav = None
        self._frame_id = None

    def _emit_ready(self, force: bool) -> Iterable[GridChunk]:
        nav = self._nav
        assert nav is not None
        # Rows are delivered in order by our instruments, so the highest
        # buffered row is the watermark. Out-of-order delivery would need a
        # gap set; the ordered-stream model of the paper makes this sufficient.
        watermark = max(self._row_sizes, default=-1)
        h_out = nav.dst_lattice.height
        row_max = nav.row_max
        while nav.next_out < h_out:
            j0 = nav.next_out
            if not force and row_max[j0] > watermark:
                break
            j1 = j0 + 1
            while j1 < h_out and (force or row_max[j1] <= watermark):
                j1 += 1
            yield from self._materialize_rows(j0, j1, None)
            nav.next_out = j1
            # Source rows only leave the buffer during emission, so one
            # eviction sweep after the batch removes exactly the rows the
            # reference's per-row sweeps would, with the same counter effect.
            self._evict_below_floor()
        if force:
            self._end_frame()

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
        canvas = self._canvas
        assert canvas is not None
        values = chunk.values
        width = chunk.lattice.width
        full_width = chunk.col0 == 0 and width == canvas.width
        for local_row in range(chunk.lattice.height):
            abs_row = chunk.row0 + local_row
            old = self._row_sizes.pop(abs_row, None)
            if old is not None:
                self.stats.buffer_remove(old[0], old[1])
            row_values = values[local_row]
            if 0 <= abs_row < canvas.height:
                # Re-clear before pasting so a replacement row leaves no
                # residue outside its own column window (partial rows). A
                # full-width paste overwrites the row anyway — skip it.
                if not full_width:
                    canvas.clear_row(abs_row)
                canvas.paste_row(abs_row, chunk.col0, row_values)
            size = (width, int(row_values.nbytes))
            self._row_sizes[abs_row] = size
            self.stats.buffer_add(width, size[1])
        yield from self._emit_ready(force=chunk.last_in_frame)

    def process_many(self, chunks: list[Chunk]) -> list[Chunk]:
        """Ingest a frame-run of chunks first, then sample all output rows.

        Per-chunk emission samples one output row at a time as its source
        band completes. Here, for a run of same-frame grid chunks with
        strictly ascending rows, every row is pasted into the canvas and
        the per-chunk accounting sequence is replayed — note_in,
        buffer adds, readiness checks and eviction sweeps per chunk, which
        also records which chunk's (band, t, sector) each output row is
        tagged with — before one deferred sampling pass materializes all
        pending rows. Deferral cannot change bits: ascending rows never
        overwrite pasted canvas rows, and each output row samples only
        within its own completed source band. Anything irregular
        (replacement rows, frame changes, point streams) falls back to
        the per-chunk kernel.
        """
        stats = self.stats
        outs: list[Chunk] = []
        i, n = 0, len(chunks)
        while i < n:
            chunk = chunks[i]
            first_grid = isinstance(chunk, GridChunk) and chunk.values.ndim == 2
            frame_id = (
                chunk.frame.frame_id
                if first_grid and chunk.frame is not None  # type: ignore[union-attr]
                else None
            )
            runnable = (
                first_grid
                and (self._nav is None or frame_id == self._frame_id)
            )
            j = i
            if runnable:
                wm = max(self._row_sizes, default=-1)
                while j < n:
                    c = chunks[j]
                    if not isinstance(c, GridChunk) or c.values.ndim != 2:
                        break
                    fid = c.frame.frame_id if c.frame is not None else None
                    if fid != frame_id or c.row0 <= wm:
                        break
                    wm = c.row0 + c.lattice.height - 1
                    j += 1
                    if c.last_in_frame:
                        break
            if j == i:
                stats.note_in(chunk)
                for out in self._process(chunk):
                    stats.note_out(out)
                    outs.append(out)
                i += 1
                continue
            run = chunks[i:j]
            i = j
            # -- ingest + replay the per-chunk accounting ------------------
            pending: list[tuple[int, int, tuple[str, float, int | None]]] = []
            for c in run:
                stats.note_in(c)
                if self._nav is None:
                    self._begin_frame(c)
                self._meta = (c.band, c.t, c.sector)
                nav = self._nav
                canvas = self._canvas
                assert nav is not None and canvas is not None
                values = c.values
                width = c.lattice.width
                full_width = c.col0 == 0 and width == canvas.width
                for local_row in range(c.lattice.height):
                    abs_row = c.row0 + local_row
                    row_values = values[local_row]
                    if 0 <= abs_row < canvas.height:
                        if not full_width:
                            canvas.clear_row(abs_row)
                        canvas.paste_row(abs_row, c.col0, row_values)
                    nbytes = int(row_values.nbytes)
                    self._row_sizes[abs_row] = (width, nbytes)
                    stats.buffer_add(width, nbytes)
                # Rows in a run are strictly ascending (checked by the run
                # scan), so the highest buffered row is this chunk's last.
                watermark = c.row0 + c.lattice.height - 1
                force = c.last_in_frame
                h_out = nav.dst_lattice.height
                row_max = nav.row_max
                j0 = nav.next_out
                j1 = j0
                while j1 < h_out and (force or row_max[j1] <= watermark):
                    j1 += 1
                if j1 > j0:
                    pending.append((j0, j1, self._meta))
                    nav.next_out = j1
                    self._evict_below_floor()
            # -- one deferred sampling pass over everything that emitted --
            if pending:
                metas: list[tuple[str, float, int | None]] = []
                for j0, j1, meta in pending:
                    metas.extend([meta] * (j1 - j0))
                for out in self._materialize_rows(
                    pending[0][0], pending[-1][1], metas
                ):
                    stats.note_out(out)
                    outs.append(out)
            if run[-1].last_in_frame:
                self._end_frame()
        return outs

    def _flush(self) -> Iterable[Chunk]:
        if self._nav is not None:
            yield from self._emit_ready(force=True)

    def output_metadata(self, metadata: StreamMetadata) -> StreamMetadata:
        return dc_replace(
            metadata,
            crs=self.dst_crs,
            value_set=FLOAT32 if not metadata.value_set.is_vector else metadata.value_set,
        )

    def __repr__(self) -> str:
        return f"Reproject(to={self.dst_crs.name!r}, method={self.method!r})"
