"""Spatial transforms (Def. 9, Fig. 2a): zoom, resolution change, warp.

Costs mirror the paper's analysis:

* :class:`Magnify` — "an operator that increases the spatial resolution
  would take an incoming point x and produce a rectangular lattice of
  k x k points ... no neighboring points for x are required": zero
  buffering, chunk-at-a-time.
* :class:`Coarsen` — decreasing resolution by 1/k needs "a rectangular
  lattice of k x k neighboring points surrounding x", so a row-organized
  stream buffers a k-row band before each output row can be emitted
  (experiment E3 reads the high-water mark).
* :class:`Rotate` / :class:`AffineWarp` — general affine transforms whose
  output points may depend on arbitrary input points; they buffer a whole
  frame, bounded by the scan-sector metadata on the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import Callable, Iterable

import numpy as np

from ..core.chunk import Chunk, GridChunk, PointChunk, fast_grid_chunk
from ..core.columnar import FRAME_MEMO_MAX, ROW_MEMO_MAX, BandAccumulator, Memo, RollingCanvas
from ..core.lattice import GridLattice
from ..core.metadata import FrameInfo
from ..core.stream import StreamMetadata
from ..core.valueset import FLOAT32
from ..errors import BlockingHazardError, OperatorError
from ..geo.region import BoundingBox
from ..raster.interpolate import block_reduce, sample
from .base import Operator

__all__ = ["Magnify", "Coarsen", "AffineTransform", "AffineWarp", "Rotate"]


class Magnify(Operator):
    """Increase spatial resolution by integer factor k (pixel replication).

    Each input point becomes a k x k block of identical values, exactly as
    the paper describes; no neighbours and no buffering are needed.
    """

    name = "magnify"

    def __init__(self, k: int) -> None:
        super().__init__()
        if k < 1:
            raise OperatorError(f"magnification factor must be >= 1, got {k}")
        self.k = k
        # lattice -> magnified lattice (a pure function, so it survives resets).
        self._magnified: Memo[GridLattice, GridLattice] = Memo(
            lambda lattice: lattice.magnified(k), ROW_MEMO_MAX
        )
        # Identity-keyed FrameInfo memo: instruments reuse one FrameInfo
        # object for every row of a frame, so the magnified FrameInfo only
        # needs building once per frame.
        self._fi_in: FrameInfo | None = None
        self._fi_out: FrameInfo | None = None

    def _magnified_frame(self, frame: FrameInfo) -> FrameInfo:
        if frame is not self._fi_in:
            self._fi_in = frame
            self._fi_out = FrameInfo(frame.frame_id, self._magnified[frame.lattice])
        assert self._fi_out is not None
        return self._fi_out

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
            frame = self._magnified_frame(frame)
        yield fast_grid_chunk(
            values,
            self._magnified[chunk.lattice],
            chunk.band,
            chunk.t,
            sector=chunk.sector,
            frame=frame,
            row0=chunk.row0 * k,
            col0=chunk.col0 * k,
            last_in_frame=chunk.last_in_frame,
        )

    def process_many(self, chunks: list[Chunk]) -> list[Chunk]:
        """Replicate runs of same-shape chunks with two ``np.repeat`` calls.

        ``np.repeat(axis=0)`` on vertically concatenated chunks replicates
        each source row in place, so slicing the result back into
        per-chunk blocks yields exactly the per-chunk kernel's arrays.
        """
        k = self.k
        if k == 1:
            return super().process_many(chunks)
        stats = self.stats
        outs: list[Chunk] = []
        i, n = 0, len(chunks)
        while i < n:
            chunk = chunks[i]
            if not isinstance(chunk, GridChunk) or chunk.values.ndim != 2:
                stats.note_in(chunk)
                for out in self._process(chunk):
                    stats.note_out(out)
                    outs.append(out)
                i += 1
                continue
            shape = chunk.values.shape
            dtype = chunk.values.dtype
            j = i + 1
            while j < n:
                nxt = chunks[j]
                if (
                    not isinstance(nxt, GridChunk)
                    or nxt.values.ndim != 2
                    or nxt.values.shape != shape
                    or nxt.values.dtype != dtype
                ):
                    break
                j += 1
            run = chunks[i:j]
            i = j
            h, w = shape
            block = (
                run[0].values
                if len(run) == 1
                else np.concatenate([c.values for c in run])
            )
            big = np.repeat(np.repeat(block, k, axis=0), k, axis=1)
            hk = h * k
            for idx, c in enumerate(run):
                frame = c.frame
                if frame is not None:
                    frame = self._magnified_frame(frame)
                outs.append(
                    fast_grid_chunk(
                        big[idx * hk : (idx + 1) * hk],
                        self._magnified[c.lattice],
                        c.band,
                        c.t,
                        sector=c.sector,
                        frame=frame,
                        row0=c.row0 * k,
                        col0=c.col0 * k,
                        last_in_frame=c.last_in_frame,
                    )
                )
            stats.chunks_in += len(run)
            stats.points_in += len(run) * h * w
            stats.chunks_out += len(run)
            stats.points_out += len(run) * hk * w * k
        return outs

    def __repr__(self) -> str:
        return f"Magnify(k={self.k})"


class Coarsen(Operator):
    """Decrease spatial resolution by 1/k: reduce k x k blocks (Fig. 2a).

    Buffers incoming rows of the current frame until a complete k-row band
    is available, reduces it, and emits one output row — so the buffer
    high-water mark is ~k input rows for a row-by-row stream, and zero
    extra for whole-frame chunks (fast path). Trailing rows/columns not
    filling a block are dropped, matching ``GridLattice.coarsened``.
    """

    name = "coarsen"

    def __init__(self, k: int, reducer: Callable[..., np.ndarray] = np.mean) -> None:
        super().__init__()
        if k < 1:
            raise OperatorError(f"coarsening factor must be >= 1, got {k}")
        self.k = k
        self.reducer = reducer
        # Band rows are pasted into one contiguous accumulator instead of
        # materialized as per-row chunks. The raw row views are kept
        # alongside so a geometry mismatch (fault-corrupted widths/dtypes)
        # falls back to np.vstack and fails exactly as the reference does.
        self._acc: BandAccumulator | None = None
        # Pure-function lattice memos (survive resets).
        self._coarsened: Memo[GridLattice, GridLattice] = Memo(
            lambda lattice: lattice.coarsened(k), ROW_MEMO_MAX
        )
        # Band-start row lattice -> output band lattice (recurs once per
        # band per frame).
        self._band_out: Memo[GridLattice, GridLattice] = Memo(
            lambda row: row.window(0, 0, k, row.width).coarsened(k), ROW_MEMO_MAX
        )
        # Identity-keyed FrameInfo memo (one FrameInfo object per frame).
        self._fi_in: FrameInfo | None = None
        self._fi_out: FrameInfo | None = None
        self._reset_state()

    def _reset_state(self) -> None:
        self._frame_id: int | None = None
        self._acc_ok = False
        self._rows: list[np.ndarray] = []
        self._sizes: list[tuple[int, int]] = []
        self._first: tuple[GridLattice, int, int, str, int | None, FrameInfo | None] | None = None
        self._last_t = 0.0

    def _coarsened_frame(self, frame: FrameInfo) -> FrameInfo:
        if frame is not self._fi_in:
            self._fi_in = frame
            self._fi_out = FrameInfo(frame.frame_id, self._coarsened[frame.lattice])
        assert self._fi_out is not None
        return self._fi_out

    def _drop_band(self) -> None:
        for points, nbytes in self._sizes:
            self.stats.buffer_remove(points, nbytes)
        self._rows = []
        self._sizes = []
        self._first = None
        self._acc_ok = False

    def _emit_band(self, last: bool) -> GridChunk | None:
        """Reduce the buffered k-row band into one output row chunk.

        Returns None when the band is narrower than one block: every
        output row would be zero-width, so the whole frame coarsens to
        nothing (trailing columns not filling a block are dropped).
        """
        k = self.k
        assert self._first is not None
        first_lattice, first_row0, first_col0, band, sector, frame = self._first
        if self._acc_ok and self._acc is not None:
            stack = self._acc.stack()
        else:
            stack = np.vstack(self._rows)
        width = stack.shape[1]
        if width < k:
            self._drop_band()
            return None
        reduced = block_reduce(stack.astype(np.float64), k, self.reducer)
        if width == first_lattice.width:
            out_lattice = self._band_out[first_lattice]
        else:
            out_lattice = first_lattice.window(0, 0, k, width).coarsened(k)
        out_frame = None
        if frame is not None:
            out_frame = self._coarsened_frame(frame)
        chunk = fast_grid_chunk(
            reduced.astype(np.float32),
            out_lattice,
            band,
            self._last_t,
            sector=sector,
            frame=out_frame,
            row0=first_row0 // k,
            col0=first_col0 // k,
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
        if self._rows and frame_id != self._frame_id:
            # Frame changed with an incomplete band: the trailing rows do
            # not fill a block and are dropped.
            self._drop_band()
        self._frame_id = frame_id

        # Fast path: a whole-frame chunk reduces directly, no buffering.
        height = chunk.lattice.height
        width = chunk.lattice.width
        if (
            not self._rows
            and chunk.last_in_frame
            and chunk.row0 == 0
            and height >= k
            and width >= k
        ):
            reduced = block_reduce(chunk.values.astype(np.float64), k, self.reducer)
            frame = chunk.frame
            out_frame = FrameInfo(frame.frame_id, self._coarsened[frame.lattice]) if frame else None
            yield fast_grid_chunk(
                reduced.astype(np.float32),
                self._coarsened[chunk.lattice],
                chunk.band,
                chunk.t,
                sector=chunk.sector,
                frame=out_frame,
                row0=0,
                col0=chunk.col0 // k,
                last_in_frame=True,
            )
            return

        # Row-accumulation path: multi-row chunks are split into rows so
        # bands always align to k-row boundaries.
        values = chunk.values
        for local_row in range(height):
            row_values = values[local_row]
            if not self._rows:
                self._first = (
                    chunk.lattice
                    if height == 1
                    else chunk.lattice.window(local_row, 0, 1, width),
                    chunk.row0 + local_row,
                    chunk.col0,
                    chunk.band,
                    chunk.sector,
                    chunk.frame,
                )
                if self._acc is None or not self._acc.matches(
                    values.dtype, row_values.shape
                ):
                    self._acc = BandAccumulator(values.dtype, k, row_values.shape)
                self._acc_ok = True
            is_input_last = chunk.last_in_frame and local_row == height - 1
            if self._acc_ok and self._acc is not None and self._acc.matches(
                values.dtype, row_values.shape
            ):
                self._acc.set_row(len(self._rows), row_values)
            else:
                self._acc_ok = False
            self._rows.append(row_values.reshape((1,) + row_values.shape))
            self._sizes.append((width, int(row_values.nbytes)))
            self._last_t = chunk.t
            self.stats.buffer_add(width, int(row_values.nbytes))
            if len(self._rows) == k:
                out = self._emit_band(last=is_input_last)
                if out is not None:
                    yield out
            elif is_input_last:
                self._drop_band()  # incomplete trailing band

    def process_many(self, chunks: list[Chunk]) -> list[Chunk]:
        """Reduce all complete bands of a single-row run in one call.

        A run of same-frame, same-width single-row chunks covers ``m``
        complete k-row bands; one concatenate + one ``block_reduce`` over
        the whole run produces the same bits as per-band reduction (the
        per-block reduction strides are unchanged), so only chunk
        splitting remains per band. Restricted to ``np.mean`` — a custom
        reducer could in principle depend on the array's outer shape.
        Remainder rows and anything irregular take the per-chunk kernel.
        """
        k = self.k
        if k == 1 or self.reducer is not np.mean:
            return super().process_many(chunks)
        stats = self.stats
        outs: list[Chunk] = []
        i, n = 0, len(chunks)
        while i < n:
            chunk = chunks[i]
            eligible = (
                not self._rows
                and isinstance(chunk, GridChunk)
                and chunk.values.ndim == 2
                and chunk.lattice.height == 1
                and chunk.lattice.width >= k
                and not chunk.last_in_frame
            )
            if eligible:
                frame_id = chunk.frame.frame_id if chunk.frame is not None else None
                width = chunk.lattice.width
                dtype = chunk.values.dtype
                j = i + 1
                while j < n:
                    nxt = chunks[j]
                    if (
                        not isinstance(nxt, GridChunk)
                        or nxt.values.ndim != 2
                        or nxt.lattice.height != 1
                        or nxt.lattice.width != width
                        or nxt.values.dtype != dtype
                        or (nxt.frame.frame_id if nxt.frame is not None else None)
                        != frame_id
                    ):
                        break
                    j += 1
                    if nxt.last_in_frame:
                        break
                m = (j - i) // k
            else:
                m = 0
            if m == 0:
                stats.note_in(chunk)
                for out in self._process(chunk):
                    stats.note_out(out)
                    outs.append(out)
                i += 1
                continue
            run = chunks[i : i + m * k]
            i += m * k
            block = np.concatenate([c.values for c in run])
            reduced = block_reduce(block.astype(np.float64), k, self.reducer).astype(
                np.float32
            )
            # Counter effect of the per-row sequence: each band adds k rows
            # then removes them, so buffered levels return to base and the
            # high-water mark rises by at most one band.
            row_nbytes = int(run[0].values.nbytes)
            stats.max_buffered_points = max(
                stats.max_buffered_points, stats.buffered_points + k * width
            )
            stats.max_buffered_bytes = max(
                stats.max_buffered_bytes, stats.buffered_bytes + k * row_nbytes
            )
            stats.chunks_in += m * k
            stats.points_in += m * k * width
            for b in range(m):
                first = run[b * k]
                frame = first.frame
                outs.append(
                    fast_grid_chunk(
                        reduced[b : b + 1],
                        self._band_out[first.lattice],
                        first.band,
                        run[b * k + k - 1].t,
                        sector=first.sector,
                        frame=self._coarsened_frame(frame) if frame is not None else None,
                        row0=first.row0 // k,
                        col0=first.col0 // k,
                        last_in_frame=run[b * k + k - 1].last_in_frame,
                    )
                )
            self._frame_id = frame_id
            stats.chunks_out += m
            stats.points_out += m * (width // k)
        return outs

    def _flush(self) -> Iterable[Chunk]:
        self._drop_band()
        return ()

    def output_metadata(self, metadata: StreamMetadata) -> StreamMetadata:
        shape = metadata.max_frame_shape
        if shape is not None:
            shape = (shape[0] // self.k, shape[1] // self.k)
        return dc_replace(metadata, value_set=FLOAT32, max_frame_shape=shape)

    def __repr__(self) -> str:
        return f"Coarsen(k={self.k})"


@dataclass(frozen=True)
class AffineTransform:
    """2-D affine map (x, y) -> (a x + b y + c, d x + e y + f)."""

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def apply(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.a * x + self.b * y + self.c, self.d * x + self.e * y + self.f

    def inverse(self) -> "AffineTransform":
        det = self.a * self.e - self.b * self.d
        if abs(det) < 1e-15:
            raise OperatorError("affine transform is singular and cannot be inverted")
        ia, ib = self.e / det, -self.b / det
        id_, ie = -self.d / det, self.a / det
        return AffineTransform(
            ia, ib, -(ia * self.c + ib * self.f),
            id_, ie, -(id_ * self.c + ie * self.f),
        )

    @staticmethod
    def rotation(angle_deg: float, cx: float = 0.0, cy: float = 0.0) -> "AffineTransform":
        """Rotation by ``angle_deg`` counterclockwise about (cx, cy)."""
        th = math.radians(angle_deg)
        cos_t, sin_t = math.cos(th), math.sin(th)
        return AffineTransform(
            cos_t, -sin_t, cx - cos_t * cx + sin_t * cy,
            sin_t, cos_t, cy - sin_t * cx - cos_t * cy,
        )

    @staticmethod
    def identity() -> "AffineTransform":
        return AffineTransform(1.0, 0.0, 0.0, 0.0, 1.0, 0.0)


class _FrameWarp(Operator):
    """Shared machinery: buffer a frame, then warp it as one image."""

    def __init__(self, method: str = "bilinear", fill: float = np.nan) -> None:
        super().__init__()
        self.method = method
        self.fill = fill
        # Warp geometry (output lattice + fractional source indices) is a
        # pure function of the frame lattice, memoized across frames and
        # resets; the paste canvas is reused between frames.
        self._warp_geometry: Memo[
            GridLattice, tuple[GridLattice, np.ndarray, np.ndarray]
        ] = Memo(self._compute_warp_geometry, FRAME_MEMO_MAX)
        self._canvas: RollingCanvas | None = None
        self._reset_state()

    def _reset_state(self) -> None:
        self._pending: list[GridChunk] = []
        self._frame_id: int | None = None

    def _frame_affine(self, lattice: GridLattice) -> AffineTransform:
        raise NotImplementedError

    def _compute_warp_geometry(
        self, frame_lattice: GridLattice
    ) -> tuple[GridLattice, np.ndarray, np.ndarray]:
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
        return (
            out_lattice,
            frame_lattice.fractional_row(sy),
            frame_lattice.fractional_col(sx),
        )

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
        height, width = frame_lattice.shape
        if self._canvas is None or (self._canvas.height, self._canvas.width) != (height, width):
            self._canvas = RollingCanvas(height, width)
        else:
            self._canvas.reset()
        canvas = self._canvas.grid()
        for c in self._pending:
            canvas[c.row0 : c.row0 + c.lattice.height, c.col0 : c.col0 + c.lattice.width] = (
                c.values
            )

        out_lattice, rows, cols = self._warp_geometry[frame_lattice]
        warped = sample(self.method, canvas, rows, cols, fill=self.fill)

        frame_id = self._pending[0].frame.frame_id if self._pending[0].frame else 0
        out = fast_grid_chunk(
            warped.astype(np.float32),
            out_lattice,
            first.band,
            self._pending[-1].t,
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

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        if isinstance(chunk, PointChunk):
            raise OperatorError("frame warps are defined on grid streams only")
        frame_id = chunk.frame.frame_id if chunk.frame is not None else None
        if self._pending and frame_id != self._frame_id:
            yield from self._emit()
        self._pending.append(chunk)
        self._frame_id = frame_id
        self.stats.buffer_add_chunk(chunk)
        if chunk.last_in_frame:
            yield from self._emit()

    def _flush(self) -> Iterable[Chunk]:
        yield from self._emit()

    def output_metadata(self, metadata: StreamMetadata) -> StreamMetadata:
        return dc_replace(metadata, value_set=FLOAT32)


class AffineWarp(_FrameWarp):
    """Apply a fixed affine transform to every frame's point lattice."""

    name = "affine-warp"

    def __init__(
        self,
        affine: AffineTransform,
        method: str = "bilinear",
        fill: float = np.nan,
    ) -> None:
        super().__init__(method=method, fill=fill)
        self.affine = affine

    def _frame_affine(self, lattice: GridLattice) -> AffineTransform:
        return self.affine

    def __repr__(self) -> str:
        return f"AffineWarp({self.affine})"


class Rotate(_FrameWarp):
    """Rotate each frame about its own center (a classic GIS transform)."""

    name = "rotate"

    def __init__(
        self,
        angle_deg: float,
        method: str = "bilinear",
        fill: float = np.nan,
    ) -> None:
        super().__init__(method=method, fill=fill)
        self.angle_deg = angle_deg

    def _frame_affine(self, lattice: GridLattice) -> AffineTransform:
        cx, cy = lattice.bbox.center
        # Normalize so exact multiples of 360 are exact identities rather
        # than near-identities that perturb the output lattice extent.
        return AffineTransform.rotation(self.angle_deg % 360.0, cx, cy)

    def __repr__(self) -> str:
        return f"Rotate({self.angle_deg:g} deg)"
