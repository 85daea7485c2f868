"""Spatio-temporal aggregates over raster streams.

The paper's outlook (Section 6) plans "the full integration of a
spatio-temporal aggregate operator for streaming image data", citing
Zhang, Gertz & Aksoy (ACM-GIS 2004, ref [27]). This module implements the
two aggregate shapes that work describes:

* :class:`TemporalAggregate` — per-pixel reductions over a window of the
  last N frames (sliding or tumbling): "max NDVI per pixel over the last
  k scans". State is N frames of pixels, so ``stats.max_buffered_points``
  is ~N x frame size (experiment X1).
* :class:`RegionAggregate` — per-region scalar reductions per frame
  ("mean reflectance over the watch region each scan"). Only O(#regions)
  running accumulators are held, never point data, so the operator is
  non-blocking in the paper's sense; results are emitted as a point
  stream (one point per region at its bounding-box center), keeping the
  algebra closed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace as dc_replace
from typing import Deque, Iterable, Mapping, Union

import numpy as np

from ..core.chunk import Chunk, GridChunk, PointChunk
from ..core.columnar import ROW_MEMO_MAX, Memo
from ..core.image import RasterImage, assemble_frames
from ..core.lattice import GridLattice
from ..core.metadata import FrameInfo
from ..core.stream import Organization, StreamMetadata
from ..core.valueset import FLOAT32
from ..errors import OperatorError
from ..geo.region import BoundingBox, Region
from .base import Operator

__all__ = ["TemporalAggregate", "RegionAggregate", "AGGREGATE_FUNCS"]

AGGREGATE_FUNCS = ("mean", "min", "max", "sum", "count")

# Which points of a chunk a region holds: (row slice, column slice) or a mask.
_Index = Union[tuple[slice, slice], np.ndarray]
_Selection = tuple[tuple[str, _Index], ...]


def _reduce_stack(stack: np.ndarray, func: str) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        if func == "mean":
            return np.nanmean(stack, axis=0)
        if func == "min":
            return np.nanmin(stack, axis=0)
        if func == "max":
            return np.nanmax(stack, axis=0)
        if func == "sum":
            return np.nansum(stack, axis=0)
        if func == "count":
            return np.isfinite(stack).sum(axis=0).astype(np.float64)
    raise OperatorError(f"unknown aggregate {func!r}; expected one of {AGGREGATE_FUNCS}")


class _FrameCollector:
    """Accumulate a frame's chunks, yielding the image when it completes."""

    def __init__(self, owner: Operator) -> None:
        self.owner = owner
        self.pending: list[GridChunk] = []
        self.frame_id: int | None = None

    def add(self, chunk: GridChunk) -> RasterImage | None:
        frame_id = chunk.frame.frame_id if chunk.frame is not None else None
        completed: RasterImage | None = None
        if self.pending and frame_id != self.frame_id:
            completed = self.finish()
        self.pending.append(chunk)
        self.frame_id = frame_id
        self.owner.stats.buffer_add_chunk(chunk)
        if chunk.last_in_frame:
            finished = self.finish()
            # `completed` only coexists with a new one-chunk frame ending
            # immediately; callers treat a frame boundary and a completed
            # frame in the same step by preferring the newest.
            return finished if completed is None else completed
        return completed

    def finish(self) -> RasterImage | None:
        if not self.pending:
            return None
        images = list(assemble_frames(self.pending))
        for c in self.pending:
            self.owner.stats.buffer_remove_chunk(c)
        self.pending = []
        self.frame_id = None
        # assemble_frames may split on malformed inputs; keep the last.
        return images[-1] if images else None


class TemporalAggregate(Operator):
    """Per-pixel aggregate over a window of the last N frames (ref [27])."""

    name = "temporal-aggregate"

    def __init__(self, window: int, func: str = "mean", mode: str = "sliding") -> None:
        super().__init__()
        if window < 1:
            raise OperatorError(f"window must be >= 1 frame, got {window}")
        if func not in AGGREGATE_FUNCS:
            raise OperatorError(f"unknown aggregate {func!r}; expected one of {AGGREGATE_FUNCS}")
        if mode not in ("sliding", "tumbling"):
            raise OperatorError(f"mode must be 'sliding' or 'tumbling', got {mode!r}")
        self.window = window
        self.func = func
        self.mode = mode
        self._collector = _FrameCollector(self)
        self._frames: Deque[RasterImage] = deque()
        self._out_frame_id = 0

    def _reset_state(self) -> None:
        self._collector = _FrameCollector(self)
        self._frames = deque()
        self._out_frame_id = 0

    def _push_frame(self, image: RasterImage) -> Iterable[Chunk]:
        if self._frames and not self._frames[0].lattice.aligned_with(image.lattice):
            raise OperatorError(
                "temporal aggregation requires frames over a consistent lattice"
            )
        self._frames.append(image)
        self.stats.buffer_add(image.n_points, image.values.nbytes)
        if len(self._frames) < self.window:
            return
        stack = np.stack([f.values.astype(np.float64) for f in self._frames])
        reduced = _reduce_stack(stack, self.func).astype(np.float32)
        last = self._frames[-1]
        out = GridChunk(
            values=reduced,
            lattice=last.lattice,
            band=f"{self.func}{self.window}({last.band})",
            t=last.t,
            sector=last.sector,
            frame=FrameInfo(self._out_frame_id, last.lattice),
            row0=0,
            col0=0,
            last_in_frame=True,
        )
        self._out_frame_id += 1
        if self.mode == "tumbling":
            while self._frames:
                old = self._frames.popleft()
                self.stats.buffer_remove(old.n_points, old.values.nbytes)
        else:
            old = self._frames.popleft()
            self.stats.buffer_remove(old.n_points, old.values.nbytes)
        yield out

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        if isinstance(chunk, PointChunk):
            raise OperatorError("temporal aggregation is defined on raster streams")
        image = self._collector.add(chunk)
        if image is not None:
            yield from self._push_frame(image)

    def _flush(self) -> Iterable[Chunk]:
        image = self._collector.finish()
        if image is not None:
            yield from self._push_frame(image)
        while self._frames:
            old = self._frames.popleft()
            self.stats.buffer_remove(old.n_points, old.values.nbytes)

    def output_metadata(self, metadata: StreamMetadata) -> StreamMetadata:
        return dc_replace(
            metadata,
            band=f"{self.func}{self.window}({metadata.band})",
            value_set=FLOAT32,
            organization=Organization.IMAGE_BY_IMAGE,
        )

    def __repr__(self) -> str:
        return f"TemporalAggregate({self.func!r}, window={self.window}, {self.mode})"


class RegionAggregate(Operator):
    """Per-region scalar aggregates per frame, emitted as a point stream."""

    name = "region-aggregate"

    def __init__(self, regions: Mapping[str, Region], func: str = "mean") -> None:
        super().__init__()
        if not regions:
            raise OperatorError("region aggregation needs at least one region")
        if func not in AGGREGATE_FUNCS:
            raise OperatorError(f"unknown aggregate {func!r}; expected one of {AGGREGATE_FUNCS}")
        self.regions = dict(regions)
        self.func = func
        # name -> (sum, count, min, max); enough to derive any AGGREGATE_FUNC.
        self._acc: dict[str, list[float]] = {}
        self._frame_id: int | None = None
        self._frame_t = 0.0
        self._sector: int | None = None
        self._band = ""
        self._crs = None
        # Per-lattice selection of every region, a pure function of
        # (regions, lattice): row-by-row streams repeat the same row
        # lattice every frame. Not cleared in _reset_state.
        self._selection: Memo[GridLattice, _Selection] = Memo(
            self._compute_selection, ROW_MEMO_MAX
        )

    def _reset_state(self) -> None:
        self._acc = {}
        self._frame_id = None

    def _ensure(self, name: str) -> list[float]:
        acc = self._acc.get(name)
        if acc is None:
            acc = [0.0, 0.0, np.inf, -np.inf]
            self._acc[name] = acc
        return acc

    def _accumulate(self, name: str, values: np.ndarray) -> None:
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            return
        acc = self._ensure(name)
        acc[0] += float(finite.sum())
        acc[1] += float(finite.size)
        acc[2] = min(acc[2], float(finite.min()))
        acc[3] = max(acc[3], float(finite.max()))

    def _result(self, acc: list[float]) -> float:
        total, count, vmin, vmax = acc
        if count == 0:
            return float("nan")
        if self.func == "mean":
            return total / count
        if self.func == "sum":
            return total
        if self.func == "count":
            return count
        if self.func == "min":
            return vmin
        return vmax

    def _emit_frame(self) -> Iterable[Chunk]:
        if not self._acc and self._frame_id is None:
            return
        names = sorted(self.regions)
        xs, ys, vals = [], [], []
        for name in names:
            region = self.regions[name]
            cx, cy = region.bounding_box.center
            xs.append(cx)
            ys.append(cy)
            acc = self._acc.get(name)
            vals.append(self._result(acc) if acc is not None else float("nan"))
        yield PointChunk(
            x=np.asarray(xs),
            y=np.asarray(ys),
            values=np.asarray(vals, dtype=np.float32),
            band=f"{self.func}({self._band})",
            t=np.full(len(names), self._frame_t),
            crs=self._crs,
            sector=self._sector,
        )
        self._acc = {}
        self._frame_id = None

    def _compute_selection(self, lattice: GridLattice) -> _Selection:
        """(name, index) for every region holding a point of ``lattice``.

        On a grid x depends only on the column and y only on the row, and
        both are monotone, so a box selects one contiguous row range times
        one contiguous column range: its index is a pair of slices. Any
        other region keeps a boolean mask. Lattice equality includes the
        CRS, so checking it here, on a miss, checks every chunk.
        """
        for region in self.regions.values():
            region.crs.require_same(lattice.crs, "region aggregation")
        xs, ys = lattice.xs(), lattice.ys()
        selection: list[tuple[str, _Index]] = []
        for name, region in self.regions.items():
            if isinstance(region, BoundingBox):
                cols = np.flatnonzero((xs >= region.xmin) & (xs <= region.xmax))
                rows = np.flatnonzero((ys >= region.ymin) & (ys <= region.ymax))
                if cols.size and rows.size:
                    rows_cols = (
                        slice(int(rows[0]), int(rows[-1]) + 1),
                        slice(int(cols[0]), int(cols[-1]) + 1),
                    )
                    selection.append((name, rows_cols))
            else:
                keep = region.mask(*lattice.meshgrid())
                if np.any(keep):
                    selection.append((name, keep))
        return tuple(selection)

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        if chunk.channels != 1:
            raise OperatorError(f"region aggregation reduces one channel, the chunk has {chunk.channels}")
        if isinstance(chunk, PointChunk):
            for region in self.regions.values():
                region.crs.require_same(chunk.crs, "region aggregation")
            selection: _Selection = tuple(
                (name, region.mask(chunk.x, chunk.y)) for name, region in self.regions.items()
            )
            crs = chunk.crs
            frame_id = chunk.sector
            t = float(chunk.t[-1]) if chunk.t.size else 0.0
            last = False
        else:
            selection = self._selection[chunk.lattice]
            crs = chunk.lattice.crs
            frame_id = chunk.frame.frame_id if chunk.frame is not None else None
            t = chunk.t
            last = chunk.last_in_frame
        if self._frame_id is not None and frame_id != self._frame_id and self._acc:
            yield from self._emit_frame()
        self._frame_id = frame_id
        self._frame_t = t
        self._sector = chunk.sector
        self._band = chunk.band
        self._crs = crs
        # Select first, then cast: the same elements in the same row-major
        # order as casting the whole chunk, so every sum is bit-identical.
        for name, index in selection:
            self._accumulate(name, chunk.values[index].astype(np.float64))
        if last:
            yield from self._emit_frame()

    def _flush(self) -> Iterable[Chunk]:
        if self._acc:
            yield from self._emit_frame()

    def output_metadata(self, metadata: StreamMetadata) -> StreamMetadata:
        return dc_replace(
            metadata,
            band=f"{self.func}({metadata.band})",
            value_set=FLOAT32,
            organization=Organization.POINT_BY_POINT,
        )

    def __repr__(self) -> str:
        return f"RegionAggregate({self.func!r}, regions={sorted(self.regions)})"
