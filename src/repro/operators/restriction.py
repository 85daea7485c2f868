"""Stream restrictions (Section 3.1, Defs. 6-7 plus value restriction).

"All three restriction operators can process incoming image data on a
point-by-point basis and thus can be evaluated without storage for any
intermediate point data ... non-blocking and constant cost per point,
independent of the size of the input stream." The implementations below
hold no state between chunks; experiment E1 verifies their
``stats.max_buffered_points == 0``.

Representation note: on grid chunks a non-rectangular region (polygon,
constraint, enumeration) cannot be expressed by cropping alone, so
excluded pixels are masked to NaN after promoting integer values to
float32 — the NaN-as-absent convention used throughout the library. A
plain :class:`~repro.geo.region.BoundingBox` restriction stays a pure
crop and preserves the input value set exactly.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Callable, Iterable

import numpy as np

from ..core.chunk import Chunk, GridChunk, PointChunk, fast_grid_replace, fast_replace_values
from ..core.columnar import ROW_MEMO_MAX, Memo, coordinate_columns
from ..core.lattice import GridLattice
from ..core.metadata import FrameInfo
from ..core.stream import StreamMetadata
from ..core.timeset import TimeSet
from ..core.valueset import ValueSet
from ..errors import CRSMismatchError, OperatorError
from ..geo.region import BoundingBox, Region
from .base import Operator

__all__ = ["SpatialRestriction", "TemporalRestriction", "ValueRestriction"]


def _mask_grid_values(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Promote to float and set excluded pixels to NaN."""
    out = values.astype(np.float32) if values.dtype.kind in "iu" else values.astype(values.dtype, copy=True)
    if out.ndim == 3:
        out[~keep, :] = np.nan
    else:
        out[~keep] = np.nan
    return out


class SpatialRestriction(Operator):
    """Keep only points whose spatial location lies in a region (Def. 6)."""

    name = "spatial-restriction"

    def __init__(self, region: Region) -> None:
        super().__init__()
        self.region = region
        self._is_box = isinstance(region, BoundingBox)
        # Geometry memos, keyed by (frozen, content-compared) lattices.
        # Row-by-row streams repeat the same row lattice every frame, so
        # the crop window, narrowed frame, and region mask are computed
        # once per distinct geometry instead of once per chunk.
        # Deliberately NOT cleared in _reset_state: the entries are pure
        # functions of (region, lattice), so reuse across stream re-opens
        # is sound and is part of the kernels' speed.
        self._crop_window: Memo[
            GridLattice, tuple[int, int, int, int, GridLattice] | None
        ] = Memo(self._compute_crop_window, ROW_MEMO_MAX)
        self._narrowed_frame: Memo[
            GridLattice, tuple[GridLattice, int, int, int] | None
        ] = Memo(self._compute_narrowed_frame, ROW_MEMO_MAX)
        self._region_keep: Memo[GridLattice, tuple[np.ndarray, bool]] = Memo(
            self._compute_region_keep, ROW_MEMO_MAX
        )

    def _check_crs(self, chunk_crs: object) -> None:
        if self.region.crs != chunk_crs:
            raise CRSMismatchError(
                "spatial restriction region is in a different coordinate system "
                "than the stream; transform the region first (the optimizer "
                "does this when pushing restrictions through re-projections)"
            )

    def _compute_crop_window(
        self, lattice: GridLattice
    ) -> tuple[int, int, int, int, GridLattice] | None:
        # Lattice equality includes the CRS, so checking it on a miss
        # checks every chunk.
        self._check_crs(lattice.crs)
        window = lattice.intersect_window(self.region.bounding_box)
        if window is None:
            return None
        row0, col0, nrows, ncols = window
        return (row0, col0, nrows, ncols, lattice.window(row0, col0, nrows, ncols))

    def _compute_narrowed_frame(
        self, lattice: GridLattice
    ) -> tuple[GridLattice, int, int, int] | None:
        """Narrowed frame lattice and offsets, or None when unchanged."""
        fw = lattice.intersect_window(self.region.bounding_box)
        if fw is None:
            return None
        f_row0, f_col0, f_nrows, f_ncols = fw
        if (f_row0, f_col0, f_nrows, f_ncols) == (0, 0, lattice.height, lattice.width):
            return None
        return (lattice.window(f_row0, f_col0, f_nrows, f_ncols), f_row0, f_col0, f_nrows)

    def _compute_region_keep(self, lattice: GridLattice) -> tuple[np.ndarray, bool]:
        x, y = coordinate_columns(lattice)
        keep = self.region.mask(x, y)
        return (keep, bool(np.any(keep)))

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        if isinstance(chunk, PointChunk):
            self._check_crs(chunk.crs)
            keep = self.region.mask(chunk.x, chunk.y)
            if np.any(keep):
                yield chunk.select(keep)
            return

        crop = self._crop_window[chunk.lattice]
        if crop is None:
            return
        row0, col0, nrows, ncols, cropped_lattice = crop
        values = chunk.values[row0 : row0 + nrows, col0 : col0 + ncols]
        new_row0 = chunk.row0 + row0
        new_col0 = chunk.col0 + col0
        frame = chunk.frame
        last = chunk.last_in_frame
        if frame is not None:
            # The restriction narrows not just the data but the *spatial
            # extent currently scanned*: downstream frame-buffered operators
            # (stretch, re-projection, warps) then size their buffers and
            # output lattices to the restricted sector — which is precisely
            # why pushing spatial restrictions inward yields "the most
            # significant space and time gains" (Section 3.4).
            narrowed = self._narrowed_frame[frame.lattice]
            if narrowed is not None:
                frame_lattice, f_row0, f_col0, f_nrows = narrowed
                frame = FrameInfo(frame.frame_id, frame_lattice)
                new_row0 -= f_row0
                new_col0 -= f_col0
                last = last or (new_row0 + nrows == f_nrows)
        if not self._is_box:
            keep, any_keep = self._region_keep[cropped_lattice]
            if not any_keep:
                return
            values = _mask_grid_values(values, keep)
        yield fast_grid_replace(
            chunk,
            values=values,
            lattice=cropped_lattice,
            row0=new_row0,
            col0=new_col0,
            frame=frame,
            last_in_frame=last,
        )

    def output_metadata(self, metadata: StreamMetadata) -> StreamMetadata:
        if self._is_box:
            return metadata
        return dc_replace(metadata, value_set=_masked_value_set(metadata.value_set))


def _masked_value_set(value_set: ValueSet) -> ValueSet:
    """Value set after NaN masking (floats pass through, integers widen)."""
    if value_set.is_integer:
        return ValueSet(
            f"{value_set.name}?",
            np.float32,
            channels=value_set.channels,
        )
    return value_set


class TemporalRestriction(Operator):
    """Keep only points whose timestamp lies in a time set (Def. 7).

    Grid chunks share one timestamp, so the test is a single O(1) check
    per chunk; point chunks are filtered per point. When ``on_sector`` is
    set, the restriction applies to scan-sector identifiers instead of
    measured times (the paper's timestamps may be either, Section 2).
    """

    name = "temporal-restriction"

    def __init__(self, timeset: TimeSet, on_sector: bool = False) -> None:
        super().__init__()
        self.timeset = timeset
        self.on_sector = on_sector

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        if isinstance(chunk, GridChunk):
            key = chunk.sector if self.on_sector else chunk.t
            if key is None:
                raise OperatorError(
                    "sector-based temporal restriction on a stream without "
                    "scan-sector identifiers"
                )
            if self.timeset.contains_scalar(float(key)):
                yield chunk
            return
        if self.on_sector:
            if chunk.sector is None:
                raise OperatorError(
                    "sector-based temporal restriction on a point stream "
                    "without scan-sector identifiers"
                )
            if self.timeset.contains_scalar(float(chunk.sector)):
                yield chunk
            return
        keep = self.timeset.contains(chunk.t)
        if np.any(keep):
            yield chunk.select(keep)


class ValueRestriction(Operator):
    """Keep only points whose value satisfies a predicate (Section 3.1).

    The member set V can be given as an inclusive (lo, hi) range (either
    bound None for open) or as a vectorized predicate on the value array.
    """

    name = "value-restriction"

    def __init__(
        self,
        lo: float | None = None,
        hi: float | None = None,
        predicate: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        super().__init__()
        if predicate is None and lo is None and hi is None:
            raise OperatorError("value restriction needs bounds or a predicate")
        if predicate is not None and (lo is not None or hi is not None):
            raise OperatorError("give either bounds or a predicate, not both")
        self.lo = lo
        self.hi = hi
        self.predicate = predicate

    def _keep(self, values: np.ndarray) -> np.ndarray:
        if self.predicate is not None:
            keep = np.asarray(self.predicate(values))
            if keep.shape != values.shape[: keep.ndim] and keep.shape != values.shape:
                # Vector values may be reduced by the predicate; accept
                # per-point masks for (n, c) arrays.
                pass
            return keep.astype(bool)
        values = values.astype(float, copy=False)
        keep = np.ones(values.shape, dtype=bool)
        if self.lo is not None:
            keep &= values >= self.lo
        if self.hi is not None:
            keep &= values <= self.hi
        return keep

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
        # The keep mask is one vectorized batch; the output chunk skips
        # with_values' re-validation.
        yield fast_replace_values(chunk, _mask_grid_values(chunk.values, keep))

    def output_metadata(self, metadata: StreamMetadata) -> StreamMetadata:
        return dc_replace(metadata, value_set=_masked_value_set(metadata.value_set))
