"""Point lattices (Def. 1): regularly-spaced grids with a coordinate system.

The paper restricts point sets to regularly-spaced lattices in R^n with an
associated coordinate system; :class:`GridLattice` is that object for the
raster case. Georeferencing uses the pixel-*center* convention: pixel
``(row, col)`` is centered at ``(x0 + col*dx, y0 + row*dy)``. ``dy`` is
negative for the usual north-up orientation (row 0 is the northernmost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import LatticeAlignmentError, LatticeError
from ..geo.crs import CRS
from ..geo.region import BoundingBox

__all__ = ["GridLattice"]


@dataclass(frozen=True)
class GridLattice:
    """A regular spatial grid in a CRS (the paper's *point lattice*)."""

    crs: CRS
    x0: float
    y0: float
    dx: float
    dy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise LatticeError(f"lattice must be at least 1x1, got {self.width}x{self.height}")
        if self.dx == 0.0 or self.dy == 0.0:
            raise LatticeError("lattice resolution must be non-zero in both axes")

    # Lattices key the kernels' memos (masks, derived lattices,
    # navigation grids), where equal-but-not-identical row lattices recur
    # once per frame. Hand-written comparison short-circuits on the cheap
    # integer fields and the hash is memoized per instance.

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is not GridLattice:
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.x0 == other.x0
            and self.y0 == other.y0
            and self.dx == other.dx
            and self.dy == other.dy
            and self.crs == other.crs
        )

    def __hash__(self) -> int:
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            h = hash((self.crs, self.x0, self.y0, self.dx, self.dy, self.width, self.height))
            d["_hash"] = h
        return h

    # -- basic geometry -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """(height, width), matching numpy array shape order."""
        return (self.height, self.width)

    @property
    def n_points(self) -> int:
        return self.width * self.height

    @property
    def resolution(self) -> tuple[float, float]:
        """(|dx|, |dy|)."""
        return (abs(self.dx), abs(self.dy))

    def xs(self) -> np.ndarray:
        """Column center x-coordinates, length ``width``."""
        return self.x0 + self.dx * np.arange(self.width)

    def ys(self) -> np.ndarray:
        """Row center y-coordinates, length ``height``."""
        return self.y0 + self.dy * np.arange(self.height)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Full (x, y) coordinate arrays of shape (height, width)."""
        return np.meshgrid(self.xs(), self.ys())

    def x_of_col(self, col: np.ndarray | int) -> np.ndarray:
        return self.x0 + self.dx * np.asarray(col)

    def y_of_row(self, row: np.ndarray | int) -> np.ndarray:
        return self.y0 + self.dy * np.asarray(row)

    # -- coordinate <-> index ------------------------------------------------

    def col_of_x(self, x: np.ndarray | float) -> np.ndarray:
        """Nearest column index (may fall outside [0, width))."""
        return np.rint((np.asarray(x, dtype=float) - self.x0) / self.dx).astype(np.int64)

    def row_of_y(self, y: np.ndarray | float) -> np.ndarray:
        """Nearest row index (may fall outside [0, height))."""
        return np.rint((np.asarray(y, dtype=float) - self.y0) / self.dy).astype(np.int64)

    def fractional_col(self, x: np.ndarray | float) -> np.ndarray:
        """Real-valued column coordinate (for interpolation)."""
        return (np.asarray(x, dtype=float) - self.x0) / self.dx

    def fractional_row(self, y: np.ndarray | float) -> np.ndarray:
        return (np.asarray(y, dtype=float) - self.y0) / self.dy

    # -- extent ---------------------------------------------------------------

    @property
    def bbox(self) -> BoundingBox:
        """Outer edges of the lattice (pixel areas, not just centers)."""
        x_edges = (self.x0 - self.dx / 2.0, self.x0 + self.dx * (self.width - 0.5))
        y_edges = (self.y0 - self.dy / 2.0, self.y0 + self.dy * (self.height - 0.5))
        return BoundingBox(
            min(x_edges), min(y_edges), max(x_edges), max(y_edges), self.crs
        )

    @property
    def center_bbox(self) -> BoundingBox:
        """Bounding box of pixel centers only."""
        xs = (self.x0, self.x0 + self.dx * (self.width - 1))
        ys = (self.y0, self.y0 + self.dy * (self.height - 1))
        return BoundingBox(min(xs), min(ys), max(xs), max(ys), self.crs)

    # -- windows -----------------------------------------------------------

    def window(self, row0: int, col0: int, nrows: int, ncols: int) -> "GridLattice":
        """Sub-lattice of ``nrows`` x ``ncols`` starting at (row0, col0).

        The window may exceed this lattice's index range — a window is just
        a re-origined lattice — but must be non-empty.
        """
        return replace(
            self,
            x0=self.x0 + self.dx * col0,
            y0=self.y0 + self.dy * row0,
            width=ncols,
            height=nrows,
        )

    def row_lattice(self, row: int) -> "GridLattice":
        """The single-row sub-lattice at ``row`` (used by row-by-row scans)."""
        return self.window(row, 0, 1, self.width)

    def intersect_window(self, region_bbox: BoundingBox) -> tuple[int, int, int, int] | None:
        """Index window (row0, col0, nrows, ncols) of pixels whose centers
        fall inside ``region_bbox``, or None when empty."""
        self.crs.require_same(region_bbox.crs, "lattice/region intersection")
        c_lo = (region_bbox.xmin - self.x0) / self.dx
        c_hi = (region_bbox.xmax - self.x0) / self.dx
        r_lo = (region_bbox.ymin - self.y0) / self.dy
        r_hi = (region_bbox.ymax - self.y0) / self.dy
        col0 = max(0, math.ceil(min(c_lo, c_hi) - 1e-9))
        col1 = min(self.width - 1, math.floor(max(c_lo, c_hi) + 1e-9))
        row0 = max(0, math.ceil(min(r_lo, r_hi) - 1e-9))
        row1 = min(self.height - 1, math.floor(max(r_lo, r_hi) + 1e-9))
        if col0 > col1 or row0 > row1:
            return None
        return (row0, col0, row1 - row0 + 1, col1 - col0 + 1)

    # -- derived lattices ----------------------------------------------------

    def magnified(self, k: int) -> "GridLattice":
        """Lattice with k-times finer resolution over the same extent.

        Each source pixel becomes a k x k block; the first fine pixel's
        center sits at the source pixel's upper-left quarter position.
        """
        if k < 1:
            raise LatticeError(f"magnification factor must be >= 1, got {k}")
        return replace(
            self,
            x0=self.x0 - self.dx / 2.0 + self.dx / (2.0 * k),
            y0=self.y0 - self.dy / 2.0 + self.dy / (2.0 * k),
            dx=self.dx / k,
            dy=self.dy / k,
            width=self.width * k,
            height=self.height * k,
        )

    def coarsened(self, k: int) -> "GridLattice":
        """Lattice with k-times coarser resolution (floor-truncated extent)."""
        if k < 1:
            raise LatticeError(f"coarsening factor must be >= 1, got {k}")
        if self.width < k or self.height < k:
            raise LatticeError(
                f"cannot coarsen a {self.height}x{self.width} lattice by {k}"
            )
        return replace(
            self,
            x0=self.x0 + self.dx * (k - 1) / 2.0,
            y0=self.y0 + self.dy * (k - 1) / 2.0,
            dx=self.dx * k,
            dy=self.dy * k,
            width=self.width // k,
            height=self.height // k,
        )

    @staticmethod
    def from_bbox(
        bbox: BoundingBox, dx: float, dy: float, crs: CRS | None = None
    ) -> "GridLattice":
        """Smallest lattice of resolution (dx, dy) covering ``bbox``.

        ``dy`` may be given negative for north-up; a positive value is
        interpreted as |dy| with north-up orientation.
        """
        crs = crs or bbox.crs
        dx = abs(dx)
        dy_abs = abs(dy)
        if dx == 0 or dy_abs == 0:
            raise LatticeError("resolution must be non-zero")
        width = max(1, math.ceil(bbox.width / dx - 1e-9))
        height = max(1, math.ceil(bbox.height / dy_abs - 1e-9))
        return GridLattice(
            crs=crs,
            x0=bbox.xmin + dx / 2.0,
            y0=bbox.ymax - dy_abs / 2.0,
            dx=dx,
            dy=-dy_abs,
            width=width,
            height=height,
        )

    # -- alignment ----------------------------------------------------------

    def aligned_with(self, other: "GridLattice", tol: float = 1e-6) -> bool:
        """True when both lattices sample the same underlying grid.

        Same CRS and resolution, and origins offset by an integer number of
        cells. This is the precondition for pointwise stream composition
        (Def. 10) to match points exactly.
        """
        if self.crs != other.crs:
            return False
        if not math.isclose(self.dx, other.dx, rel_tol=0, abs_tol=tol * abs(self.dx)):
            return False
        if not math.isclose(self.dy, other.dy, rel_tol=0, abs_tol=tol * abs(self.dy)):
            return False
        off_x = (other.x0 - self.x0) / self.dx
        off_y = (other.y0 - self.y0) / self.dy
        return (
            abs(off_x - round(off_x)) < tol
            and abs(off_y - round(off_y)) < tol
        )

    def offset_of(self, other: "GridLattice", tol: float = 1e-6) -> tuple[int, int]:
        """(row, col) of ``other``'s origin pixel within this lattice's grid."""
        if not self.aligned_with(other, tol):
            raise LatticeAlignmentError("lattices do not share a grid")
        return (
            int(round((other.y0 - self.y0) / self.dy)),
            int(round((other.x0 - self.x0) / self.dx)),
        )
