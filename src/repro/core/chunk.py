"""Stream transport units.

A GeoStream (Def. 3) is conceptually a function from spatio-temporal
points to values; physically, instruments emit *chunks* — the set of
points that share a timestamp and arrive together:

* :class:`GridChunk` — a rectangular window of a frame lattice. A whole
  frame for image-by-image instruments (Fig. 1a), a single row for
  row-by-row instruments (Fig. 1b).
* :class:`PointChunk` — an explicit batch of irregular points for
  point-by-point instruments such as LIDAR (Fig. 1c), each point with its
  own timestamp.

Chunks are immutable; operators derive new chunks with ``with_values`` /
``select`` so upstream buffers are never mutated in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Union

import numpy as np

from ..errors import StreamError
from ..geo.crs import CRS
from .lattice import GridLattice
from .metadata import FrameInfo
from .provenance import Provenance

if TYPE_CHECKING:  # pragma: no cover - typing only (core never imports obs)
    from ..obs.trace import TraceContext

__all__ = [
    "GridChunk",
    "PointChunk",
    "Chunk",
    "TimestampPolicy",
    "chunk_time",
    "fast_grid_chunk",
    "fast_replace_values",
    "fast_grid_replace",
    "restamp",
]

# How composition (Def. 10) matches timestamps across streams: by the
# measured time of each point, or by scan-sector identifier (Section 3.3).
TimestampPolicy = str  # "measured" | "sector"

_POLICIES = ("measured", "sector")


def _check_policy(policy: str) -> None:
    if policy not in _POLICIES:
        raise StreamError(f"unknown timestamp policy {policy!r}; expected one of {_POLICIES}")


@dataclass(frozen=True)
class GridChunk:
    """A rectangular set of same-timestamp points on a grid lattice."""

    values: np.ndarray
    lattice: GridLattice
    band: str
    t: float
    sector: int | None = None
    frame: FrameInfo | None = None
    row0: int = 0
    col0: int = 0
    last_in_frame: bool = True
    # Lineage tag (opt-in, attached only under a stats collector); excluded
    # from equality so tagged and untagged chunks still compare equal.
    provenance: Provenance | None = field(default=None, compare=False, repr=False)
    # Per-frame trace context (opt-in, attached only under a frame tracer);
    # same equality exclusion as provenance.
    trace: "TraceContext | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        object.__setattr__(self, "values", values)
        if values.ndim not in (2, 3):
            raise StreamError(
                f"grid chunk values must be 2-D (or 3-D for vector values), "
                f"got shape {values.shape}"
            )
        if values.shape[:2] != self.lattice.shape:
            raise StreamError(
                f"values shape {values.shape[:2]} does not match lattice shape "
                f"{self.lattice.shape}"
            )

    # -- size ---------------------------------------------------------------

    @property
    def n_points(self) -> int:
        return self.lattice.n_points

    @property
    def nbytes(self) -> int:
        return int(self.values.nbytes)

    @property
    def crs(self) -> CRS:
        return self.lattice.crs

    @property
    def channels(self) -> int:
        return 1 if self.values.ndim == 2 else int(self.values.shape[2])

    # -- coordinates ----------------------------------------------------------

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) arrays of shape (height, width) for every point."""
        return self.lattice.meshgrid()

    def flat_coords(self) -> tuple[np.ndarray, np.ndarray]:
        x, y = self.coords()
        return x.ravel(), y.ravel()

    # -- timestamps -------------------------------------------------------------

    def timestamp_key(self, policy: TimestampPolicy = "measured") -> float:
        """The matching key composition uses under the given policy.

        Under the ``sector`` policy a chunk without a sector id falls back
        to its measured time — reproducing the paper's observation that
        measured-time stamps from sequentially-scanned bands never match.
        """
        _check_policy(policy)
        if policy == "sector" and self.sector is not None:
            return float(self.sector)
        return float(self.t)

    # -- derivation -----------------------------------------------------------

    def with_values(self, values: np.ndarray, band: str | None = None) -> "GridChunk":
        """Same points, new values (a value transform's output)."""
        values = np.asarray(values)
        if values.shape[:2] != self.lattice.shape:
            raise StreamError(
                f"replacement values shape {values.shape[:2]} does not match "
                f"lattice shape {self.lattice.shape}"
            )
        return replace(self, values=values, band=band if band is not None else self.band)

    def subwindow(self, row0: int, col0: int, nrows: int, ncols: int) -> "GridChunk":
        """Crop to a window given in this chunk's local indices."""
        if nrows < 1 or ncols < 1:
            raise StreamError("subwindow must be non-empty")
        if row0 < 0 or col0 < 0 or row0 + nrows > self.lattice.height or (
            col0 + ncols > self.lattice.width
        ):
            raise StreamError(
                f"subwindow ({row0},{col0})+({nrows}x{ncols}) exceeds chunk shape "
                f"{self.lattice.shape}"
            )
        return replace(
            self,
            values=self.values[row0 : row0 + nrows, col0 : col0 + ncols],
            lattice=self.lattice.window(row0, col0, nrows, ncols),
            row0=self.row0 + row0,
            col0=self.col0 + col0,
        )


# -- fast (unchecked) constructors -------------------------------------------
#
# The batch kernels derive thousands of chunks per frame whose shapes
# are known correct by construction (slices of already-validated chunks,
# or batch outputs sized from the target lattice). ``dataclasses.replace``
# re-runs ``__post_init__`` — an ``asarray`` plus two shape checks — on
# every one of them, which dominates the per-row cost. These constructors
# copy the instance ``__dict__`` directly, preserving replace() semantics
# (provenance/trace carried over) without the re-validation. Only kernels
# that have already established the shape invariant may use them; the one
# guard kept in ``fast_replace_values`` is the cheap lattice-shape compare
# so corrupted (fault-injected) values still fail exactly like the reference.


def fast_grid_chunk(
    values: np.ndarray,
    lattice: GridLattice,
    band: str,
    t: float,
    sector: int | None = None,
    frame: FrameInfo | None = None,
    row0: int = 0,
    col0: int = 0,
    last_in_frame: bool = True,
    provenance: Provenance | None = None,
    trace: "TraceContext | None" = None,
) -> GridChunk:
    """Build a :class:`GridChunk` without ``__post_init__`` validation.

    ``values`` must already be an ndarray whose leading shape matches
    ``lattice.shape``; callers are responsible for that invariant.
    """
    out = object.__new__(GridChunk)
    out.__dict__.update(
        values=values,
        lattice=lattice,
        band=band,
        t=t,
        sector=sector,
        frame=frame,
        row0=row0,
        col0=col0,
        last_in_frame=last_in_frame,
        provenance=provenance,
        trace=trace,
    )
    return out


def fast_replace_values(chunk: GridChunk, values: np.ndarray, band: str | None = None) -> GridChunk:
    """``chunk.with_values`` minus the asarray round-trip.

    Keeps the lattice-shape guard (one tuple compare) so shape-corrupting
    faults raise :class:`StreamError` exactly as the per-point reference does.
    """
    if values.shape[:2] != chunk.lattice.shape:
        raise StreamError(
            f"replacement values shape {values.shape[:2]} does not match "
            f"lattice shape {chunk.lattice.shape}"
        )
    out = object.__new__(GridChunk)
    out.__dict__.update(chunk.__dict__)
    out.__dict__["values"] = values
    if band is not None:
        out.__dict__["band"] = band
    return out


def fast_grid_replace(chunk: GridChunk, **fields: object) -> GridChunk:
    """Unvalidated ``dataclasses.replace`` for shape-preserving derivations."""
    out = object.__new__(GridChunk)
    out.__dict__.update(chunk.__dict__)
    out.__dict__.update(fields)
    return out


@dataclass(frozen=True)
class PointChunk:
    """A batch of irregularly-located points, each with its own timestamp."""

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    band: str
    t: np.ndarray
    crs: CRS
    sector: int | None = None
    provenance: Provenance | None = field(default=None, compare=False, repr=False)
    trace: "TraceContext | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        t = np.asarray(self.t, dtype=float)
        values = np.asarray(self.values)
        for name, arr in (("x", x), ("y", y), ("t", t)):
            if arr.ndim != 1:
                raise StreamError(f"point chunk {name} must be 1-D, got shape {arr.shape}")
        n = x.shape[0]
        if y.shape[0] != n or t.shape[0] != n or values.shape[0] != n:
            raise StreamError(
                f"point chunk arrays disagree on length: x={x.shape[0]}, "
                f"y={y.shape[0]}, t={t.shape[0]}, values={values.shape[0]}"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", values)

    @property
    def n_points(self) -> int:
        return int(self.x.shape[0])

    @property
    def nbytes(self) -> int:
        return int(self.values.nbytes + self.x.nbytes + self.y.nbytes + self.t.nbytes)

    @property
    def channels(self) -> int:
        return 1 if self.values.ndim == 1 else int(self.values.shape[1])

    def select(self, mask: np.ndarray) -> "PointChunk":
        """Subset of the points where ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.x.shape:
            raise StreamError(
                f"selection mask shape {mask.shape} does not match point count "
                f"{self.x.shape}"
            )
        return replace(
            self,
            x=self.x[mask],
            y=self.y[mask],
            t=self.t[mask],
            values=self.values[mask],
        )

    def with_values(self, values: np.ndarray, band: str | None = None) -> "PointChunk":
        values = np.asarray(values)
        if values.shape[0] != self.n_points:
            raise StreamError(
                f"replacement values length {values.shape[0]} does not match "
                f"point count {self.n_points}"
            )
        return replace(self, values=values, band=band if band is not None else self.band)


Chunk = Union[GridChunk, PointChunk]


def chunk_time(chunk: Chunk) -> float:
    """Arrival-order key of a chunk (first point's time for point batches)."""
    if isinstance(chunk, GridChunk):
        return float(chunk.t)
    return float(chunk.t[0]) if chunk.t.size else math.inf


def restamp(chunk: Chunk, **tags: Any) -> Chunk:
    """``chunk`` with new ``provenance`` / ``trace`` tags, not re-validated."""
    if isinstance(chunk, GridChunk):
        return fast_grid_replace(chunk, **tags)
    return replace(chunk, **tags)
