"""GeoStreams (Defs. 3 and 5).

A :class:`GeoStream` pairs stream metadata — band, coordinate system,
point organization, value set, timestamp policy — with a *re-openable*
lazy source of chunks. Re-openability (the source is a factory, not a
one-shot iterator) is what lets the same declared stream feed repeated
benchmark runs and multiple registered continuous queries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ..errors import StreamError
from ..geo.crs import CRS
from .chunk import Chunk, GridChunk, PointChunk, TimestampPolicy
from .image import RasterImage, assemble_frames
from .valueset import FLOAT32, ValueSet

if TYPE_CHECKING:  # pragma: no cover
    from ..operators.base import Operator

__all__ = ["Organization", "StreamMetadata", "GeoStream"]


class Organization(enum.Enum):
    """Point-set organization of a stream (Fig. 1)."""

    IMAGE_BY_IMAGE = "image-by-image"
    ROW_BY_ROW = "row-by-row"
    POINT_BY_POINT = "point-by-point"


@dataclass(frozen=True)
class StreamMetadata:
    """Descriptive properties of a GeoStream."""

    stream_id: str
    band: str
    crs: CRS
    organization: Organization
    value_set: ValueSet = FLOAT32
    timestamp_policy: TimestampPolicy = "measured"
    description: str = ""
    # Hint used by cost estimation: the largest frame (rows, cols) the
    # stream can produce. "For most satellites ... such frame sizes are
    # known" (Section 3.2).
    max_frame_shape: tuple[int, int] | None = None

    def renamed(self, stream_id: str, band: str | None = None) -> "StreamMetadata":
        return replace(self, stream_id=stream_id, band=band if band is not None else self.band)


class GeoStream:
    """A stream of geospatial image data: metadata + re-openable chunk source."""

    def __init__(
        self,
        metadata: StreamMetadata,
        source: Callable[[], Iterable[Chunk]],
    ) -> None:
        if not callable(source):
            raise StreamError(
                "GeoStream source must be a zero-argument callable returning an "
                "iterable of chunks (so the stream can be re-opened)"
            )
        self.metadata = metadata
        self._source = source

    # -- convenience accessors -------------------------------------------------

    @property
    def stream_id(self) -> str:
        return self.metadata.stream_id

    @property
    def band(self) -> str:
        return self.metadata.band

    @property
    def crs(self) -> CRS:
        return self.metadata.crs

    @property
    def organization(self) -> Organization:
        return self.metadata.organization

    @property
    def value_set(self) -> ValueSet:
        return self.metadata.value_set

    # -- iteration ------------------------------------------------------------

    def chunks(self) -> Iterator[Chunk]:
        """Open the stream and iterate its chunks from the beginning."""
        return iter(self._source())

    def __iter__(self) -> Iterator[Chunk]:
        return self.chunks()

    # -- composition with operators -----------------------------------------------

    def pipe(self, *operators: "Operator") -> "GeoStream":
        """Apply operators in sequence, yielding a new GeoStream (closure).

        The query algebra is closed — "the result of applying an operator
        to one or two GeoStreams is again a GeoStream" — so ``pipe``
        returns a stream that can itself be piped further.
        """
        from ..engine.pipeline import apply_operators

        return apply_operators(self, list(operators))

    # -- materialization ----------------------------------------------------------

    def collect_chunks(self, limit: int | None = None) -> list[Chunk]:
        """Materialize up to ``limit`` chunks (all when None)."""
        out: list[Chunk] = []
        for i, chunk in enumerate(self.chunks()):
            if limit is not None and i >= limit:
                break
            out.append(chunk)
        return out

    def collect_frames(self, limit: int | None = None) -> list[RasterImage]:
        """Materialize up to ``limit`` assembled frames (all when None)."""
        out: list[RasterImage] = []
        for image in assemble_frames(self.chunks()):
            out.append(image)
            if limit is not None and len(out) >= limit:
                break
        return out

    def count_points(self) -> int:
        """Total number of points in the (finite) stream."""
        return sum(c.n_points for c in self.chunks())

    # -- derivation ----------------------------------------------------------------

    def with_metadata(self, **changes: object) -> "GeoStream":
        """Copy of this stream with updated metadata fields."""
        return GeoStream(replace(self.metadata, **changes), self._source)

    @staticmethod
    def from_chunks(
        metadata: StreamMetadata, chunks: Iterable[Chunk]
    ) -> "GeoStream":
        """Wrap an already-materialized chunk list as a replayable stream."""
        stored = list(chunks)
        for c in stored:
            if not isinstance(c, (GridChunk, PointChunk)):
                raise StreamError(f"not a chunk: {type(c).__name__}")
        return GeoStream(metadata, lambda: list(stored))

    def __repr__(self) -> str:
        return (
            f"GeoStream({self.stream_id!r}, band={self.band!r}, "
            f"crs={self.crs.name!r}, org={self.organization.value})"
        )
