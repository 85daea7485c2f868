"""Stream catalog: the source streams the DSMS serves.

Registers each source GeoStream together with its known frame extent (the
scan-sector geometry a ground station has out-of-band), which the query
planner's cost model and the router need.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping

from ..core.stream import GeoStream
from ..errors import ServerError
from ..geo.crs import CRS
from ..geo.region import BoundingBox
from ..query.cost import StreamProfile

if TYPE_CHECKING:
    from pathlib import Path

    from ..ingest.instrument import Instrument

__all__ = ["StreamCatalog"]


class StreamCatalog:
    """Named source streams plus their frame-extent metadata."""

    def __init__(self) -> None:
        self._streams: dict[str, GeoStream] = {}
        self._extents: dict[str, BoundingBox] = {}

    def register(self, stream: GeoStream, frame_bbox: BoundingBox) -> None:
        sid = stream.stream_id
        if sid in self._streams:
            raise ServerError(f"stream {sid!r} already registered")
        stream.crs.require_same(frame_bbox.crs, "catalog registration")
        self._streams[sid] = stream
        self._extents[sid] = frame_bbox

    def register_imager(self, imager: "Instrument") -> None:
        """Register every band stream of a GOES-like imager."""
        bbox = imager.sector_lattice.bbox
        for stream in imager.streams().values():
            self.register(stream, bbox)

    def register_archive(self, path: "str | Path") -> GeoStream:
        """Register a ``.gsar`` archive (see :mod:`repro.io.archive`).

        The frame extent is reconstructed from the first archived chunk's
        scan-sector metadata (or its own lattice for whole-frame chunks).
        """
        from ..io.archive import read_archive

        stream = read_archive(path)
        first = next(iter(stream.chunks()), None)
        if first is None:
            raise ServerError(f"archive {path} contains no chunks")
        if hasattr(first, "lattice"):
            lattice = first.frame.lattice if getattr(first, "frame", None) else first.lattice
            bbox = lattice.bbox
        else:  # point archive: use the point extent
            bbox = BoundingBox.from_points(first.x, first.y, first.crs)
        self.register(stream, bbox)
        return stream

    # -- lookups -----------------------------------------------------------

    def get(self, stream_id: str) -> GeoStream:
        try:
            return self._streams[stream_id]
        except KeyError:
            raise ServerError(
                f"unknown stream {stream_id!r}; registered: {sorted(self._streams)}"
            ) from None

    __getitem__ = get

    def extent(self, stream_id: str) -> BoundingBox:
        self.get(stream_id)
        return self._extents[stream_id]

    def __contains__(self, stream_id: str) -> bool:
        return stream_id in self._streams

    def __len__(self) -> int:
        return len(self._streams)

    def ids(self) -> list[str]:
        return sorted(self._streams)

    def items(self) -> Iterator[tuple[str, GeoStream]]:
        return iter(self._streams.items())

    def crs_of(self) -> Mapping[str, CRS]:
        return {sid: s.crs for sid, s in self._streams.items()}

    def profiles(self) -> dict[str, StreamProfile]:
        return {
            sid: StreamProfile.from_metadata(s.metadata, self._extents[sid])
            for sid, s in self._streams.items()
            if s.metadata.max_frame_shape is not None
        }
