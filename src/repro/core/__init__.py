"""Core data model: point lattices, value sets, chunks, images, GeoStreams.

Implements Definitions 1-5 of the paper (point set, value set, stream,
image, GeoStream) plus the temporal restriction domains of Definition 7.
"""

from .chunk import (
    Chunk,
    GridChunk,
    PointChunk,
    TimestampPolicy,
    fast_grid_chunk,
    fast_grid_replace,
    fast_replace_values,
)
from .columnar import (
    BandAccumulator,
    ColumnBuffer,
    FrameAccumulator,
    RollingCanvas,
    coordinate_columns,
)
from .image import RasterImage, assemble_frames
from .lattice import GridLattice
from .metadata import FrameInfo
from .stream import GeoStream, Organization, StreamMetadata
from .timeset import (
    AllTime,
    RecurringInterval,
    TimeInstants,
    TimeIntersection,
    TimeInterval,
    TimeIntervalSet,
    TimeSet,
    TimeUnion,
    intersect_timesets,
)
from .valueset import (
    FLOAT32,
    FLOAT64,
    GRAY10,
    GRAY16,
    GRAY8,
    NDVI_VALUES,
    REFLECTANCE,
    RGB8,
    ValueSet,
    promote,
)

__all__ = [
    "Chunk",
    "GridChunk",
    "PointChunk",
    "TimestampPolicy",
    "fast_grid_chunk",
    "fast_grid_replace",
    "fast_replace_values",
    "ColumnBuffer",
    "FrameAccumulator",
    "BandAccumulator",
    "RollingCanvas",
    "coordinate_columns",
    "RasterImage",
    "assemble_frames",
    "GridLattice",
    "FrameInfo",
    "GeoStream",
    "Organization",
    "StreamMetadata",
    "TimeSet",
    "AllTime",
    "TimeInstants",
    "TimeInterval",
    "TimeIntervalSet",
    "TimeIntersection",
    "TimeUnion",
    "RecurringInterval",
    "intersect_timesets",
    "ValueSet",
    "GRAY8",
    "GRAY10",
    "GRAY16",
    "RGB8",
    "FLOAT32",
    "FLOAT64",
    "REFLECTANCE",
    "NDVI_VALUES",
    "promote",
]
