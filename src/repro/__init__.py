"""GeoStreams: a data and query model for streaming geospatial image data.

Reproduction of Gertz, Hart, Rueda, Singhal & Zhang (EDBT 2006). The
package implements the paper's data model (point lattices, value sets,
GeoStreams), its closed query algebra (restrictions, transforms,
compositions), a cost-accounted streaming engine, a query language with
an optimizer performing the paper's restriction-pushdown rewrites, and a
DSMS server whose shared cascade-tree restriction stage drives many
continuous queries off one scan of simulated satellite downlinks.

Quickstart::

    from repro import GOESImager, DSMSServer, StreamCatalog

    imager = GOESImager(n_frames=4, t0=72_000.0)
    catalog = StreamCatalog()
    catalog.register_imager(imager)
    server = DSMSServer(catalog)
    session = server.register(
        "within(ndvi(reflectance(goes.nir), reflectance(goes.vis)),"
        " bbox(1e6, 3.7e6, 1.25e6, 3.9e6, crs='geos:-135'))"
    )
    server.run()
    print(session.frames[0].png[:8])  # PNG magic
"""

from .analysis import Diagnostic, DiagnosticReport, analyze
from .core import (
    FLOAT32,
    GRAY10,
    GRAY16,
    GRAY8,
    NDVI_VALUES,
    REFLECTANCE,
    RGB8,
    FrameInfo,
    GeoStream,
    GridChunk,
    GridLattice,
    Organization,
    PointChunk,
    RasterImage,
    StreamMetadata,
    TimeInterval,
    ValueSet,
    assemble_frames,
)
from .engine import compose_streams, format_report, pipeline_report
from .errors import GeoStreamsError
from .faults import (
    BackoffPolicy,
    DeadLetterSink,
    FaultInjector,
    FaultSpec,
    FrameGuard,
    RecoveryContext,
    SimClock,
    harden_catalog,
    recovering,
    resilient_stream,
)
from .geo import (
    CRS,
    LATLON,
    BoundingBox,
    PolygonRegion,
    Region,
    goes_geostationary,
    latlon,
    mercator,
    plate_carree,
    utm,
)
from .index import CascadeTree, GridRegionIndex, NaiveRegionIndex
from .ingest import AirborneCamera, GOESImager, LidarScanner, SyntheticEarth
from .io import read_archive, write_archive
from .operators import (
    AdaptiveLoadShedder,
    Coarsen,
    Delivery,
    FrameStretch,
    FrameSubsampler,
    Magnify,
    RegionAggregate,
    Reproject,
    Rotate,
    SpatialRestriction,
    StreamComposition,
    TemporalAggregate,
    TemporalRestriction,
    ValueRestriction,
    evi2,
    ndvi,
    reflectance,
    spatio_temporal_aggregate,
)
from .plan import PlanDAG, build_composition, build_value_map, canonicalize
from .query import Q, optimize, parse_query, plan_query
from .server import ClientSession, DSMSServer, SessionCheckpoint, StreamCatalog

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "GeoStream",
    "GridChunk",
    "PointChunk",
    "GridLattice",
    "FrameInfo",
    "RasterImage",
    "assemble_frames",
    "Organization",
    "StreamMetadata",
    "TimeInterval",
    "ValueSet",
    "GRAY8",
    "GRAY10",
    "GRAY16",
    "RGB8",
    "FLOAT32",
    "REFLECTANCE",
    "NDVI_VALUES",
    # geo
    "CRS",
    "LATLON",
    "latlon",
    "plate_carree",
    "mercator",
    "utm",
    "goes_geostationary",
    "BoundingBox",
    "PolygonRegion",
    "Region",
    # ingest
    "GOESImager",
    "AirborneCamera",
    "LidarScanner",
    "SyntheticEarth",
    # operators
    "SpatialRestriction",
    "TemporalRestriction",
    "ValueRestriction",
    "FrameStretch",
    "Magnify",
    "Coarsen",
    "Rotate",
    "Reproject",
    "StreamComposition",
    "TemporalAggregate",
    "RegionAggregate",
    "Delivery",
    "ndvi",
    "evi2",
    "reflectance",
    # engine
    "compose_streams",
    "pipeline_report",
    "format_report",
    # query
    "Q",
    "parse_query",
    "optimize",
    "plan_query",
    # plan IR
    "PlanDAG",
    "canonicalize",
    "build_value_map",
    "build_composition",
    # index
    "CascadeTree",
    "GridRegionIndex",
    "NaiveRegionIndex",
    # server
    "DSMSServer",
    "StreamCatalog",
    "ClientSession",
    "SessionCheckpoint",
    # faults & recovery
    "FaultSpec",
    "FaultInjector",
    "BackoffPolicy",
    "DeadLetterSink",
    "FrameGuard",
    "RecoveryContext",
    "SimClock",
    "harden_catalog",
    "recovering",
    "resilient_stream",
    # io
    "read_archive",
    "write_archive",
    # shedding & aggregates
    "FrameSubsampler",
    "AdaptiveLoadShedder",
    "spatio_temporal_aggregate",
    # static analysis
    "analyze",
    "Diagnostic",
    "DiagnosticReport",
    # errors
    "GeoStreamsError",
]
