"""DSMS server (Fig. 3): catalog, protocol, sessions, router."""

from ..plan import source_prune_boxes
from .catalog import StreamCatalog
from .dsms import DSMSServer
from .protocol import Request, format_query_request, parse_request
from .routing import RouterStats
from .session import AggregateRecord, ClientSession, SessionCheckpoint
from .telemetry import TelemetryServer, fetch_json, render_top, sparkline

__all__ = [
    "SessionCheckpoint",
    "TelemetryServer",
    "fetch_json",
    "render_top",
    "sparkline",
    "StreamCatalog",
    "DSMSServer",
    "RouterStats",
    "source_prune_boxes",
    "Request",
    "parse_request",
    "format_query_request",
    "ClientSession",
    "AggregateRecord",
]
