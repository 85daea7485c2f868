"""The shared spatial restriction stage of the DSMS (Section 4).

:class:`Router` is the paper's "*single* spatial restriction operator
[that] efficiently streams only the point data of interest to current
continuous queries": per source stream, a region index over the
rectangles of every registered query answers which registrations want a
scanned chunk. The table is dynamic — an ``add`` or ``remove`` between
two chunks is seen by the next ``match``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.chunk import Chunk, GridChunk
from ..errors import GeoStreamsError
from ..faults.recovery import RecoveryContext
from ..geo.region import BoundingBox
from ..index.base import RegionIndex
from ..index.naive import NaiveRegionIndex
from ..obs.registry import get_registry, metrics_enabled

__all__ = ["Router", "RouterStats"]


@dataclass
class RouterStats:
    """How much work the shared restriction stage saved."""

    chunks_scanned: int = 0
    pairs_routed: int = 0  # (chunk, query) pairs actually fed
    pairs_skipped: int = 0  # pairs pruned by the region index
    fallbacks: int = 0  # routers rebuilt as naive indexes after a failure
    chunks_shed: int = 0  # chunks dropped by the ingest shedder

    @property
    def prune_fraction(self) -> float:
        total = self.pairs_routed + self.pairs_skipped
        return self.pairs_skipped / total if total else 0.0


@dataclass
class _StreamRoutes:
    """Everything routed off one source stream."""

    # reg_id -> rectangle in the stream's CRS, or None for "every chunk".
    # The rectangles are what a failing index is rebuilt from.
    entries: dict[int, BoundingBox | None] = field(default_factory=dict)
    always: set[int] = field(default_factory=set)  # the None entries
    index: RegionIndex | None = None  # over the rest; None when there are none


class Router:
    """Which registrations want each chunk of each source stream."""

    def __init__(
        self,
        index_factory: type[RegionIndex],
        stats: RouterStats,
        recovery: Callable[[], RecoveryContext | None],
    ) -> None:
        self._index_factory = index_factory
        self._stats = stats
        self._recovery = recovery
        self._streams: dict[str, _StreamRoutes] = {}

    def add(self, reg_id: int, boxes: dict[str, BoundingBox | None]) -> None:
        """Route one registration: a rectangle in the source's CRS (``None``
        = all) per source, as :func:`~repro.plan.compile_query` derives them."""
        for stream_id, box in boxes.items():
            routes = self._streams.setdefault(stream_id, _StreamRoutes())
            routes.entries[reg_id] = box
            if box is None:
                routes.always.add(reg_id)
                continue
            if routes.index is None:
                routes.index = self._index_factory()
            try:
                routes.index.insert(reg_id, box)
            except GeoStreamsError:
                # The rebuild replays every remembered box, including the
                # one whose insert just failed.
                self._fallback(stream_id, routes)

    def remove(self, reg_id: int, boxes: dict[str, BoundingBox | None]) -> None:
        """Drop one registration's entries for the sources in ``boxes``.

        A stream whose last region leaves loses its index (its chunks are
        not stabbed against an empty tree); one nobody reads is forgotten.
        """
        for stream_id in boxes:
            routes = self._streams.get(stream_id)
            if routes is None or reg_id not in routes.entries:
                continue
            box = routes.entries.pop(reg_id)
            if not routes.entries:
                del self._streams[stream_id]
            elif box is None:
                routes.always.discard(reg_id)
            elif len(routes.entries) == len(routes.always):  # no rectangle left
                routes.index = None
            elif routes.index is not None and reg_id in routes.index:
                routes.index.remove(reg_id)

    def match(self, stream_id: str, chunk: Chunk) -> set[int]:
        """Ids of the registrations ``chunk`` can contribute to."""
        routes = self._streams.get(stream_id)
        if routes is None:
            return set()
        matched = set(routes.always)
        index = routes.index
        if index is not None:
            if isinstance(chunk, GridChunk):
                bbox = chunk.lattice.bbox
            elif chunk.n_points:
                bbox = BoundingBox.from_points(chunk.x, chunk.y, chunk.crs)
            else:
                return matched
            try:
                matched.update(index.overlapping(bbox))
            except GeoStreamsError:
                matched.update(self._fallback(stream_id, routes).overlapping(bbox))
        return matched

    def consumers(self, stream_id: str) -> int:
        """How many registrations read ``stream_id`` (matched or not)."""
        routes = self._streams.get(stream_id)
        return len(routes.entries) if routes is not None else 0

    def table(self) -> dict[str, dict[int, BoundingBox | None]]:
        """Read-only copy: stream → registration → rectangle or ``None``."""
        return {sid: dict(routes.entries) for sid, routes in self._streams.items()}

    def _fallback(self, stream_id: str, routes: _StreamRoutes) -> RegionIndex:
        """Rebuild a failing index as a naive linear-scan index.

        Called while handling the index's error, which propagates unless a
        recovery context asks for graceful degradation: a cascade-tree bug
        then costs routing *performance*, never *correctness* — the naive
        index answers the same queries from the remembered rectangles.
        """
        if self._recovery() is None:
            raise  # the index error being handled
        index = routes.index = NaiveRegionIndex()
        for reg_id, box in routes.entries.items():
            if box is not None:
                index.insert(reg_id, box)
        self._stats.fallbacks += 1
        if metrics_enabled():
            get_registry().counter(
                "repro_faults_router_fallbacks_total", stream=stream_id
            ).inc()
        return index
