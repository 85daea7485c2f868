"""Compact chunk lineage tags.

A GeoStream is a *function* from spatio-temporal points to values, so any
delivered value should be able to answer "which raw scans and which
operators produced you". :class:`Provenance` is the compact answer: the
set of ``(stream_id, scan_ordinal)`` source scans a chunk derives from
and the set of plan-stage fingerprints it traversed.

A stage tags its outputs with its own fingerprint and the scans of the
frame it has open (:class:`repro.obs.probe.StageProbe`); an operator
still holding points (a window of frames, a composition side waiting
for its partner) keeps accumulating. So every tag is a sound
*over*-approximation, and a delivered frame, which merges its chunks'
tags, names the scans of that frame (§3: a stream restricted to a frame
is an image). Tags are opt-in (attached only while a stats collector is
installed, see :mod:`repro.obs.stats`) and tiny: at most
:data:`MAX_TRACKED_SCANS` scans, the newest by ``(ordinal, stream)``;
``dropped_sources`` is a lower bound on the distinct older ones.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import itemgetter

__all__ = ["Provenance"]

# Beyond this many distinct scans we stop enumerating and keep a count —
# lineage stays O(1) per chunk even for day-long windows.
MAX_TRACKED_SCANS = 256


@dataclass(frozen=True)
class Provenance:
    """Lineage tag: source scans consumed and stage fingerprints traversed."""

    sources: frozenset[tuple[str, int]] = field(default_factory=frozenset)
    stages: frozenset[str] = field(default_factory=frozenset)
    dropped_sources: int = 0  # scans beyond MAX_TRACKED_SCANS, counted not listed

    @classmethod
    def scan(cls, stream_id: str, ordinal: int) -> "Provenance":
        """The tag of a raw source chunk: one scan, no stages yet."""
        return cls(sources=frozenset({(stream_id, int(ordinal))}))

    def with_stage(self, fingerprint: str) -> "Provenance":
        if fingerprint in self.stages:
            return self
        return Provenance(
            sources=self.sources,
            stages=self.stages | {fingerprint},
            dropped_sources=self.dropped_sources,
        )

    def merge(self, other: "Provenance | None") -> "Provenance":
        if other is None or other is self:
            return self
        sources = self.sources | other.sources
        dropped = max(self.dropped_sources, other.dropped_sources)
        excess = len(sources) - MAX_TRACKED_SCANS
        if excess > 0:
            # Keep the newest scans by (ordinal, stream). The larger side's
            # count of scans it no longer lists is a lower bound on the union's.
            gone = frozenset(heapq.nsmallest(excess, sources, key=itemgetter(1, 0)))
            sources = sources - gone
            dropped = max(
                self.dropped_sources + len(gone & self.sources),
                other.dropped_sources + len(gone & other.sources),
            )
        return Provenance(
            sources=sources,
            stages=self.stages | other.stages,
            dropped_sources=dropped,
        )

    @property
    def stream_ids(self) -> frozenset[str]:
        return frozenset(stream_id for stream_id, _ in self.sources)

    def scan_ordinals(self, stream_id: str) -> tuple[int, ...]:
        return tuple(sorted(o for sid, o in self.sources if sid == stream_id))
