"""Reference for :meth:`repro.core.provenance.Provenance.merge`.

A tag lists the newest :data:`~repro.core.provenance.MAX_TRACKED_SCANS`
scans, by ``(ordinal, stream)``, of the union of every scan merged into
it; the union's other scans are its dropped scans. Production truncates
at each merge and keeps only a count of what it dropped. This reference
keeps the whole union, so the two can be compared: the listed scans and
the stages are equal, and production's ``dropped_sources`` is a lower
bound on the reference's distinct count (equal along a chain of one-scan
merges, and when a tag is merged with its own extension).

It is not in :data:`tests.reference.REFERENCES`: a tag is not an
operator kernel. Build :class:`ReferenceTag` values directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.provenance import MAX_TRACKED_SCANS

__all__ = ["ReferenceTag"]


@dataclass(frozen=True)
class ReferenceTag:
    """Every scan ever merged in, and every stage traversed."""

    union: frozenset[tuple[str, int]] = frozenset()
    stages: frozenset[str] = frozenset()

    @classmethod
    def scan(cls, stream_id: str, ordinal: int) -> ReferenceTag:
        return cls(union=frozenset({(stream_id, ordinal)}))

    def with_stage(self, fingerprint: str) -> ReferenceTag:
        return ReferenceTag(self.union, self.stages | {fingerprint})

    def merge(self, other: ReferenceTag) -> ReferenceTag:
        return ReferenceTag(self.union | other.union, self.stages | other.stages)

    @property
    def sources(self) -> frozenset[tuple[str, int]]:
        newest = sorted(self.union, key=lambda scan: (scan[1], scan[0]))
        return frozenset(newest[-MAX_TRACKED_SCANS:])

    @property
    def dropped_sources(self) -> int:
        return max(0, len(self.union) - MAX_TRACKED_SCANS)
