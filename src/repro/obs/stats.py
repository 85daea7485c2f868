"""Observed per-stage runtime statistics for the shared plan DAG.

The cost model (:mod:`repro.query.cost`) prices plans from static
guesses; this module closes the loop by *measuring* each physical stage:
chunks/points/bytes in and out, wall time, selectivity, and a streaming
reservoir of per-chunk latencies for p50/p95/p99. Statistics accumulate
per subplan **fingerprint**, so a stage shared by many queries has one
ledger — exactly the granularity ``EXPLAIN ANALYZE`` and
:class:`~repro.query.calibration.CalibrationProfile` need.

Collection follows the registry's opt-in discipline: the collector is
one field of the installed :class:`~repro.obs.probe.Instruments` record,
and the executors do no timing, no provenance tagging, and no dict work
when none is installed.
"""

from __future__ import annotations

import random
import threading
from typing import TYPE_CHECKING, Iterator, Optional

from ..core.provenance import Provenance
from .probe import current
from .registry import ObservabilityError

if TYPE_CHECKING:
    from ..plan.stages import PlanDAG

__all__ = [
    "Reservoir",
    "StageStats",
    "StatsCollector",
    "current_collector",
    "lineage",
    "format_lineage",
]


class Reservoir:
    """Fixed-size uniform sample of a stream (Vitter's algorithm R).

    Deterministic: the RNG is seeded from the owning stage's fingerprint,
    so repeated runs over the same data report the same quantiles.
    """

    __slots__ = ("capacity", "seen", "_sample", "_rng", "_sorted")

    def __init__(self, capacity: int = 256, seed: int | str = 0) -> None:
        if capacity < 1:
            raise ObservabilityError("reservoir capacity must be >= 1")
        self.capacity = capacity
        self.seen = 0
        self._sample: list[float] = []
        if isinstance(seed, str):
            seed = int.from_bytes(seed.encode("utf-8")[:8] or b"\0", "big")
        self._rng = random.Random(seed)
        self._sorted: list[float] | None = None

    def add(self, value: float) -> None:
        self.seen += 1
        self._sorted = None
        if len(self._sample) < self.capacity:
            self._sample.append(float(value))
            return
        j = self._rng.randrange(self.seen)
        if j < self.capacity:
            self._sample[j] = float(value)

    def quantile(self, q: float) -> float | None:
        """Linear-interpolated quantile of the sample; None when empty."""
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        if not self._sample:
            return None
        if self._sorted is None:
            self._sorted = sorted(self._sample)
        s = self._sorted
        pos = q * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        frac = pos - lo
        return s[lo] * (1.0 - frac) + s[hi] * frac

    def __len__(self) -> int:
        return len(self._sample)


class StageStats:
    """Observed totals for one physical stage, keyed by subplan fingerprint."""

    __slots__ = (
        "fingerprint",
        "label",
        "kind",
        "calls",
        "chunks_in",
        "chunks_out",
        "points_in",
        "points_out",
        "bytes_in",
        "bytes_out",
        "wall_s",
        "latencies",
    )

    def __init__(self, fingerprint: str, label: str = "", kind: str = "") -> None:
        self.fingerprint = fingerprint
        self.label = label
        self.kind = kind
        self.calls = 0
        self.chunks_in = 0
        self.chunks_out = 0
        self.points_in = 0
        self.points_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.wall_s = 0.0
        self.latencies = Reservoir(seed=fingerprint)

    def observe(
        self,
        *,
        points_in: int,
        points_out: int,
        bytes_in: int,
        bytes_out: int,
        chunks_out: int,
        wall_s: float,
        chunks_in: int = 1,
    ) -> None:
        self.calls += 1
        self.chunks_in += chunks_in
        self.chunks_out += chunks_out
        self.points_in += points_in
        self.points_out += points_out
        self.bytes_in += bytes_in
        self.bytes_out += bytes_out
        self.wall_s += wall_s
        self.latencies.add(wall_s)

    @property
    def selectivity(self) -> float | None:
        """points_out / points_in; None before any input."""
        if self.points_in == 0:
            return None
        return self.points_out / self.points_in

    @property
    def p50(self) -> float | None:
        return self.latencies.quantile(0.50)

    @property
    def p95(self) -> float | None:
        return self.latencies.quantile(0.95)

    @property
    def p99(self) -> float | None:
        return self.latencies.quantile(0.99)

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__ if name != "latencies"}
        out.update(selectivity=self.selectivity, p50_s=self.p50, p95_s=self.p95, p99_s=self.p99)
        return out

    def __repr__(self) -> str:
        return (
            f"StageStats({self.label or self.fingerprint}: "
            f"{self.chunks_in}->{self.chunks_out} chunks, "
            f"{self.points_in}->{self.points_out} points, "
            f"{self.wall_s * 1e3:.2f} ms)"
        )


class StatsCollector:
    """Accumulates :class:`StageStats` per subplan fingerprint.

    One collector spans a whole observed run; the DAG executor fetches a
    stage's ledger once and publishes through it. Also flags the engine
    to tag chunks with :class:`~repro.core.provenance.Provenance`.
    """

    def __init__(self, reservoir_capacity: int = 256, provenance: bool = True) -> None:
        self.reservoir_capacity = reservoir_capacity
        self.provenance = provenance
        self._lock = threading.Lock()
        self._stages: dict[str, StageStats] = {}
        # (stream_id -> scans seen) so sources can stamp scan ordinals.
        self.scans: dict[str, int] = {}
        self.frames_scanned: dict[str, int] = {}

    def stage(self, fingerprint: str, label: str = "", kind: str = "") -> StageStats:
        with self._lock:
            entry = self._stages.get(fingerprint)
            if entry is None:
                entry = StageStats(fingerprint, label=label, kind=kind)
                entry.latencies = Reservoir(
                    capacity=self.reservoir_capacity, seed=fingerprint
                )
                self._stages[fingerprint] = entry
            elif label and not entry.label:
                entry.label = label
                entry.kind = kind
            return entry

    def get(self, fingerprint: str) -> Optional[StageStats]:
        return self._stages.get(fingerprint)

    def note_scan(self, stream_id: str, last_in_frame: bool) -> int:
        """Record one raw source chunk; returns its scan ordinal."""
        ordinal = self.scans.get(stream_id, 0)
        self.scans[stream_id] = ordinal + 1
        if last_in_frame:
            self.frames_scanned[stream_id] = self.frames_scanned.get(stream_id, 0) + 1
        return ordinal

    @property
    def stages(self) -> dict[str, StageStats]:
        return self._stages

    def __iter__(self) -> Iterator[StageStats]:
        return iter(list(self._stages.values()))

    def __len__(self) -> int:
        return len(self._stages)

    def to_dicts(self) -> list[dict]:
        return [s.to_dict() for s in self]

    def reset(self) -> None:
        with self._lock:
            self._stages.clear()
            self.scans.clear()
            self.frames_scanned.clear()


def current_collector() -> StatsCollector | None:
    """Hot-path guard: stage statistics are recorded only when not None."""
    return current().stats


# -- lineage queries ------------------------------------------------------------


def lineage(obj: object) -> Provenance | None:
    """The provenance tag of a chunk or delivered frame, if any.

    Accepts anything with a ``provenance`` attribute (chunks,
    ``DeliveredFrame``); returns None for untagged objects.
    """
    return getattr(obj, "provenance", None)


def format_lineage(obj: object, dag: "PlanDAG | None" = None) -> str:
    """Human-readable answer to "which stages and scans produced you?".

    With a ``PlanDAG`` the stage fingerprints are resolved to operator
    descriptions; without one the raw fingerprints are listed.
    """
    prov = obj if isinstance(obj, Provenance) else lineage(obj)
    if prov is None:
        return "lineage: untagged (run under a stats collector to record provenance)"

    def runs(ordinals: tuple[int, ...]) -> str:
        # Collapse consecutive ordinals: (0,1,2,5,7,8) -> "0..2, 5, 7..8".
        spans: list[str] = []
        start = prev = ordinals[0]
        for o in list(ordinals[1:]) + [None]:  # type: ignore[list-item]
            if o == prev + 1:
                prev = o
                continue
            spans.append(str(start) if start == prev else f"{start}..{prev}")
            if o is not None:
                start = prev = o
        return ", ".join(spans)

    lines = ["lineage:"]
    for sid in sorted(prov.stream_ids):
        ordinals = prov.scan_ordinals(sid)
        lines.append(f"  scans: {sid} ordinals [{runs(ordinals)}]")
    if prov.dropped_sources:
        lines.append(f"  scans: (+{prov.dropped_sources} earlier, beyond tag capacity)")
    describe = {}
    if dag is not None:
        describe = {
            stage.node.fingerprint: stage.node.describe() for stage in dag.order
        }
    for fp in sorted(prov.stages):
        desc = describe.get(fp)
        lines.append(f"  stage {fp}" + (f": {desc}" if desc else ""))
    if not prov.stages:
        lines.append("  stage: (raw scan, no operators applied)")
    return "\n".join(lines)
