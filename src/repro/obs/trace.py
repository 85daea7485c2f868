"""Frame-level distributed tracing and the in-memory flight recorder.

PR 1's spans (:mod:`repro.obs.tracing`) and PR 5's ``StageStats``
(:mod:`repro.obs.stats`) aggregate a whole run; neither can answer
"where did *this* delivered frame spend its 212 ms?".  This module adds
the per-request layer:

* :class:`TraceContext` — an immutable context carried on every sampled
  chunk in a ``trace`` field right next to ``chunk.provenance``.  It
  names the chunk's trace id(s), the hop that emitted it (the causal
  parent span), and the emission timestamp (so the next hop can split
  queue wait from compute).
* :class:`FrameTracer` — the process-wide tracer.  ``admit`` assigns a
  context to each source scan chunk (head-based sampling via
  ``sample_rate``; always-on while any query is in SLO breach);
  ``record_hop`` accumulates per-hop wall time, queue wait, and point
  counts; ``finalize_frame`` stitches the hops that are *ancestors of
  the delivered frame* into an immutable :class:`FrameTrace`.
* :class:`FlightRecorder` — a bounded ring buffer of the last N frame
  traces per query plus a bounded list of **pinned** captures.  Pins
  fire automatically on SLO breaches (:mod:`repro.obs.slo`), dead-letter
  quarantines, and injected faults (:mod:`repro.faults`).

Hop keys are chosen so traces cross-reference the rest of the
observability stack: a shared-plan stage's hop key *is* its subplan
fingerprint — the same key ``StageStats`` and ``EXPLAIN ANALYZE`` use —
so a slow bar in the waterfall links directly to that stage's aggregate
exemplar.  Hand-built operators (``pipe``, ``compose_streams``) reuse
the stats ledger key ``pull:<name>``, sources use
``source:<stream_id>`` and delivery uses ``delivery``.

Zero-cost discipline: the frame tracer is one field of the installed
:class:`~repro.obs.probe.Instruments` record, and an untraced chunk
(``chunk.trace is None``) never triggers ``perf_counter`` — the
perf-guard tests in ``tests/test_obs_stats.py`` monkeypatch this module's
``perf_counter`` (and the step clock in :mod:`repro.obs.probe`) to raise.
"""

from __future__ import annotations

import random
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Iterator

from .probe import current
from .registry import get_registry, metrics_enabled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.chunk import Chunk
    from ..core.stream import GeoStream

__all__ = [
    "TraceContext",
    "FrameHop",
    "FrameTrace",
    "FlightRecorder",
    "FrameTracer",
    "current_frame_tracer",
    "trace_source",
    "render_waterfall",
]

#: Cap on how many distinct trace ids a merged context may carry.
MAX_TRACE_IDS = 128

#: Cap on open (not yet delivered) trace builds before oldest unpinned evict.
MAX_OPEN_TRACES = 4096


@dataclass(frozen=True)
class TraceContext:
    """Immutable per-chunk trace context, carried beside ``provenance``.

    ``trace_id`` is the primary trace (the first source chunk that fed
    this data); ``ids`` lists every contributing trace for merged /
    buffered emissions.  ``parent_key`` is the hop that emitted the
    chunk — the causal parent span of whatever hop consumes it next —
    and ``emitted_s`` its ``perf_counter`` timestamp, so the consumer
    can attribute ``t0 - emitted_s`` to queue wait rather than compute.
    """

    trace_id: int
    ids: tuple[int, ...]
    parent_key: str
    emitted_s: float


class FrameHop:
    """Mutable per-hop aggregate inside one trace (one span when exported)."""

    __slots__ = (
        "key",
        "label",
        "kind",
        "parents",
        "chunks",
        "chunks_out",
        "points_in",
        "points_out",
        "wall_s",
        "queue_s",
        "first_s",
        "last_s",
    )

    def __init__(self, key: str, label: str, kind: str) -> None:
        self.key = key
        self.label = label
        self.kind = kind
        self.parents: set[str] = set()
        self.chunks = 0
        self.chunks_out = 0
        self.points_in = 0
        self.points_out = 0
        self.wall_s = 0.0
        self.queue_s = 0.0
        self.first_s = float("inf")
        self.last_s = 0.0

    def record(
        self,
        *,
        wall_s: float,
        queue_s: float,
        points_in: int,
        points_out: int,
        chunks: int,
        chunks_out: int,
        t0: float,
        t1: float,
    ) -> None:
        self.chunks += chunks
        self.chunks_out += chunks_out
        self.points_in += points_in
        self.points_out += points_out
        self.wall_s += wall_s
        self.queue_s += queue_s
        if t0 < self.first_s:
            self.first_s = t0
        if t1 > self.last_s:
            self.last_s = t1

    def copy(self) -> "FrameHop":
        dup = FrameHop(self.key, self.label, self.kind)
        dup.merge(self)
        return dup

    def merge(self, other: "FrameHop") -> None:
        self.parents |= other.parents
        self.chunks += other.chunks
        self.chunks_out += other.chunks_out
        self.points_in += other.points_in
        self.points_out += other.points_out
        self.wall_s += other.wall_s
        self.queue_s += other.queue_s
        self.first_s = min(self.first_s, other.first_s)
        self.last_s = max(self.last_s, other.last_s)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "kind": self.kind,
            "parents": sorted(self.parents),
            "chunks": self.chunks,
            "chunks_out": self.chunks_out,
            "points_in": self.points_in,
            "points_out": self.points_out,
            "wall_s": self.wall_s,
            "queue_s": self.queue_s,
            "start_s": None if self.first_s == float("inf") else self.first_s,
            "end_s": self.last_s or None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrameHop({self.key!r}, kind={self.kind!r}, chunks={self.chunks}, "
            f"wall={self.wall_s * 1e3:.3f}ms queue={self.queue_s * 1e3:.3f}ms)"
        )


class _TraceBuild:
    """An open (still flowing) trace: hops keyed by hop key, plus notes."""

    __slots__ = ("trace_id", "stream_id", "started_s", "hops", "annotations", "pin_reason", "captured")

    def __init__(self, trace_id: int, stream_id: str, started_s: float) -> None:
        self.trace_id = trace_id
        self.stream_id = stream_id
        self.started_s = started_s
        self.hops: dict[str, FrameHop] = {}
        self.annotations: list[str] = []
        self.pin_reason: str | None = None
        self.captured = False

    def hop(self, key: str, label: str, kind: str) -> FrameHop:
        entry = self.hops.get(key)
        if entry is None:
            entry = self.hops[key] = FrameHop(key, label, kind)
        return entry


class FrameTrace:
    """A finalized, immutable end-to-end account of one delivered frame."""

    __slots__ = (
        "trace_id",
        "trace_ids",
        "query",
        "stream_id",
        "frame_t",
        "band",
        "shape",
        "hops",
        "annotations",
        "pinned",
        "pin_reason",
        "partial",
    )

    def __init__(
        self,
        *,
        trace_id: int,
        trace_ids: tuple[int, ...],
        query: object,
        stream_id: str,
        frame_t: float | None,
        band: str | None,
        shape: tuple[int, int] | None,
        hops: list[FrameHop],
        annotations: tuple[str, ...],
        pinned: bool,
        pin_reason: str | None,
        partial: bool = False,
    ) -> None:
        self.trace_id = trace_id
        self.trace_ids = trace_ids
        self.query = query
        self.stream_id = stream_id
        self.frame_t = frame_t
        self.band = band
        self.shape = shape
        self.hops = hops
        self.annotations = annotations
        self.pinned = pinned
        self.pin_reason = pin_reason
        self.partial = partial

    # -- derived views -------------------------------------------------
    def hop_by_key(self, key: str) -> FrameHop | None:
        for hop in self.hops:
            if hop.key == key:
                return hop
        return None

    def stage_fingerprints(self) -> set[str]:
        """The shared-plan stage span set — comparable to
        ``PlanDAG.stage_fingerprints(query)`` / ``explain_dag()``."""
        return {h.key for h in self.hops if h.kind == "stage"}

    @property
    def total_wall_s(self) -> float:
        return sum(h.wall_s for h in self.hops)

    @property
    def total_queue_s(self) -> float:
        return sum(h.queue_s for h in self.hops)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "trace_ids": list(self.trace_ids),
            "query": self.query,
            "stream_id": self.stream_id,
            "frame_t": self.frame_t,
            "band": self.band,
            "shape": list(self.shape) if self.shape else None,
            "hops": [h.to_dict() for h in self.hops],
            "annotations": list(self.annotations),
            "pinned": self.pinned,
            "pin_reason": self.pin_reason,
            "partial": self.partial,
            "total_wall_s": self.total_wall_s,
            "total_queue_s": self.total_queue_s,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = " pinned" if self.pinned else ""
        return (
            f"FrameTrace(id={self.trace_id}, query={self.query!r}, "
            f"t={self.frame_t}, hops={len(self.hops)}{tag})"
        )


class FlightRecorder:
    """Bounded ring of recent frame traces per query + pinned captures.

    ``capacity`` bounds each per-query ring; ``pinned_capacity`` bounds
    the pinned list.  ``evictions`` counts traces pushed out of either —
    the recorder never grows past
    ``len(queries) * capacity + pinned_capacity`` entries.
    """

    def __init__(self, capacity: int = 16, pinned_capacity: int = 32) -> None:
        if capacity < 1 or pinned_capacity < 1:
            raise ValueError("FlightRecorder capacities must be >= 1")
        self.capacity = capacity
        self.pinned_capacity = pinned_capacity
        self._rings: dict[object, deque[FrameTrace]] = {}
        self.pinned: list[FrameTrace] = []
        self.recorded = 0
        self.evictions = 0
        self.pins = 0

    def record(self, trace: FrameTrace) -> None:
        ring = self._rings.get(trace.query)
        if ring is None:
            ring = self._rings[trace.query] = deque(maxlen=self.capacity)
        if len(ring) == self.capacity:
            self.evictions += 1
            if metrics_enabled():
                get_registry().counter("repro_trace_recorder_evictions_total").inc()
        ring.append(trace)
        self.recorded += 1

    def pin(self, trace: FrameTrace, reason: str | None = None) -> None:
        if reason is not None and trace.pin_reason is None:
            trace.pin_reason = reason
        trace.pinned = True
        if trace in self.pinned:
            return
        if len(self.pinned) >= self.pinned_capacity:
            self.pinned.pop(0)
            self.evictions += 1
            if metrics_enabled():
                get_registry().counter("repro_trace_recorder_evictions_total").inc()
        self.pinned.append(trace)
        self.pins += 1
        if metrics_enabled():
            get_registry().counter("repro_trace_pinned_total").inc()

    def pin_latest(self, query: object, reason: str) -> FrameTrace | None:
        """Pin the most recent trace recorded for ``query`` (SLO hook)."""
        ring = self._rings.get(query)
        if not ring:
            return None
        trace = ring[-1]
        self.pin(trace, reason)
        return trace

    def recent(self, query: object) -> list[FrameTrace]:
        """Newest-last list of retained traces for ``query``."""
        return list(self._rings.get(query, ()))

    def queries(self) -> list[object]:
        return list(self._rings)

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._rings.values()) + len(self.pinned)

    def within_bounds(self) -> bool:
        rings_ok = all(len(ring) <= self.capacity for ring in self._rings.values())
        return rings_ok and len(self.pinned) <= self.pinned_capacity


class FrameTracer:
    """Process-wide per-frame tracer (install via ``obs.observe(frame_trace=...)``
    or ``obs.installed(frame_tracer=...)``).

    Head-based sampling: the decision is taken once per source chunk at
    ``admit`` time (``sample_rate`` of chunks get a context; the rest
    flow untouched and cost nothing downstream).  While any query is in
    SLO breach, sampling is forced on so the breaching frames are always
    captured.
    """

    def __init__(
        self,
        *,
        sample_rate: float = 1.0,
        recorder: FlightRecorder | None = None,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        self.sample_rate = sample_rate
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self._rng = random.Random(seed)
        self._next_id = 1
        self._builds: "OrderedDict[int, _TraceBuild]" = OrderedDict()
        self._stream_notes: dict[str, list[str]] = {}
        self._breached: set[object] = set()
        self._breach_reasons: dict[object, str] = {}
        # Plan-epoch cutovers auto-pin the transition window: remaining
        # frames to pin and the annotation, per query (see on_epoch_swap).
        self._swap_window: dict[object, tuple[int, str]] = {}
        # Counters surfaced as repro_trace_* metrics and by `repro trace`.
        self.chunks_traced = 0
        self.chunks_sampled_out = 0
        self.frames_traced = 0
        self.build_evictions = 0

    # -- sampling / admission -----------------------------------------
    def _sampled(self) -> bool:
        if self._breached or self._swap_window:
            return True
        rate = self.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        return self._rng.random() < rate

    def admit(self, stream_id: str, chunk: "Chunk") -> "Chunk":
        """Assign a trace context to a source scan chunk (or keep one
        assigned upstream, e.g. by a hardened catalog's traced source)."""
        from dataclasses import replace as dc_replace

        ctx = chunk.trace
        if ctx is not None:
            self._attach_notes(stream_id, self._builds.get(ctx.trace_id))
            return chunk
        if not self._sampled():
            self.chunks_sampled_out += 1
            return chunk
        now = perf_counter()
        tid = self._next_id
        self._next_id += 1
        key = f"source:{stream_id}"
        build = _TraceBuild(tid, stream_id, now)
        hop = build.hop(key, f"scan {stream_id}", "source")
        n = chunk.n_points
        hop.record(
            wall_s=0.0, queue_s=0.0, points_in=n, points_out=n,
            chunks=1, chunks_out=1, t0=now, t1=now,
        )
        self._builds[tid] = build
        self._attach_notes(stream_id, build)
        if len(self._builds) > MAX_OPEN_TRACES:
            self._evict_build()
        self.chunks_traced += 1
        if metrics_enabled():
            get_registry().counter("repro_trace_chunks_total").inc()
        return dc_replace(chunk, trace=TraceContext(tid, (tid,), key, now))

    def _attach_notes(self, stream_id: str, build: _TraceBuild | None) -> None:
        notes = self._stream_notes.pop(stream_id, None)
        if not notes or build is None:
            return
        for note in notes:
            self._annotate_build(build, note, pin=True)

    def _evict_build(self) -> None:
        for tid, build in self._builds.items():
            if build.pin_reason is None:
                del self._builds[tid]
                self.build_evictions += 1
                return
        # Everything pinned: drop the oldest anyway to stay bounded.
        self._builds.popitem(last=False)
        self.build_evictions += 1

    # -- hop recording -------------------------------------------------
    def record_hop(
        self,
        ctx: TraceContext,
        *,
        key: str,
        label: str,
        kind: str,
        t0: float,
        t1: float,
        points_in: int,
        points_out: int,
        chunks_out: int,
    ) -> None:
        """Account one processing call of ``ctx``'s chunk at hop ``key``."""
        build = self._builds.get(ctx.trace_id)
        if build is None:
            return
        hop = build.hop(key, label, kind)
        hop.parents.add(ctx.parent_key)
        hop.record(
            wall_s=t1 - t0,
            queue_s=max(0.0, t0 - ctx.emitted_s),
            points_in=points_in,
            points_out=points_out,
            chunks=1,
            chunks_out=chunks_out,
            t0=t0,
            t1=t1,
        )

    def output_ctx(self, ctxs: list[TraceContext], key: str) -> TraceContext | None:
        """Context for chunks emitted by hop ``key`` after consuming ``ctxs``."""
        if not ctxs:
            return None
        ids: list[int] = []
        for ctx in ctxs:
            for tid in ctx.ids:
                if tid not in ids:
                    ids.append(tid)
                    if len(ids) >= MAX_TRACE_IDS:
                        break
            if len(ids) >= MAX_TRACE_IDS:
                break
        return TraceContext(ctxs[0].trace_id, tuple(ids), key, perf_counter())

    # -- annotations ---------------------------------------------------
    def annotate(self, ctx: TraceContext, note: str, pin: bool = False) -> None:
        """Attach a shed/fault/recovery note to the chunk's trace."""
        build = self._builds.get(ctx.trace_id)
        if build is None:
            return
        self._annotate_build(build, note, pin)

    def _annotate_build(self, build: _TraceBuild, note: str, pin: bool) -> None:
        if note not in build.annotations:
            build.annotations.append(note)
        if pin or note.startswith(("fault:", "recovery:")):
            if build.pin_reason is None:
                build.pin_reason = note
            # A pin arriving after the build was merged into a delivered
            # frame (buffering operators over-merge pending contexts) must
            # still surface: let flush_pinned re-capture it as partial.
            build.captured = False

    def note_stream_event(self, stream_id: str, note: str) -> None:
        """Queue a stream-level event (e.g. a reconnect) for the next
        chunk admitted on ``stream_id``."""
        self._stream_notes.setdefault(stream_id, []).append(note)

    # -- SLO integration ----------------------------------------------
    def on_breach(self, query: object, reason: str = "slo-breach") -> None:
        """SLO rising edge: force sampling on and pin the breaching
        query's most recent trace."""
        self._breached.add(query)
        self._breach_reasons[query] = reason
        self.recorder.pin_latest(query, reason)

    def on_recover(self, query: object) -> None:
        self._breached.discard(query)

    # -- plan-epoch integration ---------------------------------------
    def on_epoch_swap(
        self, query: object, old_epoch: int, new_epoch: int, window: int = 2
    ) -> None:
        """Plan-epoch cutover: pin the transition window in the recorder.

        The last frame delivered by the old epoch is pinned immediately,
        and the next ``window`` frames the new epoch delivers are
        force-sampled and pinned too — the flight recorder keeps both
        sides of every hot swap without anyone asking.
        """
        reason = f"epoch-swap:e{old_epoch}->e{new_epoch}"
        self.recorder.pin_latest(query, reason)
        self._swap_window[query] = (max(1, window), reason)

    def is_breached(self, query: object) -> bool:
        return query in self._breached

    # -- finalize ------------------------------------------------------
    def finalize_frame(
        self,
        query: object,
        ctxs: list[TraceContext],
        *,
        frame_t: float | None = None,
        band: str | None = None,
        shape: tuple[int, int] | None = None,
        t0: float | None = None,
        t1: float | None = None,
    ) -> FrameTrace | None:
        """Stitch the contexts that assembled one delivered frame into a
        :class:`FrameTrace`, record it, and auto-pin if annotated."""
        builds: list[_TraceBuild] = []
        seen: set[int] = set()
        for ctx in ctxs:
            for tid in ctx.ids:
                if tid in seen:
                    continue
                seen.add(tid)
                build = self._builds.get(tid)
                if build is not None:
                    builds.append(build)
        if not builds:
            return None
        merged: "OrderedDict[str, FrameHop]" = OrderedDict()
        for build in builds:
            for key, hop in build.hops.items():
                entry = merged.get(key)
                if entry is None:
                    merged[key] = hop.copy()
                else:
                    entry.merge(hop)
        terminal = {ctx.parent_key for ctx in ctxs}
        roots: set[str] = set(terminal)
        if t0 is not None and t1 is not None:
            ship = FrameHop("delivery", "deliver frame", "delivery")
            ship.parents |= terminal
            # Frame-assembly wait: time from the first contributing chunk
            # leaving its producer to the encode starting (not a per-chunk
            # sum, which would dwarf the compute split for wide frames).
            ship.record(
                wall_s=t1 - t0,
                queue_s=max(0.0, t0 - min(ctx.emitted_s for ctx in ctxs)),
                points_in=sum(h.points_out for k, h in merged.items() if k in terminal),
                points_out=0,
                chunks=len(ctxs),
                chunks_out=1,
                t0=t0,
                t1=t1,
            )
            merged["delivery"] = ship
            roots = {"delivery"}
        # Keep only hops on the causal path to this frame: the shared
        # build also accumulated hops from sibling queries' stages.
        keep: set[str] = set()
        frontier = list(roots)
        while frontier:
            key = frontier.pop()
            if key in keep:
                continue
            hop = merged.get(key)
            if hop is None:
                continue
            keep.add(key)
            frontier.extend(hop.parents)
        hops = [hop for key, hop in merged.items() if key in keep]
        annotations: list[str] = []
        pin_reason: str | None = None
        for build in builds:
            for note in build.annotations:
                if note not in annotations:
                    annotations.append(note)
            if pin_reason is None and build.pin_reason is not None:
                pin_reason = build.pin_reason
            build.captured = True
        trace = FrameTrace(
            trace_id=builds[0].trace_id,
            trace_ids=tuple(sorted(seen)),
            query=query,
            stream_id=builds[0].stream_id,
            frame_t=frame_t,
            band=band,
            shape=shape,
            hops=hops,
            annotations=tuple(annotations),
            pinned=pin_reason is not None,
            pin_reason=pin_reason,
        )
        self.frames_traced += 1
        if metrics_enabled():
            get_registry().counter("repro_trace_frames_total").inc()
        self.recorder.record(trace)
        if trace.pinned:
            self.recorder.pin(trace, pin_reason)
        if self.is_breached(query):
            # A frame delivered while its query is past the SLO always
            # carries the breach, even when a fault already pinned it.
            breach = self._breach_reasons.get(query, "slo-breach")
            if breach not in trace.annotations:
                trace.annotations = tuple(trace.annotations) + (breach,)
            self.recorder.pin(trace, breach)
        window = self._swap_window.get(query)
        if window is not None:
            remaining, reason = window
            if reason not in trace.annotations:
                trace.annotations = tuple(trace.annotations) + (reason,)
            self.recorder.pin(trace, reason)
            if remaining <= 1:
                del self._swap_window[query]
            else:
                self._swap_window[query] = (remaining - 1, reason)
        return trace

    def flush_pinned(self) -> int:
        """Capture pinned builds that never reached delivery (dropped /
        quarantined frames) as *partial* traces.  Returns how many."""
        flushed = 0
        for build in list(self._builds.values()):
            if build.pin_reason is None or build.captured:
                continue
            trace = FrameTrace(
                trace_id=build.trace_id,
                trace_ids=(build.trace_id,),
                query=None,
                stream_id=build.stream_id,
                frame_t=None,
                band=None,
                shape=None,
                hops=[hop.copy() for hop in build.hops.values()],
                annotations=tuple(build.annotations),
                pinned=True,
                pin_reason=build.pin_reason,
                partial=True,
            )
            self.recorder.pin(trace, build.pin_reason)
            build.captured = True
            flushed += 1
        return flushed

    def reset(self) -> None:
        self._builds.clear()
        self._stream_notes.clear()
        self._breached.clear()
        self._swap_window.clear()


def current_frame_tracer() -> FrameTracer | None:
    """The installed frame tracer, or None (all trace work is skipped)."""
    return current().frame_tracer


def trace_source(stream: "GeoStream") -> "GeoStream":
    """Wrap a raw source so chunks get trace contexts *before* any fault
    injection or hardening — quarantined chunks then carry a traceable
    context.  Install-order independent: the tracer is looked up at each
    open, and with no tracer installed the stream passes through."""
    from ..core.stream import GeoStream

    def source() -> Iterator:
        it = stream.chunks()
        tracer = current_frame_tracer()
        if tracer is None:
            return it
        return _admitted(tracer, stream.stream_id, it)

    return GeoStream(stream.metadata, source)


def _admitted(tracer: FrameTracer, stream_id: str, it: Iterable) -> Iterator:
    for chunk in it:
        yield tracer.admit(stream_id, chunk)


# -- ASCII waterfall ----------------------------------------------------
def hop_tree(trace: FrameTrace) -> list[tuple[int, FrameHop]]:
    """Hops in dataflow order with tree depth (sources first)."""
    hops = {hop.key: hop for hop in trace.hops}
    children: dict[str, list[str]] = {key: [] for key in hops}
    roots: list[str] = []
    for hop in trace.hops:
        parents_in = [p for p in sorted(hop.parents) if p in hops and p != hop.key]
        if parents_in:
            children[parents_in[0]].append(hop.key)
        else:
            roots.append(hop.key)
    out: list[tuple[int, FrameHop]] = []
    seen: set[str] = set()

    def visit(key: str, depth: int) -> None:
        if key in seen:
            return
        seen.add(key)
        out.append((depth, hops[key]))
        for child in children[key]:
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    for hop in trace.hops:  # cycles / orphans, just in case
        visit(hop.key, 0)
    return out


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:8.3f}ms"


def render_waterfall(trace: FrameTrace, width: int = 48) -> str:
    """Render one frame trace as an ASCII waterfall.

    Each hop gets a bar positioned on the frame's wall-clock timeline;
    ``.`` cells are queue wait, ``#`` cells compute.  Stage hops print
    their subplan fingerprint (``#<fp>``) — the exemplar key into
    ``StageStats`` / ``EXPLAIN ANALYZE``.
    """
    ordered = hop_tree(trace)
    lines: list[str] = []
    head = f"trace {trace.trace_id:#x}"
    if len(trace.trace_ids) > 1:
        head += f" (+{len(trace.trace_ids) - 1} merged)"
    if trace.query is not None:
        head += f" · query {trace.query}"
    if trace.partial:
        head += " · PARTIAL (never delivered)"
    lines.append(head)
    meta = []
    if trace.frame_t is not None:
        meta.append(f"frame t={trace.frame_t:g}")
    if trace.band:
        meta.append(f"band={trace.band}")
    if trace.shape:
        meta.append(f"shape={trace.shape[0]}x{trace.shape[1]}")
    meta.append(f"stream={trace.stream_id}")
    total = trace.total_wall_s + trace.total_queue_s
    if total > 0:
        meta.append(
            f"compute {trace.total_wall_s * 1e3:.3f}ms / "
            f"queue {trace.total_queue_s * 1e3:.3f}ms "
            f"({100.0 * trace.total_queue_s / total:.0f}% waiting)"
        )
    lines.append("  " + " · ".join(meta))
    if trace.pinned:
        lines.append(f"  PINNED: {trace.pin_reason}")
    for note in trace.annotations:
        lines.append(f"  ! {note}")

    starts = [h.first_s - h.queue_s for _, h in ordered if h.first_s != float("inf")]
    ends = [h.last_s for _, h in ordered if h.last_s]
    t_min = min(starts) if starts else 0.0
    span = max((max(ends) - t_min) if ends else 0.0, 1e-9)

    label_w = max(
        (len("  " * d + _hop_title(h)) for d, h in ordered), default=0
    )
    label_w = min(max(label_w, 12), 56)
    for depth, hop in ordered:
        title = ("  " * depth + _hop_title(hop))[:label_w]
        if hop.first_s == float("inf"):
            bar = ""
            offset = 0
        else:
            begin = hop.first_s - hop.queue_s
            offset = int((begin - t_min) / span * width)
            cells = max(1, int((hop.last_s - begin) / span * width))
            busy = hop.queue_s + hop.wall_s
            q_cells = int(round(cells * (hop.queue_s / busy))) if busy > 0 else 0
            bar = "." * q_cells + "#" * (cells - q_cells)
        timing = (
            f"{_fmt_ms(hop.wall_s)} cpu {_fmt_ms(hop.queue_s)} wait"
            f"  {hop.chunks:>3}ch {hop.points_in:>7}->{hop.points_out:<7}pts"
        )
        lines.append(f"  {title:<{label_w}} |{' ' * offset}{bar:<{width - offset}}| {timing}")
    lines.append(
        f"  {'':<{label_w}} |{'-' * width}| total {span * 1e3:.3f}ms wall-clock"
    )
    return "\n".join(lines)


def _hop_title(hop: FrameHop) -> str:
    if hop.kind == "stage":
        return f"{hop.label or hop.key} #{hop.key[:10]}"
    return hop.label or hop.key


def span_id_for(trace_id: int, key: str) -> str:
    """Deterministic 8-byte hex span id for exporters."""
    return f"{(trace_id << 32 | zlib.crc32(key.encode())) & 0xFFFFFFFFFFFFFFFF:016x}"
