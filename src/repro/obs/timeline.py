"""Rolling telemetry timeline: time-series store, event journal, health.

Three cooperating pieces turn the point-in-time registry into an
operable system:

* :class:`MetricStore` — a bounded in-memory time-series store. It
  samples the live :class:`~repro.obs.registry.MetricsRegistry` on a
  *logical-clock* cadence (the DSMS stream clock / the recovery layer's
  :class:`~repro.faults.recovery.SimClock`) into fixed-capacity rings,
  one per ``(metric, labels)`` series, and answers windowed rollups
  (rate, delta, min/mean/max/p99 over the last *N* samples).
* :class:`EventJournal` — one append-only ring with a stable schema that
  subsumes the scattered operational signals: SLO breach edges, epoch
  swaps, fault injections, shed escalations, dead letters, and stream
  reconnects all land here as :class:`JournalEvent`\\ s carrying query
  id, epoch, and a ``link`` string drawn from the flight recorder's
  pin-reason vocabulary, so a journal entry clicks through to the
  matching pinned :class:`~repro.obs.trace.FrameTrace`.
* :class:`HealthModel` — folds SLO breach state, shed pressure,
  dead-letter volume, epoch-swap churn, and delivery-lag trends into
  per-query and server-level ``healthy/degraded/unhealthy`` verdicts
  with explained reasons.

Installation: the store and the journal are two fields of the installed
:class:`~repro.obs.probe.Instruments` record (:func:`current_metric_store`
/ :func:`current_journal` are views of it), read once per run by the
DSMS; with nothing installed the fast path pays one ``None`` check per
chunk — no sampling, no allocation, no clock reads.

Determinism contract (enforced by ``repro_lint`` RL007): this module
never reads a wall clock. Every timestamp is a *logical* time passed in
by the caller — stream time from the DSMS, sim-clock time from the fault
layer — so traced and untraced chaos runs produce bit-identical
journals and test assertions never race the machine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from .probe import current
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObservabilityError,
    _label_key,
    _LabelKey,
    get_registry,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .trace import FlightRecorder, FrameTrace

__all__ = [
    "MetricStore",
    "SeriesKey",
    "Rollup",
    "JournalEvent",
    "EventJournal",
    "HealthPolicy",
    "QueryHealth",
    "HealthReport",
    "HealthModel",
    "current_metric_store",
    "current_journal",
    "VERDICT_HEALTHY",
    "VERDICT_DEGRADED",
    "VERDICT_UNHEALTHY",
]

def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of a small sample (q in [0, 1])."""
    if not values:
        raise ObservabilityError("quantile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] + frac * (ordered[hi] - ordered[lo])


# -- time-series store --------------------------------------------------------


@dataclass(frozen=True)
class SeriesKey:
    """Identity of one stored series: metric name + sorted labels."""

    name: str
    labels: _LabelKey

    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)


@dataclass(frozen=True)
class Rollup:
    """Windowed aggregate over the last-N samples of one series.

    ``delta``/``rate`` read the series as a counter (last minus first
    over the window); ``vmin``/``mean``/``vmax``/``p99`` read it as a
    gauge (distribution of the sampled values).
    """

    name: str
    labels: dict[str, str]
    window: int  # samples actually aggregated
    first_t: float
    last_t: float
    delta: float
    rate: float  # delta per logical second (0 when the window has no span)
    vmin: float
    mean: float
    vmax: float
    p99: float

    @property
    def span_s(self) -> float:
        return self.last_t - self.first_t

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": self.labels,
            "window": self.window,
            "first_t": self.first_t,
            "last_t": self.last_t,
            "delta": self.delta,
            "rate": self.rate,
            "min": self.vmin,
            "mean": self.mean,
            "max": self.vmax,
            "p99": self.p99,
        }


class _Series:
    """One fixed-capacity ring of (logical_t, value) samples."""

    __slots__ = ("key", "kind", "points")

    def __init__(self, key: SeriesKey, kind: str, capacity: int) -> None:
        self.key = key
        self.kind = kind
        self.points: deque[tuple[float, float]] = deque(maxlen=capacity)


class MetricStore:
    """Bounded time-series store sampled from the metrics registry.

    ``capacity`` bounds every ring (oldest samples are evicted);
    ``cadence_s`` is the minimum *logical* seconds between samples —
    :meth:`maybe_sample` called every chunk costs one float comparison
    between ticks. A logical clock that moves backwards (a new run on a
    fresh stream) resets the store rather than corrupting monotonicity.
    """

    def __init__(self, capacity: int = 360, cadence_s: float = 30.0) -> None:
        if capacity <= 0:
            raise ObservabilityError(f"store capacity must be positive, got {capacity}")
        if cadence_s < 0:
            raise ObservabilityError(f"store cadence must be >= 0, got {cadence_s}")
        self.capacity = int(capacity)
        self.cadence_s = float(cadence_s)
        self._series: dict[tuple[str, _LabelKey], _Series] = {}
        self._last_t: float | None = None
        self.samples_taken = 0
        self.resets = 0
        self.ticks: deque[float] = deque(maxlen=capacity)

    # -- sampling -----------------------------------------------------------

    @property
    def last_t(self) -> float | None:
        return self._last_t

    def maybe_sample(
        self, now: float, registry: Optional[MetricsRegistry] = None
    ) -> bool:
        """Sample if at least one cadence interval has elapsed.

        The per-chunk fast path: between ticks this is a single float
        comparison. Returns True when a sample was taken.
        """
        if self._last_t is not None:
            if now < self._last_t:
                self.reset()  # logical clock restarted: a new run began
            elif now - self._last_t < self.cadence_s or now == self._last_t:
                return False
        self.sample(now, registry)
        return True

    def sample(self, now: float, registry: Optional[MetricsRegistry] = None) -> int:
        """Force one sampling tick at logical time ``now``.

        Returns the number of series updated. Tick timestamps stay
        strictly monotone: a repeat of the current tick time updates the
        newest sample in place (end-of-run state wins) and a regression
        resets the store first.
        """
        now = float(now)
        repeat = False
        if self._last_t is not None:
            if now < self._last_t:
                self.reset()
            elif now == self._last_t:
                repeat = True
        if registry is None:
            registry = get_registry()
        updated = 0
        for metric in registry:
            for suffix, value in self._instrument_values(metric):
                if value is None:
                    continue
                key = (metric.name + suffix, _label_key(metric.labels))
                series = self._series.get(key)
                if series is None:
                    series = self._series[key] = _Series(
                        SeriesKey(key[0], key[1]), metric.kind, self.capacity
                    )
                if repeat and series.points and series.points[-1][0] == now:
                    series.points[-1] = (now, float(value))
                else:
                    series.points.append((now, float(value)))
                updated += 1
        self._last_t = now
        if not repeat:
            self.samples_taken += 1
            self.ticks.append(now)
        return updated

    @staticmethod
    def _instrument_values(
        metric: object,
    ) -> list[tuple[str, float | None]]:
        """(series name suffix, value) pairs for one instrument.

        Counters and gauges store their value under the bare metric
        name; histograms fan out into ``:count`` / ``:sum`` / ``:p99``
        derived series so rate (events/s), mean (sum delta over count
        delta), and tail latency are all recoverable from the rings.
        """
        if isinstance(metric, (Counter, Gauge)):
            return [("", metric.value)]
        if isinstance(metric, Histogram):
            return [
                (":count", float(metric.count)),
                (":sum", metric.sum),
                (":p99", metric.quantile(0.99)),
            ]
        return []

    def reset(self) -> None:
        """Drop every ring (logical clock restarted)."""
        self._series.clear()
        self.ticks.clear()
        self._last_t = None
        self.resets += 1

    # -- reads --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._series)

    def keys(self) -> list[SeriesKey]:
        return [s.key for s in self._series.values()]

    def series(self, name: str, **labels: object) -> list[tuple[float, float]]:
        """The stored (logical_t, value) points of one series, oldest first."""
        found = self._series.get((name, _label_key(labels)))
        return list(found.points) if found is not None else []

    def matching(self, name: str) -> list[_Series]:
        return [s for s in self._series.values() if s.key.name == name]

    def rollup(
        self, name: str, window: int | None = None, **labels: object
    ) -> Rollup | None:
        """Aggregate the last ``window`` samples of one series (None = all)."""
        points = self.series(name, **labels)
        if not points:
            return None
        if window is not None:
            if window <= 0:
                raise ObservabilityError(f"rollup window must be positive, got {window}")
            points = points[-window:]
        times = [t for t, _ in points]
        values = [v for _, v in points]
        delta = values[-1] - values[0]
        span = times[-1] - times[0]
        return Rollup(
            name=name,
            labels={k: str(v) for k, v in labels.items()},
            window=len(points),
            first_t=times[0],
            last_t=times[-1],
            delta=delta,
            rate=(delta / span) if span > 0 else 0.0,
            vmin=min(values),
            mean=sum(values) / len(values),
            vmax=max(values),
            p99=_quantile(values, 0.99),
        )

    def trend_rising(self, name: str, window: int = 8, **labels: object) -> bool:
        """True when the series' last-N samples are net and locally rising.

        A cheap monotone-trend test for the health model: the newest
        value exceeds both the window's first value and the window mean.
        """
        points = self.series(name, **labels)[-window:]
        if len(points) < 3:
            return False
        values = [v for _, v in points]
        mean = sum(values) / len(values)
        return values[-1] > values[0] and values[-1] > mean

    def to_dict(self, window: int = 20) -> dict:
        """The ``/timeseries`` payload: every ring plus its windowed rollup."""
        series = []
        for s in sorted(self._series.values(), key=lambda s: (s.key.name, s.key.labels)):
            labels = s.key.label_dict()
            roll = self.rollup(s.key.name, window=window, **labels)
            series.append(
                {
                    "name": s.key.name,
                    "labels": labels,
                    "kind": s.kind,
                    "points": [[t, v] for t, v in s.points],
                    "rollup": roll.to_dict() if roll is not None else None,
                }
            )
        return {
            "capacity": self.capacity,
            "cadence_s": self.cadence_s,
            "samples_taken": self.samples_taken,
            "last_t": self._last_t,
            "series": series,
        }


# -- event journal ------------------------------------------------------------


@dataclass(frozen=True)
class JournalEvent:
    """One operational event, schema-stable across the event kinds.

    ``t`` is logical time (stream clock or sim clock — never wall
    clock), ``link`` is a deterministic cross-link into the flight
    recorder's pin-reason/annotation vocabulary (``fault:<kind>``,
    ``slo-breach:...``, ``epoch-swap:eN->eM``,
    ``recovery:quarantined:<reason>``), empty when the event has no
    trace-side counterpart. Trace ids are deliberately *not* recorded:
    they only exist when tracing is installed, and the journal must be
    bit-identical with and without a tracer.
    """

    seq: int
    t: float
    kind: str
    query: int | None
    epoch: int | None
    reason: str
    link: str

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "t": self.t,
            "kind": self.kind,
            "query": self.query,
            "epoch": self.epoch,
            "reason": self.reason,
            "link": self.link,
        }


class EventJournal:
    """Append-only bounded ring of :class:`JournalEvent`\\ s.

    One journal subsumes every operational signal; ``seq`` is a strictly
    increasing global sequence (eviction drops old events but never
    reuses numbers), so consumers can poll ``events(since_seq=...)``
    over the wire without missing or double-counting.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ObservabilityError(f"journal capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._events: deque[JournalEvent] = deque(maxlen=capacity)
        self._seq = 0
        self.total = 0
        self.now = 0.0  # logical clock, advanced by the DSMS run loop

    def set_time(self, t: float) -> None:
        """Advance the journal's logical clock (events default to it)."""
        self.now = float(t)

    def append(
        self,
        kind: str,
        *,
        query: int | None = None,
        epoch: int | None = None,
        reason: str = "",
        link: str = "",
        t: float | None = None,
    ) -> JournalEvent:
        self._seq += 1
        self.total += 1
        event = JournalEvent(
            seq=self._seq,
            t=float(t) if t is not None else self.now,
            kind=kind,
            query=query,
            epoch=epoch,
            reason=reason,
            link=link,
        )
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[JournalEvent]:
        return iter(list(self._events))

    def events(
        self,
        kind: str | None = None,
        query: int | None = None,
        since_seq: int = 0,
    ) -> list[JournalEvent]:
        """Filtered view, oldest first."""
        return [
            e
            for e in self._events
            if e.seq > since_seq
            and (kind is None or e.kind == kind)
            and (query is None or e.query == query)
        ]

    def tail(self, n: int = 10) -> list[JournalEvent]:
        return list(self._events)[-n:]

    def to_dicts(self) -> list[dict]:
        return [e.to_dict() for e in self._events]

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for event in self._events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def captures(
        self, event: JournalEvent, recorder: "FlightRecorder"
    ) -> "list[FrameTrace]":
        """Flight-recorder captures a journal event clicks through to.

        Matches the event's ``link`` against each pinned trace's
        pin-reason and annotations (prefix match: annotations carry
        trailing detail like attempt counts), filtered to the event's
        query when both sides know one.
        """
        if not event.link:
            return []
        out = []
        for trace in recorder.pinned:
            if (
                event.query is not None
                and trace.query is not None
                and trace.query != event.query
            ):
                continue
            texts = list(trace.annotations)
            if trace.pin_reason:
                texts.append(trace.pin_reason)
            if any(text.startswith(event.link) for text in texts):
                out.append(trace)
        return out


# -- health model -------------------------------------------------------------

VERDICT_HEALTHY = "healthy"
VERDICT_DEGRADED = "degraded"
VERDICT_UNHEALTHY = "unhealthy"

_SEVERITY = {VERDICT_HEALTHY: 0, VERDICT_DEGRADED: 1, VERDICT_UNHEALTHY: 2}


def _worst(verdicts: "list[str]") -> str:
    return max(verdicts, key=lambda v: _SEVERITY[v]) if verdicts else VERDICT_HEALTHY


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds the verdicts fold over (all logical quantities)."""

    # Fraction of the SLO lag budget above which a query degrades.
    lag_warn_fraction: float = 0.5
    # Rising delivery-lag trend over this many store samples degrades.
    trend_window: int = 8
    # Dead letters: any quarantined item degrades, this many go unhealthy.
    dead_letter_unhealthy: int = 64
    # Shed pressure above this degrades the server.
    pressure_warn: float = 1.5
    # More epoch swaps than this within the journal's recent window degrades.
    swap_churn_limit: int = 2
    swap_churn_window: int = 64  # journal events considered "recent"


@dataclass(frozen=True)
class QueryHealth:
    """One query's verdict plus the evidence behind it."""

    query: int
    verdict: str
    reasons: tuple[str, ...]
    lag_s: float | None
    watermark: float | None
    epoch: int
    breaches: int

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "verdict": self.verdict,
            "reasons": list(self.reasons),
            "lag_s": self.lag_s,
            "watermark": self.watermark,
            "epoch": self.epoch,
            "breaches": self.breaches,
        }


@dataclass(frozen=True)
class HealthReport:
    """Server-level verdict derived from every query plus global signals."""

    verdict: str
    reasons: tuple[str, ...]
    queries: tuple[QueryHealth, ...]
    at: float
    dead_letters: int
    shed_pressure: float
    recent_swaps: int

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reasons": list(self.reasons),
            "queries": [q.to_dict() for q in self.queries],
            "at": self.at,
            "dead_letters": self.dead_letters,
            "shed_pressure": self.shed_pressure,
            "recent_swaps": self.recent_swaps,
        }


class HealthModel:
    """Folds live signals into explained health verdicts.

    The per-query and server folds (:meth:`query_verdict`,
    :meth:`server_verdict`) are pure functions of their inputs — the
    self-test exercises them directly — and :meth:`assess` gathers those
    inputs from a live :class:`~repro.server.dsms.DSMSServer`, an
    optional :class:`MetricStore` (lag trends), and an optional
    :class:`EventJournal` (epoch churn).
    """

    def __init__(self, policy: HealthPolicy | None = None) -> None:
        self.policy = policy if policy is not None else HealthPolicy()

    # -- pure folds ---------------------------------------------------------

    def query_verdict(
        self,
        *,
        breached: bool,
        lag_s: float | None,
        max_lag_s: float | None,
        lag_rising: bool = False,
        breaches: int = 0,
    ) -> tuple[str, tuple[str, ...]]:
        reasons: list[str] = []
        verdict = VERDICT_HEALTHY
        if breached:
            verdict = VERDICT_UNHEALTHY
            if lag_s is not None and max_lag_s is not None:
                reasons.append(
                    f"SLO breach active: delivery lag {lag_s:g}s "
                    f"(budget {max_lag_s:g}s)"
                )
            else:
                reasons.append("SLO breach active")
        else:
            if (
                lag_s is not None
                and max_lag_s is not None
                and lag_s > self.policy.lag_warn_fraction * max_lag_s
            ):
                verdict = VERDICT_DEGRADED
                reasons.append(
                    f"delivery lag {lag_s:g}s above "
                    f"{self.policy.lag_warn_fraction:.0%} of the {max_lag_s:g}s budget"
                )
            if lag_rising:
                verdict = _worst([verdict, VERDICT_DEGRADED])
                reasons.append(
                    f"delivery lag rising over the last "
                    f"{self.policy.trend_window} samples"
                )
        if breaches and verdict != VERDICT_HEALTHY:
            reasons.append(f"{breaches} SLO breach(es) this run")
        return verdict, tuple(reasons)

    def server_verdict(
        self,
        query_verdicts: "list[str]",
        *,
        dead_letters: int = 0,
        shed_pressure: float = 1.0,
        recent_swaps: int = 0,
    ) -> tuple[str, tuple[str, ...]]:
        reasons: list[str] = []
        verdict = _worst(query_verdicts)
        if dead_letters >= self.policy.dead_letter_unhealthy:
            verdict = VERDICT_UNHEALTHY
            reasons.append(
                f"{dead_letters} dead-lettered item(s) "
                f"(>= {self.policy.dead_letter_unhealthy})"
            )
        elif dead_letters > 0:
            verdict = _worst([verdict, VERDICT_DEGRADED])
            reasons.append(f"{dead_letters} dead-lettered item(s)")
        if shed_pressure > self.policy.pressure_warn:
            verdict = _worst([verdict, VERDICT_DEGRADED])
            reasons.append(f"shed pressure {shed_pressure:g} > {self.policy.pressure_warn:g}")
        if recent_swaps > self.policy.swap_churn_limit:
            verdict = _worst([verdict, VERDICT_DEGRADED])
            reasons.append(
                f"epoch churn: {recent_swaps} swaps in the last "
                f"{self.policy.swap_churn_window} events"
            )
        if not reasons and verdict != VERDICT_HEALTHY:
            reasons.append("degraded/unhealthy queries (see per-query reasons)")
        return verdict, tuple(reasons)

    # -- live assessment ----------------------------------------------------

    def assess(
        self,
        server: object,
        store: "MetricStore | None" = None,
        journal: "EventJournal | None" = None,
    ) -> HealthReport:
        """Evaluate a live DSMS server (duck-typed to avoid import cycles)."""
        if store is None:
            store = current_metric_store()
        if journal is None:
            journal = current_journal()
        monitor = getattr(server, "slo_monitor", None)
        max_lag_s = monitor.policy.max_lag_s if monitor is not None else None
        now = float(getattr(server, "_now", 0.0))

        queries: list[QueryHealth] = []
        registrations = getattr(server, "_registrations", {})
        plan_dag = getattr(server, "plan_dag", None)
        for rid in sorted(registrations):
            reg = registrations[rid]
            watermarks = [
                s.watermark for s in reg.sessions if s.watermark > float("-inf")
            ]
            watermark: float | None = max(watermarks) if watermarks else None
            if monitor is not None and monitor.watermark(rid) is not None:
                watermark = monitor.watermark(rid)
            lag_s = now - watermark if watermark is not None else None
            lag_rising = False
            if store is not None:
                lag_rising = store.trend_rising(
                    "repro_slo_lag_seconds", window=self.policy.trend_window, query=rid
                )
            verdict, reasons = self.query_verdict(
                breached=bool(monitor is not None and monitor.is_breached(rid)),
                lag_s=lag_s,
                max_lag_s=max_lag_s,
                lag_rising=lag_rising,
                breaches=monitor.breach_count(rid) if monitor is not None else 0,
            )
            queries.append(
                QueryHealth(
                    query=rid,
                    verdict=verdict,
                    reasons=reasons,
                    lag_s=lag_s,
                    watermark=watermark,
                    epoch=plan_dag.current_epoch(rid) if plan_dag is not None else 0,
                    breaches=monitor.breach_count(rid) if monitor is not None else 0,
                )
            )

        recovery = None
        recovery_getter = getattr(server, "_recovery_ctx", None)
        if callable(recovery_getter):
            recovery = recovery_getter()
        dead_letters = recovery.dead_letter.total if recovery is not None else 0
        shedder = getattr(server, "ingest_shedder", None)
        shed_pressure = float(getattr(shedder, "pressure", 1.0) or 1.0)
        if journal is not None:
            recent = journal.tail(self.policy.swap_churn_window)
            recent_swaps = sum(1 for e in recent if e.kind == "epoch-swap")
        else:
            recent_swaps = len(getattr(server, "swap_log", ()))
        verdict, reasons = self.server_verdict(
            [q.verdict for q in queries],
            dead_letters=dead_letters,
            shed_pressure=shed_pressure,
            recent_swaps=recent_swaps,
        )
        return HealthReport(
            verdict=verdict,
            reasons=reasons,
            queries=tuple(queries),
            at=now,
            dead_letters=dead_letters,
            shed_pressure=shed_pressure,
            recent_swaps=recent_swaps,
        )


def current_metric_store() -> MetricStore | None:
    """The installed metric store, or None (zero-cost fast path)."""
    return current().store


def current_journal() -> EventJournal | None:
    """The installed event journal, or None (zero-cost fast path)."""
    return current().journal
