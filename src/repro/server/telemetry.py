"""Stdlib HTTP telemetry endpoint and the ``repro top`` console renderer.

:class:`TelemetryServer` wraps a :class:`~http.server.ThreadingHTTPServer`
in a daemon thread and serves the operational state of one
:class:`~repro.server.dsms.DSMSServer`:

========================  ====================================================
``/``                     endpoint index (JSON)
``/metrics``              Prometheus text exposition of the live registry
``/health``               :class:`~repro.obs.timeline.HealthModel` report
``/timeseries``           :class:`~repro.obs.timeline.MetricStore` rings +
                          windowed rollups (``?name=``, ``?window=``)
``/events``               :class:`~repro.obs.timeline.EventJournal` entries
                          (``?kind=``, ``?query=``, ``?since=``, ``?limit=``)
``/traces/<id>``          one flight-recorder capture by trace id
========================  ====================================================

The payload builders (:func:`health_payload`, :func:`timeseries_payload`,
:func:`events_payload`, :func:`trace_payload`) are plain functions over
the live objects, shared by the HTTP handler and the CLI's in-process
mode, so both paths serialize identically and the JSON round-trip tests
cover them once.

:func:`render_top` turns the ``/health`` + ``/timeseries`` + ``/events``
payloads into the ``repro top`` ANSI dashboard — a pure function of the
JSON documents, so the console renders the same against an in-process
server or a remote HTTP endpoint (:func:`fetch_json`).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Optional
from urllib.parse import parse_qs, urlsplit
from urllib.request import urlopen

from ..obs.export import register_build_info, to_prometheus
from ..obs.timeline import (
    EventJournal,
    HealthModel,
    MetricStore,
    current_journal,
    current_metric_store,
)
from ..obs.trace import current_frame_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.trace import FlightRecorder
    from .dsms import DSMSServer

__all__ = [
    "TelemetryServer",
    "health_payload",
    "timeseries_payload",
    "events_payload",
    "trace_payload",
    "sparkline",
    "render_top",
    "fetch_json",
]


# -- payload builders ---------------------------------------------------------


def _current_recorder() -> "FlightRecorder | None":
    ftracer = current_frame_tracer()
    return ftracer.recorder if ftracer is not None else None


def health_payload(
    server: "DSMSServer",
    store: MetricStore | None = None,
    journal: EventJournal | None = None,
    model: HealthModel | None = None,
) -> dict:
    if model is None:
        model = HealthModel()
    return model.assess(server, store=store, journal=journal).to_dict()


def timeseries_payload(
    store: MetricStore | None,
    name: str | None = None,
    window: int = 20,
) -> dict:
    if store is None:
        return {"capacity": 0, "cadence_s": 0.0, "samples_taken": 0,
                "last_t": None, "series": []}
    payload = store.to_dict(window=window)
    if name is not None:
        payload["series"] = [s for s in payload["series"] if s["name"] == name]
    return payload


def events_payload(
    journal: EventJournal | None,
    kind: str | None = None,
    query: int | None = None,
    since_seq: int = 0,
    limit: int | None = None,
) -> dict:
    if journal is None:
        return {"capacity": 0, "total": 0, "events": []}
    events = journal.events(kind=kind, query=query, since_seq=since_seq)
    if limit is not None and limit >= 0:
        events = events[-limit:]
    return {
        "capacity": journal.capacity,
        "total": journal.total,
        "events": [e.to_dict() for e in events],
    }


def trace_payload(
    recorder: "FlightRecorder | None", trace_id: int
) -> dict | None:
    """One capture by trace id — pinned captures first, then the rings."""
    if recorder is None:
        return None
    candidates = list(recorder.pinned)
    for query in recorder.queries():
        candidates.extend(recorder.recent(query))
    for trace in candidates:
        if trace.trace_id == trace_id or trace_id in trace.trace_ids:
            return trace.to_dict()
    return None


# -- the HTTP server ----------------------------------------------------------


class TelemetryServer:
    """Daemon-threaded telemetry endpoint for one DSMS server.

    The handler reads whatever store/journal/recorder are installed *at
    request time*, so starting the endpoint before ``run()`` works and a
    post-run server keeps answering with the final state. Use as a
    context manager or call :meth:`close`.
    """

    def __init__(
        self, server: "DSMSServer", host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.dsms = server
        self.model = HealthModel()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt: str, *args: object) -> None:
                pass  # telemetry must not spam the operator's terminal

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                try:
                    outer._route(self)
                except BrokenPipeError:  # client went away mid-reply
                    pass
                except Exception as exc:  # pragma: no cover - defensive
                    try:
                        outer._send_json(
                            self, {"error": f"{type(exc).__name__}: {exc}"}, 500
                        )
                    except Exception:
                        pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-telemetry", daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "TelemetryServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- routing ------------------------------------------------------------

    def _route(self, handler: BaseHTTPRequestHandler) -> None:
        split = urlsplit(handler.path)
        path = split.path.rstrip("/") or "/"
        params = parse_qs(split.query)

        def arg(name: str) -> str | None:
            values = params.get(name)
            return values[-1] if values else None

        def int_arg(name: str, default: int | None = None) -> int | None:
            raw = arg(name)
            if raw is None:
                return default
            try:
                return int(raw)
            except ValueError:
                return default

        store = current_metric_store()
        journal = current_journal()
        if path == "/":
            self._send_json(
                handler,
                {
                    "service": "repro.telemetry",
                    "endpoints": [
                        "/metrics",
                        "/health",
                        "/timeseries",
                        "/events",
                        "/traces/<id>",
                    ],
                },
            )
        elif path == "/metrics":
            # Re-stamp the build gauge on every scrape: get-or-create
            # semantics make this idempotent, and a registry reset
            # between scrapes (a new observed run) gets it back.
            register_build_info()
            self._send_text(handler, to_prometheus())
        elif path == "/health":
            self._send_json(
                handler,
                health_payload(self.dsms, store=store, journal=journal, model=self.model),
            )
        elif path == "/timeseries":
            self._send_json(
                handler,
                timeseries_payload(
                    store, name=arg("name"), window=int_arg("window", 20) or 20
                ),
            )
        elif path == "/events":
            self._send_json(
                handler,
                events_payload(
                    journal,
                    kind=arg("kind"),
                    query=int_arg("query"),
                    since_seq=int_arg("since", 0) or 0,
                    limit=int_arg("limit"),
                ),
            )
        elif path.startswith("/traces/"):
            try:
                trace_id = int(path.rsplit("/", 1)[1])
            except ValueError:
                self._send_json(handler, {"error": "trace id must be an integer"}, 400)
                return
            payload = trace_payload(_current_recorder(), trace_id)
            if payload is None:
                self._send_json(handler, {"error": f"no capture for trace {trace_id}"}, 404)
            else:
                self._send_json(handler, payload)
        else:
            self._send_json(handler, {"error": f"unknown endpoint {path}"}, 404)

    @staticmethod
    def _send_json(handler: BaseHTTPRequestHandler, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json; charset=utf-8")
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    @staticmethod
    def _send_text(handler: BaseHTTPRequestHandler, text: str, status: int = 200) -> None:
        body = text.encode("utf-8")
        handler.send_response(status)
        handler.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)


def fetch_json(url: str, timeout: float = 5.0) -> dict:
    """GET one telemetry endpoint and decode the JSON document."""
    with urlopen(url, timeout=timeout) as response:  # noqa: S310 - operator URL
        return json.loads(response.read().decode("utf-8"))


# -- the `repro top` renderer -------------------------------------------------

_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

_VERDICT_COLOR = {"healthy": "\x1b[32m", "degraded": "\x1b[33m", "unhealthy": "\x1b[31m"}
_RESET = "\x1b[0m"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"


def sparkline(values: "list[float]", width: int = 24) -> str:
    """Render a value series as a fixed-width unicode sparkline."""
    if not values:
        return " " * width
    values = values[-width:]
    lo, hi = min(values), max(values)
    span = hi - lo
    out = []
    for v in values:
        idx = 0 if span == 0 else int((v - lo) / span * (len(_SPARK_GLYPHS) - 1))
        out.append(_SPARK_GLYPHS[idx])
    return "".join(out).rjust(width)


def _paint(text: str, code: str, color: bool) -> str:
    return f"{code}{text}{_RESET}" if color else text


def _lag_points(timeseries: dict, query: int) -> "list[float]":
    for series in timeseries.get("series", ()):
        if series["name"] == "repro_slo_lag_seconds" and series["labels"] == {
            "query": str(query)
        }:
            return [v for _, v in series["points"]]
    return []


def render_top(
    health: dict,
    timeseries: dict,
    events: "list[dict]",
    width: int = 80,
    color: bool = True,
    source: str = "",
) -> str:
    """The ``repro top`` dashboard, rendered from the JSON payloads.

    Header: server verdict + global gauges. Body: one row per query with
    its verdict, current delivery lag, and a lag sparkline from the time
    series store. Footer: the journal tail, newest last.
    """
    lines: list[str] = []
    verdict = health.get("verdict", "healthy")
    vcolor = _VERDICT_COLOR.get(verdict, "")
    title = "repro top"
    if source:
        title += f" — {source}"
    lines.append(_paint(title.ljust(width - 12), _BOLD, color) + _paint(verdict.rjust(11), vcolor, color))
    lines.append(
        f"stream-t {health.get('at', 0.0):g}s   "
        f"dead-letters {health.get('dead_letters', 0)}   "
        f"shed-pressure {health.get('shed_pressure', 1.0):g}   "
        f"recent-swaps {health.get('recent_swaps', 0)}"
    )
    for reason in health.get("reasons", ()):
        lines.append(_paint(f"  ! {reason}", vcolor, color))
    lines.append("-" * width)
    lines.append(f"{'query':>6} {'verdict':>10} {'epoch':>5} {'lag':>9}  {'lag trend':>24}")
    for q in health.get("queries", ()):
        lag = q.get("lag_s")
        lag_text = f"{lag:7.1f}s" if lag is not None else "      --"
        spark = sparkline(_lag_points(timeseries, q["query"]))
        qcolor = _VERDICT_COLOR.get(q["verdict"], "")
        lines.append(
            f"{'q' + str(q['query']):>6} "
            + _paint(f"{q['verdict']:>10}", qcolor, color)
            + f" {q.get('epoch', 0):>5}"
            + f" {lag_text:>9}  {spark}"
        )
        for reason in q.get("reasons", ()):
            lines.append(_paint(f"        · {reason}", _DIM, color))
    lines.append("-" * width)
    lines.append(_paint("recent events (newest last):", _BOLD, color))
    if not events:
        lines.append(_paint("  (journal empty)", _DIM, color))
    for event in events:
        what = event["kind"]
        where = f" q{event['query']}" if event.get("query") is not None else ""
        epoch = f" e{event['epoch']}" if event.get("epoch") is not None else ""
        reason = f"  {event['reason']}" if event.get("reason") else ""
        lines.append(
            f"  #{event['seq']:<5} t={event['t']:<12g}{what}{where}{epoch}{reason}"[:width]
        )
    return "\n".join(lines)
