"""Passes, stamps, result checks and metric arithmetic of the DSMS benchmark.

A *pass* is what a user of the system does: ``DSMSServer(catalog)`` ->
register the whole population through ``handle_request`` -> ``run()`` to
close; its wall time covers all three. The load is a closed loop with one
client (the scan): the server pulls rows as fast as it can, so the latency
a user sees is service time.

Only two stamps exist in a timed pass, both on this side of the API: the
source iterator stamps every pull (and its exhaustion), and a class-level
wrapper on the sink interface ``ClientSession.receive``/``close`` takes one
stamp whenever a session's delivered results grew.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import math
import resource
import statistics
import struct
import time
import traceback
import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator, Sequence

import benchenv  # noqa: F401  (before repro: execution mode and import path)
import numpy as np
from metrics import OPERATOR_KINDS
from spans import (
    OPERATOR,
    ROOT,
    SpanTracer,
    Trace,
    assert_untraced,
    dig,
    layer_seconds,
    resolve,
    self_times,
)
from workloads import Prepared

from repro import obs
from repro.core.chunk import Chunk, PointChunk
from repro.core.image import assemble_frames
from repro.errors import GeoStreamsError
from repro.operators.delivery import DeliveredFrame
from repro.query.planner import plan_query
from repro.raster.png import decode_png
from repro.server import ClientSession, DSMSServer, format_query_request

OBSERVE = dict(trace=True, stats=True, frame_trace=True, store=True, journal=True)


# -- the two stamps ---------------------------------------------------------------


@dataclass
class Stamps:
    """Pull stamps and landing stamps of one pass (``perf_counter`` seconds)."""

    pulls: list[float] = field(default_factory=list)
    landings: list[tuple[float, int]] = field(default_factory=list)  # (stamp, new results)

    def source(self, chunks: list[Chunk]) -> Callable[[], Iterator[Chunk]]:
        """Source factory for ``GeoStream``: stamps each pull and the exhaustion."""

        def pull() -> Iterator[Chunk]:
            stamp = self.pulls.append
            for chunk in chunks:
                stamp(perf_counter())
                yield chunk
            stamp(perf_counter())

        return pull

    def _sink(self, original: Callable) -> Callable:
        landings = self.landings

        def stamped(session: ClientSession, *args: object) -> None:
            before = len(session.frames) + len(session.records)
            original(session, *args)
            grew = len(session.frames) + len(session.records) - before
            if grew:
                landings.append((perf_counter(), grew))

        return stamped

    @contextlib.contextmanager
    def on_sinks(self) -> Iterator[None]:
        saved = {name: ClientSession.__dict__[name] for name in ("receive", "close")}
        try:
            for name, original in saved.items():
                setattr(ClientSession, name, self._sink(original))
            yield
        finally:
            for name, original in saved.items():
                setattr(ClientSession, name, original)

    def latencies_ms(self) -> list[float]:
        """Per result: landing minus the last pull before it.

        That pull is the hand-over of the chunk that completed the result
        (``merge_sources`` pulls one chunk ahead per source, so it is the
        last thing the server did before working on that chunk); for
        results released by the final flush it is the exhaustion stamp.
        """
        out = []
        for landed, count in self.landings:
            pulled = self.pulls[bisect.bisect_right(self.pulls, landed) - 1]
            out.extend([(landed - pulled) * 1e3] * count)
        return out


# -- one pass ---------------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    stamps: Stamps
    server: DSMSServer | None = None
    sessions: list[ClientSession] = field(default_factory=list)
    error: str | None = None
    observation: dict[str, float] | None = None  # counts read from obs handles


def _observation_counts(ob: obs.Observation, sessions: list[ClientSession]) -> dict[str, float]:
    def size(path: str) -> float | None:
        target = dig(ob, path)
        return None if target is None else float(len(target() if callable(target) else target))

    return {
        "obs.spans": size("tracer.spans"),
        "obs.stage_stats_entries": size("stats.stages"),
        "obs.frame_traces": float(
            sum(getattr(f, "trace", None) is not None for s in sessions for f in s.frames)
        ),
        "obs.journal_events": size("journal.events"),
        "obs.store_samples": dig(ob, "store.samples_taken"),
    }


def run_pass(
    prep: Prepared, *, observed: bool | None = None, tracer: SpanTracer | None = None
) -> PassResult:
    """One pass. ``tracer`` makes it a traced pass; otherwise it must run bare."""
    observed = prep.workload.observed if observed is None else observed
    if tracer is None:
        assert_untraced()
    gc.collect()
    stamps = Stamps()
    catalog = prep.catalog(stamps.source)
    result = PassResult(0.0, 0.0, stamps)
    with contextlib.ExitStack() as stack:
        stack.enter_context(stamps.on_sinks())
        if tracer is not None:
            stack.enter_context(tracer.installed())
        ob = stack.enter_context(obs.observe(**OBSERVE)) if observed else None
        if tracer is not None:
            stack.enter_context(tracer.root())
        cpu0, t0 = time.process_time(), perf_counter()
        try:
            server = result.server = DSMSServer(catalog)
            for text in prep.texts:
                result.sessions.append(
                    server.handle_request(format_query_request(text, prep.workload.fmt))
                )
            server.run()
        except Exception:  # a pass that raises fails all its results; the run goes on
            result.error = traceback.format_exc()
        result.wall_s, result.cpu_s = perf_counter() - t0, time.process_time() - cpu0
        if ob is not None:
            result.observation = _observation_counts(ob, result.sessions)
    return result


# -- checking what was delivered -----------------------------------------------------


def pass_digest(sessions: Sequence[ClientSession]) -> str:
    """SHA-256 over PNG bytes, raw arrays and records, in session order."""
    h = hashlib.sha256()
    for session in sessions:
        for frame in session.frames:
            values = np.ascontiguousarray(frame.image.values)
            h.update(f"{frame.seq}|{values.dtype}|{values.shape}|".encode())
            h.update(frame.png)
            h.update(values.tobytes())
        for r in session.records:
            h.update(struct.pack("<4d", r.x, r.y, r.value, r.t))
    return h.hexdigest()


def count_failures(prep: Prepared, result: PassResult) -> int:
    """Results of one pass that are missing, duplicated or out of order."""
    if result.error is not None or len(result.sessions) != len(prep.texts):
        return prep.expected_results
    failed = 0
    for session in result.sessions:
        frames, records = session.frames, session.records
        failed += abs(len(frames) + len(records) - prep.workload.frames)
        failed += sum(frame.seq != i for i, frame in enumerate(frames))
        failed += sum(b.t <= a.t for a, b in zip(records, records[1:]))
        failed += not session.closed
    return min(failed, prep.expected_results)


def _png_problem(frame: DeliveredFrame) -> str | None:
    try:
        shape = decode_png(frame.png).shape[:2]
    except (GeoStreamsError, zlib.error, struct.error, ValueError) as exc:
        return f"does not decode: {exc}"
    return None if shape == tuple(frame.image.shape) else f"decodes to {shape}"


def verify(prep: Prepared, result: PassResult, frames: int = 2) -> list[str]:
    """Compare a pass with each query evaluated alone; return what is wrong.

    A live shared query must equal the same query evaluated alone over the
    same input. The reference is the session's *optimized* tree through the
    public pull path over the first ``frames`` frames of the same chunks:
    the optimizer's default ``allow_inexact=True`` moves ``within`` through
    ``stretch`` on purpose, so the raw text is not what the product serves.
    Exact equality, no epsilon. One entry per failed result.
    """
    problems: list[str] = []
    if result.error is not None:
        return [f"pass raised: {result.error.splitlines()[-1]}"] * prep.expected_results
    report = result.server.selfcheck()
    if len(report):
        problems.append(f"selfcheck: {report.render()}")
    sources = dict(prep.catalog(frames=frames).items())
    references: dict[str, tuple[list[np.ndarray], list[float]]] = {}
    for session in result.sessions:
        tag = f"session {session.session_id}"
        if session.query_text not in references:
            chunks = plan_query(session.optimized, sources).collect_chunks()
            points = [c for c in chunks if isinstance(c, PointChunk)]
            grids = [c for c in chunks if not isinstance(c, PointChunk)]
            references[session.query_text] = (
                [image.values for image in assemble_frames(grids)],
                [float(v) for c in points for v in np.asarray(c.values, dtype=float)],
            )
        ref_frames, ref_values = references[session.query_text]
        got_frames = [f.image.values for f in session.frames[:frames]]
        got_values = [r.value for r in session.records[:frames]]
        if len(ref_frames) + len(ref_values) != frames:
            problems.append(f"{tag}: reference produced {len(ref_frames)} frames, "
                            f"{len(ref_values)} records for {frames} input frames")
        for i, (want, got) in enumerate(zip(ref_frames, got_frames)):
            if not np.array_equal(want, got, equal_nan=True):
                problems.append(f"{tag}: frame {i} differs from the query evaluated alone")
        for i, (want, got) in enumerate(zip(ref_values, got_values)):
            if not (want == got or (math.isnan(want) and math.isnan(got))):
                problems.append(f"{tag}: record {i} is {got!r}, alone it is {want!r}")
        if prep.workload.fmt == "png":
            for frame in session.frames:
                problem = _png_problem(frame)
                if problem:
                    problems.append(f"{tag}: PNG of frame {frame.seq} {problem}")
    return problems


# -- arithmetic -----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]: the smallest value with at
    least ``q`` of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q`` percentile."""
    return n - max(1, math.ceil(q * n))


def supports_percentile(n: int, q: float, beyond: int = 10) -> bool:
    """A percentile is reported only with at least ten samples beyond it."""
    return samples_beyond(n, q) >= beyond


def quartiles(values: Sequence[float]) -> tuple[float, float] | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def relative_iqr(values: Sequence[float]) -> float | None:
    qs = quartiles(values)
    return None if qs is None else (qs[1] - qs[0]) / statistics.median(values)


def peak_rss_mb() -> float:
    """High-water resident set of *this* process, MiB.

    ``VmHWM`` and not ``ru_maxrss``: on Linux the latter survives fork+exec,
    so a child started by a large parent (the full run, or any driver) would
    report the parent's size.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def calibration_probe_ms() -> float:
    """A fixed numpy + Python probe: detects machine drift, never normalises.

    Best of seven: interference only ever slows a repetition down.
    """
    data = np.arange(200_000, dtype=np.float64)[::-1]
    best = math.inf
    for _ in range(7):
        t0 = perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        np.sort(data * 1.0001).cumsum()
        best = min(best, perf_counter() - t0)
    return best * 1e3


# -- the ledger of one workload --------------------------------------------------------


@dataclass
class Ledger:
    """Every untraced pass of one workload, and what they add up to."""

    prep: Prepared
    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    pass_p50: list[float] = field(default_factory=list)
    pass_p95: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str | None = None
    problems: list[str] = field(default_factory=list)

    def add(self, result: PassResult) -> None:
        failed = count_failures(self.prep, result)
        if result.error is None:
            digest = pass_digest(result.sessions)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                failed = self.prep.expected_results
                self.problems.append(f"pass digest {digest[:12]} differs from the first pass")
        else:
            self.problems.append(result.error)
        self.attempted += self.prep.expected_results
        self.failed += failed
        if failed == 0:
            lat = result.stamps.latencies_ms()
            self.walls.append(result.wall_s)
            self.cpus.append(result.cpu_s)
            self.latencies_ms.extend(lat)
            self.pass_p50.append(percentile(lat, 0.50))
            self.pass_p95.append(percentile(lat, 0.95))

    def add_verification(self, result: PassResult, other_digest: str | None = None) -> None:
        """Score one extra pass against the reference (untimed).

        ``other_digest``: a digest this workload must reproduce
        (``mixed_rows_observed`` must deliver exactly what ``mixed_rows`` does).
        """
        problems = verify(self.prep, result)
        if other_digest is not None and other_digest != self.digest:
            problems = [f"digest differs from the unobserved run ({other_digest[:12]})"] * (
                self.prep.expected_results
            )
        self.attempted += self.prep.expected_results
        self.failed += min(len(problems), self.prep.expected_results)
        self.problems.extend(problems[:5])

    def end_to_end(self) -> dict[str, dict]:
        """The timing metrics; ``setup_s`` and ``peak_rss_mb`` belong to the process."""
        if not self.walls:
            return {}
        rates = [self.prep.scan.points / w for w in self.walls]
        n = len(self.latencies_ms)
        return {
            "points_per_s": {
                "value": statistics.median(rates), "unit": "points/s",
                "passes": len(rates), "quartiles": quartiles(rates),
                "spread": relative_iqr(rates), "pass_walls_s": self.walls,
            },
            "result_latency_ms_p50": {
                "value": statistics.median(self.pass_p50), "unit": "ms", "samples": n,
                "pooled": percentile(self.latencies_ms, 0.50),
                "spread": relative_iqr(self.pass_p50),
            },
            "result_latency_ms_p95": {
                "value": statistics.median(self.pass_p95), "unit": "ms", "samples": n,
                "supported": supports_percentile(n, 0.95),
                "pooled": percentile(self.latencies_ms, 0.95),
                "spread": relative_iqr(self.pass_p95),
            },
        }

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# -- per-layer metrics -----------------------------------------------------------------


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def standalone_layers(prep: Prepared) -> dict[str, float | None]:
    """Layers that only run once per query or per scan, called on their own."""
    out: dict[str, float | None] = {}
    catalog = prep.catalog()
    crs_of = dict(catalog.crs_of())
    parse = resolve("repro.query.parser:parse_query")
    optimize = resolve("repro.query.optimizer:optimize")
    canonicalize = resolve("repro.plan.canonical:canonicalize")
    repeats = math.ceil(30 / len(prep.texts))
    parse_ms, optimize_ms, canonical_ms, rules = [], [], [], 0
    for text in prep.texts * repeats if parse else ():
        t0 = perf_counter()
        tree = parse(text)
        t1 = perf_counter()
        parse_ms.append((t1 - t0) * 1e3)
        optimized = tree
        if optimize:
            t0 = perf_counter()
            outcome = optimize(tree, crs_of)
            optimize_ms.append((perf_counter() - t0) * 1e3)
            optimized, rules = outcome.node, rules + len(outcome.applied)
        if canonicalize:
            t0 = perf_counter()
            canonicalize(optimized, crs_of=crs_of, default_policy="sector")
            canonical_ms.append((perf_counter() - t0) * 1e3)
    out["query.parse_ms_p50"] = _median(parse_ms)
    out["query.optimize_ms_p50"] = _median(optimize_ms)
    out["plan.canonicalize_ms_p50"] = _median(canonical_ms)
    out["query.rules_applied"] = rules / repeats if optimize_ms else None
    merge = resolve("repro.engine.scheduler:merge_sources")
    if merge:
        sources = dict(catalog.items())
        gc.collect()
        t0 = perf_counter()
        chunks = sum(1 for _ in merge(sources))
        out["scheduler.merge_s"] = perf_counter() - t0
        out["scheduler.chunks"] = float(chunks)
    else:
        out["scheduler.merge_s"] = out["scheduler.chunks"] = None
    return out


def pass_layer_metrics(
    result: PassResult, trace: Trace, plain_wall_s: float
) -> tuple[dict[str, float | None], dict[str, float]]:
    """Per-layer metrics and layer shares of one traced pass.

    Counts come off the wrappers or off public stats objects; a metric whose
    entry points are all gone is None.
    """
    self_s = self_times(trace.spans)
    _, root_t0, root_t1 = trace.spans[-1]  # the root span closes last
    wall = root_t1 - root_t0
    sessions = result.sessions
    m: dict[str, float | None] = {}

    def seconds(*names: str) -> float | None:
        return trace.seconds(self_s, *names)

    def stat(path: str) -> float | None:
        value = dig(result.server, path)
        return None if value is None else float(value)

    m["dsms.register_calls"] = trace.count("dsms.register")
    m["dsms.register_self_s"] = seconds("dsms.register")
    m["dsms.run_self_s"] = seconds("dsms.run")
    for name in ("chunks_scanned", "pairs_routed", "pairs_skipped", "prune_fraction"):
        m[f"dsms.{name}"] = stat(f"router_stats.{name}")
    m["index.insert_calls"] = trace.count("index.insert")
    m["index.insert_s"] = seconds("index.insert")
    m["index.overlapping_calls"] = lookups = trace.count("index.overlapping")
    m["index.overlapping_s"] = seconds("index.overlapping")
    m["index.matched_per_call"] = trace.matched / lookups if lookups else lookups
    m["plan.dag_feed_calls"] = trace.count("plan.dag_feed")
    m["plan.dag_self_s"] = seconds("plan.dag_feed", "plan.dag_flush")
    m["plan.stage_feed_calls"] = trace.count("plan.stage_feed")
    m["plan.stage_self_s"] = seconds("plan.stage_feed", "plan.stage_flush")
    m["plan.stages_total"] = stat("plan_dag.stages_total")
    m["plan.stages_shared"] = stat("plan_dag.stages_shared")
    m["plan.stage_executions"] = executed = stat("plan_stats.stage_executions")
    m["plan.chunks_saved"] = saved = stat("plan_stats.chunks_saved")
    m["plan.subplan_hits"] = stat("plan_stats.subplan_hits")
    m["plan.shared_exec_ratio"] = (
        saved / (executed + saved) if executed is not None and saved is not None else None
    )
    for kind in OPERATOR_KINDS:
        name = OPERATOR + kind
        stats = [dig(op, "stats") for op in trace.operators if op.name == kind]
        live = OPERATOR in trace.available

        def total(field: str, fold: Callable = sum) -> float | None:
            values = [getattr(s, field, None) for s in stats]
            if not live or None in values:
                return None
            return float(fold(values)) if values else 0.0

        m[f"{name}.calls"] = float(trace.calls.get(name, 0)) if live else None
        m[f"{name}.busy_s"] = self_s.get(name, 0.0) if live else None
        m[f"{name}.points_in"] = total("points_in")
        m[f"{name}.points_out"] = total("points_out")
        m[f"{name}.max_buffered_points"] = total("max_buffered_points", max)
    m["session.receive_calls"] = trace.count("session.receive")
    m["session.self_s"] = seconds("session.receive", "session.close")
    m["session.frames"] = float(sum(len(s.frames) for s in sessions))
    m["session.records"] = float(sum(len(s.records) for s in sessions))
    encoded = [f for s in sessions for f in s.frames if f.png]
    m["png.encode_calls"] = trace.count("png.encode")
    m["png.encode_s"] = png_s = seconds("png.encode")
    m["png.pixels_in"] = pixels = float(sum(f.image.n_points for f in encoded))
    m["png.bytes_out"] = float(sum(len(f.png) for f in encoded))
    m["png.ms_per_mpixel"] = png_s * 1e9 / pixels if png_s is not None and pixels else png_s
    m["trace.slowdown_ratio"] = wall / plain_wall_s
    m["trace.unattributed_share"] = self_s[ROOT] / wall
    return m, {layer: s / wall for layer, s in layer_seconds(self_s).items()}


def median_of_passes(per_pass: list[dict]) -> dict:
    """Key-wise median over passes; a None anywhere makes the key None."""
    keys = {k for p in per_pass for k in p}
    out = {}
    for key in sorted(keys):
        values = [p.get(key, 0.0) for p in per_pass]
        out[key] = None if None in values else statistics.median(values)
    return out
