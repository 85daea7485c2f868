"""The Data Stream Management System server (Fig. 3).

Ties everything together: queries arrive as specialized HTTP requests,
are parsed into the algebra, optimized (restriction pushdown with region
re-mapping), compiled into push networks, and registered. A single scan
of the source streams then drives all registered queries, with a dynamic
cascade tree acting "as a single spatial restriction operator" that
routes each incoming chunk only to the queries whose regions it can
contribute to — the architecture of Section 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.chunk import Chunk, GridChunk, restamp
from ..core.provenance import Provenance
from ..engine.pipeline import chunk_time
from ..engine.scheduler import merge_sources
from ..errors import GeoStreamsError, QueryAnalysisError, ServerError
from ..faults.recovery import RecoveryContext, current_recovery
from ..index.base import RegionIndex
from ..index.cascade_tree import CascadeTree
from ..obs.export import register_build_info
from ..obs.registry import get_registry, metrics_enabled
from ..obs.slo import SLOMonitor, SLOPolicy
from ..obs.probe import current as current_instruments
from ..obs.stats import StatsCollector, current_collector
from ..obs.trace import FrameTrace, current_frame_tracer
from ..operators.base import Operator
from ..operators.delivery import DeliveredFrame
from ..plan import (
    Compiled,
    EpochSwapResult,
    PlanDAG,
    Stage,
    compile_query,
    source_ids as plan_source_ids,
)
from ..query import ast as q
from ..query.adaptive import AdaptivePolicy
from ..query.calibration import CalibrationSample, kind_of
from ..query.cost import estimate_query
from ..query.parser import parse_query
from .catalog import StreamCatalog
from .protocol import Request, parse_request
from .routing import Router, RouterStats
from .session import ClientSession, SessionCheckpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Mapping

    from ..analysis.diagnostics import DiagnosticReport
    from ..engine.stats import OperatorReport
    from .telemetry import TelemetryServer
    from ..obs.timeline import MetricStore
    from ..obs.trace import FrameTracer
    from ..plan.stages import PlanStats
    from ..query.calibration import CalibrationProfile
    from ..query.cost import StreamProfile

__all__ = ["DSMSServer", "EpochSwapRecord"]


class _Fanout:
    """Terminal sink that forwards results to every subscribed session.

    The paper's introduction motivates the DSMS with exactly this
    duplication: "these processes are often duplicated at many sites for
    different and even the same type of applications". When two clients
    register queries whose *optimized* trees are equal, the server runs
    one push network and fans its results out.
    """

    def __init__(self) -> None:
        self.sessions: list[ClientSession] = []

    def __call__(self, chunk: Chunk) -> None:
        for session in self.sessions:
            session.receive(chunk)


@dataclass
class _Registration:
    fanout: _Fanout
    # The running plan and its routes; re-planning recompiles
    # ``compiled.tree`` (the parsed original) from scratch.
    compiled: Compiled
    stages: list[Stage]
    sources: set[str]

    @property
    def sessions(self) -> list[ClientSession]:
        return self.fanout.sessions

    @property
    def delivered(self) -> int:
        """Frames and records delivered so far, over all subscribers."""
        return sum(len(s.frames) + len(s.records) for s in self.sessions)


@dataclass(frozen=True)
class _PendingSwap:
    """A requested re-plan waiting for its registration's frame boundary."""

    reg_id: int
    compiled: Compiled
    reason: str
    shed_pressure: float | None


@dataclass(frozen=True)
class EpochSwapRecord:
    """One committed hot swap: the plan diff plus the cutover seed.

    ``checkpoints`` are the per-session :class:`SessionCheckpoint`\\ s
    taken at the frame boundary the old subplan was drained to; the new
    epoch is seeded from them (resume-style suppression guarantees the
    swap can neither drop nor duplicate a frame).
    """

    reg_id: int
    result: EpochSwapResult
    checkpoints: tuple[SessionCheckpoint, ...]
    reason: str
    at_chunk: int


class _StallValve:
    """Escalates the ingest shedder while a source downlink is stalled.

    The fault clock advances only when a source sleeps, so a large jump
    between consecutive chunks is a stalled downlink; the ``valve`` (if
    any) relaxes again after ``stall_relax_after`` healthy chunks.
    """

    def __init__(self, ctx: RecoveryContext, valve: Operator | None) -> None:
        self.ctx = ctx
        self.valve = valve
        self.clock_last = ctx.clock.now()
        self.healthy_streak = 0
        self.escalated = False

    def tick(self) -> float:
        """Note one scanned chunk; returns the fault-clock time."""
        ctx = self.ctx
        clock_now = ctx.clock.now()
        if clock_now - self.clock_last >= ctx.stall_threshold_s:
            ctx.note_stall()
            self.healthy_streak = 0
            if self.valve is not None:
                self.valve.escalate()
                self.escalated = True
        else:
            self.healthy_streak += 1
            if self.escalated and self.healthy_streak >= ctx.stall_relax_after:
                self.valve.relax()
                self.escalated = False
        self.clock_last = clock_now
        return clock_now


class DSMSServer:
    """In-process DSMS: register continuous queries, then run the scan."""

    def __init__(
        self,
        catalog: StreamCatalog,
        index_factory: type[RegionIndex] = CascadeTree,
        optimize_queries: bool = True,
        ingest_shedder: Operator | None = None,
        recovery: RecoveryContext | None = None,
        share_subplans: bool = True,
        slo: SLOPolicy | None = None,
    ) -> None:
        self.catalog = catalog
        self.optimize_queries = optimize_queries
        # All registered queries merged into one operator DAG; with
        # ``share_subplans`` on, common canonical prefixes execute once
        # per chunk and fan out to every subscribed query.
        self.plan_dag = PlanDAG(share=share_subplans)
        # Optional frame-shedding gate ahead of routing; under sustained
        # source stalls (detected via the recovery clock) it is escalated.
        self.ingest_shedder = ingest_shedder
        # Explicit recovery context; falls back to the installed one.
        self.recovery = recovery
        # reg_id -> shared registration; session_id -> reg_id.
        self._registrations: dict[int, _Registration] = {}
        self._session_to_reg: dict[int, int] = {}
        self._next_session_id = 1
        self._next_reg_id = 1
        self._now = 0.0  # stream-time clock: measured time of the latest chunk
        self.router_stats = RouterStats()
        # The shared restriction stage: which registrations want a chunk.
        self.router = Router(index_factory, self.router_stats, self._recovery_ctx)
        # Optional delivery-lag SLO: per-query watermarks, repro_slo_*
        # metrics, breach callbacks, and shedding escalation.
        self.slo_monitor = SLOMonitor(slo) if slo is not None else None
        # Adaptive re-optimization: requested swaps wait for their
        # registration's frame boundary; committed ones are logged.
        self.adaptive: AdaptivePolicy | None = None
        self._pending_swaps: dict[int, _PendingSwap] = {}
        self.swap_log: list[EpochSwapRecord] = []
        if metrics_enabled():
            # Every scrape/snapshot from this server identifies the build.
            register_build_info()

    def serve_telemetry(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "TelemetryServer":
        """Start the stdlib HTTP telemetry endpoint for this server.

        Exposes ``/metrics`` (Prometheus text), ``/health``,
        ``/timeseries``, ``/events``, and ``/traces/<id>`` backed by this
        server plus whatever store/journal/recorder are installed.
        Returns the started :class:`~repro.server.telemetry.
        TelemetryServer`; callers close it (or use it as a context
        manager).
        """
        from .telemetry import TelemetryServer

        return TelemetryServer(self, host=host, port=port)

    def set_slo(self, policy: SLOPolicy | None) -> None:
        """Install (or clear) the delivery-lag SLO for subsequent runs."""
        self.slo_monitor = SLOMonitor(policy) if policy is not None else None

    # -- registration ------------------------------------------------------------

    def register(
        self,
        query: str | q.QueryNode,
        encode_png: bool = True,
        strict: bool = False,
    ) -> ClientSession:
        """Parse, optimize, compile, and route one continuous query.

        With ``strict``, the static analyzer runs first and any
        error-level diagnostic rejects the registration with a
        :class:`~repro.errors.QueryAnalysisError` carrying the full
        report — nothing is wired into the DAG.
        """
        if strict:
            report = self.analyze_query(query)
            if not report.ok:
                raise QueryAnalysisError(
                    "static analysis rejected the query:\n" + report.render(),
                    report=report,
                )
        if isinstance(query, str):
            text = query
            tree = parse_query(query)
        else:
            text = query.pretty()
            tree = query
        for ref in (n for n in q.walk(tree) if isinstance(n, q.StreamRef)):
            if ref.stream_id not in self.catalog:
                raise ServerError(
                    f"query references unknown stream {ref.stream_id!r}; "
                    f"catalog has {self.catalog.ids()}"
                )
        compiled = compile_query(tree, self.catalog, optimize=self.optimize_queries)
        session = ClientSession(
            self._next_session_id, text, tree, compiled.optimized,
            list(compiled.applied), encode_png=encode_png,
        )
        session.set_clock(lambda: self._now)
        self._next_session_id += 1

        # Queries with the same *canonical plan* share one fan-out: the
        # intro's "duplicated processes" collapse into a single execution
        # whose results fan out to every subscriber. Different queries
        # sharing only a plan prefix still share those stages below.
        plan = compiled.plan
        shared = self._find_shared(plan)
        if shared is not None:
            reg_id, registration = shared
        else:
            reg_id = self._next_reg_id
            self._next_reg_id += 1
            fanout = _Fanout()
            stages = self.plan_dag.add_plan(plan, fanout, reg_id)
            registration = self._registrations[reg_id] = _Registration(
                fanout, compiled, stages, plan_source_ids(plan)
            )
            self.router.add(reg_id, compiled.route_boxes)
        registration.fanout.sessions.append(session)
        self._session_to_reg[session.session_id] = reg_id
        session.bind_trace(reg_id)
        session.bind_epoch(self.plan_dag.current_epoch(reg_id))
        return session

    def register_query(
        self,
        query: str | q.QueryNode,
        encode_png: bool = True,
        *,
        strict: bool = True,
    ) -> ClientSession:
        """Register with static analysis gating on by default.

        Identical to :meth:`register` but strict unless told otherwise:
        error-level diagnostics reject the query before it touches the
        shared DAG.
        """
        return self.register(query, encode_png=encode_png, strict=strict)

    def analyze_query(self, query: str | q.QueryNode) -> "DiagnosticReport":
        """Statically analyze one query against this server's catalog.

        Runs every check :func:`repro.analysis.analyze` knows — CRS,
        value-domain, satisfiability, and (when an SLO is installed)
        budget conflicts — without registering anything.
        """
        from ..analysis import analyze

        monitor = self.slo_monitor
        return analyze(
            query,
            self.catalog,
            slo=monitor.policy if monitor is not None else None,
            has_ingest_shedder=self.ingest_shedder is not None,
        )

    def selfcheck(self) -> "DiagnosticReport":
        """Audit the live shared DAG against its structural invariants.

        Delegates to :func:`repro.analysis.selfcheck.check_server`:
        fingerprint collisions, dangling fan-out edges, refcount
        inconsistencies, rootless terminal edges, and SLO/shed-policy
        conflicts all surface as diagnostics.
        """
        from ..analysis import check_server

        return check_server(self)

    def _find_shared(self, plan: q.QueryNode) -> tuple[int, _Registration] | None:
        for reg_id, registration in self._registrations.items():
            running = registration.compiled.plan
            if running.fingerprint == plan.fingerprint and running == plan:
                return reg_id, registration
        return None

    def _recovery_ctx(self) -> RecoveryContext | None:
        return self.recovery if self.recovery is not None else current_recovery()

    def deregister(self, session_id: int) -> None:
        reg_id = self._session_to_reg.pop(session_id, None)
        if reg_id is None:
            raise ServerError(f"unknown session id {session_id}")
        registration = self._registrations[reg_id]
        session = next(
            s for s in registration.sessions if s.session_id == session_id
        )
        registration.fanout.sessions.remove(session)
        session.close()
        if registration.sessions:
            return  # other subscribers keep the shared network alive
        del self._registrations[reg_id]
        self._pending_swaps.pop(reg_id, None)
        # Refcounted teardown: only stages no surviving query subscribes
        # to are pruned from the shared DAG.
        self.plan_dag.remove_plan(reg_id, registration.stages)
        self.router.remove(reg_id, registration.compiled.route_boxes)

    def restore_session(self, checkpoint: SessionCheckpoint) -> ClientSession:
        """Re-register a dropped client's query and resume past its checkpoint.

        The replacement session replays the (deterministic) source scan but
        silently discards everything the checkpoint says was already
        delivered, so the reconnecting client sees each frame exactly once.
        """
        session = self.register(checkpoint.query_text, encode_png=checkpoint.encode_png)
        session.resume_from(checkpoint)
        return session

    # -- adaptive re-optimization (plan epochs & hot swap) -----------------------

    def enable_adaptive(self, policy: AdaptivePolicy | None = None) -> AdaptivePolicy:
        """Install the closed-loop re-planner for subsequent runs.

        With a policy installed, :meth:`run` feeds it one observation per
        scanned chunk per query (the SLO monitor's breach verdict); when
        the policy decides, the server queues a re-plan that hot-swaps in
        at the query's next frame boundary.
        """
        self.adaptive = policy if policy is not None else AdaptivePolicy()
        return self.adaptive

    def _reg_id(self, query: ClientSession | int) -> int:
        """Registration id of a session, a session id, or a registration id."""
        key = query.session_id if isinstance(query, ClientSession) else query
        return self._session_to_reg.get(key, key)

    def epoch_of(self, query: ClientSession | int) -> int:
        """Current plan epoch of a session/registration (0 if unknown)."""
        return self.plan_dag.current_epoch(self._reg_id(query))

    def request_replan(
        self,
        query: ClientSession | int,
        *,
        reason: str = "replan",
        shed_pressure: float | None = None,
        force: bool = False,
    ) -> bool:
        """Queue a hot swap: re-optimize the query and stage the new plan.

        Re-planning always runs the optimizer, whatever the register-time
        ``optimize_queries`` setting was — the point of the new epoch is
        the reordered operator tree. The swap itself commits inside
        :meth:`run` at the next frame boundary of the registration's
        sources, so no frame ever straddles two epochs. Returns True when
        a swap was queued (the re-optimized plan differs from the running
        one, a shed-rate change was requested, or ``force``).
        """
        rid = self._reg_id(query)
        reg = self._registrations.get(rid)
        if reg is None:
            raise ServerError(f"unknown query/session id {query!r}")
        compiled = compile_query(reg.compiled.tree, self.catalog)
        plan = compiled.plan
        if set(plan_source_ids(plan)) != set(reg.sources):
            raise ServerError(
                "re-planned query reads a different source set; a hot swap "
                "must keep the same streams"
            )
        if plan == reg.compiled.plan and shed_pressure is None and not force:
            return False
        self._pending_swaps[rid] = _PendingSwap(
            reg_id=rid,
            compiled=compiled,
            reason=reason,
            shed_pressure=shed_pressure,
        )
        return True

    def _commit_ready_swaps(
        self,
        at_boundary: dict[str, bool],
        ftracer: "FrameTracer | None",
        at_chunk: int,
    ) -> None:
        """Commit every pending swap whose sources sit at a frame boundary."""
        for rid in list(self._pending_swaps):
            reg = self._registrations.get(rid)
            if reg is None:
                del self._pending_swaps[rid]
                continue
            if all(at_boundary.get(sid, True) for sid in reg.sources):
                pending = self._pending_swaps.pop(rid)
                self._commit_swap(pending, ftracer, at_chunk)

    def _commit_swap(
        self,
        pending: _PendingSwap,
        ftracer: "FrameTracer | None",
        at_chunk: int,
    ) -> EpochSwapRecord | None:
        """Cut one registration over to its re-planned subplan.

        The caller guarantees the old subplan has drained to a frame
        boundary. Each session's delivery position is checkpointed and the
        session resumes *from its own checkpoint*: anything the new epoch
        might re-emit at or before the checkpointed stream time is
        suppressed, so the cutover can neither drop nor duplicate a frame.
        """
        reg = self._registrations.get(pending.reg_id)
        if reg is None:
            return None
        rid = pending.reg_id
        checkpoints = []
        for session in reg.sessions:
            ck = session.checkpoint()
            session.resume_from(ck)
            checkpoints.append(ck)
        result = self.plan_dag.swap_plan(
            rid, pending.compiled.plan, reg.fanout, reg.stages, reason=pending.reason
        )
        old_boxes = reg.compiled.route_boxes
        reg.compiled = pending.compiled
        reg.stages = list(result.stages)
        new_boxes = pending.compiled.route_boxes
        if new_boxes != old_boxes:
            self.router.remove(rid, old_boxes)
            self.router.add(rid, new_boxes)
        for session in reg.sessions:
            session.bind_epoch(result.new_epoch)
        shedder = self.ingest_shedder
        if (
            pending.shed_pressure is not None
            and shedder is not None
            and hasattr(shedder, "set_managed")
        ):
            # The re-planner owns the shed rate from here on: pressure
            # restarts at the value the new epoch's cost supports and the
            # reflexive stall/SLO valves become no-ops.
            shedder.set_managed(pending.shed_pressure)
        if ftracer is not None:
            ftracer.on_epoch_swap(rid, result.old_epoch, result.new_epoch)
        record = EpochSwapRecord(
            reg_id=rid,
            result=result,
            checkpoints=tuple(checkpoints),
            reason=pending.reason,
            at_chunk=at_chunk,
        )
        self.swap_log.append(record)
        return record

    def _observe_adaptive(self, monitor: SLOMonitor | None) -> None:
        """One chunk's worth of adaptive-policy observations (cheap)."""
        policy = self.adaptive
        if policy is None or monitor is None:
            return
        for rid in list(self._registrations):
            decision = policy.observe(rid, breached=monitor.is_breached(rid))
            if decision is not None:
                self.request_replan(
                    rid,
                    reason=decision.reason,
                    shed_pressure=decision.shed_pressure,
                )

    # -- protocol front door ----------------------------------------------------------

    def handle_request(self, line: str) -> object:
        """Serve one request-line; returns a session, a listing, or None."""
        request: Request = parse_request(line)
        kind = request.kind
        if kind == "list-streams":
            return self.catalog.ids()
        if kind == "register-query":
            if "q" not in request.params:
                raise ServerError("register-query request missing 'q' parameter")
            fmt = request.params.get("format", "png")
            return self.register(request.params["q"], encode_png=(fmt == "png"))
        if kind == "deregister-query":
            self.deregister(request.session_id)
            return None
        raise ServerError(f"unhandled request kind {kind!r}")  # pragma: no cover

    # -- execution ------------------------------------------------------------------

    def active_sessions(self) -> list[ClientSession]:
        return [s for r in self._registrations.values() for s in r.sessions]

    @property
    def shared_network_count(self) -> int:
        """Distinct query plans (fan-outs) currently executing."""
        return len(self._registrations)

    @property
    def plan_stats(self) -> "PlanStats":
        """Sharing statistics of the server-wide plan DAG."""
        return self.plan_dag.stats

    def explain_dag(self) -> str:
        """Render the shared operator DAG (CLI ``--explain``)."""
        return self.plan_dag.render()

    # -- SLO monitoring ---------------------------------------------------------

    def _observe_slo(
        self,
        monitor: SLOMonitor,
        valve: Operator | None,
        progress: dict[int, tuple[int, float]],
        clock_now: float | None,
    ) -> None:
        """Update every query's lag picture after one scanned chunk.

        ``progress`` remembers, per query, how much it had delivered and
        the recovery-clock time of its last delivery. Breach edges drive
        the same shedding ``valve`` the stall detector uses: escalate on
        breach, relax once the monitor's hysteresis declares the query
        healthy again.
        """
        for rid, reg in self._registrations.items():
            clock_lag = None
            if clock_now is not None:
                delivered = reg.delivered
                seen, since = progress.get(rid, (0, clock_now))
                if delivered > seen:
                    since = clock_now
                progress[rid] = (delivered, since)
                clock_lag = clock_now - since
            watermarks = [
                s.watermark for s in reg.sessions if s.watermark > float("-inf")
            ]
            was_breached = monitor.is_breached(rid)
            monitor.observe(
                rid,
                watermark=max(watermarks) if watermarks else None,
                stream_t=self._now,
                clock_lag_s=clock_lag,
            )
            if valve is None or not monitor.policy.escalate_shedding:
                continue
            now_breached = monitor.is_breached(rid)
            if now_breached and not was_breached:
                valve.escalate()
            elif was_breached and not now_breached:
                valve.relax()

    # -- frame traces -----------------------------------------------------------

    def frame_trace(self, frame: DeliveredFrame) -> FrameTrace:
        """The end-to-end trace of one delivered frame.

        Requires a frame tracer to have been installed (see
        ``obs.observe(frame_trace=True)`` or
        ``obs.installed(frame_tracer=...)``) before the run, and the
        frame's chunks to have been sampled in.
        """
        trace = getattr(frame, "trace", None)
        if trace is None:
            raise ServerError(
                "frame carries no trace; run under an installed frame tracer "
                "(obs.observe(frame_trace=True) or obs.installed(frame_tracer=...)) "
                "and a sample rate that admits its chunks"
            )
        return trace

    def recent_traces(self, query: ClientSession | int) -> list[FrameTrace]:
        """Flight-recorder ring for one query (newest-last).

        ``query`` may be a :class:`ClientSession`, a session id, or a
        registration id; sessions sharing a canonical plan share a ring.
        """
        ftracer = current_frame_tracer()
        if ftracer is None:
            raise ServerError(
                "no frame tracer installed; recent_traces needs "
                "obs.observe(frame_trace=True) or obs.installed(frame_tracer=...)"
            )
        rid = self._reg_id(query)
        if rid not in self._registrations:
            raise ServerError(f"unknown query/session id {query!r}")
        return ftracer.recorder.recent(rid)

    # -- EXPLAIN ANALYZE --------------------------------------------------------

    def _stage_own_work(
        self, profiles: "Mapping[str, StreamProfile]"
    ) -> dict[str, float | None]:
        """Per-frame estimated work of each stage's *own* operator.

        ``estimate_query`` prices whole subplans; subtracting the direct
        children's totals isolates the stage itself, matching how
        observed statistics are kept (one ledger per physical stage).
        """
        totals: dict[str, float | None] = {}

        def total(node: q.QueryNode) -> float | None:
            fp = node.fingerprint
            if fp not in totals:
                try:
                    est, _ = estimate_query(node, profiles)
                    totals[fp] = est.work
                except GeoStreamsError:
                    totals[fp] = None
            return totals[fp]

        own: dict[str, float | None] = {}
        for stage in self.plan_dag.order:
            node = stage.node
            whole = total(node)
            if whole is None:
                own[node.fingerprint] = None
                continue
            children = [total(c) for c in node.children]
            if any(c is None for c in children):
                own[node.fingerprint] = None
            else:
                own[node.fingerprint] = max(0.0, whole - sum(children))
        return own

    def _stage_frames(self, node: q.QueryNode, collector: StatsCollector) -> int:
        """Frames of input this stage's subplan saw during the run."""
        frames = [
            collector.frames_scanned.get(sid, 0) for sid in plan_source_ids(node)
        ]
        return max(frames) if frames else 0

    def calibration_samples(
        self, collector: StatsCollector | None = None
    ) -> list[CalibrationSample]:
        """(kind, estimated work units, observed wall seconds) per stage.

        Feed these to :meth:`CalibrationProfile.fit` to turn one observed
        run into per-operator-kind cost coefficients.
        """
        collector = collector if collector is not None else current_collector()
        if collector is None:
            raise ServerError(
                "calibration needs observed stage statistics; run under "
                "obs.observe(stats=True) first"
            )
        profiles = self.catalog.profiles()
        own = self._stage_own_work(profiles)
        samples: list[CalibrationSample] = []
        for stage in self.plan_dag.order:
            fp = stage.node.fingerprint
            st = collector.get(fp)
            work = own.get(fp)
            if st is None or work is None or work <= 0:
                continue
            frames = self._stage_frames(stage.node, collector)
            if frames <= 0:
                continue
            samples.append(
                CalibrationSample(
                    kind=kind_of(stage.node),
                    work_units=work * frames,
                    wall_s=st.wall_s,
                )
            )
        return samples

    def explain_analyze(
        self,
        collector: StatsCollector | None = None,
        calibration: "CalibrationProfile | None" = None,
        flag_ratio: float = 3.0,
    ) -> str:
        """Render the DAG annotated with observed vs estimated cost.

        ``collector`` defaults to the installed stats collector (an
        ``obs.observe(stats=True)`` run must precede this call).
        Estimates are priced in seconds through ``calibration`` (the
        uncalibrated seed profile when omitted); stages whose prediction
        is off by more than ``flag_ratio`` in either direction are
        flagged.
        """
        from ..query.calibration import CalibrationProfile

        collector = collector if collector is not None else current_collector()
        if collector is None:
            raise ServerError(
                "explain_analyze needs observed stage statistics; run under "
                "obs.observe(stats=True) first"
            )
        if calibration is None:
            calibration = CalibrationProfile.uncalibrated()
        if flag_ratio <= 1.0:
            raise ServerError("flag_ratio must be > 1")
        profiles = self.catalog.profiles()
        own = self._stage_own_work(profiles)

        def ms(v: float | None) -> str:
            return f"{v * 1e3:.3f} ms" if v is not None else "n/a"

        lines = [
            f"EXPLAIN ANALYZE — shared plan DAG: {self.plan_dag.stages_total} stages "
            f"({self.plan_dag.stages_shared} shared), "
            f"{len(self._registrations)} queries, "
            f"sources: {', '.join(self.plan_dag.source_ids) or '-'}"
        ]
        if calibration.kinds:
            # A fitted profile carries the operator-kind set it was fitted
            # over; pricing a DAG with a different mix means the profile
            # is stale for this plan — flag it rather than silently
            # falling back to the pooled coefficient.
            live = {kind_of(stage.node) for stage in self.plan_dag.order}
            unfitted, unused = calibration.stale_kinds(live)
            if unfitted or unused:
                parts = []
                if unfitted:
                    parts.append(f"unfitted kinds in plan: {', '.join(unfitted)}")
                if unused:
                    parts.append(f"fitted kinds absent: {', '.join(unused)}")
                lines.append(
                    "  ** stale calibration profile (fingerprint "
                    f"{calibration.kind_fingerprint}): {'; '.join(parts)} — "
                    "re-fit with --fit-calibration **"
                )
        for sid in self.plan_dag.source_ids:
            lines.append(
                f"  source {sid}: {collector.scans.get(sid, 0)} chunks, "
                f"{collector.frames_scanned.get(sid, 0)} frames scanned"
            )
        flagged = 0
        errors: list[float] = []
        for i, stage in enumerate(self.plan_dag.order):
            node = stage.node
            fp = node.fingerprint
            subs = ",".join(str(r) for r in sorted(stage.subscribers))
            lines.append(f"  s{i}: {node.describe()}  #{fp}  subscribers=[{subs}]")
            st = collector.get(fp)
            if st is None or st.calls == 0:
                lines.append("      observed: (stage never executed)")
                continue
            sel = st.selectivity
            sel_text = f" | selectivity {sel:.3f}" if sel is not None else ""
            lines.append(
                f"      observed: {st.chunks_in} -> {st.chunks_out} chunks | "
                f"{st.points_in} -> {st.points_out} rows | "
                f"{st.bytes_in} -> {st.bytes_out} bytes{sel_text}"
            )
            lines.append(
                f"                wall {ms(st.wall_s)} | per-chunk p50 {ms(st.p50)} "
                f"p95 {ms(st.p95)} p99 {ms(st.p99)}"
            )
            work = own.get(fp)
            frames = self._stage_frames(node, collector)
            if work is None or frames <= 0:
                lines.append("      estimated: n/a (no stream profile)")
                continue
            units = work * frames
            pred_s = calibration.seconds(kind_of(node), units)
            coef = calibration.coefficient(kind_of(node))
            lines.append(
                f"      estimated: {work:.0f} work units/frame x {frames} frames "
                f"= {units:.0f} units -> {ms(pred_s)} "
                f"(coef {coef:.3e} s/unit)"
            )
            if pred_s > 0 and st.wall_s > 0:
                ratio = max(pred_s / st.wall_s, st.wall_s / pred_s)
                errors.append(abs(pred_s - st.wall_s) / st.wall_s)
                flag = ratio > flag_ratio
                flagged += flag
                lines.append(
                    f"      est/obs ratio: {pred_s / st.wall_s:.2f}x"
                    + (f"  ** off by more than {flag_ratio:g}x **" if flag else "")
                )
        if errors:
            mean_err = sum(errors) / len(errors)
            lines.append(
                f"summary: mean relative cost-estimation error {mean_err:.2f} "
                f"across {len(errors)} stages; {flagged} stage(s) flagged "
                f"(> {flag_ratio:g}x off)"
            )
        return "\n".join(lines)

    def operator_reports(self) -> "list[OperatorReport]":
        """OperatorReports for every physical stage of the shared DAG.

        The push-network analogue of ``engine.pipeline_report``: call after
        ``run()`` to get the same per-operator cost table ``pipeline_report``
        prints (and that ``obs.collect_run`` serializes). Shared stages
        appear once, however many queries subscribe to them.
        """
        from ..engine.stats import OperatorReport

        return [
            OperatorReport.from_operator(op) for op in self.plan_dag.operators()
        ]

    def _run_metrics(self, sources: "Mapping[str, object]") -> tuple:
        """Publish the run-start gauges; return the per-chunk metric handles.

        Handles are fetched once per run, so the per-chunk cost of disabled
        observability is the single ``None`` check in :meth:`run`.
        """
        registry = get_registry()
        registry.gauge("dsms_registered_networks").set(len(self._registrations))
        registry.gauge("dsms_active_sessions").set(len(self.active_sessions()))
        # Pre-register per-session instruments so sessions that never
        # deliver still export zero-valued gauges/histograms (lag
        # dashboards would otherwise show gaps for pruned queries).
        for session in self.active_sessions():
            session._obs_handles()
        registry.gauge("repro_plan_stages_total").set(self.plan_dag.stages_total)
        registry.gauge("repro_plan_stages_shared").set(self.plan_dag.stages_shared)
        for sid, entries in self.router.table().items():
            regions = sum(box is not None for box in entries.values())
            if regions:
                registry.gauge("dsms_router_regions", stream=sid).set(regions)
        # Per stream, the routed / pruned counters of every query reading it.
        per_query: dict[str, list[tuple]] = {sid: [] for sid in sources}
        for rid, reg in self._registrations.items():
            counters = (
                rid,
                registry.counter("dsms_query_chunks_routed_total", query=rid),
                registry.counter("dsms_query_chunks_pruned_total", query=rid),
            )
            for sid in reg.sources:
                per_query[sid].append(counters)
        return (
            registry.counter("dsms_chunks_scanned_total"),
            registry.counter("dsms_pairs_routed_total"),
            registry.counter("dsms_pairs_skipped_total"),
            registry.gauge("dsms_stream_clock_seconds"),
            per_query,
        )

    def _finish_run(
        self, close: bool, ftracer: "FrameTracer | None", store: "MetricStore | None"
    ) -> None:
        """Flush and close (when asked to), then publish the run-end gauges."""
        if close:
            self.plan_dag.flush()
            for session in self.active_sessions():
                session.close()
            if ftracer is not None:
                # Capture pinned traces that never reached delivery
                # (dropped / quarantined frames) as partial captures.
                ftracer.flush_pinned()
            if store is not None:
                # One forced end-of-run tick so the rings include the
                # final post-flush state of every instrument.
                store.sample(self._now)
        if metrics_enabled():
            registry = get_registry()
            stats = self.plan_dag.stats
            registry.gauge("repro_plan_chunks_saved").set(stats.chunks_saved)
            registry.gauge("repro_plan_subplan_cache_hits").set(stats.subplan_hits)
            registry.gauge("repro_plan_stage_executions").set(stats.stage_executions)

    def run(self, max_chunks: int | None = None, close: bool = True) -> RouterStats:
        """Scan all needed sources once, driving every registered query.

        Per chunk, in this order: (1) commit the re-plans whose sources sit
        at a frame boundary; (2) admit the chunk — stall valve, trace
        context, ingest shedder; (3) tick the stream clock, journal and
        metric store, for shed chunks too; (4) if the chunk was kept, feed
        it to the queries whose regions it intersects (:class:`Router`, the
        shared restriction stage) and count; (5) update the SLO / adaptive
        picture. Every instrument is opt-in and read once per run: absent,
        it costs one ``None`` check per chunk. The returned stats quantify
        the pruning.
        """
        needed = {
            sid for reg in self._registrations.values() for sid in reg.sources
        }
        sources = {sid: self.catalog.get(sid) for sid in sorted(needed)}
        router, stats = self.router, self.router_stats
        obs = self._run_metrics(sources) if metrics_enabled() else None
        ctx = self._recovery_ctx()
        instruments = current_instruments()
        collector = instruments.stats
        ftracer = instruments.frame_tracer
        store = instruments.store  # rate-limits itself to its own cadence
        journal = instruments.journal
        monitor = self.slo_monitor
        shedder = self.ingest_shedder
        # Only a shedder with a pressure valve can be escalated / relaxed.
        valve = shedder if hasattr(shedder, "escalate") else None
        stall = _StallValve(ctx, valve) if ctx is not None else None
        clock_now = stall.clock_last if stall is not None else None
        slo_progress: dict[int, tuple[int, float]] = {}
        if monitor is not None and clock_now is not None:
            for rid, reg in self._registrations.items():
                slo_progress[rid] = (reg.delivered, clock_now)
        count = 0
        # Frame-boundary tracking for epoch cutover: a pending swap commits
        # only once every source the registration reads sits between
        # frames, so the old subplan drains whole frames before it is
        # replaced (no frame ever straddles two epochs).
        at_boundary: dict[str, bool] = {sid: True for sid in sources}
        for stream_id, chunk in merge_sources(sources):
            if max_chunks is not None and count >= max_chunks:
                break
            if self._pending_swaps:
                # Commit before this chunk is processed: the boundary map
                # reflects the stream positions after the previous chunk.
                self._commit_ready_swaps(at_boundary, ftracer, count)
            count += 1
            if stall is not None:
                clock_now = stall.tick()
            if ftracer is not None:
                # Assign (or keep, for hardened catalogs that traced the
                # raw source) the chunk's trace context at admission.
                chunk = ftracer.admit(stream_id, chunk)
            frame_end = chunk.last_in_frame if isinstance(chunk, GridChunk) else True
            at_boundary[stream_id] = frame_end
            kept = True
            if shedder is not None:
                survivors = list(shedder.process(chunk))
                if survivors:
                    (chunk,) = survivors
                else:
                    kept = False
                    stats.chunks_shed += 1
                    if ftracer is not None and chunk.trace is not None:
                        ftracer.annotate(chunk.trace, "shed:ingest-dropped", pin=True)
            # Shed chunks still advance the stream clock and the SLO
            # picture: under sustained full shedding the watermark freezes
            # while stream time advances — the exact breach the adaptive
            # re-planner must observe.
            self._now = chunk_time(chunk)
            if journal is not None:
                journal.set_time(self._now)
            if store is not None:
                store.maybe_sample(self._now)
            if kept:
                stats.chunks_scanned += 1
                if collector is not None:
                    ordinal = collector.note_scan(stream_id, frame_end)
                    if collector.provenance:
                        chunk = restamp(
                            chunk, provenance=Provenance.scan(stream_id, ordinal)
                        )
                matched = router.match(stream_id, chunk)
                routed = len(matched)
                skipped = router.consumers(stream_id) - routed
                if matched:
                    # One pass through the shared DAG serves every matched
                    # query; stages with several active subscribers run once.
                    try:
                        self.plan_dag.feed(stream_id, chunk, active=matched)
                    except GeoStreamsError as exc:
                        if ctx is None:
                            raise
                        ctx.quarantine(
                            chunk, reason="network-error",
                            stage=f"network:{stream_id}", error=exc,
                        )
                stats.pairs_routed += routed
                stats.pairs_skipped += skipped
                if obs is not None:
                    scanned_c, routed_c, skipped_c, clock_g, per_query = obs
                    scanned_c.inc()
                    routed_c.inc(routed)
                    skipped_c.inc(skipped)
                    clock_g.set(self._now)
                    # Per chunk, not at flush: the metric store samples mid-run.
                    for rid, routed_q, pruned_q in per_query[stream_id]:
                        (routed_q if rid in matched else pruned_q).inc()
            if monitor is not None:
                self._observe_slo(monitor, valve, slo_progress, clock_now)
                self._observe_adaptive(monitor)
        self._finish_run(close, ftracer, store)
        return stats
