"""Versioned plan epochs: transactional DAG membership and hot swap.

Acceptance bar for adaptive re-optimization: a running query's plan can
be replaced mid-scan through an :class:`~repro.plan.epoch.EpochTransition`
— unchanged shared stages grafted with their refcounts and operator
state intact, orphans retired — and the server's cutover protocol drains
the old subplan to a frame boundary and seeds the new epoch from a
:class:`~repro.server.session.SessionCheckpoint`, so the delivered frame
sequence is bit-identical to never having swapped: no frame dropped, no
frame duplicated, every frame produced wholly within one epoch.

The swap is requested from *inside* the scan (a hook stream fires
``request_replan`` mid-frame, the way the adaptive policy would), so the
cutover exercises the live drain-to-boundary path of ``DSMSServer.run``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.errors import PlanError, ServerError
from repro.geo import goes_geostationary
from repro.ingest import GOESImager, SyntheticEarth, western_us_sector
from repro.obs.stats import lineage
from repro.query.adaptive import AdaptiveDecision, AdaptivePolicy
from repro.query.calibration import CalibrationProfile, CalibrationSample
from repro.server import DSMSServer, StreamCatalog

from tests.conftest import DAY_T0, hook_stream, sector_subbox

N_FRAMES = 6


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.install(obs.Instruments())
    obs.get_registry().reset()
    yield
    obs.install(obs.Instruments())
    obs.get_registry().reset()


@pytest.fixture()
def epoch_imager():
    scene = SyntheticEarth(seed=7)
    crs = goes_geostationary(-135.0)
    sector = western_us_sector(crs, width=96, height=48)
    return GOESImager(
        scene=scene,
        lon_0=-135.0,
        sector_lattice=sector,
        n_frames=N_FRAMES,
        bands=("vis",),
        t0=DAY_T0,
    )


@pytest.fixture()
def epoch_catalog(epoch_imager):
    cat = StreamCatalog()
    cat.register_imager(epoch_imager)
    return cat


def bbox_text(box):
    return (
        f"bbox({box.xmin!r}, {box.ymin!r}, {box.xmax!r}, {box.ymax!r}, "
        "crs='geos:-135')"
    )


def swap_query(imager):
    """Restriction-on-top: the exact spatial-pushdown rule reorders it.

    Registered with optimization off, a re-plan pushes the restriction
    below the value map — different stage fingerprints, identical output
    (the rule is exact), which is what makes bit-identity across the
    swap a meaningful assertion.
    """
    return f"within(reflectance(goes.vis), {bbox_text(sector_subbox(imager, 0.2, 0.2, 0.8, 0.8))})"


def chunks_per_frame(imager):
    stream = imager.streams()["vis"]  # keyed by band; stream_id is goes.vis
    return sum(1 for _ in stream.chunks()) // N_FRAMES


def hooked_catalog(imager, after_chunks, fire):
    cat = StreamCatalog()
    bbox = imager.sector_lattice.bbox
    for stream in imager.streams().values():
        cat.register(hook_stream(stream, after_chunks, fire), bbox)
    return cat


def run_with_swap(
    imager,
    query=None,
    *,
    swap_after_frames=2,
    reason="test-replan",
    **replan_kw,
):
    """One scan; a replan fires mid-frame ``swap_after_frames`` and commits
    at that frame's boundary — the old epoch ships exactly that many frames."""
    query = query or swap_query(imager)
    per_frame = chunks_per_frame(imager)
    box = {}

    def fire():
        box["queued"] = box["server"].request_replan(
            box["session"], reason=reason, **replan_kw
        )

    after = per_frame * (swap_after_frames - 1) + 2  # safely mid-frame
    catalog = hooked_catalog(imager, after, fire)
    server = DSMSServer(catalog, optimize_queries=False)
    session = server.register(query, encode_png=False)
    box["server"], box["session"] = server, session
    server.run()
    assert box.get("queued") is True, "the mid-run replan must have queued"
    return server, session


class TestEpochBookkeeping:
    def test_register_starts_epoch_one(self, epoch_catalog, epoch_imager):
        server = DSMSServer(epoch_catalog)
        session = server.register(swap_query(epoch_imager), encode_png=False)
        rid = server._session_to_reg[session.session_id]
        assert server.plan_dag.current_epoch(rid) == 1
        assert session.current_epoch == 1
        assert server.epoch_of(session) == 1
        for stage in server.plan_dag.order:
            assert stage.epochs == {rid: 1}
        assert len(server.plan_dag.epoch_history[rid]) == 1
        assert server.plan_dag.epoch_history[rid][0].reason == "register"

    def test_swap_identical_plan_grafts_everything(self, epoch_catalog, epoch_imager):
        server = DSMSServer(epoch_catalog)
        session = server.register(swap_query(epoch_imager), encode_png=False)
        rid = server._session_to_reg[session.session_id]
        reg = server._registrations[rid]
        before = server.plan_dag.stage_fingerprints(rid)
        result = server.plan_dag.swap_plan(
            rid, reg.compiled.plan, reg.fanout, reg.stages, reason="shed-rate"
        )
        assert result.old_epoch == 1 and result.new_epoch == 2
        assert result.grafted == frozenset(before)
        assert result.added == result.retired == frozenset()
        assert server.plan_dag.stage_fingerprints(rid) == before
        for stage in server.plan_dag.order:
            assert stage.epochs == {rid: 2}
            assert stage.subscribers == {rid}

    def test_historical_fingerprints_by_epoch(self, epoch_imager):
        server, session = run_with_swap(epoch_imager)
        rid = server._session_to_reg[session.session_id]
        e1 = server.plan_dag.stage_fingerprints(rid, epoch=1)
        e2 = server.plan_dag.stage_fingerprints(rid, epoch=2)
        assert e1 != e2  # the re-plan reordered the operators
        assert server.plan_dag.stage_fingerprints(rid) == e2  # live == current
        with pytest.raises(PlanError):
            server.plan_dag.stage_fingerprints(rid, epoch=3)
        with pytest.raises(PlanError):
            server.plan_dag.stage_fingerprints(999, epoch=1)
        with pytest.raises(PlanError):
            server.plan_dag.stage_fingerprints(epoch=1)  # needs a root

    def test_transition_is_single_use(self, epoch_catalog, epoch_imager):
        from repro.plan import EpochTransition

        server = DSMSServer(epoch_catalog)
        session = server.register(swap_query(epoch_imager), encode_png=False)
        rid = server._session_to_reg[session.session_id]
        reg = server._registrations[rid]
        transition = EpochTransition(server.plan_dag, rid, reason="again")
        transition.swap(reg.compiled.plan, reg.fanout, reg.stages)
        transition.commit()
        with pytest.raises(PlanError, match="already committed"):
            transition.swap(reg.compiled.plan, reg.fanout, reg.stages)
        with pytest.raises(PlanError, match="already committed"):
            transition.commit()

    def test_deregister_clears_epoch_state(self, epoch_catalog, epoch_imager):
        server = DSMSServer(epoch_catalog)
        session = server.register(swap_query(epoch_imager), encode_png=False)
        rid = server._session_to_reg[session.session_id]
        server.deregister(session.session_id)
        assert rid not in server.plan_dag.epoch_of
        assert server.plan_dag.order == []
        assert server.epoch_of(rid) == 0

    def test_render_shows_epoch_identity(self, epoch_imager):
        server, session = run_with_swap(epoch_imager)
        rid = server._session_to_reg[session.session_id]
        rendered = server.explain_dag()
        assert f"q{rid}@e2" in rendered
        assert f"subscribers=[{rid}@e2]" in rendered


class TestHotSwapCutover:
    def test_no_dropped_or_duplicated_frames(self, epoch_catalog, epoch_imager):
        query = swap_query(epoch_imager)
        reference = DSMSServer(epoch_catalog, optimize_queries=False)
        ref_session = reference.register(query, encode_png=False)
        reference.run()
        assert len(ref_session.frames) == N_FRAMES

        server, session = run_with_swap(epoch_imager, query)
        frames = session.frames
        assert len(frames) == N_FRAMES
        # DeliveredFrame sequence numbers: contiguous across the swap —
        # nothing dropped, nothing delivered twice.
        assert [f.seq for f in frames] == list(range(N_FRAMES))
        for got, want in zip(frames, ref_session.frames):
            assert got.image.t == want.image.t
            assert np.array_equal(
                got.image.values, want.image.values, equal_nan=True
            )

    def test_cutover_lands_on_a_frame_boundary(self, epoch_imager):
        server, session = run_with_swap(epoch_imager, swap_after_frames=2)
        assert len(server.swap_log) == 1
        record = server.swap_log[0]
        assert record.reason == "test-replan"
        assert record.result.old_epoch == 1 and record.result.new_epoch == 2
        # Requested mid-frame 2, committed only once the scan reached the
        # frame boundary: the old epoch drained whole frames.
        per_frame = chunks_per_frame(epoch_imager)
        assert record.at_chunk == per_frame * 2
        # The cutover was seeded from per-session checkpoints taken at
        # the drained boundary: exactly the frames the old epoch shipped.
        (checkpoint,) = record.checkpoints
        assert checkpoint.frames_delivered == 2
        # Epoch stamps partition the delivery sequence: old epoch's
        # frames first, then the new epoch's — never interleaved.
        epochs = [f.epoch for f in session.frames]
        assert epochs == sorted(epochs)
        assert epochs == [1, 1, 2, 2, 2, 2]

    def test_provenance_traverses_exactly_one_epochs_stages(self, epoch_imager):
        with obs.observe(stats=True):
            server, session = run_with_swap(epoch_imager)
        rid = server._session_to_reg[session.session_id]
        assert {f.epoch for f in session.frames} == {1, 2}
        for frame in session.frames:
            prov = lineage(frame)
            assert prov is not None
            expected = server.plan_dag.stage_fingerprints(rid, epoch=frame.epoch)
            assert set(prov.stages) == expected, (
                f"frame #{frame.seq} (epoch {frame.epoch}) crossed epochs"
            )

    def test_shared_prefix_survives_another_querys_swap(self, epoch_imager):
        # Two queries sharing the reflectance prefix; swapping one must
        # graft the shared stage (operator state + both refcounts intact)
        # and leave the other query's epoch — and frames — untouched.
        box = {}

        def fire():
            box["queued"] = box["server"].request_replan(box["s1"], force=True)

        per_frame = chunks_per_frame(epoch_imager)
        catalog = hooked_catalog(epoch_imager, per_frame + 2, fire)
        server = DSMSServer(catalog)
        s1 = server.register("vrange(reflectance(goes.vis), 0.0, 0.6)", encode_png=False)
        s2 = server.register("vrange(reflectance(goes.vis), 0.2, 0.9)", encode_png=False)
        box["server"], box["s1"] = server, s1
        r1 = server._session_to_reg[s1.session_id]
        r2 = server._session_to_reg[s2.session_id]
        shared = [s for s in server.plan_dag.order if len(s.subscribers) > 1]
        assert shared, "expected a shared reflectance prefix"
        shared_ops = {id(s.op) for s in shared}

        server.run()
        assert box.get("queued") is True

        assert server.epoch_of(s1) == 2
        assert server.epoch_of(s2) == 1
        still_shared = [s for s in server.plan_dag.order if len(s.subscribers) > 1]
        assert {id(s.op) for s in still_shared} == shared_ops, (
            "shared stages must be grafted, not rebuilt"
        )
        for stage in still_shared:
            assert stage.subscribers == {r1, r2}
            assert stage.epochs == {r1: 2, r2: 1}
        assert len(s1.frames) == len(s2.frames) == N_FRAMES
        assert [f.seq for f in s1.frames] == list(range(N_FRAMES))
        assert [f.seq for f in s2.frames] == list(range(N_FRAMES))
        assert [f.epoch for f in s2.frames] == [1] * N_FRAMES

    def test_request_replan_without_change_is_a_noop(
        self, epoch_catalog, epoch_imager
    ):
        server = DSMSServer(epoch_catalog)  # optimization on: already optimal
        session = server.register(swap_query(epoch_imager), encode_png=False)
        assert server.request_replan(session) is False
        assert server._pending_swaps == {}
        assert server.epoch_of(session) == 1

    def test_request_replan_unknown_session_raises(self, epoch_catalog):
        server = DSMSServer(epoch_catalog)
        with pytest.raises(ServerError, match="unknown query"):
            server.request_replan(12345)

    def test_selfcheck_clean_after_swap(self, epoch_imager):
        server, _ = run_with_swap(epoch_imager)
        report = server.selfcheck()
        assert report.ok, report.render()

    def test_corrupted_epoch_stamp_is_detected(self, epoch_imager):
        server, session = run_with_swap(epoch_imager)
        rid = server._session_to_reg[session.session_id]
        server.plan_dag.order[0].epochs[rid] = 1  # stale stamp
        codes = {d.code for d in server.selfcheck().diagnostics}
        assert "GS-DAG005" in codes

    def test_epoch_swap_metric_published(self, epoch_imager):
        with obs.observe():
            server, _ = run_with_swap(epoch_imager)
            swaps = obs.get_registry().counter("repro_plan_epoch_swaps_total").value
        assert swaps == 1


class TestShedRateEpoch:
    def test_swap_pins_the_managed_shed_rate(self, epoch_imager):
        from repro.operators import AdaptiveLoadShedder

        box = {}

        def fire():
            box["queued"] = box["server"].request_replan(
                box["session"], reason="slo-breach", shed_pressure=1.0
            )

        per_frame = chunks_per_frame(epoch_imager)
        catalog = hooked_catalog(epoch_imager, per_frame + 2, fire)
        shedder = AdaptiveLoadShedder(points_per_frame_budget=1e9)
        server = DSMSServer(
            catalog, optimize_queries=False, ingest_shedder=shedder
        )
        session = server.register(swap_query(epoch_imager), encode_png=False)
        box["server"], box["session"] = server, session
        shedder.escalate()  # reflexive panic: pressure 2
        assert shedder.pressure == 2.0
        server.run()
        assert box.get("queued") is True
        assert server.epoch_of(session) == 2
        assert shedder.managed
        assert shedder.pressure == 1.0
        shedder.escalate()  # superseded: the re-planner owns the rate now
        assert shedder.pressure == 1.0


class TestAdaptivePolicyUnit:
    def test_breach_streak_hysteresis(self):
        policy = AdaptivePolicy(breach_chunks=3)
        assert policy.observe(1, breached=True) is None
        assert policy.observe(1, breached=True) is None
        decision = policy.observe(1, breached=True)
        assert isinstance(decision, AdaptiveDecision)
        assert decision.reason == "slo-breach"
        assert decision.shed_pressure == 1.0  # manage_shedding default

    def test_single_late_frame_never_triggers(self):
        policy = AdaptivePolicy(breach_chunks=3)
        for _ in range(50):  # breaches never consecutive enough
            assert policy.observe(1, breached=True) is None
            assert policy.observe(1, breached=True) is None
            assert policy.observe(1, breached=False) is None
        assert policy.replans_fired(1) == 0

    def test_cooldown_refractory_period(self):
        policy = AdaptivePolicy(breach_chunks=2, cooldown_chunks=10, max_replans=5)
        assert policy.observe(1, breached=True) is None
        assert policy.observe(1, breached=True) is not None
        # Still breached: no second decision until the cooldown expires
        # (the observation that drains the cooldown to zero re-arms it).
        fired = [policy.observe(1, breached=True) for _ in range(9)]
        assert fired == [None] * 9
        assert policy.observe(1, breached=True) is not None
        assert policy.replans_fired(1) == 2

    def test_max_replans_bounds_the_lifetime(self):
        policy = AdaptivePolicy(breach_chunks=1, cooldown_chunks=0, max_replans=2)
        decisions = [policy.observe(1, breached=True) for _ in range(20)]
        assert sum(d is not None for d in decisions) == 2
        assert policy.replans_fired(1) == 2

    def test_queries_tracked_independently(self):
        policy = AdaptivePolicy(breach_chunks=2)
        assert policy.observe(1, breached=True) is None
        assert policy.observe(2, breached=False) is None
        assert policy.observe(1, breached=True) is not None
        assert policy.replans_fired(2) == 0

    def test_cost_divergence_trigger(self):
        calibration = CalibrationProfile(
            coefficients={"ValueMap": 1e-6}, n_samples=1, kinds=("ValueMap",)
        )
        policy = AdaptivePolicy(divergence_ratio=4.0, calibration=calibration)
        ok = CalibrationSample("ValueMap", 1000.0, 3.9e-3)  # 3.9x: under
        assert policy.observe_costs(1, [ok]) is None
        diverged = CalibrationSample("ValueMap", 1000.0, 4.1e-3)  # 4.1x
        decision = policy.observe_costs(1, [diverged])
        assert decision is not None and decision.reason == "cost-divergence"

    def test_cost_divergence_ignores_noise_and_needs_calibration(self):
        tiny = CalibrationSample("ValueMap", 10.0, 5e-5)  # below min_wall_s
        policy = AdaptivePolicy(
            calibration=CalibrationProfile(
                coefficients={"ValueMap": 1e-9}, n_samples=1, kinds=("ValueMap",)
            )
        )
        assert policy.observe_costs(1, [tiny]) is None
        uncalibrated = AdaptivePolicy()  # no profile: trigger disabled
        huge = CalibrationSample("ValueMap", 1000.0, 10.0)
        assert uncalibrated.observe_costs(1, [huge]) is None


class TestTraceEpochIdentity:
    def test_swap_window_pins_both_sides(self, epoch_imager):
        # Sample rate 0: only the swap window can force traces in.
        ftracer = obs.FrameTracer(sample_rate=0.0)
        with obs.installed(frame_tracer=ftracer):
            server, session = run_with_swap(epoch_imager)
        pinned = ftracer.recorder.pinned
        assert pinned, "epoch swap must auto-pin the transition window"
        swap_marked = [
            t
            for t in pinned
            if (t.pin_reason or "").startswith("epoch-swap:e1->e2")
            or any(n.startswith("epoch-swap:e1->e2") for n in t.annotations)
        ]
        assert swap_marked, "pinned traces must name the epoch transition"
        assert ftracer.chunks_traced > 0  # the window forced sampling on

    def test_post_swap_frames_annotated_with_epoch(self, epoch_imager):
        with obs.installed(frame_tracer=obs.FrameTracer(sample_rate=1.0)):
            server, session = run_with_swap(epoch_imager)
        by_epoch = {1: [], 2: []}
        for frame in session.frames:
            assert frame.trace is not None
            by_epoch[frame.epoch].append(frame.trace)
        assert by_epoch[1] and by_epoch[2]
        for trace in by_epoch[2]:
            assert any(n == "epoch=2" for n in trace.annotations), (
                "new-epoch frames must carry their epoch in the trace"
            )
