"""Chaos runs with the flight recorder on: every fault leaves a trace.

For each fault kind and seed the hardened pipeline runs with frame
tracing enabled. The contract: every injected fault annotates the
affected chunk's frame trace with ``fault:<kind>`` and auto-pins it in
the flight recorder, so a chaotic run always ends with a pinned capture
of what went wrong — delivered or not (never-delivered frames surface as
*partial* traces at run close). Tracing must not perturb the injection
sequence: the faulted run stays bit-identical to its untraced twin. The
fully observed twin's lineage stays sound when a fault drops, repeats,
reorders or cuts off a frame's rows: a lost ``last_in_frame`` may widen
a frame's tag, never narrow it.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import obs
from repro.faults import FAULT_KINDS, FaultSpec, harden_catalog, recovering
from repro.geo import goes_geostationary
from repro.ingest import GOESImager, SyntheticEarth, western_us_sector
from repro.server import DSMSServer, StreamCatalog
from tests.conftest import install_frame_tracer

DAY_T0 = 72_000.0
QUERY = "reflectance(goes.vis)"
# Holds each frame's rows until the last: its outputs carry the frame's tag.
FRAME_QUERY = "stretch(reflectance(goes.vis), 'linear')"

if "CHAOS_SEED" in os.environ:
    SEEDS = (int(os.environ["CHAOS_SEED"]),)
else:
    SEEDS = (101, 202, 303, 404, 505)


@pytest.fixture(autouse=True)
def _clean_trace_state():
    obs.install(obs.Instruments())
    yield
    obs.install(obs.Instruments())


def make_catalog() -> StreamCatalog:
    crs = goes_geostationary(-135.0)
    imager = GOESImager(
        scene=SyntheticEarth(seed=5),
        sector_lattice=western_us_sector(crs, width=16, height=8),
        n_frames=3,
        t0=DAY_T0,
    )
    catalog = StreamCatalog()
    catalog.register_imager(imager)
    return catalog


def run_observed(spec: FaultSpec, query: str, monkeypatch):
    """The hardened run under every instrument, with the scans it stamped.

    ``scans`` maps each ``(stream, ordinal)`` source tag the DSMS handed
    to the plan DAG to that chunk's ``(sector, row0)``.
    """
    scans: dict[tuple[str, int], tuple[int | None, int]] = {}
    with obs.observe(trace=True, stats=True, frame_trace=True) as ob:
        hardened, injector, ctx = harden_catalog(make_catalog(), spec)
        server = DSMSServer(hardened, recovery=ctx)
        session = server.register(query, encode_png=False)
        feed = server.plan_dag.feed

        def recording_feed(stream_id, chunk, **kwargs):
            ((sid, ordinal),) = chunk.provenance.sources
            scans[sid, ordinal] = (chunk.sector, chunk.row0)
            return feed(stream_id, chunk, **kwargs)

        monkeypatch.setattr(server.plan_dag, "feed", recording_feed)
        with recovering(ctx):
            server.run()
    return session, injector, scans, sum(ob.stats.scans.values())


def run_hardened(spec: FaultSpec, traced: bool, query: str = QUERY):
    ftracer = install_frame_tracer() if traced else None
    hardened, injector, ctx = harden_catalog(make_catalog(), spec)
    server = DSMSServer(hardened, recovery=ctx)
    session = server.register(query, encode_png=False)
    with recovering(ctx):
        server.run()
    return session, injector, ctx, ftracer


class TestChaosTraces:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_fault_is_annotated_and_pinned(self, kind, seed):
        spec = FaultSpec.single(kind, seed=seed)
        session, injector, ctx, ftracer = run_hardened(spec, traced=True)
        assert injector.counts[kind] > 0, "the drill must actually inject"
        note = f"fault:{kind}"
        pinned = ftracer.recorder.pinned
        assert pinned, f"{kind}: injected faults must pin flight-recorder traces"
        annotated = [t for t in pinned if note in t.annotations]
        assert annotated, f"{kind}: no pinned trace carries {note!r}"
        assert all(t.pin_reason is not None for t in pinned)
        assert ftracer.recorder.within_bounds()
        if kind == "disconnect":
            # The post-reconnect chunks carry the recovery note.
            recovery_notes = [
                n
                for t in pinned
                for n in t.annotations
                if n.startswith("recovery:reconnect:")
            ]
            assert recovery_notes, "reconnect must be annotated on resumed chunks"

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_tracing_does_not_perturb_injection_or_results(self, kind):
        """Traced and untraced chaos runs are bit-identical twins."""
        spec = FaultSpec.single(kind, seed=SEEDS[0])
        session_a, injector_a, _, _ = run_hardened(spec, traced=False)
        obs.install(obs.Instruments())
        session_b, injector_b, _, _ = run_hardened(spec, traced=True)
        assert injector_a.counts == injector_b.counts
        assert len(session_a.frames) == len(session_b.frames)
        for fa, fb in zip(session_a.frames, session_b.frames):
            assert fa.image.t == fb.image.t
            assert np.array_equal(fa.image.values, fb.image.values)
            assert fb.trace is not None, "traced twin must carry frame traces"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_mix_stays_bounded_and_annotated(self, seed):
        spec = FaultSpec.default(seed=seed)
        session, injector, ctx, ftracer = run_hardened(spec, traced=True)
        assert sum(injector.counts.values()) > 0
        assert ftracer.recorder.within_bounds()
        fault_notes = {
            n
            for t in ftracer.recorder.pinned
            for n in t.annotations
            if n.startswith("fault:")
        }
        injected = {f"fault:{k}" for k, v in injector.counts.items() if v}
        # Every annotation corresponds to a genuinely injected kind.
        assert fault_notes <= injected
        assert fault_notes, "a default-mix drill must pin annotated traces"

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", ("drop", "reorder", "dup", "disconnect"))
    def test_observed_twin_keeps_frames_and_sound_lineage(self, kind, seed, monkeypatch):
        spec = FaultSpec.single(kind, seed=seed)
        plain, injector_a, _, _ = run_hardened(spec, traced=False, query=FRAME_QUERY)
        obs.install(obs.Instruments())
        session, injector_b, scans, consumed = run_observed(spec, FRAME_QUERY, monkeypatch)
        assert injector_a.counts == injector_b.counts and injector_b.counts[kind] > 0
        assert len(plain.frames) == len(session.frames) > 0
        for fa, fb in zip(plain.frames, session.frames):
            assert fa.image.t == fb.image.t
            assert np.array_equal(fa.image.values, fb.image.values, equal_nan=True)
        for frame in session.frames:
            prov = obs.lineage(frame)
            assert len(prov.sources) + prov.dropped_sources <= consumed
            named = {scans[s] for s in prov.sources}
            # Every delivered row names a scan of that row (a repeat: either).
            for row in np.flatnonzero(np.isfinite(frame.image.values).any(axis=1)):
                assert (frame.image.sector, int(row)) in named, (kind, seed, int(row))
