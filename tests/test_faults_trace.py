"""Chaos runs with the flight recorder on: every fault leaves a trace.

For each fault kind and seed the hardened pipeline runs with frame
tracing enabled. The contract: every injected fault annotates the
affected chunk's frame trace with ``fault:<kind>`` and auto-pins it in
the flight recorder, so a chaotic run always ends with a pinned capture
of what went wrong — delivered or not (never-delivered frames surface as
*partial* traces at run close). Tracing must not perturb the injection
sequence: the faulted run stays bit-identical to its untraced twin.
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


def run_hardened(spec: FaultSpec, traced: bool):
    ftracer = install_frame_tracer() if traced else None
    hardened, injector, ctx = harden_catalog(make_catalog(), spec)
    server = DSMSServer(hardened, recovery=ctx)
    session = server.register(QUERY, encode_png=False)
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
