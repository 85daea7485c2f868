"""Recovery mechanics, piece by piece.

The chaos suite (:mod:`test_faults_chaos`) checks end-to-end survival;
this module pins each recovery mechanism in isolation: the deterministic
backoff schedule, reconnect-without-duplicates, recovery exhaustion,
session checkpoint/restore, the dead-letter sink's exact contents, the
router's naive-index fallback, stall-driven shed escalation, the
stream generator's poison-record quarantine, and wire-level faults on the
real imager's downlink.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import GeoStream, GridLattice, Organization
from repro.core.valueset import GRAY10
from repro.errors import RecoveryExhausted, SourceDisconnected, StreamError
from repro.faults import (
    BackoffPolicy,
    FaultInjector,
    FaultSpec,
    FrameGuard,
    RecoveryContext,
    SimClock,
    harden_catalog,
    recovering,
    resilient_stream,
)
from repro.geo import LATLON, goes_geostationary
from repro.index.naive import NaiveRegionIndex
from repro.ingest import GOESImager, SyntheticEarth, western_us_sector
from repro.ingest.generator import StreamGenerator, encode_record
from repro.operators import AdaptiveLoadShedder
from repro.query import ast as q
from repro.server import DSMSServer, StreamCatalog

from tests.reference.ingest import GOESImagerReference
from tests.test_faults_chaos import SEEDS

DAY_T0 = 72_000.0


def make_imager(n_frames: int = 3, imager_cls: type[GOESImager] = GOESImager) -> GOESImager:
    crs = goes_geostationary(-135.0)
    return imager_cls(
        scene=SyntheticEarth(seed=5),
        sector_lattice=western_us_sector(crs, width=16, height=8),
        n_frames=n_frames,
        t0=DAY_T0,
    )


def make_catalog(n_frames: int = 3) -> StreamCatalog:
    catalog = StreamCatalog()
    catalog.register_imager(make_imager(n_frames))
    return catalog


def chunk_keys(chunks):
    """Order-sensitive bit-level identity of a chunk sequence."""
    return [(c.t, c.row0, c.band, c.values.tobytes()) for c in chunks]


class TestFaultSpec:
    def test_parse_fields_and_seed(self):
        spec = FaultSpec.parse("drop=0.05,dup=0.02,seed=42")
        assert spec.drop == 0.05 and spec.dup == 0.02 and spec.seed == 42
        assert spec.reorder == 0.0

    def test_parse_stall_and_disconnect_forms(self):
        spec = FaultSpec.parse("stall=0.1:30,disconnect=2@20")
        assert spec.stall == 0.1 and spec.stall_seconds == 30.0
        assert spec.disconnect == 2 and spec.disconnect_after == 20
        bare = FaultSpec.parse("stall=0.2,disconnect=1")
        assert bare.stall_seconds == 30.0  # default duration
        assert bare.disconnect_after == 20  # default position

    def test_parse_default_none_and_overrides(self):
        assert FaultSpec.parse("none") == FaultSpec()
        assert FaultSpec.parse("") == FaultSpec()
        assert FaultSpec.parse("default") == FaultSpec.default()
        tuned = FaultSpec.parse("seed=9,default,drop=0.5")
        assert tuned.seed == 9 and tuned.drop == 0.5
        assert tuned.dup == FaultSpec.default().dup

    @pytest.mark.parametrize(
        "bad",
        [
            "drop=2.0",          # probability outside [0, 1]
            "drop=high",         # not a number
            "frobnicate=0.1",    # unknown key
            "drop",              # missing value
            "seed=x",            # non-integer seed
            "stall=0.1:soon",    # bad stall duration
            "disconnect=1@soon", # bad disconnect position
        ],
    )
    def test_parse_rejects_bad_specs(self, bad):
        from repro.errors import FaultError

        with pytest.raises(FaultError):
            FaultSpec.parse(bad)

    def test_constructor_validation(self):
        from repro.errors import FaultError

        with pytest.raises(FaultError):
            FaultSpec(drop=1.5)
        with pytest.raises(FaultError):
            FaultSpec(stall_seconds=-1.0)
        with pytest.raises(FaultError):
            FaultSpec(disconnect=-1)
        with pytest.raises(FaultError):
            FaultSpec(disconnect_after=0)

    def test_to_string_round_trips(self):
        for spec in (
            FaultSpec.default(seed=3),
            FaultSpec(seed=1, drop=0.25, stall=0.5, stall_seconds=12.0),
            FaultSpec(seed=2, disconnect=3, disconnect_after=7),
            FaultSpec(),
        ):
            assert FaultSpec.parse(spec.to_string()) == spec
            assert str(spec) == spec.to_string()

    def test_single_and_active_kinds(self):
        from repro.errors import FaultError
        from repro.faults import FAULT_KINDS

        for kind in FAULT_KINDS:
            spec = FaultSpec.single(kind, seed=5)
            assert spec.active_kinds == (kind,)
        assert FaultSpec.default().active_kinds == FAULT_KINDS
        assert FaultSpec().active_kinds == ()
        with pytest.raises(FaultError):
            FaultSpec.single("gremlins")


class TestBackoffPolicy:
    def test_schedule_is_deterministic(self):
        policy = BackoffPolicy(seed=7)
        assert policy.schedule() == policy.schedule()
        assert BackoffPolicy(seed=7).schedule() == policy.schedule()
        assert BackoffPolicy(seed=8).schedule() != policy.schedule()

    def test_schedule_is_exponential_within_jitter(self):
        policy = BackoffPolicy(
            base=0.5, factor=2.0, max_delay=60.0, jitter=0.25, max_retries=10, seed=3
        )
        for i, delay in enumerate(policy.schedule()):
            lo = min(0.5 * 2.0**i, 60.0)
            assert lo <= delay <= lo * 1.25

    def test_zero_jitter_is_pure_exponential(self):
        policy = BackoffPolicy(base=1.0, factor=2.0, max_delay=8.0, jitter=0.0, max_retries=6)
        assert policy.schedule() == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]


class TestResilientStream:
    def test_reconnect_delivers_no_duplicates_no_gaps(self):
        imager = make_imager()
        baseline = list(imager.stream("vis").chunks())
        spec = FaultSpec(seed=11, disconnect=3, disconnect_after=5)
        faulty = FaultInjector(spec).wrap_stream(imager.stream("vis"))
        ctx = RecoveryContext()
        recovered = list(resilient_stream(faulty, context=ctx).chunks())
        assert chunk_keys(recovered) == chunk_keys(baseline)
        assert ctx.retries == 3

    def test_backoff_sleeps_follow_the_schedule(self):
        imager = make_imager()
        spec = FaultSpec(seed=11, disconnect=2, disconnect_after=5)
        faulty = FaultInjector(spec).wrap_stream(imager.stream("vis"))
        clock = SimClock()
        policy = BackoffPolicy(seed=9)
        list(resilient_stream(faulty, policy=policy, clock=clock).chunks())
        assert clock.sleeps == policy.schedule()[:2]

    def test_dead_source_exhausts_retries(self):
        imager = make_imager()
        meta = imager.stream("vis").metadata

        def dead_source():
            raise SourceDisconnected("link never comes back")
            yield  # pragma: no cover

        dead = GeoStream(meta, dead_source)
        ctx = RecoveryContext(backoff=BackoffPolicy(max_retries=3, seed=1))
        with pytest.raises(RecoveryExhausted, match="3 reconnect attempts"):
            list(resilient_stream(dead, context=ctx).chunks())
        assert ctx.retries == 3
        assert ctx.sources_lost == 1

    def test_deadline_exhausts_before_max_retries(self):
        imager = make_imager()
        meta = imager.stream("vis").metadata

        def dead_source():
            raise SourceDisconnected("down")
            yield  # pragma: no cover

        dead = GeoStream(meta, dead_source)
        # Delays 1, 2, 4, ... against a 5-second deadline: the third retry
        # (cumulative 7s) would overshoot, so recovery stops after two.
        policy = BackoffPolicy(base=1.0, jitter=0.0, max_retries=10, deadline=5.0)
        ctx = RecoveryContext(backoff=policy)
        with pytest.raises(RecoveryExhausted, match="deadline"):
            list(resilient_stream(dead, context=ctx).chunks())
        assert ctx.retries == 2


class TestCheckpointRestore:
    def test_resume_delivers_each_frame_exactly_once(self):
        query = "reflectance(goes.vis)"
        baseline_server = DSMSServer(make_catalog())
        baseline = baseline_server.register(query, encode_png=False)
        baseline_server.run()
        assert len(baseline.frames) == 3

        # First connection dies mid-scan.
        server = DSMSServer(make_catalog())
        first = server.register(query, encode_png=False)
        server.run(max_chunks=12, close=False)
        checkpoint = first.checkpoint()
        assert 0 < checkpoint.frames_delivered < 3
        assert checkpoint.query_text == query

        # The client reconnects to a fresh server; the deterministic scan
        # replays but the resumed session discards the delivered prefix.
        server2 = DSMSServer(make_catalog())
        resumed = server2.restore_session(checkpoint)
        server2.run()
        assert resumed.resumed_skips > 0

        combined = [f.image for f in first.frames] + [f.image for f in resumed.frames]
        times = [img.t for img in combined]
        assert len(times) == len(set(times)) == 3, "duplicate or missing frames"
        by_t = {f.image.t: f.image for f in baseline.frames}
        for img in combined:
            assert np.array_equal(img.values, by_t[img.t].values)

    def test_empty_checkpoint_resumes_from_the_start(self):
        server = DSMSServer(make_catalog())
        session = server.register("reflectance(goes.vis)", encode_png=False)
        checkpoint = session.checkpoint()
        assert checkpoint.frames_delivered == 0
        server2 = DSMSServer(make_catalog())
        resumed = server2.restore_session(checkpoint)
        server2.run()
        assert len(resumed.frames) == 3
        assert resumed.resumed_skips == 0


class TestDeadLetter:
    def test_receives_exactly_the_quarantined_chunks(self):
        imager = make_imager(n_frames=1)
        chunks = list(imager.stream("vis").chunks())
        # Poison one mid-frame row with out-of-range counts.
        poison = dataclasses.replace(chunks[3], values=np.full_like(chunks[3].values, 65535))
        corrupted = chunks[:3] + [poison] + chunks[4:]
        stream = GeoStream.from_chunks(imager.stream("vis").metadata, corrupted)
        ctx = RecoveryContext()
        survived = list(stream.pipe(FrameGuard(value_set=GRAY10, context=ctx)).chunks())

        # The poison row was quarantined, which makes its frame incomplete:
        # the guard quarantines the frame's other rows too at flush.
        assert survived == []
        reasons = ctx.dead_letter.by_reason
        assert reasons == {"invalid-values": 1, "incomplete-frame": len(chunks) - 1}
        invalid = [e for e in ctx.dead_letter.entries if e.reason == "invalid-values"]
        assert len(invalid) == 1 and invalid[0].item is poison
        held_rows = {
            e.item.row0 for e in ctx.dead_letter.entries if e.reason == "incomplete-frame"
        }
        assert held_rows == {c.row0 for c in chunks if c.row0 != poison.row0}

    def test_duplicate_chunk_goes_to_dead_letter_not_downstream(self):
        imager = make_imager(n_frames=1)
        chunks = list(imager.stream("vis").chunks())
        duplicated = chunks[:4] + [chunks[2]] + chunks[4:]
        stream = GeoStream.from_chunks(imager.stream("vis").metadata, duplicated)
        ctx = RecoveryContext()
        survived = list(stream.pipe(FrameGuard(context=ctx)).chunks())
        assert chunk_keys(survived) == chunk_keys(chunks)
        assert ctx.dead_letter.by_reason == {"duplicate-chunk": 1}
        assert ctx.dead_letter.entries[0].item is chunks[2]

    def test_capacity_evicts_oldest_but_keeps_counting(self):
        from repro.faults import DeadLetterSink

        sink = DeadLetterSink(capacity=2)
        for i in range(5):
            sink.add(i, reason="r")
        assert sink.total == 5
        assert sink.dropped == 3
        assert [e.item for e in sink.entries] == [3, 4]


class BrokenIndex(NaiveRegionIndex):
    """A router whose overlap queries fail — forces the naive fallback."""

    def overlapping(self, box):
        raise StreamError("cascade tree corrupted")


class TestRouterFallback:
    def _spatial_query(self, catalog):
        box = catalog.extent("goes.vis")
        inner = type(box)(
            box.xmin + box.width * 0.1,
            box.ymin + box.height * 0.1,
            box.xmin + box.width * 0.8,
            box.ymin + box.height * 0.8,
            box.crs,
        )
        return q.SpatialRestrict(q.StreamRef("goes.vis"), inner)

    def test_broken_router_falls_back_to_naive_index(self):
        catalog = make_catalog()
        tree = self._spatial_query(catalog)
        good = DSMSServer(make_catalog())
        good_session = good.register(tree, encode_png=False)
        good.run()

        ctx = RecoveryContext()
        server = DSMSServer(make_catalog(), index_factory=BrokenIndex, recovery=ctx)
        session = server.register(tree, encode_png=False)
        stats = server.run()

        assert stats.fallbacks >= 1
        assert len(session.frames) == len(good_session.frames) > 0
        for mine, theirs in zip(session.frames, good_session.frames):
            assert np.array_equal(mine.image.values, theirs.image.values)

    def test_broken_router_raises_without_recovery(self):
        catalog = make_catalog()
        tree = self._spatial_query(catalog)
        server = DSMSServer(make_catalog(), index_factory=BrokenIndex)
        server.register(tree, encode_png=False)
        with pytest.raises(StreamError, match="cascade tree corrupted"):
            server.run()


class TestShedEscalation:
    def test_sustained_stall_escalates_then_relax_restores(self):
        shedder = AdaptiveLoadShedder(points_per_frame_budget=1000.0)
        assert shedder.pressure == 1.0
        shedder.escalate()
        shedder.escalate()
        assert shedder.pressure == 4.0
        for _ in range(10):
            shedder.escalate()
        assert shedder.pressure == 64.0  # bounded so it can recover
        assert shedder.escalations == 12
        shedder.relax()
        assert shedder.pressure == 1.0

    def test_stalled_source_drives_escalation_in_the_server(self):
        spec = FaultSpec(seed=202, stall=0.5, stall_seconds=30.0)
        ctx = RecoveryContext(stall_threshold_s=10.0)
        hardened, injector, ctx = harden_catalog(make_catalog(), spec, context=ctx)
        frame_points = 16 * 8
        shedder = AdaptiveLoadShedder(points_per_frame_budget=frame_points * 2.0)
        server = DSMSServer(hardened, ingest_shedder=shedder, recovery=ctx)
        server.register("reflectance(goes.vis)", encode_png=False)
        with recovering(ctx):
            server.run()
        assert injector.counts["stall"] > 0
        assert ctx.stalls_observed > 0
        assert shedder.escalations > 0
        assert ctx.clock.total_slept == injector.counts["stall"] * 30.0


class TestGeneratorPoisonRecords:
    def _records(self):
        lattice = GridLattice(LATLON, x0=-124.0, y0=42.0, dx=0.1, dy=-0.1, width=8, height=4)
        records = [
            encode_record(
                sector=7,
                frame=1,
                band="vis",
                row=row,
                t=DAY_T0 + row,
                last=row == 3,
                counts=np.arange(8, dtype=np.uint16) + row,
            )
            for row in range(4)
        ]
        return lattice, records

    def test_crc_poison_raises_without_recovery(self):
        lattice, records = self._records()
        records[1] = records[1][:20] + bytes([records[1][20] ^ 0x80]) + records[1][21:]
        gen = StreamGenerator({7: lattice})
        with pytest.raises(StreamError, match="CRC"):
            list(gen.decode_stream(records))

    def test_crc_poison_is_quarantined_under_recovery(self):
        lattice, records = self._records()
        bad = records[1][:20] + bytes([records[1][20] ^ 0x80]) + records[1][21:]
        records[1] = bad
        gen = StreamGenerator({7: lattice})
        with recovering() as ctx:
            chunks = list(gen.decode_stream(records))
        assert [c.row0 for c in chunks] == [0, 2, 3]
        assert ctx.dead_letter.by_reason == {"bad-record": 1}
        assert ctx.dead_letter.entries[0].item == bad
        assert "CRC" in ctx.dead_letter.entries[0].error

    def test_wire_level_injection_feeds_the_same_path(self):
        lattice, records = self._records()
        gen = StreamGenerator({7: lattice})
        injector = FaultInjector(FaultSpec(seed=3, bitflip=0.6))
        with recovering() as ctx:
            chunks = list(gen.decode_stream(injector.records(records)))
        assert injector.counts["bitflip"] > 0
        assert ctx.dead_letter.by_reason.get("bad-record") == injector.counts["bitflip"]
        assert len(chunks) == 4 - injector.counts["bitflip"]

    def test_eof_mid_frame_quarantined_under_recovery(self):
        lattice, records = self._records()
        gen = StreamGenerator({7: lattice}, organization=Organization.IMAGE_BY_IMAGE)
        with recovering() as ctx:
            chunks = list(gen.decode_stream(records[:-1]))
        assert chunks == []
        assert ctx.dead_letter.by_reason == {"partial-frame-eof": 1}


class TestWireFaultsOnTheImager:
    """Record-level faults between the imager and the stream generator.

    The frame-at-a-time downlink and its row-at-a-time reference must lose
    the same records and decode the same survivors: the raw-record
    boundary is where the faults land, and it must not move.
    """

    @staticmethod
    def _survivors(imager_cls: type[GOESImager], kind: str, seed: int):
        imager = make_imager(imager_cls=imager_cls)
        gen = StreamGenerator(imager.navigation(), imager.organization)
        injector = FaultInjector(FaultSpec(seed=seed, **{kind: 0.2}))
        with recovering() as ctx:
            chunks = list(gen.decode_stream(injector.records(imager.raw_records("vis"))))
        return chunk_keys(chunks), ctx.dead_letter.by_reason, injector.counts[kind]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", ["drop", "bitflip", "truncate"])
    def test_same_survivors_as_the_reference(self, kind, seed):
        chunks, dead, injected = self._survivors(GOESImager, kind, seed)
        assert injected > 0
        assert len(chunks) < 3 * 8
        assert (chunks, dead, injected) == self._survivors(GOESImagerReference, kind, seed)
