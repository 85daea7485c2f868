"""Engine: pipelines, stream merging, statistics reporting."""

import numpy as np
import pytest

from repro.core import FLOAT32, GeoStream, GridChunk, GridLattice, Organization, StreamMetadata
from repro.engine import (
    chunk_time,
    compose_streams,
    format_report,
    iter_pipeline_operators,
    pipeline,
    pipeline_report,
)
from repro.engine.scheduler import merge_sources
from repro.errors import StreamError
from repro.geo import LATLON
from repro.operators import Rescale, SpatialRestriction, StreamComposition


def make_stream(stream_id, times, value=1.0):
    lattice = GridLattice(LATLON, 0.0, 1.0, 1.0, -1.0, 4, 1)
    meta = StreamMetadata(stream_id, "b", LATLON, Organization.ROW_BY_ROW, FLOAT32)
    chunks = [
        GridChunk(np.full((1, 4), value, dtype=np.float32), lattice, "b", t)
        for t in times
    ]
    return GeoStream.from_chunks(meta, chunks)


class TestApplyOperators:
    def test_rejects_non_operator(self):
        stream = make_stream("a", [0.0])
        with pytest.raises(StreamError):
            stream.pipe(StreamComposition("+"))  # binary op in unary pipe

    def test_metadata_folded_through(self, small_imager):
        from repro.core import REFLECTANCE
        from repro.operators import CountsToReflectance

        out = small_imager.stream("vis").pipe(CountsToReflectance())
        assert out.metadata.value_set == REFLECTANCE

    def test_operator_chain_order(self):
        stream = make_stream("a", [0.0], value=1.0)
        out = stream.pipe(Rescale(2.0, 0.0), Rescale(1.0, 3.0)).collect_chunks()[0]
        # (1 * 2) + 3, not (1 + 3) * 2.
        assert float(out.values[0, 0]) == 5.0


class TestBlockReadAhead:
    """The bare pull path reads ahead by a point budget, not a chunk count."""

    @staticmethod
    def _counting(width, height, n_chunks):
        """A source of ``n_chunks`` (height x width) chunks that counts pulls."""
        lattice = GridLattice(LATLON, 0.0, float(height), 1.0, -1.0, width, height)
        meta = StreamMetadata("src", "b", LATLON, Organization.IMAGE_BY_IMAGE, FLOAT32)
        chunks = [
            GridChunk(
                np.full((height, width), float(i), dtype=np.float32), lattice, "b", float(i)
            )
            for i in range(n_chunks)
        ]
        pulled = [0]

        def source():
            for chunk in chunks:
                pulled[0] += 1
                yield chunk

        return GeoStream(meta, source), chunks, pulled

    @pytest.mark.parametrize(
        "width, height, expected",
        [
            (64, 1, pipeline._BLOCK_CHUNKS),  # one-row chunks: still a full block
            (64, 48, pipeline._BLOCK_POINTS // (64 * 48)),  # whole frames: the budget
            (1024, 1024, 1),  # a chunk over the budget travels alone
        ],
    )
    def test_read_ahead_is_bounded_in_points(self, width, height, expected):
        stream, chunks, pulled = self._counting(width, height, 300 if height > 1 else 600)
        ops = [Rescale(2.0, 1.0), Rescale(0.5, -1.0)]
        it = stream.pipe(*ops).chunks()
        first = next(it)
        assert pulled[0] == expected
        assert pulled[0] == 1 or pulled[0] * width * height <= pipeline._BLOCK_POINTS
        # Where blocks are cut cannot change outputs or stats: same chunks
        # and counters as feeding the operators one chunk at a time.
        outs = [first, *it]
        loop_ops = [Rescale(2.0, 1.0), Rescale(0.5, -1.0)]
        expected_outs = chunks
        for op in loop_ops:
            expected_outs = [o for c in expected_outs for o in op.process(c)]
            assert list(op.flush()) == []
        assert len(outs) == len(expected_outs) == len(chunks)
        for got, want in zip(outs, expected_outs):
            assert got.t == want.t and np.array_equal(got.values, want.values)
        for op, loop_op in zip(ops, loop_ops):
            assert op.stats == loop_op.stats


class TestChunkTime:
    def test_grid_chunk(self):
        stream = make_stream("a", [7.5])
        assert chunk_time(stream.collect_chunks()[0]) == 7.5

    def test_point_chunk(self, scene):
        from repro.ingest import LidarScanner

        lidar = LidarScanner(scene=scene, n_points=10, points_per_chunk=10)
        chunk = lidar.stream().collect_chunks()[0]
        assert chunk_time(chunk) == float(chunk.t[0])


class TestComposeMerging:
    def test_merge_respects_time_order(self):
        """Chunks feed the binary operator in global arrival order."""
        left = make_stream("l", [0.0, 2.0, 4.0], value=1.0)
        right = make_stream("r", [1.0, 3.0, 5.0], value=2.0)
        seen = []

        class Spy(StreamComposition):
            # Spy on the public entry point, not a hook the kernels own.
            def process_side(self, side, chunk):
                seen.append((side, chunk.t))
                return super().process_side(side, chunk)

        out = compose_streams(left, right, Spy("+", timestamp_policy="measured"))
        out.collect_chunks()
        assert seen == [
            ("left", 0.0), ("right", 1.0), ("left", 2.0),
            ("right", 3.0), ("left", 4.0), ("right", 5.0),
        ]

    def test_compose_requires_binary(self):
        left = make_stream("l", [0.0])
        right = make_stream("r", [0.0])
        with pytest.raises(StreamError):
            compose_streams(left, right, Rescale(1.0))


class TestMergeSources:
    def test_global_time_order(self):
        sources = {
            "a": make_stream("a", [0.0, 3.0]),
            "b": make_stream("b", [1.0, 2.0]),
        }
        merged = list(merge_sources(sources))
        times = [chunk_time(c) for _, c in merged]
        assert times == sorted(times)
        ids = [sid for sid, _ in merged]
        assert ids == ["a", "b", "b", "a"]

    def test_tie_broken_by_registration_order(self):
        sources = {
            "x": make_stream("x", [1.0]),
            "y": make_stream("y", [1.0]),
        }
        merged = list(merge_sources(sources))
        assert [sid for sid, _ in merged] == ["x", "y"]

    def test_empty_source_ok(self):
        sources = {"a": make_stream("a", []), "b": make_stream("b", [0.0])}
        merged = list(merge_sources(sources))
        assert len(merged) == 1


class TestReports:
    def test_pipeline_report_walks_dag(self, small_imager):
        from repro.geo import BoundingBox

        box = small_imager.sector_lattice.bbox
        r1 = SpatialRestriction(box)
        vis = small_imager.stream("vis").pipe(r1)
        nir = small_imager.stream("nir").pipe(Rescale(1.0))
        combined = compose_streams(nir, vis, StreamComposition("-"))
        combined.count_points()
        reports = pipeline_report(combined)
        assert len(reports) == 3
        names = [r.name for r in reports]
        assert "spatial-restriction" in names and "composition" in names

    def test_operator_listing_order(self, small_imager):
        op1, op2 = Rescale(1.0), Rescale(2.0)
        out = small_imager.stream("vis").pipe(op1, op2)
        assert list(iter_pipeline_operators(out)) == [op1, op2]

    def test_format_report_renders_table(self, small_imager):
        op = Rescale(2.0)
        out = small_imager.stream("vis").pipe(op)
        out.count_points()
        text = format_report(pipeline_report(out))
        assert "pts_in" in text
        assert str(op.stats.points_in) in text

    def test_format_report_columns_match_report_fields(self, small_imager):
        op = Rescale(2.0)
        out = small_imager.stream("vis").pipe(op)
        out.count_points()
        text = format_report(pipeline_report(out))
        for column in ("chunks_in/out", "mean_wait_s", "max_wait_s"):
            assert column in text
        assert f"{op.stats.chunks_in}/{op.stats.chunks_out}" in text

    def test_format_report_wait_columns_render_values(self, scene):
        # A sequential band scan forces the composition to wait a full
        # band's scan time, so both wait columns must show numbers.
        from repro.geo import goes_geostationary
        from repro.ingest import GOESImager, western_us_sector

        crs = goes_geostationary(-135.0)
        sector = western_us_sector(crs, width=32, height=16)
        imager = GOESImager(
            scene=scene, sector_lattice=sector, n_frames=1,
            band_interleave="band", t0=72_000.0,
        )
        op = StreamComposition("-")
        out = compose_streams(imager.stream("nir"), imager.stream("vis"), op)
        out.count_points()
        report = [r for r in pipeline_report(out) if r.name == "composition"][0]
        text = format_report([report])
        row = text.splitlines()[-1]
        assert f"{report.mean_wait_time:.1f}" in row
        assert f"{report.max_wait_time:.1f}" in row

    def test_multi_operator_pipeline_report_counts(self, small_imager):
        ops = [Rescale(2.0), Rescale(0.5), Rescale(1.0)]
        out = small_imager.stream("vis").pipe(*ops)
        total = out.count_points()
        reports = pipeline_report(out)
        assert [r.name for r in reports] == ["value-transform"] * 3
        # A pointwise chain conserves throughput at every hop.
        for report in reports:
            assert report.points_in == report.points_out == total
            assert report.chunks_in == report.chunks_out
            assert report.accounting_errors == 0


class TestConcurrentIteration:
    """Re-opening a piped stream invalidates in-flight iterators."""

    def test_double_open_raises_stream_error(self):
        stream = make_stream("s", [0.0, 1.0, 2.0]).pipe(Rescale(2.0))
        first = stream.chunks()
        next(first)  # first iteration in progress
        second = stream.chunks()  # re-open resets the shared operators
        next(second)
        with pytest.raises(StreamError, match="re-opened"):
            next(first)

    def test_double_open_of_composition_raises(self):
        left = make_stream("l", [0.0, 1.0])
        right = make_stream("r", [0.0, 1.0])
        composed = compose_streams(left, right, StreamComposition("+"))
        first = composed.chunks()
        next(first)
        second = composed.chunks()
        next(second)
        with pytest.raises(StreamError, match="re-opened"):
            next(first)

    def test_sequential_reiteration_still_works(self):
        stream = make_stream("s", [0.0, 1.0]).pipe(Rescale(2.0))
        a = list(stream.chunks())
        b = list(stream.chunks())
        assert len(a) == len(b) == 2

    def test_stale_iterator_poisoned_even_after_second_finishes(self):
        stream = make_stream("s", [0.0, 1.0, 2.0]).pipe(Rescale(2.0))
        first = stream.chunks()
        next(first)
        list(stream.chunks())  # complete second iteration
        with pytest.raises(StreamError, match="re-opened"):
            next(first)
