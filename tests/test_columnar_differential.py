"""Differential harness: the batch kernels against the per-point reference.

The kernels in ``src/`` are *defined* by equivalence: for every pipeline
they must deliver bit-identical results to the per-point reference in
``tests/reference/`` (the "oracle" side below is always built and run
inside ``reference_kernels()``). Four layers of evidence:

* every documented/example query, registered on a DSMS on both sides —
  delivered frames, aggregate records, chunk provenance, and per-stage
  :class:`~repro.obs.stats.StageStats` counts all match exactly;
* each operator kernel on the pull path, fed the shared demo streams —
  output chunks and the operators' own :class:`OperatorStats` match;
  region aggregates likewise, on row, image and point streams with
  non-finite values;
* oracle equivalence as a *property* — hypothesis-generated query trees
  and hypothesis-generated frames (arbitrary lattices and value domains
  from :mod:`tests.strategies`) agree on both sides;
* the chaos matrix — every fault kind, injected identically on both
  sides, yields identical deliveries, injector counts, and dead letters.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.cli import build_demo_catalog
from repro.core import (
    FrameInfo,
    GeoStream,
    GridChunk,
    GridLattice,
    Organization,
    PointChunk,
    StreamMetadata,
    TimeInterval,
)
from repro.core.columnar import FRAME_MEMO_MAX, ROW_MEMO_MAX, Memo
from repro.core.valueset import FLOAT32
from repro.engine.pipeline import compose_streams
from repro.faults import FAULT_KINDS, FaultSpec, harden_catalog, recovering
from repro.geo import LATLON, BoundingBox, PolygonRegion, utm
from repro.ingest import GOESImager, SyntheticEarth
from repro.operators import (
    AGGREGATE_FUNCS,
    Coarsen,
    FrameStretch,
    Magnify,
    RegionAggregate,
    Reproject,
    Rescale,
    Rotate,
    SpatialRestriction,
    StreamComposition,
    TemporalRestriction,
    ValueRestriction,
)
from repro.query import plan_query
from repro.server import DSMSServer

from tests.reference import reference_kernels
from tests.strategies import (
    BOX,
    SECTOR,
    SOURCES,
    frame_chunks_strategy,
    tree_strategy,
)
from tests.test_analysis_docs import (
    _doc_queries,
    _example_constant_queries,
    _example_runtime_queries,
)
from tests.test_faults_chaos import make_catalog as make_chaos_catalog

VIS = SOURCES["goes.vis"]
NIR = SOURCES["goes.nir"]


def chunk_key(chunk):
    """Everything that defines a delivered chunk, bit-exact."""
    assert isinstance(chunk, GridChunk), f"unexpected chunk type {type(chunk)}"
    return (
        chunk.values.tobytes(),
        str(chunk.values.dtype),
        chunk.values.shape,
        chunk.lattice,
        chunk.band,
        chunk.t,
        chunk.sector,
        chunk.row0,
        chunk.col0,
        chunk.last_in_frame,
        chunk.frame,
    )


def point_key(chunk):
    """Everything that defines an emitted point chunk, bit-exact."""
    assert isinstance(chunk, PointChunk), f"unexpected chunk type {type(chunk)}"
    return (
        chunk.x.tobytes(),
        chunk.y.tobytes(),
        chunk.values.tobytes(),
        str(chunk.values.dtype),
        chunk.band,
        chunk.t.tobytes(),
        chunk.crs,
        chunk.sector,
    )


def _sub_box(frac_lo: float = 0.2, frac_hi: float = 0.8) -> BoundingBox:
    return BoundingBox(
        BOX.xmin + BOX.width * frac_lo,
        BOX.ymin + BOX.height * frac_lo,
        BOX.xmin + BOX.width * frac_hi,
        BOX.ymin + BOX.height * frac_hi,
        BOX.crs,
    )


def _triangle() -> PolygonRegion:
    """A non-box region, exercising the mask kernel."""
    return PolygonRegion(
        [
            (BOX.xmin + 0.1 * BOX.width, BOX.ymin + 0.1 * BOX.height),
            (BOX.xmax - 0.1 * BOX.width, BOX.ymin + 0.2 * BOX.height),
            (BOX.xmin + 0.5 * BOX.width, BOX.ymax - 0.1 * BOX.height),
        ],
        crs=BOX.crs,
    )


# -- per-kernel pull-path differential --------------------------------------------

_KERNELS = {
    "rescale": lambda: [Rescale(0.5, offset=2.0)],
    "stretch-linear": lambda: [FrameStretch("linear")],
    "stretch-equalize": lambda: [FrameStretch("equalize")],
    "stretch-gaussian": lambda: [FrameStretch("gaussian")],
    "restrict-box": lambda: [SpatialRestriction(_sub_box())],
    "restrict-polygon": lambda: [SpatialRestriction(_triangle())],
    "restrict-value": lambda: [ValueRestriction(200.0, 900.0)],
    "restrict-time": lambda: [TemporalRestriction(TimeInterval(72_000.0, 72_030.0))],
    "magnify": lambda: [Magnify(2)],
    "coarsen": lambda: [Coarsen(3)],
    "rotate": lambda: [Rotate(30.0)],
    "reproject": lambda: [Reproject(utm(10))],
    "chain": lambda: [
        Rescale(2.0, offset=-1.0),
        FrameStretch("linear"),
        Coarsen(2),
        SpatialRestriction(_sub_box(0.0, 0.9)),
    ],
}


class TestKernelDifferential:
    @pytest.mark.parametrize("name", sorted(_KERNELS))
    def test_kernel_bit_identical(self, name):
        with reference_kernels():
            oracle_ops = _KERNELS[name]()
            oracle = VIS.pipe(*oracle_ops).collect_chunks()
        columnar_ops = _KERNELS[name]()
        columnar = VIS.pipe(*columnar_ops).collect_chunks()
        assert [chunk_key(c) for c in oracle] == [chunk_key(c) for c in columnar]
        # Rows/bytes accounting must be identical to the reference's, not
        # just the delivered values.
        assert [op.stats for op in oracle_ops] == [op.stats for op in columnar_ops]

    @pytest.mark.parametrize("gamma", ["+", "-", "*", "sup", "inf"])
    def test_compose_bit_identical(self, gamma):
        def run():
            op = StreamComposition(gamma, timestamp_policy="sector")
            out = compose_streams(VIS, NIR, op).collect_chunks()
            return [chunk_key(c) for c in out], op.stats

        with reference_kernels():
            oracle = run()
        assert oracle == run()

    def test_kernels_produce_output(self):
        """The differential above is not vacuous: kernels do emit chunks."""
        for name, make in _KERNELS.items():
            assert VIS.pipe(*make()).collect_chunks(), name


# -- region aggregates: the selection against the per-chunk masks ------------------


def _goes_vis(organization):
    imager = GOESImager(
        scene=SyntheticEarth(seed=3),
        sector_lattice=SECTOR,
        n_frames=2,
        t0=72_000.0,
        organization=organization,
    )
    return imager.stream("vis")


def _nonfinite(stream):
    """The stream as float32 with NaN, +inf and -inf at seeded points."""
    rng = np.random.default_rng(5)
    specials = np.array([np.nan, np.inf, -np.inf], dtype=np.float32)
    chunks = []
    for chunk in stream.chunks():
        values = chunk.values.astype(np.float32)
        flat = values.reshape(-1)
        picks = rng.integers(0, flat.size, size=max(1, flat.size // 6))
        flat[picks] = rng.choice(specials, size=picks.size)
        chunks.append(dc_replace(chunk, values=values))
    return GeoStream.from_chunks(dc_replace(stream.metadata, value_set=FLOAT32), chunks)


def _as_points(stream):
    """Every grid chunk as a point chunk: the same scan, point by point."""
    chunks = []
    for chunk in stream.chunks():
        x, y = chunk.flat_coords()
        chunks.append(
            PointChunk(
                x=x,
                y=y,
                values=chunk.values.ravel(),
                band=chunk.band,
                t=np.full(x.size, chunk.t),
                crs=chunk.lattice.crs,
                sector=chunk.sector,
            )
        )
    metadata = dc_replace(stream.metadata, organization=Organization.POINT_BY_POINT)
    return GeoStream.from_chunks(metadata, chunks)


@pytest.fixture(scope="module")
def aggregate_streams():
    rows = _goes_vis(Organization.ROW_BY_ROW)
    images = _goes_vis(Organization.IMAGE_BY_IMAGE)
    streams = {"rows": rows, "images": images, "points": _as_points(rows)}
    for name in list(streams):
        streams[f"{name}-nonfinite"] = _nonfinite(streams[name])
    return streams


def _aggregate_regions():
    """Boxes and polygons inside, across and wholly outside the sector."""
    w, h = BOX.width, BOX.height
    return {
        "inner": _sub_box(),
        "across": _sub_box(0.5, 1.5),
        "covering": _sub_box(-0.5, 1.5),
        "outside": BoundingBox(BOX.xmax + w, BOX.ymin, BOX.xmax + 2 * w, BOX.ymax, BOX.crs),
        "triangle": _triangle(),
        "spilling": PolygonRegion(
            [(BOX.xmin - 0.5 * w, BOX.ymin + 0.5 * h), (BOX.xmax, BOX.ymin), (BOX.xmax, BOX.ymax)],
            crs=BOX.crs,
        ),
        "polygon-outside": PolygonRegion(
            [(BOX.xmin - 2 * w, BOX.ymin), (BOX.xmin - w, BOX.ymin), (BOX.xmin - w, BOX.ymax)],
            crs=BOX.crs,
        ),
    }


class TestRegionAggregateDifferential:
    @pytest.mark.parametrize("func", AGGREGATE_FUNCS)
    @pytest.mark.parametrize(
        "stream", ["rows", "images", "points", "rows-nonfinite", "images-nonfinite", "points-nonfinite"]
    )
    def test_bit_identical(self, aggregate_streams, stream, func):
        source = aggregate_streams[stream]
        with reference_kernels():
            oracle_op = RegionAggregate(_aggregate_regions(), func)
            oracle = source.pipe(oracle_op).collect_chunks()
        op = RegionAggregate(_aggregate_regions(), func)
        produced = source.pipe(op).collect_chunks()
        assert [point_key(c) for c in oracle] == [point_key(c) for c in produced]
        assert oracle_op.stats == op.stats
        # Not vacuous: one record per region and frame, the regions inside
        # the sector aggregate something and the ones outside nothing.
        assert len(oracle) == 2
        names = sorted(_aggregate_regions())
        for record in oracle:
            value = dict(zip(names, record.values.tolist()))
            assert np.isnan(value["outside"]) and np.isnan(value["polygon-outside"])
            assert all(np.isfinite(value[n]) for n in ("inner", "across", "covering", "triangle"))


# -- every documented/example query through the DSMS ------------------------------


@pytest.fixture(scope="module")
def demo():
    return build_demo_catalog(seed=7, n_frames=2, width=48, height=24)


def _documented_queries(imager):
    seen = []
    for _, text in (
        *_doc_queries(),
        *_example_constant_queries(),
        *_example_runtime_queries(imager),
    ):
        if text not in seen:
            seen.append(text)
    return seen


def _run_all_queries(catalog, queries):
    """One server, every query registered, full scan under stage stats."""
    server = DSMSServer(catalog)
    sessions = [server.register(text, encode_png=False) for text in queries]
    with obs.observe(stats=True) as ob:
        server.run()
    frames = {
        text: [
            (f.image.t, f.image.band, str(f.image.values.dtype),
             f.image.lattice, f.image.values.tobytes(), f.provenance)
            for f in session.frames
        ]
        for text, session in zip(queries, sessions)
    }
    records = {text: session.records for text, session in zip(queries, sessions)}
    stage_counts = {
        fp: (s.calls, s.chunks_in, s.chunks_out, s.points_in, s.points_out,
             s.bytes_in, s.bytes_out)
        for fp, s in ob.stats.stages.items()
    }
    return frames, records, stage_counts, dict(ob.stats.scans)


class TestDocumentedQueries:
    def test_documented_queries_bit_identical(self, demo):
        imager, catalog = demo
        queries = _documented_queries(imager)
        assert len(queries) >= 8
        with reference_kernels():
            oracle = _run_all_queries(catalog, queries)
        columnar = _run_all_queries(catalog, queries)

        o_frames, o_records, o_stages, o_scans = oracle
        c_frames, c_records, c_stages, c_scans = columnar
        for text in queries:
            assert o_frames[text] == c_frames[text], text
            assert o_records[text] == c_records[text], text
        # Provenance-bearing frames were actually delivered (non-vacuous).
        delivered = [f for frames in o_frames.values() for f in frames]
        assert delivered
        assert all(f[-1] is not None and f[-1].stages for f in delivered)
        # Per-stage accounting matches exactly, stage for stage.
        assert o_stages == c_stages
        assert o_scans == c_scans


# -- oracle equivalence as a property ---------------------------------------------


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=tree_strategy())
def test_random_trees_oracle_equivalence(tree):
    with reference_kernels():
        oracle = plan_query(tree, SOURCES).collect_chunks()
    columnar = plan_query(tree, SOURCES).collect_chunks()
    assert [chunk_key(c) for c in oracle] == [chunk_key(c) for c in columnar]


def _ops_for(kind, lattice, value_set):
    lo, hi = value_set.bounds
    lo = float(max(lo, -1.0e4))
    hi = float(min(hi, 1.0e4))
    box = lattice.bbox
    sub = BoundingBox(
        box.xmin + 0.2 * box.width,
        box.ymin + 0.2 * box.height,
        box.xmax - 0.2 * box.width,
        box.ymax - 0.2 * box.height,
        box.crs,
    )
    return {
        "rescale": lambda: [Rescale(1.5, offset=-3.0)],
        "stretch": lambda: [FrameStretch("linear")],
        "coarsen": lambda: [Coarsen(2)],
        "magnify": lambda: [Magnify(2)],
        "restrict-value": lambda: [ValueRestriction(lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo))],
        "restrict-box": lambda: [SpatialRestriction(sub)],
    }[kind]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    fc=frame_chunks_strategy(),
    kind=st.sampled_from(
        ["rescale", "stretch", "coarsen", "magnify", "restrict-value", "restrict-box"]
    ),
)
def test_generated_frames_oracle_equivalence(fc, kind):
    """Arbitrary lattices/value domains agree with the reference, stats included."""
    chunks, value_set = fc
    lattice = chunks[0].frame.lattice
    metadata = StreamMetadata(
        stream_id="hyp.src",
        band=chunks[0].band,
        crs=lattice.crs,
        organization=Organization.ROW_BY_ROW,
        value_set=value_set,
    )
    stream = GeoStream.from_chunks(metadata, chunks)
    make = _ops_for(kind, lattice, value_set)
    with reference_kernels():
        oracle_ops = make()
        oracle = stream.pipe(*oracle_ops).collect_chunks()
    columnar_ops = make()
    columnar = stream.pipe(*columnar_ops).collect_chunks()
    assert [chunk_key(c) for c in oracle] == [chunk_key(c) for c in columnar]
    assert [op.stats for op in oracle_ops] == [op.stats for op in columnar_ops]


# -- bounded memos: a stream whose frame lattice keeps moving ----------------------


def _moving_frames(n_frames, width=8, height=6):
    """Whole-frame chunks, every frame on its own lattice (Fig. 1a's camera)."""
    rng = np.random.default_rng(11)
    chunks = []
    for i in range(n_frames):
        lattice = GridLattice(LATLON, -120.0 + 0.01 * i, 40.0, 0.01, -0.01, width, height)
        chunks.append(
            GridChunk(
                values=rng.integers(0, 1023, (height, width)).astype(np.uint16),
                lattice=lattice,
                band="vis",
                t=float(i),
                sector=i,
                frame=FrameInfo(i, lattice),
                last_in_frame=True,
            )
        )
    metadata = StreamMetadata(
        "moving", "vis", LATLON, Organization.IMAGE_BY_IMAGE, VIS.metadata.value_set
    )
    return GeoStream.from_chunks(metadata, chunks)


class TestBoundedMemos:
    """Per-operator lattice memos stop growing; outputs stay the reference's."""

    @pytest.mark.parametrize(
        "make, memos, bound",
        [
            (lambda: Rotate(30.0), ("_warp_geometry",), FRAME_MEMO_MAX),
            (lambda: Reproject(utm(10)), ("_navigation",), FRAME_MEMO_MAX),
            (
                lambda: SpatialRestriction(
                    PolygonRegion([(-121.0, 39.9), (0.0, 39.9), (-60.0, 40.1)], crs=LATLON)
                ),
                ("_crop_window", "_narrowed_frame", "_region_keep"),
                ROW_MEMO_MAX,
            ),
        ],
        ids=["rotate", "reproject", "restrict-polygon"],
    )
    def test_memos_never_exceed_their_bound(self, make, memos, bound):
        stream = _moving_frames(3 * bound)
        op = make()
        columnar, sizes = [], []
        for chunk in stream.chunks():
            columnar.extend(chunk_key(c) for c in op.process(chunk))
            sizes.append(max(len(getattr(op, name)) for name in memos))
        columnar.extend(chunk_key(c) for c in op.flush())
        assert max(sizes) == bound  # filled, emptied, never beyond
        assert sizes.count(1) >= 3  # ... three times over
        with reference_kernels():
            oracle = [chunk_key(c) for c in stream.pipe(make()).chunks()]
        assert oracle and oracle == columnar


    def test_region_aggregate_on_a_moving_lattice(self):
        """More distinct lattices than ROW_MEMO_MAX: every memo the operator
        holds stays within the bound, and the records are the reference's."""
        regions = {
            "box": BoundingBox(-110.0, 39.96, -90.0, 39.99, LATLON),
            "polygon": PolygonRegion([(-121.0, 39.9), (0.0, 39.9), (-60.0, 40.1)], crs=LATLON),
        }
        stream = _moving_frames(ROW_MEMO_MAX + 64)
        op = RegionAggregate(regions, "sum")
        produced, largest = [], 0
        for chunk in stream.chunks():
            produced.extend(point_key(c) for c in op.process(chunk))
            memos = [m for m in vars(op).values() if isinstance(m, Memo)]
            largest = max([largest, *map(len, memos)])
        produced.extend(point_key(c) for c in op.flush())
        assert largest <= ROW_MEMO_MAX
        with reference_kernels():
            oracle = [
                point_key(c) for c in stream.pipe(RegionAggregate(regions, "sum")).chunks()
            ]
        assert len(oracle) == ROW_MEMO_MAX + 64 and oracle == produced


# -- chaos matrix: every fault kind, kernels vs reference -------------------------


class TestChaosColumnar:
    def test_fault_kind_registry_is_complete(self):
        assert len(FAULT_KINDS) == 8

    @pytest.mark.parametrize("seed", (101, 404))
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_chaos_bit_identical_across_modes(self, kind, seed):
        """Same seeded faults, same deliveries, whichever kernels run."""

        def run():
            spec = FaultSpec.single(kind, seed=seed)
            hardened, injector, ctx = harden_catalog(make_chaos_catalog(), spec)
            server = DSMSServer(hardened, recovery=ctx)
            session = server.register("reflectance(goes.vis)", encode_png=False)
            with recovering(ctx):
                server.run()
            frames = [
                (f.image.t, f.image.values.tobytes()) for f in session.frames
            ]
            return frames, dict(injector.counts), dict(ctx.dead_letter.by_reason)

        with reference_kernels():
            oracle = run()
        columnar = run()
        assert oracle == columnar
        assert oracle[1][kind] > 0, f"{kind}@{seed} injected nothing"
