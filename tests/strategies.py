"""Shared hypothesis strategies for the test suite.

Two families:

* **Query-tree strategies** (``tree_strategy`` and friends) generate
  random algebra trees over a tiny session-cached GOES environment.
  ``test_property_algebra`` checks closure/rewrite invariants with them;
  ``test_columnar_differential`` reuses the same trees to assert the
  kernels' equivalence to the per-point reference as a *property*.
* **Data-level strategies** (``lattice_strategy``, ``value_set_strategy``,
  ``grid_chunk_strategy``, ``frame_chunks_strategy``) generate arbitrary
  lattices, value domains, and well-formed chunk sequences, so operator
  kernels can be driven far outside the shapes the demo instruments emit.

Chunk values are filled from a seeded ``numpy`` generator rather than
drawn elementwise: hypothesis shrinks the *seed*, which keeps examples
fast while staying fully deterministic.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core import (
    FLOAT32,
    FLOAT64,
    GRAY8,
    GRAY16,
    FrameInfo,
    GridChunk,
    GridLattice,
    REFLECTANCE,
    TimeInterval,
    ValueSet,
)
from repro.geo import BoundingBox, goes_geostationary
from repro.geo.crs import LATLON
from repro.ingest import GOESImager, SyntheticEarth, western_us_sector
from repro.query import ast as q

__all__ = [
    "GEOS",
    "SECTOR",
    "SOURCES",
    "CRS_OF",
    "BOX",
    "region_strategy",
    "leaf_strategy",
    "tree_strategy",
    "value_set_strategy",
    "lattice_strategy",
    "grid_chunk_strategy",
    "frame_chunks_strategy",
    "values_for",
]

# A tiny, module-cached source environment so each hypothesis example is fast.
GEOS = goes_geostationary(-135.0)
SECTOR = western_us_sector(GEOS, width=24, height=12)
_IMAGER = GOESImager(
    scene=SyntheticEarth(seed=3),
    sector_lattice=SECTOR,
    n_frames=1,
    t0=72_000.0,
)
SOURCES = {
    "goes.vis": GOESImager.stream(_IMAGER, "vis"),
    "goes.nir": GOESImager.stream(_IMAGER, "nir"),
}
CRS_OF = {sid: s.crs for sid, s in SOURCES.items()}
BOX = SECTOR.bbox


# -- query-tree strategies --------------------------------------------------------


def region_strategy(box: BoundingBox | None = None):
    """Sub-boxes of ``box`` (default: the shared test sector's extent)."""
    bbox = BOX if box is None else box
    return st.tuples(
        st.floats(0.0, 0.7), st.floats(0.0, 0.7), st.floats(0.1, 0.3), st.floats(0.1, 0.3)
    ).map(
        lambda t: BoundingBox(
            bbox.xmin + bbox.width * t[0],
            bbox.ymin + bbox.height * t[1],
            min(bbox.xmin + bbox.width * (t[0] + t[2]), bbox.xmax),
            min(bbox.ymin + bbox.height * (t[1] + t[3]), bbox.ymax),
            bbox.crs,
        )
    )


def leaf_strategy(stream_ids: tuple[str, ...] = ("goes.vis", "goes.nir")):
    return st.sampled_from([q.StreamRef(sid) for sid in stream_ids])


def tree_strategy(max_depth: int = 4):
    """Random query trees over the shared sources (closed algebra)."""

    def extend(children):
        unary = st.one_of(
            st.tuples(children, region_strategy()).map(
                lambda t: q.SpatialRestrict(t[0], t[1])
            ),
            st.tuples(children, st.floats(0.0, 3_000.0), st.floats(3_000.0, 90_000.0)).map(
                lambda t: q.TemporalRestrict(
                    t[0], TimeInterval(72_000.0 + t[1], 72_000.0 + t[2])
                )
            ),
            st.tuples(children, st.floats(0.1, 4.0), st.floats(-10.0, 10.0)).map(
                lambda t: q.ValueMap(
                    t[0], "rescale", (("gain", t[1]), ("offset", t[2]))
                )
            ),
            st.tuples(children, st.floats(0.0, 400.0), st.floats(500.0, 1100.0)).map(
                lambda t: q.ValueRestrict(t[0], t[1], t[2])
            ),
            st.tuples(children, st.integers(1, 3)).map(lambda t: q.Magnify(t[0], t[1])),
            st.tuples(children, st.integers(1, 3)).map(lambda t: q.Coarsen(t[0], t[1])),
        )
        binary = st.tuples(children, children, st.sampled_from(["+", "-", "*", "sup", "inf"])).map(
            lambda t: q.Compose(t[0], t[1], t[2])
        )
        return st.one_of(unary, binary)

    return st.recursive(leaf_strategy(), extend, max_leaves=max_depth)


# -- data-level strategies --------------------------------------------------------

# Standard sets plus hand-built ones so bounds/dtype handling is exercised
# beyond what the shipped instruments use.
_SCALAR_SETS: tuple[ValueSet, ...] = (
    GRAY8,
    GRAY16,
    FLOAT32,
    FLOAT64,
    REFLECTANCE,
    ValueSet("u8.clip", np.dtype("uint8"), lo=0, hi=200),
    ValueSet("i16.signed", np.dtype("int16"), lo=-500, hi=500),
    ValueSet("f64.unit", np.dtype("float64"), lo=-1.0, hi=1.0),
)


def value_set_strategy():
    """Scalar value domains: shipped constants plus custom bounded sets."""
    return st.sampled_from(_SCALAR_SETS)


def lattice_strategy(
    min_side: int = 1,
    max_side: int = 8,
    crs_pool: tuple = (LATLON, GEOS),
):
    """Small north-up grid lattices with arbitrary origin and resolution."""
    return st.builds(
        GridLattice,
        crs=st.sampled_from(crs_pool),
        x0=st.floats(-1_000.0, 1_000.0),
        y0=st.floats(-1_000.0, 1_000.0),
        dx=st.floats(0.01, 50.0),
        dy=st.floats(0.01, 50.0).map(lambda d: -d),
        width=st.integers(min_side, max_side),
        height=st.integers(min_side, max_side),
    )


def values_for(value_set: ValueSet, shape: tuple[int, ...], seed: int) -> np.ndarray:
    """Deterministic in-domain values of ``value_set.dtype`` for ``shape``."""
    rng = np.random.default_rng(seed)
    lo, hi = value_set.bounds
    lo = float(max(lo, -1.0e4))
    hi = float(min(hi, 1.0e4))
    raw = rng.uniform(lo, hi, size=shape)
    if value_set.is_integer:
        raw = np.rint(raw)
    return raw.astype(value_set.dtype)


@st.composite
def grid_chunk_strategy(draw, min_side: int = 1, max_side: int = 8):
    """A single whole-frame GridChunk over an arbitrary lattice/domain."""
    lattice = draw(lattice_strategy(min_side, max_side))
    value_set = draw(value_set_strategy())
    seed = draw(st.integers(0, 2**32 - 1))
    t = draw(st.floats(0.0, 100_000.0))
    band = draw(st.sampled_from(["vis", "nir", "b1"]))
    sector = draw(st.one_of(st.none(), st.integers(0, 7)))
    frame_id = draw(st.integers(0, 5))
    return GridChunk(
        values=values_for(value_set, lattice.shape, seed),
        lattice=lattice,
        band=band,
        t=t,
        sector=sector,
        frame=FrameInfo(frame_id, lattice),
        row0=0,
        col0=0,
        last_in_frame=True,
    )


@st.composite
def frame_chunks_strategy(
    draw,
    min_side: int = 2,
    max_side: int = 10,
    n_frames: int = 2,
):
    """Well-formed frame sequences, whole-frame or split row-by-row.

    Returns ``(chunks, value_set)``: every frame shares one lattice and
    value domain, frames carry increasing ids/timestamps, and row-split
    frames tag each row with its ``row0`` and the frame's ``FrameInfo`` —
    exactly the invariants the shipped instruments guarantee.
    """
    lattice = draw(lattice_strategy(min_side, max_side))
    value_set = draw(value_set_strategy())
    row_by_row = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    t0 = draw(st.floats(0.0, 90_000.0))
    band = draw(st.sampled_from(["vis", "nir"]))
    chunks: list[GridChunk] = []
    for frame_id in range(n_frames):
        frame_values = values_for(value_set, lattice.shape, seed + frame_id)
        frame = FrameInfo(frame_id, lattice)
        t_frame = t0 + 60.0 * frame_id
        if not row_by_row:
            chunks.append(
                GridChunk(
                    values=frame_values,
                    lattice=lattice,
                    band=band,
                    t=t_frame,
                    sector=frame_id,
                    frame=frame,
                    row0=0,
                    col0=0,
                    last_in_frame=True,
                )
            )
            continue
        for row in range(lattice.height):
            chunks.append(
                GridChunk(
                    values=frame_values[row : row + 1],
                    lattice=lattice.row_lattice(row),
                    band=band,
                    t=t_frame + 0.1 * row,
                    sector=frame_id,
                    frame=frame,
                    row0=row,
                    col0=0,
                    last_in_frame=row == lattice.height - 1,
                )
            )
    return chunks, value_set
