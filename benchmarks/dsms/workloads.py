"""The five named workloads: scan geometry, client populations, set-up.

Everything the program under test sees is made here from ``--seed``: the
scene (``SyntheticEarth(seed)``) and every region placement. Placements are
seeded but *stratified*, so that every seed does the same amount of work:
boxes sit on whole pixels (edges a quarter pixel outside their outermost
pixel centres, so no box edge ever touches a chunk edge) and the number of
boxes covering each scan row does not depend on the seed. Without that,
ten runs on ten seeds would measure ten different workloads.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

import benchenv  # noqa: F401  (before repro: execution mode and import path)

from repro.core import GeoStream
from repro.core.chunk import Chunk
from repro.core.lattice import GridLattice
from repro.core.stream import Organization, StreamMetadata
from repro.geo import goes_geostationary
from repro.ingest import GOESImager, SyntheticEarth, western_us_sector
from repro.server import StreamCatalog

WIDTH, HEIGHT = 256, 128
BANDS = ("vis", "nir")
DAY_T0 = 72_000.0
LON_0 = -135.0
CRS_NAME = "geos:-135"

# scan name -> (organization, frames)
SCANS = {
    "R": (Organization.ROW_BY_ROW, 8),  # 2048 chunks of 256 points
    "F": (Organization.IMAGE_BY_IMAGE, 24),  # 48 chunks of 32 768 points
}

_NDVI = "ndvi(reflectance(goes.nir), reflectance(goes.vis))"


def box_text(sector: GridLattice, col0: int, row0: int, cols: int, rows: int) -> str:
    """``bbox(...)`` covering exactly pixels [col0, col0+cols) x [row0, row0+rows)."""
    xs = [float(sector.x_of_col(c)) for c in (col0, col0 + cols - 1)]
    ys = [float(sector.y_of_row(r)) for r in (row0, row0 + rows - 1)]
    qx, qy = abs(sector.dx) / 4, abs(sector.dy) / 4
    return (
        f"bbox({min(xs) - qx!r}, {min(ys) - qy!r}, {max(xs) + qx!r}, "
        f"{max(ys) + qy!r}, crs='{CRS_NAME}')"
    )


def mixed_population(sector: GridLattice, seed: int) -> list[str]:
    """12 clients, the F3 mix on a diagonal of 25 %-side (64x32 px) boxes.

    The seed shifts the whole diagonal; the boxes keep their relative
    positions, so sharing and per-row fan-out are the same for every seed.
    """
    rng = random.Random(seed)
    cols, rows, n = WIDTH // 4, HEIGHT // 4, 12
    step_x, step_y = 15, 7  # 0.7 * side / 12, in whole pixels
    shift_x = rng.randrange(WIDTH - (step_x * (n - 1) + cols) + 1)
    shift_y = rng.randrange(HEIGHT - (step_y * (n - 1) + rows) + 1)
    texts = []
    for i in range(n):
        box = box_text(sector, step_x * i + shift_x, step_y * i + shift_y, cols, rows)
        if i % 3 == 0:
            texts.append(f"within(stretch({_NDVI}, 'linear'), {box})")
        elif i % 3 == 1:
            texts.append(f"within(reflectance(goes.vis), {box})")
        else:
            texts.append(f"ragg(reflectance(goes.nir), 'mean', 'roi{i}', {box})")
    return texts


def fanout_population(sector: GridLattice, seed: int) -> list[str]:
    """96 clients on seeded random 12 %-side (31x15 px) boxes.

    Columns are drawn freely; rows are a seeded permutation of 96 evenly
    spread first rows, so each scan row is covered by the same number of
    boxes whatever the seed.
    """
    rng = random.Random(seed)
    cols, rows, n = 31, 15, 96
    first_rows = [(k * (HEIGHT - rows)) // (n - 1) for k in range(n)]
    rng.shuffle(first_rows)
    kinds = (
        "within(reflectance(goes.vis), {box})",
        "within(reflectance(goes.nir), {box})",
        "within(" + _NDVI + ", {box})",
    )
    return [
        kinds[i % 3].format(
            box=box_text(sector, rng.randrange(WIDTH - cols + 1), first_rows[i], cols, rows)
        )
        for i in range(n)
    ]


def warp_population(sector: GridLattice, seed: int) -> list[str]:
    return [
        f"reproject(stretch({_NDVI}, 'linear'), 'utm:10')",
        "stretch(coarsen(reflectance(goes.vis), 2), 'equalize')",
        "reproject(reflectance(goes.nir), 'utm:10', method='bicubic')",
    ]


def deliver_population(sector: GridLattice, seed: int) -> list[str]:
    return [
        "magnify(reflectance(goes.vis), 3)",
        "magnify(reflectance(goes.nir), 2)",
    ] * 2


@dataclass(frozen=True)
class Workload:
    name: str
    scan: str
    fmt: str
    passes_per_round: int
    population: Callable[[GridLattice, int], list[str]]
    why: str
    observed: bool = False

    @property
    def frames(self) -> int:
        return SCANS[self.scan][1]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mixed_rows", "R", "png", 4, mixed_population,
            "the paper's section-4 traffic: 12 mixed clients, every layer does some work",
        ),
        Workload(
            "fanout_rows", "R", "raw", 2, fanout_population,
            "96 small queries off one scan: plan plumbing, index, run loop and sessions carry it",
        ),
        Workload(
            "warp_frames", "F", "raw", 6, warp_population,
            "48 whole-frame chunks: operator kernels (reproject, stretch, coarsen) are the run",
        ),
        Workload(
            "deliver_rows", "R", "png", 2, deliver_population,
            "4 full-sector magnified clients: PNG encoding and frame assembly are the run",
        ),
        Workload(
            "mixed_rows_observed", "R", "png", 1, mixed_population,
            "mixed_rows inside obs.observe(everything on): the instrumented branch of each layer",
            observed=True,
        ),
    )
}


@dataclass
class Scan:
    """One materialised downlink: every band's chunks, plus what making it cost."""

    sector: GridLattice
    streams: dict[str, tuple[StreamMetadata, list[Chunk]]]
    generate_s: float
    points: int
    chunks: int


def materialise_scan(scan: str, seed: int) -> Scan:
    """Run the scene simulator once so no timed pass ever contains it."""
    organization, frames = SCANS[scan]
    crs = goes_geostationary(LON_0)
    sector = western_us_sector(crs, width=WIDTH, height=HEIGHT)
    imager = GOESImager(
        scene=SyntheticEarth(seed), sector_lattice=sector, n_frames=frames,
        bands=BANDS, t0=DAY_T0, organization=organization,
    )
    streams = {}
    started = time.perf_counter()
    for stream in imager.streams().values():
        streams[stream.stream_id] = (stream.metadata, stream.collect_chunks())
    generate_s = time.perf_counter() - started
    every = [c for _, chunks in streams.values() for c in chunks]
    return Scan(sector, streams, generate_s, sum(c.n_points for c in every), len(every))


@dataclass
class Prepared:
    """A workload ready to run: its scan, query texts and expected results."""

    workload: Workload
    seed: int
    scan: Scan
    texts: list[str]

    @property
    def expected_results(self) -> int:
        return len(self.texts) * self.workload.frames

    def catalog(
        self,
        wrap: Callable[[list[Chunk]], Callable[[], object]] | None = None,
        frames: int | None = None,
    ) -> StreamCatalog:
        """A fresh catalog over the materialised chunks.

        ``wrap`` turns a chunk list into the stream's source factory (the
        pull stamp goes in here); ``frames`` keeps only the first frames.
        """
        catalog = StreamCatalog()
        for metadata, chunks in self.scan.streams.values():
            if frames is not None:
                chunks = head_frames(chunks, frames)
            stream = (
                GeoStream(metadata, wrap(chunks))
                if wrap is not None
                else GeoStream.from_chunks(metadata, chunks)
            )
            catalog.register(stream, self.scan.sector.bbox)
        return catalog


def head_frames(chunks: list[Chunk], frames: int) -> list[Chunk]:
    out = []
    for chunk in chunks:
        if frames <= 0:
            break
        out.append(chunk)
        frames -= bool(chunk.last_in_frame)
    return out


@dataclass
class ScanCache:
    """Scans shared between workloads of one process (four of five use scan R)."""

    scans: dict[tuple[str, int], Scan] = field(default_factory=dict)

    def get(self, scan: str, seed: int) -> Scan:
        key = (scan, seed)
        if key not in self.scans:
            self.scans[key] = materialise_scan(scan, seed)
        return self.scans[key]


def prepare(name: str, seed: int, cache: ScanCache | None = None) -> Prepared:
    workload = WORKLOADS[name]
    scan = (cache or ScanCache()).get(workload.scan, seed)
    return Prepared(workload, seed, scan, workload.population(scan.sector, seed))
