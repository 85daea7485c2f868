"""The GOES imager's frame-at-a-time downlink against its row-at-a-time reference.

``GOESImager.raw_records`` evaluates each frame of the scene in one
``digitize`` call; :class:`~tests.reference.ingest.GOESImagerReference`
keeps one call per scan row. Across organizations, band interleaving,
digitization depths, bands (a thermal hotspot included) and the full-disk
sector, the two must emit byte-identical records and decode to equal
chunks.

Both share :class:`~repro.ingest.SyntheticEarth`, so a fault in the scene
itself would be invisible to that comparison; the golden digest pins the
records of the ``small_imager`` configuration independently.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import Organization
from repro.geo import goes_geostationary
from repro.ingest import GOESImager, Hotspot, SyntheticEarth, full_disk_sector, western_us_sector
from repro.ingest.generator import decode_record

from tests.conftest import DAY_T0
from tests.reference.ingest import GOESImagerReference
from tests.test_columnar_differential import chunk_key

# SHA-256 of the concatenated raw records of ``small_imager`` (vis, then
# nir), recorded with the row-at-a-time imager.
SMALL_IMAGER_DIGEST = "5c71de1292713a915caecbe78cf3a11bdb954ec318d3ee286255b43a3692c372"

CRS = goes_geostationary(-135.0)
SECTOR = western_us_sector(CRS, width=24, height=12)
# With three bands and 12 rows the row time is 25 s, so this window covers
# rows 4-7 of the first thermal frame and nothing else.
HOTSPOT = Hotspot(
    lon=-118.0, lat=39.0, t_start=DAY_T0 + 4 * 25.0, t_end=DAY_T0 + 8.5 * 25.0, radius_deg=3.0
)
THREE_BANDS = ("vis", "nir", "tir")


def make_pair(scene: SyntheticEarth | None = None, **kwargs) -> tuple[GOESImager, GOESImager]:
    kwargs = {"sector_lattice": SECTOR, "n_frames": 2, "t0": DAY_T0, **kwargs}
    scene = scene or SyntheticEarth(seed=7)
    return GOESImager(scene=scene, **kwargs), GOESImagerReference(scene=scene, **kwargs)


def assert_same_downlink(production: GOESImager, reference: GOESImager) -> None:
    for band in production.bands:
        assert list(production.raw_records(band)) == list(reference.raw_records(band))
        chunks = production.stream(band).collect_chunks()
        assert chunks
        assert [chunk_key(c) for c in chunks] == [
            chunk_key(c) for c in reference.stream(band).collect_chunks()
        ]


@pytest.mark.parametrize("interleave", ["row", "band"])
@pytest.mark.parametrize("organization", [Organization.ROW_BY_ROW, Organization.IMAGE_BY_IMAGE])
def test_organization_and_interleave(organization, interleave):
    assert_same_downlink(*make_pair(organization=organization, band_interleave=interleave))


@pytest.mark.parametrize("bits", [8, 10, 16])
def test_digitization_depth(bits):
    assert_same_downlink(*make_pair(bits=bits))


def test_hotspot_active_for_part_of_a_frame():
    hot = SyntheticEarth(seed=7, hotspots=(HOTSPOT,))
    production, reference = make_pair(hot, bands=THREE_BANDS)
    assert_same_downlink(production, reference)
    cold, _ = make_pair(bands=THREE_BANDS)
    warmed = [
        decode_record(a).row
        for a, b in zip(production.raw_records("tir"), cold.raw_records("tir"))
        if a != b
    ]
    assert warmed == [4, 5, 6, 7]


def test_full_disk_off_earth_corners():
    production, reference = make_pair(
        sector_lattice=full_disk_sector(CRS, width=16, height=16), bands=THREE_BANDS
    )
    assert_same_downlink(production, reference)
    corner = decode_record(next(production.raw_records("vis")))
    assert corner.counts[0] == 0


@pytest.mark.parametrize("imager_cls", [GOESImager, GOESImagerReference])
def test_small_imager_golden_digest(small_imager, imager_cls):
    imager = imager_cls(
        scene=small_imager.scene,
        lon_0=-135.0,
        sector_lattice=small_imager.sector_lattice,
        n_frames=small_imager.n_frames,
        bands=small_imager.bands,
        t0=small_imager.t0,
    )
    digest = hashlib.sha256()
    for band in imager.bands:
        for record in imager.raw_records(band):
            digest.update(record)
    assert digest.hexdigest() == SMALL_IMAGER_DIGEST

