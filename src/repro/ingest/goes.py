"""GOES-like imager simulator (row-by-row organization, Fig. 1b).

Models the scan behaviour Section 3.3 describes: the imager repeatedly
scans a fixed *scan sector*, sweeping the sector row by row **first for
one spectral band, then for the next** — so measured timestamps of the
same pixel differ across bands, while the scan-sector identifier matches.
Both timestamping policies are exposed, which is what experiment E6
exercises.

The imager's native coordinate system is the geostationary fixed grid
(the stand-in for the paper's "GOES Variable Format"); raw output is a
sequence of GVAR-like records that :class:`~repro.ingest.generator.
StreamGenerator` converts into GeoStream chunks, mirroring Fig. 3.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..core.lattice import GridLattice
from ..core.stream import GeoStream, Organization, StreamMetadata
from ..core.valueset import GRAY10, GRAY16, GRAY8, ValueSet
from ..errors import StreamError
from ..geo.crs import CRS, LATLON, goes_geostationary
from ..geo.region import BoundingBox
from .generator import StreamGenerator, encode_record
from .instrument import Instrument
from .scene import SCENE_BANDS, SyntheticEarth

__all__ = ["GOESImager", "western_us_sector", "full_disk_sector"]

# The paper's GOES numbers: the visible-band frame is about 20,840 x
# 10,820 points at 1 km resolution (~280 MB). Simulated sectors are scaled
# down but keep the 2:1-ish aspect.
GOES_VIS_FRAME_SHAPE = (10_820, 20_840)

_VALUE_SETS = {8: GRAY8, 10: GRAY10, 16: GRAY16}


def western_us_sector(
    crs: CRS | None = None, width: int = 192, height: int = 96
) -> GridLattice:
    """A scan-sector lattice covering the western United States.

    The extent is the geostationary-projected image of lon [-130, -105],
    lat [30, 48] — the kind of regional sector the GOES imager scans for
    CONUS-west products.
    """
    crs = crs or goes_geostationary()
    geo_box = BoundingBox(-130.0, 30.0, -105.0, 48.0, LATLON).transformed(crs)
    return GridLattice.from_bbox(
        geo_box, dx=geo_box.width / width, dy=geo_box.height / height, crs=crs
    )


def full_disk_sector(
    crs: CRS | None = None, width: int = 128, height: int = 128
) -> GridLattice:
    """A scan sector covering the satellite's entire visible disk.

    The Earth subtends about +/-8.7 degrees of scan angle from
    geostationary altitude; corner pixels look past the limb into space
    (their lon/lat is NaN and they digitize to zero counts), exercising
    the library's off-earth handling end to end.
    """
    crs = crs or goes_geostationary()
    # Scan-angle half-width of the disk, scaled into projection meters.
    half = 0.1518 * crs.projection.params["height"]  # type: ignore[union-attr]
    box = BoundingBox(-half, -half, half, half, crs)
    return GridLattice.from_bbox(box, dx=2 * half / width, dy=2 * half / height, crs=crs)


class GOESImager(Instrument):
    """Simulated geostationary imager producing one GeoStream per band."""

    def __init__(
        self,
        scene: SyntheticEarth | None = None,
        lon_0: float = -135.0,
        sector_lattice: GridLattice | None = None,
        n_frames: int = 4,
        bands: Sequence[str] = ("vis", "nir"),
        frame_period: float = 1800.0,
        row_time: float | None = None,
        t0: float = 0.0,
        timestamp_policy: str = "sector",
        organization: Organization = Organization.ROW_BY_ROW,
        bits: int = 10,
        band_interleave: str = "row",
    ) -> None:
        super().__init__(scene or SyntheticEarth())
        for band in bands:
            if band not in SCENE_BANDS:
                raise StreamError(f"unknown band {band!r}; scene provides {SCENE_BANDS}")
        if n_frames < 1:
            raise StreamError("need at least one frame")
        self.crs = goes_geostationary(lon_0)
        self.sector_lattice = sector_lattice or western_us_sector(self.crs)
        if self.sector_lattice.crs != self.crs:
            raise StreamError("sector lattice must live in the imager's fixed-grid CRS")
        self.n_frames = n_frames
        self.bands = tuple(bands)
        self.frame_period = float(frame_period)
        # Sequential band scanning must fit inside the frame period.
        n_rows_total = self.sector_lattice.height * len(self.bands)
        self.row_time = (
            float(row_time) if row_time is not None else self.frame_period / (2.0 * n_rows_total)
        )
        if self.row_time * n_rows_total > self.frame_period:
            raise StreamError(
                f"row_time {self.row_time} too slow: {n_rows_total} rows do not "
                f"fit in the {self.frame_period}s frame period"
            )
        self.t0 = float(t0)
        self.timestamp_policy = timestamp_policy
        self.organization = organization
        if band_interleave not in ("row", "band"):
            raise StreamError(
                f"band_interleave must be 'row' or 'band', got {band_interleave!r}"
            )
        # 'row': all bands sweep each row together (separate detectors, small
        # per-band offsets) — rows of different bands interleave in time.
        # 'band': the sector is scanned completely for one band, then the
        # next — the sequential scenario of Section 3.3's timestamping
        # discussion.
        self.band_interleave = band_interleave
        if bits not in _VALUE_SETS:
            raise StreamError(f"unsupported digitization depth {bits} bits")
        self._value_set: ValueSet = _VALUE_SETS[bits]
        self.bits = bits

    # -- scan timing ----------------------------------------------------------

    def row_timestamp(self, frame: int, band: str, row: int) -> float:
        """Measured time at which ``band``'s sweep of ``row`` completes.

        Under 'row' interleaving every band scans row r during the same
        sweep, offset by a per-detector fraction of the row time; under
        'band' interleaving each band scans the whole sector in turn.
        Either way, measured timestamps of different bands never coincide
        — the Section 3.3 pathology experiment E6 demonstrates.
        """
        if band not in self.bands:
            raise StreamError(f"imager has no band {band!r}")
        band_index = self.bands.index(band)
        frame_start = self.t0 + frame * self.frame_period
        if self.band_interleave == "row":
            detector_offset = band_index * self.row_time / len(self.bands)
            return frame_start + row * self.row_time + detector_offset
        band_duration = self.sector_lattice.height * self.row_time
        return frame_start + band_index * band_duration + row * self.row_time

    # -- raw downlink ----------------------------------------------------------

    def raw_records(self, band: str) -> Iterator[bytes]:
        """The band's downlink: GVAR-like records, one per scan row.

        Each frame is one ``digitize`` call on the whole sector, with an
        (H, 1) column of the rows' timestamps; then each row is one record.
        """
        lattice = self.sector_lattice
        lon, lat = self.lonlat_grid(lattice)
        statics = self.scene_statics(lattice)
        for frame in range(self.n_frames):
            times = [self.row_timestamp(frame, band, row) for row in range(lattice.height)]
            counts = self.scene.digitize(
                band, lon, lat, np.array(times)[:, None], bits=self.bits, statics=statics
            )
            for row, t in enumerate(times):
                yield encode_record(
                    sector=frame, frame=frame, band=band, row=row, t=t,
                    last=(row == lattice.height - 1), counts=counts[row],
                )

    # -- GeoStreams --------------------------------------------------------------

    def navigation(self) -> dict[int, GridLattice]:
        """Sector-id -> frame-lattice metadata handed to the generator."""
        return {frame: self.sector_lattice for frame in range(self.n_frames)}

    def stream(self, band: str) -> GeoStream:
        """The GeoStream for one spectral band (re-openable)."""
        if band not in self.bands:
            raise StreamError(f"imager has no band {band!r}; configured: {self.bands}")
        generator = StreamGenerator(self.navigation(), self.organization)
        metadata = StreamMetadata(
            stream_id=f"goes.{band}",
            band=band,
            crs=self.crs,
            organization=self.organization,
            value_set=self._value_set,
            timestamp_policy=self.timestamp_policy,
            description=(
                f"simulated GOES {band} band, {self.n_frames} frames of "
                f"{self.sector_lattice.height}x{self.sector_lattice.width}"
            ),
            max_frame_shape=self.sector_lattice.shape,
        )
        return GeoStream(metadata, lambda: generator.decode_stream(self.raw_records(band)))

    def streams(self) -> dict[str, GeoStream]:
        """All configured bands' streams, keyed by band name."""
        return {band: self.stream(band) for band in self.bands}
