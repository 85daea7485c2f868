"""Row-at-a-time reference for :meth:`repro.ingest.GOESImager.raw_records`.

Production evaluates the scene one frame per ``digitize`` call; this
reference keeps the row-at-a-time loop it replaced — one ``digitize``
call per scan row, with a scalar ``t`` — so the two can be held
byte-identical at the raw-record boundary.

It is not in :data:`tests.reference.REFERENCES`: that table swaps
operator kernels inside :func:`tests.reference.reference_kernels`, and
an instrument is not an operator. Construct a
:class:`GOESImagerReference` wherever a :class:`GOESImager` would go.
"""

from __future__ import annotations

from typing import Iterator

from repro.ingest import GOESImager
from repro.ingest.generator import encode_record


class GOESImagerReference(GOESImager):
    """One ``digitize`` call per scan row."""

    def raw_records(self, band: str) -> Iterator[bytes]:
        """The band's downlink: GVAR-like records, one per scan row."""
        lattice = self.sector_lattice
        lon, lat = self.lonlat_grid(lattice)
        statics = self.scene_statics(lattice)
        for frame in range(self.n_frames):
            for row in range(lattice.height):
                t = self.row_timestamp(frame, band, row)
                row_statics = {k: v[row] for k, v in statics.items()}
                counts = self.scene.digitize(
                    band, lon[row], lat[row], t, bits=self.bits, statics=row_statics
                )
                yield encode_record(
                    sector=frame,
                    frame=frame,
                    band=band,
                    row=row,
                    t=t,
                    last=(row == lattice.height - 1),
                    counts=counts,
                )
