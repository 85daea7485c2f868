"""Stream composition (Def. 10) — combining spectral bands.

γ ∈ {+, −, ×, ÷, sup, inf} (or any binary ufunc) is applied to pairs of
points that "match in the spatial dimension and in the timestamp". Two
consequences from Section 3.3 are reproduced faithfully:

* **Timestamping matters.** Under the ``measured`` policy, bands scanned
  sequentially never produce matching timestamps, so the operator never
  emits — the paper's motivating pathology (experiment E6). Under the
  ``sector`` policy, matching uses scan-sector identifiers and works.
* **Buffering follows the point organization.** Chunks wait in a
  per-side buffer until the partner chunk (same key, same lattice window)
  arrives. With row-by-row streams whose bands interleave per sweep, at
  most ~a row waits; with image-by-image streams a whole image waits
  (experiment E5). The operator does not decide this — the stream
  organization does, exactly the paper's point.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Callable, Iterable

import numpy as np

from ..core.chunk import Chunk, GridChunk, PointChunk, TimestampPolicy, fast_grid_replace
from ..core.columnar import ROW_MEMO_MAX, Memo
from ..core.lattice import GridLattice
from ..core.stream import StreamMetadata
from ..core.valueset import ValueSet, promote
from ..errors import CompositionError
from .base import BinaryOperator

__all__ = ["StreamComposition", "GAMMA_OPERATORS", "normalized_difference", "nan_supremum"]


def _safe_divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a / b
    return np.where(np.isfinite(out), out, np.nan)


def nan_supremum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise maximum that treats NaN as "no data" rather than poison.

    The mosaic kernel: where only one stream covers a point (the other is
    NaN — e.g. beyond a satellite's visible disk), the covered value wins;
    where both cover it, the larger value does. Composing two re-projected
    satellite views with this gamma yields a coverage mosaic.
    """
    with np.errstate(invalid="ignore"):
        return np.where(
            np.isnan(a), b, np.where(np.isnan(b), a, np.maximum(a, b))
        )


GAMMA_OPERATORS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": _safe_divide,
    "sup": np.maximum,
    "inf": np.minimum,
    "mosaic": nan_supremum,
}


def normalized_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a - b) / (a + b), the NDVI kernel, NaN-safe at a + b == 0."""
    return _safe_divide(a - b, a + b)


def _alignment_verdict(pair: tuple[GridLattice, GridLattice]) -> str:
    """Whether two chunk lattices can compose: ``ok``, ``crs`` or ``misaligned``."""
    left, right = pair
    if left.crs != right.crs:
        return "crs"
    return "ok" if left.aligned_with(right) else "misaligned"


class StreamComposition(BinaryOperator):
    """Pointwise binary operator over two GeoStreams (Def. 10).

    Parameters
    ----------
    gamma:
        One of ``'+', '-', '*', '/', 'sup', 'inf'``, or any vectorized
        binary function of two float arrays.
    timestamp_policy:
        ``'sector'`` matches chunks by scan-sector id, ``'measured'`` by
        measured time (with ``time_tolerance``).
    band:
        Name of the output band; defaults to ``"(left γ right)"``.
    """

    name = "composition"

    def __init__(
        self,
        gamma: str | Callable[[np.ndarray, np.ndarray], np.ndarray],
        timestamp_policy: TimestampPolicy = "sector",
        time_tolerance: float = 0.0,
        band: str | None = None,
        output_value_set: ValueSet | None = None,
    ) -> None:
        super().__init__()
        if isinstance(gamma, str):
            if gamma not in GAMMA_OPERATORS:
                raise CompositionError(
                    f"unknown composition operator {gamma!r}; expected one of "
                    f"{sorted(GAMMA_OPERATORS)} or a callable"
                )
            self.gamma = GAMMA_OPERATORS[gamma]
            self.gamma_symbol = gamma
        else:
            self.gamma = gamma
            self.gamma_symbol = getattr(gamma, "__name__", "gamma")
        self.timestamp_policy = timestamp_policy
        self.time_tolerance = float(time_tolerance)
        self.band = band
        self.out_value_set = output_value_set
        # Per-side buffers: match key -> waiting chunk.
        self._waiting: dict[str, dict[tuple, GridChunk]] = {"left": {}, "right": {}}
        # Match-key lattice components and pairwise alignment verdicts are
        # pure functions of the (frozen) lattices, so they survive resets
        # and are computed once per geometry.
        self._lattice_key: Memo[GridLattice, tuple] = Memo(
            lambda lat: (lat.height, lat.width, round(lat.x0, 9), round(lat.y0, 9)),
            ROW_MEMO_MAX,
        )
        self._pair_verdict: Memo[tuple[GridLattice, GridLattice], str] = Memo(
            _alignment_verdict, ROW_MEMO_MAX
        )

    def _reset_state(self) -> None:
        self._waiting = {"left": {}, "right": {}}

    # -- matching ---------------------------------------------------------------

    def _match_key(self, chunk: GridChunk) -> tuple:
        """Chunks compose when their key is identical: same timestamp (per
        policy) and the same lattice window."""
        tkey = chunk.timestamp_key(self.timestamp_policy)
        if self.timestamp_policy == "measured" and self.time_tolerance > 0:
            tkey = round(tkey / self.time_tolerance)
        height, width, x0, y0 = self._lattice_key[chunk.lattice]
        return (tkey, chunk.row0, chunk.col0, height, width, x0, y0)

    def _compose(self, left: GridChunk, right: GridChunk) -> GridChunk:
        verdict = self._pair_verdict[left.lattice, right.lattice]
        if verdict == "crs":
            raise CompositionError(
                "composition requires both streams in the same coordinate "
                f"system, got {left.lattice.crs.name!r} and "
                f"{right.lattice.crs.name!r}"
            )
        if verdict == "misaligned":
            raise CompositionError(
                "composition requires both streams over the same point lattice"
            )
        values = self.gamma(
            left.values.astype(np.float64), right.values.astype(np.float64)
        )
        if self.out_value_set is not None:
            values = self.out_value_set.coerce(values)
        else:
            values = values.astype(np.float32)
        band = self.band or f"({left.band}{self.gamma_symbol}{right.band})"
        return fast_grid_replace(
            left,
            values=values,
            band=band,
            t=max(left.t, right.t),
            last_in_frame=left.last_in_frame and right.last_in_frame,
        )

    def _process_side(self, side: str, chunk: Chunk) -> Iterable[Chunk]:
        if isinstance(chunk, PointChunk):
            raise CompositionError(
                "composition of point-by-point streams is not supported; "
                "rasterize them first"
            )
        other_side = "right" if side == "left" else "left"
        key = self._match_key(chunk)
        partner = self._waiting[other_side].pop(key, None)
        if partner is not None:
            self.stats.buffer_remove_chunk(partner)
            # The partner sat in the buffer from its own measured time until
            # this chunk arrived: that span is stream-time latency induced
            # purely by the scan organization (Section 3.3).
            self.stats.note_wait(abs(chunk.t - partner.t))
            left, right = (chunk, partner) if side == "left" else (partner, chunk)
            yield self._compose(left, right)
            return
        replaced = self._waiting[side].get(key)
        if replaced is not None:
            # A duplicate key on the same side replaces the stale chunk.
            self.stats.buffer_remove_chunk(replaced)
        self._waiting[side][key] = chunk
        self.stats.buffer_add_chunk(chunk)

    def _flush(self) -> Iterable[Chunk]:
        # Unmatched points never find a partner (Def. 10 yields no output
        # for them); drop and release their buffer accounting.
        for side in self.SIDES:
            for chunk in self._waiting[side].values():
                self.stats.buffer_remove_chunk(chunk)
            self._waiting[side].clear()
        return ()

    def output_metadata(
        self, left: StreamMetadata, right: StreamMetadata
    ) -> StreamMetadata:
        if left.crs != right.crs:
            raise CompositionError(
                "composition requires both streams in the same coordinate system"
            )
        value_set = (
            self.out_value_set
            if self.out_value_set is not None
            else promote(left.value_set, right.value_set)
        )
        band = self.band or f"({left.band}{self.gamma_symbol}{right.band})"
        return dc_replace(
            left,
            stream_id=f"({left.stream_id}{self.gamma_symbol}{right.stream_id})",
            band=band,
            value_set=value_set,
        )

    def __repr__(self) -> str:
        return f"StreamComposition({self.gamma_symbol!r}, policy={self.timestamp_policy!r})"
