"""Per-point reference for :mod:`repro.operators.value_transform`."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.chunk import Chunk, GridChunk, PointChunk
from repro.errors import OperatorError
from repro.operators.base import Operator
from repro.operators.value_transform import FrameStretch, PointwiseTransform
from repro.raster.stretch import gaussian_stretch, histogram_equalize, linear_stretch


class PointwiseTransformReference(PointwiseTransform):
    """One ``with_values`` (re-validating) derivation per chunk."""

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        out = np.asarray(self.fn(chunk.values))
        if self.out_value_set is not None:
            out = self.out_value_set.coerce(out)
        # Point-count compatibility is enforced by the chunk constructor.
        yield chunk.with_values(out, band=self.band)

    process_many = Operator.process_many


class FrameStretchReference(FrameStretch):
    """Buffers the frame's chunks; casts and concatenates at frame end."""

    def _reset_state(self) -> None:
        self._pending: list[GridChunk] = []
        self._frame_id: int | None = None

    def _emit_frame(self) -> Iterable[Chunk]:
        if not self._pending:
            return
        frame_values = np.concatenate(
            [c.values.astype(np.float64).ravel() for c in self._pending]
        )
        if self.kind == "linear":
            finite = frame_values[np.isfinite(frame_values)]
            if finite.size == 0:
                lo = hi = 0.0
            else:
                lo, hi = float(finite.min()), float(finite.max())

            def scale(v: np.ndarray) -> np.ndarray:
                return linear_stretch(v, lo, hi, self.out_lo, self.out_hi)

        elif self.kind == "equalize":
            # Equalization and the Gaussian stretch are distribution maps;
            # compute them on the whole frame at once, then split back.
            transformed = histogram_equalize(
                frame_values, bins=self.bins, out_lo=self.out_lo, out_hi=self.out_hi
            )
            yield from self._emit_split(transformed)
            return
        else:
            transformed = gaussian_stretch(
                frame_values,
                out_lo=self.out_lo,
                out_hi=self.out_hi,
                clip_sigma=self.clip_sigma,
            )
            yield from self._emit_split(transformed)
            return

        for chunk in self._pending:
            self.stats.buffer_remove_chunk(chunk)
            yield chunk.with_values(self.out_value_set.coerce(scale(chunk.values)))
        self._pending = []
        self._frame_id = None

    def _emit_split(self, transformed: np.ndarray) -> Iterable[Chunk]:
        offset = 0
        for chunk in self._pending:
            size = chunk.values.size
            block = transformed[offset : offset + size].reshape(chunk.values.shape)
            offset += size
            self.stats.buffer_remove_chunk(chunk)
            yield chunk.with_values(self.out_value_set.coerce(block))
        self._pending = []
        self._frame_id = None

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        if isinstance(chunk, PointChunk):
            raise OperatorError(
                "frame stretches are defined on raster streams; point streams "
                "have no frames to scale over"
            )
        frame_id = chunk.frame.frame_id if chunk.frame is not None else None
        if self._pending and frame_id != self._frame_id:
            # A new frame started without a last_in_frame marker.
            yield from self._emit_frame()
        self._pending.append(chunk)
        self._frame_id = frame_id
        self.stats.buffer_add_chunk(chunk)
        if chunk.last_in_frame:
            yield from self._emit_frame()
