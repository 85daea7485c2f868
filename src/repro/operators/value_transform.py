"""Value transforms (Def. 8).

Two families, with very different costs (Section 3.2):

* **Pointwise** transforms (``f_val`` applied per point) — color to
  grayscale, radiometric calibration, gamma, arbitrary ufuncs. These
  "allow for processing on a point-by-point basis": no buffering.
* **Frame-scaling** transforms — linear contrast stretch, histogram
  equalization, Gaussian stretch — need the whole frame's value
  distribution before any point can be emitted, so "the cost of a stretch
  transform operator is determined by the size of the largest frame that
  can occur in G". :class:`FrameStretch` buffers the current frame's
  chunks and re-emits them transformed when the frame ends; its
  ``stats.max_buffered_points`` equals the frame size (experiment E2).
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Callable, Iterable

import numpy as np

from ..core.chunk import Chunk, GridChunk, PointChunk, fast_replace_values
from ..core.columnar import FrameAccumulator
from ..core.stream import StreamMetadata
from ..core.valueset import FLOAT32, GRAY8, ValueSet
from ..errors import OperatorError
from ..raster.stretch import gaussian_stretch, histogram_equalize, linear_stretch
from .base import Operator

__all__ = [
    "PointwiseTransform",
    "Rescale",
    "CountsToReflectance",
    "ColorToGray",
    "FrameStretch",
]


class PointwiseTransform(Operator):
    """Apply a vectorized function to every point value (non-blocking)."""

    name = "value-transform"

    def __init__(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        output_value_set: ValueSet | None = None,
        band: str | None = None,
        label: str = "f_val",
        elementwise: bool = False,
    ) -> None:
        super().__init__()
        self.fn = fn
        self.out_value_set = output_value_set
        self.band = band
        self.label = label
        # ``elementwise=True`` declares that ``fn`` maps element i of its
        # input to element i of its output independent of array shape
        # (e.g. an affine rescale, but not a channel reduction). Only such
        # transforms may be applied across chunk boundaries in one call.
        self.elementwise = elementwise

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        out = np.asarray(self.fn(chunk.values))
        if self.out_value_set is not None:
            out = self.out_value_set.coerce(out)
        if isinstance(chunk, PointChunk):
            # Point-count compatibility is enforced by the chunk constructor.
            yield chunk.with_values(out, band=self.band)
            return
        # Grid chunks skip with_values' per-row-chunk shape re-validation.
        yield fast_replace_values(chunk, out, band=self.band)

    def process_many(self, chunks: list[Chunk]) -> list[Chunk]:
        """Batch elementwise transforms across chunk boundaries.

        Runs of same-dtype 2-D grid chunks are flattened into one array,
        transformed and coerced with a single call each, then split back
        into per-chunk views. Both ``fn`` (declared elementwise) and scalar
        coercion (astype/clip/rint, all elementwise) are shape-independent,
        so the split-out bits equal the per-chunk kernel's exactly.
        """
        out_set = self.out_value_set
        if not (self.elementwise and (out_set is None or not out_set.is_vector)):
            return super().process_many(chunks)
        stats = self.stats
        band = self.band
        outs: list[Chunk] = []
        i, n = 0, len(chunks)
        while i < n:
            first = chunks[i]
            if not isinstance(first, GridChunk) or first.values.ndim != 2:
                stats.note_in(first)
                for out in self._process(first):
                    stats.note_out(out)
                    outs.append(out)
                i += 1
                continue
            # Maximal run of same-dtype 2-D chunks (mixed dtypes would
            # promote under concatenation and change bits).
            dtype = first.values.dtype
            j = i + 1
            while j < n:
                nxt = chunks[j]
                if (
                    not isinstance(nxt, GridChunk)
                    or nxt.values.ndim != 2
                    or nxt.values.dtype != dtype
                ):
                    break
                j += 1
            run = chunks[i:j]
            i = j
            flat = (
                run[0].values.ravel()
                if len(run) == 1
                else np.concatenate([c.values.ravel() for c in run])
            )
            out_flat = np.asarray(self.fn(flat))
            if out_set is not None:
                out_flat = out_set.coerce(out_flat)
            offset = 0
            for c in run:
                size = c.values.size
                vals = out_flat[offset : offset + size].reshape(c.values.shape)
                offset += size
                outs.append(fast_replace_values(c, vals, band=band))
            # For 2-D grid chunks n_points == values.size, so bulk counter
            # updates equal the per-chunk note_in/note_out sums.
            stats.chunks_in += len(run)
            stats.chunks_out += len(run)
            stats.points_in += flat.size
            stats.points_out += flat.size
        return outs

    def output_metadata(self, metadata: StreamMetadata) -> StreamMetadata:
        changes: dict[str, object] = {}
        if self.out_value_set is not None:
            changes["value_set"] = self.out_value_set
        if self.band is not None:
            changes["band"] = self.band
        return dc_replace(metadata, **changes) if changes else metadata

    def __repr__(self) -> str:
        return f"PointwiseTransform({self.label})"


class Rescale(PointwiseTransform):
    """Affine value map ``gain * v + offset`` (radiometric calibration)."""

    def __init__(
        self,
        gain: float,
        offset: float = 0.0,
        output_value_set: ValueSet | None = None,
    ) -> None:
        super().__init__(
            lambda v: gain * v.astype(np.float32) + offset,
            output_value_set=output_value_set,
            label=f"{gain:g}*v+{offset:g}",
            elementwise=True,
        )
        self.gain = gain
        self.offset = offset


class CountsToReflectance(Rescale):
    """Instrument counts -> reflectance in [0, 1] given the bit depth."""

    def __init__(self, bits: int = 10) -> None:
        from ..core.valueset import REFLECTANCE

        full_scale = float((1 << bits) - 1)
        super().__init__(1.0 / full_scale, 0.0, output_value_set=REFLECTANCE)
        self.bits = bits


class ColorToGray(PointwiseTransform):
    """Z^3 -> Z luminance transform (the paper's simple f_val example)."""

    def __init__(self, weights: tuple[float, float, float] = (0.299, 0.587, 0.114)) -> None:
        w = np.asarray(weights, dtype=np.float32)

        def to_gray(values: np.ndarray) -> np.ndarray:
            if values.ndim < 2 or values.shape[-1] != 3:
                raise OperatorError(
                    f"color-to-gray expects 3-channel values, got shape {values.shape}"
                )
            return values.astype(np.float32) @ w

        super().__init__(to_gray, output_value_set=None, label="rgb->gray")

    def output_metadata(self, metadata: StreamMetadata) -> StreamMetadata:
        return dc_replace(metadata, value_set=FLOAT32)


_STRETCHES = ("linear", "equalize", "gaussian")


class FrameStretch(Operator):
    """Frame-buffered contrast scaling (linear / equalize / gaussian).

    Buffers every chunk of the current frame; when the frame's last chunk
    arrives (or the stream flushes), computes the scaling over the frame's
    complete value distribution and re-emits each buffered chunk with
    transformed values. Frames are delimited by ``last_in_frame`` /
    frame-id changes; a whole-frame chunk passes through with only its own
    transient buffering.
    """

    name = "frame-stretch"

    def __init__(
        self,
        kind: str = "linear",
        out_lo: float = 0.0,
        out_hi: float = 255.0,
        bins: int = 256,
        clip_sigma: float = 3.0,
        output_value_set: ValueSet | None = None,
    ) -> None:
        super().__init__()
        if kind not in _STRETCHES:
            raise OperatorError(f"unknown stretch {kind!r}; expected one of {_STRETCHES}")
        self.kind = kind
        self.out_lo = out_lo
        self.out_hi = out_hi
        self.bins = bins
        self.clip_sigma = clip_sigma
        self.out_value_set = output_value_set if output_value_set is not None else GRAY8
        # One contiguous float64 frame accumulator plus the (chunk, offset,
        # size) table that splits results back into chunks.
        self._acc = FrameAccumulator()
        self._reset_state()

    def _reset_state(self) -> None:
        self._acc.clear()
        self._pending: list[tuple[GridChunk, int, int]] = []
        self._frame_id: int | None = None

    # -- frame machinery ---------------------------------------------------------
    #
    # Each chunk is cast to float64 once *on arrival*, by assignment into a
    # contiguous float64 accumulator (bitwise the cast the reference does
    # per chunk at frame end), then one whole-frame transform runs. Scalar
    # value sets are coerced once over the whole frame — coercion is purely
    # elementwise (astype/clip/rint), so splitting before or after cannot
    # change bits. Vector-valued sets keep per-chunk coercion for its
    # trailing-channel shape check.

    def _emit_frame(self) -> Iterable[Chunk]:
        if not self._pending:
            return
        frame_values = self._acc.values()
        if self.kind == "linear":
            finite = frame_values[np.isfinite(frame_values)]
            if finite.size == 0:
                lo = hi = 0.0
            else:
                lo, hi = float(finite.min()), float(finite.max())
            transformed = linear_stretch(frame_values, lo, hi, self.out_lo, self.out_hi)
        elif self.kind == "equalize":
            transformed = histogram_equalize(
                frame_values, bins=self.bins, out_lo=self.out_lo, out_hi=self.out_hi
            )
        else:
            transformed = gaussian_stretch(
                frame_values,
                out_lo=self.out_lo,
                out_hi=self.out_hi,
                clip_sigma=self.clip_sigma,
            )
        out_set = self.out_value_set
        if not out_set.is_vector:
            coerced = out_set.coerce(transformed)
            for chunk, offset, size in self._pending:
                self.stats.buffer_remove_chunk(chunk)
                yield fast_replace_values(
                    chunk, coerced[offset : offset + size].reshape(chunk.values.shape)
                )
        else:
            for chunk, offset, size in self._pending:
                self.stats.buffer_remove_chunk(chunk)
                block = transformed[offset : offset + size].reshape(chunk.values.shape)
                yield fast_replace_values(chunk, out_set.coerce(block))
        self._pending = []
        self._acc.clear()
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
        offset, size = self._acc.append(chunk.values)
        self._pending.append((chunk, offset, size))
        self._frame_id = frame_id
        self.stats.buffer_add_chunk(chunk)
        if chunk.last_in_frame:
            yield from self._emit_frame()

    def _flush(self) -> Iterable[Chunk]:
        yield from self._emit_frame()

    def output_metadata(self, metadata: StreamMetadata) -> StreamMetadata:
        return dc_replace(metadata, value_set=self.out_value_set)

    def __repr__(self) -> str:
        return f"FrameStretch({self.kind!r})"
