"""Stream delivery (Section 4).

"This spatial restriction operator then streams the point data to a
specialized stream delivery operator that ships stream results back to
clients using the PNG image format." :class:`Delivery` assembles frames
from its input, encodes each completed frame as PNG, and hands the bytes
to a sink — while passing the chunks through unchanged so delivery can
sit anywhere in a pipeline without breaking closure.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterable

from ..core.chunk import Chunk, PointChunk
from ..core.image import RasterImage
from ..core.provenance import Provenance
from ..errors import OperatorError
from ..obs.trace import current_frame_tracer
from .aggregate import _FrameCollector
from .base import Operator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.trace import FrameTrace, TraceContext

__all__ = ["Delivery", "DeliveredFrame", "CollectingSink"]


class DeliveredFrame:
    """One frame shipped to a client: PNG bytes plus its georeferencing.

    ``provenance`` (when the run recorded lineage) is the merged tag of
    every chunk that contributed to the frame: which raw scans and which
    plan stages produced these pixels.  ``trace`` (when the run had a
    frame tracer installed and the frame's chunks were sampled) is the
    frame's end-to-end :class:`~repro.obs.trace.FrameTrace`.

    ``seq`` is the delivery sequence number, assigned contiguously per
    delivery operator (0, 1, 2, …) — it survives plan-epoch hot swaps,
    so a gap or repeat proves a frame was dropped or duplicated across a
    cutover. ``epoch`` is the plan epoch whose stage set produced the
    frame (0 outside a DSMS session).
    """

    __slots__ = ("png", "image", "provenance", "trace", "seq", "epoch")

    def __init__(
        self,
        png: bytes,
        image: RasterImage,
        provenance: Provenance | None = None,
        trace: "FrameTrace | None" = None,
        seq: int = 0,
        epoch: int = 0,
    ) -> None:
        self.png = png
        self.image = image
        self.provenance = provenance
        self.trace = trace
        self.seq = seq
        self.epoch = epoch

    def __repr__(self) -> str:
        return (
            f"DeliveredFrame(#{self.seq}, {len(self.png)} bytes, {self.image.shape[0]}x"
            f"{self.image.shape[1]} {self.image.band!r} @t={self.image.t:g})"
        )


class CollectingSink:
    """Default sink: keep every delivered frame in memory."""

    def __init__(self) -> None:
        self.frames: list[DeliveredFrame] = []

    def __call__(self, frame: DeliveredFrame) -> None:
        self.frames.append(frame)

    def __len__(self) -> int:
        return len(self.frames)


class Delivery(Operator):
    """Encode completed frames as PNG and push them to a client sink."""

    name = "delivery"

    def __init__(
        self,
        sink: Callable[[DeliveredFrame], None] | None = None,
        encode: bool = True,
    ) -> None:
        super().__init__()
        self.sink = sink if sink is not None else CollectingSink()
        self.encode = encode
        self._collector = _FrameCollector(self)
        self._pending_prov: Provenance | None = None
        # Trace contexts of the chunks assembling the current frame; the
        # server session sets trace_query (its registration id) so frame
        # traces land in the right flight-recorder ring.
        self._pending_trace: "list[TraceContext]" = []
        self.trace_query: object | None = None
        # Delivery sequence numbers are contiguous per operator and the
        # plan epoch is stamped on each frame; both survive hot swaps
        # (the delivery operator lives in the session, not the DAG).
        self._seq = 0
        self.epoch = 0

    def _reset_state(self) -> None:
        self._collector = _FrameCollector(self)
        self._pending_prov = None
        self._pending_trace = []
        self._seq = 0

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _ship(self, image: RasterImage) -> None:
        ftracer = current_frame_tracer() if self._pending_trace else None
        trace: FrameTrace | None = None
        if ftracer is None:
            png = image.to_png_bytes() if self.encode else b""
        else:
            t0 = perf_counter()
            png = image.to_png_bytes() if self.encode else b""
            t1 = perf_counter()
            if self.epoch:
                # One annotation per frame is enough.
                ftracer.annotate(self._pending_trace[0], f"epoch={self.epoch}")
            trace = ftracer.finalize_frame(
                self.trace_query,
                self._pending_trace,
                frame_t=float(image.t),
                band=image.band,
                shape=image.shape,
                t0=t0,
                t1=t1,
            )
        self.sink(
            DeliveredFrame(
                png,
                image,
                provenance=self._pending_prov,
                trace=trace,
                seq=self._next_seq(),
                epoch=self.epoch,
            )
        )
        self._pending_prov = None
        self._pending_trace = []

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        if isinstance(chunk, PointChunk):
            raise OperatorError(
                "PNG delivery is defined on raster streams; aggregate point "
                "results are shipped by the server session layer instead"
            )
        if chunk.provenance is not None:
            self._pending_prov = chunk.provenance.merge(self._pending_prov)
        if chunk.trace is not None:
            self._pending_trace.append(chunk.trace)
        image = self._collector.add(chunk)
        if image is not None:
            self._ship(image)
        yield chunk

    def _flush(self) -> Iterable[Chunk]:
        image = self._collector.finish()
        if image is not None:
            self._ship(image)
        return ()

    def __repr__(self) -> str:
        return f"Delivery(encode={self.encode})"
