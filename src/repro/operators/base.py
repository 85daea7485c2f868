"""Operator protocol and cost accounting.

Section 3 of the paper analyses each operator class by how much
intermediate point data it must store (non-blocking restrictions vs
frame-buffering stretches vs organization-dependent compositions). To make
those claims *measurable* rather than inferred from timing, every operator
here tracks:

* points/chunks in and out,
* the current and high-water number of buffered points and bytes.

Benchmarks read ``operator.stats`` directly; the paper's complexity table
then falls out of high-water marks instead of noisy wall clocks.

Unary operators implement ``_process`` (and optionally ``_flush``);
binary operators implement ``_process_side``. State must be (re)created in
``_reset_state`` so a piped stream can be re-opened.

Each operator has exactly one implementation here: the batch kernel. The
per-point reference the kernels are held bit-identical to lives with its
only callers, in ``tests/reference/`` (see ``docs/columnar.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..core.chunk import Chunk
from ..core.stream import StreamMetadata
from ..errors import OperatorError

__all__ = ["OperatorStats", "Operator", "BinaryOperator"]


@dataclass
class OperatorStats:
    """Throughput and buffering counters for one operator instance."""

    chunks_in: int = 0
    chunks_out: int = 0
    points_in: int = 0
    points_out: int = 0
    buffered_points: int = 0
    buffered_bytes: int = 0
    max_buffered_points: int = 0
    max_buffered_bytes: int = 0
    flushes: int = 0
    # Stream-time waiting: how long buffered data sat before being usable
    # (e.g. a composition partner waiting for the other band's scan).
    wait_time_total: float = 0.0
    wait_time_max: float = 0.0
    waits: int = 0
    # Buffer-accounting violations (release exceeded additions). The error
    # still raises, but counters are clamped first so a trace snapshot
    # taken in the exception handler reads sanely post-mortem.
    accounting_errors: int = 0

    def note_in(self, chunk: Chunk) -> None:
        self.chunks_in += 1
        self.points_in += chunk.n_points

    def note_out(self, chunk: Chunk) -> None:
        self.chunks_out += 1
        self.points_out += chunk.n_points

    def buffer_add(self, points: int, nbytes: int) -> None:
        self.buffered_points += points
        self.buffered_bytes += nbytes
        self.max_buffered_points = max(self.max_buffered_points, self.buffered_points)
        self.max_buffered_bytes = max(self.max_buffered_bytes, self.buffered_bytes)

    def buffer_remove(self, points: int, nbytes: int) -> None:
        self.buffered_points -= points
        self.buffered_bytes -= nbytes
        if self.buffered_points < 0 or self.buffered_bytes < 0:
            self.accounting_errors += 1
            self.buffered_points = max(self.buffered_points, 0)
            self.buffered_bytes = max(self.buffered_bytes, 0)
            raise OperatorError(
                "buffer accounting went negative — operator released more than "
                "it added"
            )

    def note_wait(self, seconds: float) -> None:
        """Record that buffered data waited ``seconds`` of stream time."""
        self.waits += 1
        self.wait_time_total += seconds
        self.wait_time_max = max(self.wait_time_max, seconds)

    @property
    def mean_wait_time(self) -> float:
        return self.wait_time_total / self.waits if self.waits else 0.0

    def buffer_add_chunk(self, chunk: Chunk) -> None:
        self.buffer_add(chunk.n_points, chunk.nbytes)

    def buffer_remove_chunk(self, chunk: Chunk) -> None:
        self.buffer_remove(chunk.n_points, chunk.nbytes)

    @property
    def is_nonblocking(self) -> bool:
        """True when the operator never held any point data."""
        return self.max_buffered_points == 0


class Operator:
    """A unary stream operator: chunks in, chunks out, closed over GeoStreams."""

    name = "operator"

    def __init__(self) -> None:
        self.stats = OperatorStats()

    # -- hooks for subclasses ------------------------------------------------

    def _process(self, chunk: Chunk) -> Iterable[Chunk]:
        raise NotImplementedError

    def _flush(self) -> Iterable[Chunk]:
        return ()

    def _reset_state(self) -> None:
        """Drop any internal buffers (subclasses with state override)."""

    # -- public driving API (used by the engine) ---------------------------------

    def process(self, chunk: Chunk) -> Iterator[Chunk]:
        """Feed one chunk; yield zero or more output chunks."""
        self.stats.note_in(chunk)
        for out in self._process(chunk):
            self.stats.note_out(out)
            yield out

    def process_many(self, chunks: list[Chunk]) -> list[Chunk]:
        """Feed a block of chunks; return every output chunk, in order.

        Equivalent to concatenating :meth:`process` over the block — same
        outputs, same stats — but driven as one call so a stage fed a
        block (``Stage.feed_many``) skips per-chunk generator setup.
        Operators may override this to vectorize *across* chunk
        boundaries; overrides must keep the equivalence bit-exact
        (tests/test_columnar_differential.py).
        """
        stats = self.stats
        step = self._process
        outs: list[Chunk] = []
        append = outs.append
        note_out = stats.note_out
        for chunk in chunks:
            stats.note_in(chunk)
            for out in step(chunk):
                note_out(out)
                append(out)
        return outs

    def flush(self) -> Iterator[Chunk]:
        """Signal end of stream; yield any held output."""
        self.stats.flushes += 1
        for out in self._flush():
            self.stats.note_out(out)
            yield out

    def reset(self) -> None:
        """Fresh stats and state, so the owning stream can be re-opened."""
        self.stats = OperatorStats()
        self._reset_state()

    # -- metadata propagation ----------------------------------------------------

    def output_metadata(self, metadata: StreamMetadata) -> StreamMetadata:
        """Metadata of the operator's output stream (default: unchanged)."""
        return metadata

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class BinaryOperator:
    """A two-input stream operator (stream composition, Def. 10)."""

    name = "binary-operator"
    SIDES = ("left", "right")

    def __init__(self) -> None:
        self.stats = OperatorStats()

    def _process_side(self, side: str, chunk: Chunk) -> Iterable[Chunk]:
        raise NotImplementedError

    def _flush(self) -> Iterable[Chunk]:
        return ()

    def _reset_state(self) -> None:
        pass

    def process_side(self, side: str, chunk: Chunk) -> Iterator[Chunk]:
        if side not in self.SIDES:
            raise OperatorError(f"unknown input side {side!r}; expected one of {self.SIDES}")
        self.stats.note_in(chunk)
        for out in self._process_side(side, chunk):
            self.stats.note_out(out)
            yield out

    def flush(self) -> Iterator[Chunk]:
        self.stats.flushes += 1
        for out in self._flush():
            self.stats.note_out(out)
            yield out

    def reset(self) -> None:
        self.stats = OperatorStats()
        self._reset_state()

    def output_metadata(
        self, left: StreamMetadata, right: StreamMetadata
    ) -> StreamMetadata:
        return left

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
