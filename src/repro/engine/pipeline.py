"""Push-based chunk pipeline executor.

Operators are composed into lazy GeoStreams (the algebra's closure
property): ``apply_operators`` chains unary operators onto a stream, and
``compose_streams`` merges two streams through a binary operator in
arrival-time order — simulating how chunks from two spectral channels
would interleave on the wire.

Re-opening a piped stream resets its operators first, so the same
declared query can be executed repeatedly (each benchmark run, each
registered continuous query evaluation). A pipeline is therefore not
safely iterable from two places *simultaneously*: each open invalidates
every earlier iterator, and pulling a stale one raises ``StreamError``
instead of silently corrupting the freshly-reset operator state. The
DSMS gives each registered query its own operator instances.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ..core.chunk import Chunk, chunk_time
from ..core.stream import GeoStream
from ..errors import StreamError
from ..faults.recovery import current_recovery
from ..obs.probe import Instruments, StageProbe, current, now
from ..operators.base import BinaryOperator, Operator

if TYPE_CHECKING:
    from ..faults.recovery import RecoveryContext

__all__ = [
    "apply_operators",
    "compose_streams",
    "chunk_time",
    "iter_pipeline_operators",
    "run_step",
]


def _epoch_guard(
    it: Iterator[Chunk], state: dict, epoch: int, stream_id: str
) -> Iterator[Chunk]:
    """Invalidate an iterator once its pipeline has been re-opened.

    Opening a piped stream resets the (shared, mutable) operators, so any
    iterator from an earlier open would silently interleave with corrupted
    state. The check runs *before* each pull, so no operator ever sees a
    chunk from a stale iteration.
    """
    while True:
        if state["epoch"] != epoch:
            raise StreamError(
                f"piped stream {stream_id!r} was re-opened while a previous "
                "iteration was still in progress; a pipeline is not safely "
                "iterable from two places simultaneously (collect one "
                "iteration before starting another, or plan the query twice "
                "for independent operator state)"
            )
        try:
            chunk = next(it)
        except StopIteration:
            return
        yield chunk


# Block bounds for the bare pull executor: a block holds up to
# _BLOCK_CHUNKS chunks — enough to amortize per-block overhead and expose
# cross-chunk batching to process_many overrides — but no more than fit in
# _BLOCK_POINTS. The point budget is what keeps the pipeline streaming
# whatever the chunk size: read-ahead is a constant number of points (256
# rows of a 1024-wide sector), not 256 whole frames of an image-by-image
# stream.
_BLOCK_CHUNKS = 256
_BLOCK_POINTS = 1 << 18


def _blocks(chunks: Iterable[Chunk]) -> Iterator[list[Chunk]]:
    it = iter(chunks)
    for first in it:
        # A stream's chunks share one size (a row, a frame, a point batch),
        # so a block's first chunk sizes it and the rest are pulled at C speed.
        fit = _BLOCK_POINTS // max(first.n_points, 1)
        block = [first]
        block.extend(islice(it, max(min(_BLOCK_CHUNKS, fit), 1) - 1))
        yield block


def _block_feed(chunks: Iterable[Chunk], op: Operator) -> Iterator[Chunk]:
    """Bare-path executor: drive ``process_many`` over bounded blocks.

    Per-chunk generator setup dominates the bare pull path once kernels
    are vectorized, so blocks of chunks go through one ``process_many``
    call each. Output chunks, order, and stats are identical to the
    per-chunk loop wherever a block is cut; only call granularity
    changes. Stats/trace/recovery paths keep per-chunk feeding — their
    accounting is defined per processing call.
    """
    for block in _blocks(chunks):
        yield from op.process_many(block)
    yield from op.flush()


def _call(
    op: Operator | BinaryOperator,
    chunk: Chunk | None,
    side: str | None,
    ctx: "RecoveryContext | None",
) -> Iterable[Chunk]:
    """One bare operator call: ``chunk`` None is the flush, ``side`` a binary input.

    Under a recovery context (degrade-gracefully mode) a chunk the
    operator cannot process is quarantined to the dead-letter sink
    instead of killing the pipeline.
    """
    if ctx is not None:
        return ctx.guard_flush(op) if chunk is None else ctx.guard(op, chunk, side)
    if chunk is None:
        return op.flush()
    return op.process_side(side, chunk) if side is not None else op.process(chunk)


def run_step(
    op: Operator | BinaryOperator,
    chunk: Chunk | None,
    side: str | None,
    ctx: "RecoveryContext | None",
    probe: StageProbe | None,
) -> Iterable[Chunk]:
    """The one operator step both executors take.

    With no probe (nothing installed), or a chunk the probe does not
    observe, this is the bare call. Otherwise the outputs are
    materialized inside the timed section — so it covers only this
    operator's work, not downstream consumers pulling on a generator —
    and accounted once through :meth:`StageProbe.record`.
    """
    if probe is None or not probe.observes(chunk):
        return _call(op, chunk, side, ctx)
    t0 = now()
    outs = list(_call(op, chunk, side, ctx))
    return probe.record(chunk, outs, t0, now())


def _probe(ins: Instruments, op: Operator | BinaryOperator) -> StageProbe | None:
    """A per-open probe for a pull operator, None when nothing observes steps.

    Pull pipelines have no shared stages, but the plan lowering stamps
    each operator with its plan node's fingerprint/kind, so what a probe
    records lands in the same per-subplan ledgers and hop keys the push
    DAG uses.
    """
    return StageProbe(op).bind(ins) if ins.steps else None


def _feed(chunks: Iterable[Chunk], op: Operator, probe: StageProbe | None) -> Iterator[Chunk]:
    ctx = current_recovery()
    if probe is None and ctx is None:
        yield from _block_feed(chunks, op)
        return
    for chunk in chunks:
        yield from run_step(op, chunk, None, ctx, probe)
    yield from run_step(op, None, None, ctx, probe)


def apply_operators(stream: GeoStream, operators: Sequence[Operator]) -> GeoStream:
    """Pipe a stream through unary operators; the result is again a GeoStream."""
    operators = list(operators)
    for op in operators:
        if not isinstance(op, Operator):
            raise StreamError(
                f"{type(op).__name__} is not a unary Operator; use "
                "compose_streams for binary operators"
            )
    metadata = stream.metadata
    for op in operators:
        metadata = op.output_metadata(metadata)
    state = {"epoch": 0}

    def source() -> Iterator[Chunk]:
        state["epoch"] += 1
        epoch = state["epoch"]
        for op in operators:
            op.reset()
        it: Iterator[Chunk] = stream.chunks()
        ins = current()
        tracer = ins.tracer
        # Parent spans follow dataflow: each operator's span hangs off
        # the one feeding it, rooted at the upstream stream's tail span.
        parent = tracer.span_for_stream(stream) if tracer is not None else None
        for op in operators:
            probe = _probe(ins, op)
            if tracer is not None:  # a tracer observes steps, so there is a probe
                parent = probe.open_span(parent)
            it = _feed(it, op, probe)
        if tracer is not None and parent is not None:
            tracer.bind_stream(result, parent)
        return _epoch_guard(it, state, epoch, metadata.stream_id)

    result = GeoStream(metadata, source)
    # Expose the pipeline for stats inspection and plan introspection.
    result.pipeline_operators = operators  # type: ignore[attr-defined]
    result.upstreams = (stream,)  # type: ignore[attr-defined]
    return result


def compose_streams(
    left: GeoStream, right: GeoStream, operator: BinaryOperator
) -> GeoStream:
    """Merge two streams through a binary operator (Def. 10).

    Chunks are fed to the operator in measured-time order across both
    inputs, reproducing the arrival interleaving a receiving station sees;
    the operator's buffering behaviour under a given interleaving is then
    exactly what Section 3.3 analyses.
    """
    if not isinstance(operator, BinaryOperator):
        raise StreamError(f"{type(operator).__name__} is not a BinaryOperator")
    metadata = operator.output_metadata(left.metadata, right.metadata)
    state = {"epoch": 0}

    def source() -> Iterator[Chunk]:
        state["epoch"] += 1
        epoch = state["epoch"]
        operator.reset()
        li, ri = left.chunks(), right.chunks()
        ins = current()
        tracer = ins.tracer
        probe = _probe(ins, operator)
        if tracer is not None:  # a tracer observes steps, so there is a probe
            lspan = tracer.span_for_stream(left)
            rspan = tracer.span_for_stream(right)
            span = probe.open_span(
                lspan, inputs=[s.span_id for s in (lspan, rspan) if s is not None]
            )
            tracer.bind_stream(result, span)
        return _epoch_guard(
            _merge(li, ri, operator, probe), state, epoch, metadata.stream_id
        )

    result = GeoStream(metadata, source)
    result.pipeline_operators = [operator]  # type: ignore[attr-defined]
    result.upstreams = (left, right)  # type: ignore[attr-defined]
    return result


def _merge(
    left: Iterator[Chunk],
    right: Iterator[Chunk],
    operator: BinaryOperator,
    probe: StageProbe | None,
) -> Iterator[Chunk]:
    ctx = current_recovery()
    lc = next(left, None)
    rc = next(right, None)
    while lc is not None or rc is not None:
        take_left = rc is None or (lc is not None and chunk_time(lc) <= chunk_time(rc))
        if take_left:
            assert lc is not None
            yield from run_step(operator, lc, "left", ctx, probe)
            lc = next(left, None)
        else:
            assert rc is not None
            yield from run_step(operator, rc, "right", ctx, probe)
            rc = next(right, None)
    yield from run_step(operator, None, None, ctx, probe)


def iter_pipeline_operators(stream: GeoStream) -> Iterator[Operator | BinaryOperator]:
    """Walk a piped stream's operator DAG upstream-first (for stats reports)."""
    upstreams = getattr(stream, "upstreams", ())
    for upstream in upstreams:
        yield from iter_pipeline_operators(upstream)
    yield from getattr(stream, "pipeline_operators", [])
