"""GeoStreams over the one executor: every derived stream runs a PlanDAG.

Operators are composed into lazy GeoStreams (the algebra's closure
property): ``apply_operators`` (``GeoStream.pipe``) chains unary operators
onto a stream, ``compose_streams`` merges two streams through a binary
operator, and :func:`repro.plan.plan_to_stream` lowers a whole plan. Each
is a thin adapter, :func:`dag_stream`: it wires a private
:class:`~repro.plan.stages.PlanDAG` — the same push network the DSMS runs
— whose sources are the upstream streams, and iterating the result feeds
that DAG and yields what reaches its sink.

Sources are fed in measured-time order, ties to the earlier source (a
composition's left input before its right) — simulating how chunks from
two spectral channels would interleave on the wire. A DAG of unary stages
over one source is fed in bounded blocks (:meth:`PlanDAG.feed_many`), so
operators can batch across chunks.

Re-opening a derived stream resets its DAG first, so the same declared
query can be executed repeatedly (each benchmark run, each registered
continuous query evaluation). A stream is therefore not safely iterable
from two places *simultaneously*: each open invalidates every earlier
iterator, and pulling a stale one raises ``StreamError`` instead of
silently corrupting the freshly-reset operator state. The DSMS gives each
registered query its own operator instances.
"""

from __future__ import annotations

import heapq
from itertools import islice, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from ..core.chunk import Chunk, chunk_time
from ..core.stream import GeoStream, StreamMetadata
from ..errors import StreamError
from ..faults.recovery import current_recovery
from ..obs.probe import current
from ..operators.base import BinaryOperator, Operator

if TYPE_CHECKING:
    from ..plan.stages import PlanDAG

__all__ = [
    "apply_operators",
    "compose_streams",
    "chunk_time",
    "dag_stream",
    "iter_pipeline_operators",
]

_Sink = Callable[[Chunk], None]

# Block bounds for bare feeding: a block holds up to _BLOCK_CHUNKS chunks
# — enough to amortize per-block overhead and expose cross-chunk batching
# to process_many overrides — but no more than fit in _BLOCK_POINTS. The
# point budget is what keeps the stream streaming whatever the chunk
# size: read-ahead is a constant number of points (256 rows of a
# 1024-wide sector), not 256 whole frames of an image-by-image stream.
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


def _output_metadata(
    dag: PlanDAG, sources: Mapping[str, GeoStream]
) -> StreamMetadata | None:
    """The metadata reaching the sink: each stage's, in topological order."""
    inputs: dict[int, dict[str | None, StreamMetadata]] = {}
    result = None

    def route(edges: Iterable, metadata: StreamMetadata) -> None:
        nonlocal result
        for edge in edges:
            if edge.stage is None:
                result = metadata
            else:
                inputs.setdefault(id(edge.stage), {})[edge.side] = metadata

    for stream_id, edges in dag.taps.items():
        route(edges, sources[stream_id].metadata)
    for stage in dag.order:
        got, op = inputs[id(stage)], stage.op
        if isinstance(op, BinaryOperator):
            route(stage.outputs, op.output_metadata(got["left"], got["right"]))
        else:
            route(stage.outputs, op.output_metadata(got[None]))
    return result


def dag_stream(
    sources: Mapping[str, GeoStream], wire: Callable[[PlanDAG, _Sink], object]
) -> GeoStream:
    """The GeoStream a private PlanDAG delivers when fed ``sources``.

    ``wire(dag, sink)`` builds the network; its source ids are the keys
    of ``sources``. The result exposes ``pipeline_operators`` (the DAG's
    operators, in topological order) and ``upstreams`` (the sources) for
    stats reports.
    """
    from ..plan.stages import PlanDAG  # repro.plan imports this module

    dag = PlanDAG()
    out: list[Chunk] = []
    wire(dag, out.append)
    metadata = _output_metadata(dag, sources)
    assert metadata is not None, "the network delivers nothing to its sink"
    # Blocks keep the per-chunk order only through a chain of unary stages.
    blockable = len(sources) == 1 and not any(
        isinstance(op, BinaryOperator) for op in dag.operators()
    )
    opens = [0]

    def run(opened: int, its: dict[str, Iterator[Chunk]]) -> Iterator[Chunk]:
        def fresh() -> None:
            if opens[0] != opened:
                raise StreamError(
                    f"piped stream {metadata.stream_id!r} was re-opened while a "
                    "previous iteration was still in progress; a pipeline is not "
                    "safely iterable from two places simultaneously (collect one "
                    "iteration before starting another, or plan the query twice "
                    "for independent operator state)"
                )

        def drain() -> Iterator[Chunk]:
            batch = out[:]
            out.clear()
            for chunk in batch:
                yield chunk
                fresh()  # resumed after a re-open: the operators were reset under us

        fresh()
        if blockable and not current().steps and current_recovery() is None:
            ((stream_id, it),) = its.items()
            for block in _blocks(it):
                dag.feed_many(stream_id, block)
                yield from drain()
        else:
            tagged = [zip(repeat(sid), it) for sid, it in its.items()]
            for stream_id, chunk in heapq.merge(*tagged, key=lambda p: chunk_time(p[1])):
                dag.feed(stream_id, chunk)
                yield from drain()
        dag.flush()
        yield from drain()

    def source() -> Iterator[Chunk]:
        opens[0] += 1
        dag.reset()
        out.clear()
        return run(opens[0], {sid: stream.chunks() for sid, stream in sources.items()})

    result = GeoStream(metadata, source)
    result.pipeline_operators = dag.operators()  # type: ignore[attr-defined]
    result.upstreams = tuple(sources.values())  # type: ignore[attr-defined]
    return result


def apply_operators(stream: GeoStream, operators: Sequence[Operator]) -> GeoStream:
    """Pipe a stream through unary operators; the result is again a GeoStream."""
    operators = list(operators)
    for op in operators:
        if not isinstance(op, Operator):
            raise StreamError(
                f"{type(op).__name__} is not a unary Operator; use "
                "compose_streams for binary operators"
            )
    sid = stream.stream_id
    return dag_stream(
        {sid: stream}, lambda dag, sink: dag.add_operators(operators, [sid], sink, 0)
    )


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
    return dag_stream(
        {"left": left, "right": right},
        lambda dag, sink: dag.add_operators([operator], ["left", "right"], sink, 0),
    )


def iter_pipeline_operators(stream: GeoStream) -> Iterator[Operator | BinaryOperator]:
    """Walk a derived stream's operators upstream-first (for stats reports)."""
    upstreams = getattr(stream, "upstreams", ())
    for upstream in upstreams:
        yield from iter_pipeline_operators(upstream)
    yield from getattr(stream, "pipeline_operators", [])
