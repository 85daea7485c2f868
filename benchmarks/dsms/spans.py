"""Bench-side span tracing: layers timed from outside, by dotted name.

A traced pass wraps the public entry points of each layer (class
attributes, restored in a ``finally``) and records one span per call:
``(name, start, end)``. Generator-returning methods get one span per
``__next__``, because that is where their work runs. A layer's
time is *self time*: a span's duration minus the durations of its direct
children (one thread, so children never overlap).

Nothing here is installed during an untraced pass; ``assert_untraced``
fails the run if it is. In-program layer counters are a later issue and
will be judged against these numbers.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Iterator

Span = tuple[str, float, float]  # name, start, end; appended when the call ends

ROOT = "pass"
NO_PARENT = -1
OPERATOR = "operators."  # span name completed with the operator's own ``name``

# (class by dotted name, method, span name). The prefix of a span name is
# its layer; see LAYERS.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.server.dsms:DSMSServer", "handle_request", "dsms.register"),
    ("repro.server.dsms:DSMSServer", "run", "dsms.run"),
    ("repro.index.cascade_tree:CascadeTree", "insert", "index.insert"),
    ("repro.index.cascade_tree:CascadeTree", "overlapping", "index.overlapping"),
    ("repro.plan.stages:PlanDAG", "feed", "plan.dag_feed"),
    ("repro.plan.stages:PlanDAG", "flush", "plan.dag_flush"),
    ("repro.plan.stages:Stage", "feed", "plan.stage_feed"),
    ("repro.plan.stages:Stage", "flush", "plan.stage_flush"),
    ("repro.operators.base:Operator", "process", OPERATOR),
    ("repro.operators.base:Operator", "process_many", OPERATOR),
    ("repro.operators.base:Operator", "flush", OPERATOR),
    ("repro.operators.base:BinaryOperator", "process_side", OPERATOR),
    ("repro.operators.base:BinaryOperator", "flush", OPERATOR),
    ("repro.server.session:ClientSession", "receive", "session.receive"),
    ("repro.server.session:ClientSession", "close", "session.close"),
    ("repro.core.image:RasterImage", "to_png_bytes", "png.encode"),
)

# span-name prefix -> layer (= module) of the layer table
LAYERS = {
    "dsms": "server.dsms",
    "index": "index",
    "plan": "plan",
    "operators": "operators",
    "session": "server.session",
    "png": "raster.png",
    ROOT: "harness",
}


def resolve(path: str) -> object | None:
    """``"package.module:Attr.attr"`` -> the object, or None when it is gone."""
    module_name, _, attrs = path.partition(":")
    try:
        obj: object = importlib.import_module(module_name)
    except ImportError:
        return None
    for attr in filter(None, attrs.split(".")):
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    return obj


def dig(obj: object, path: str) -> object | None:
    """``obj.a.b`` by dotted name, None when any step is missing."""
    for attr in path.split("."):
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    return obj


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _owners(cls: type, method: str) -> list[type]:
    """``cls`` and every subclass that defines its own ``method``."""
    return [c for c in (cls, *_subclasses(cls)) if method in c.__dict__]


class SpanTracer:
    """Spans, call counts and the operators seen during traced passes.

    The hot path only reads the clock twice and appends ``(key, start,
    end)`` when a call ends. Who the parent is follows afterwards from the
    intervals alone (see ``link``), and an operator's span name from the
    operator itself, which stands in as the key until ``take``.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self._spans: list[tuple[object, float, float]] = []
        self._begun: list[object] = []  # one key per call (a generator call has many spans)
        self.matched = 0  # ids returned by CascadeTree.overlapping
        self.missing: set[str] = set()  # entry points that no longer exist
        self.available: set[str] = set()  # span names with a live entry point

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer, record, begun, clock = self, self._spans.append, self._begun.append, self.clock
        per_operator = name == OPERATOR
        count_matched = name == "index.overlapping"

        if inspect.isgeneratorfunction(fn):
            # A generator's work runs in ``__next__``: one span per step.
            def wrapper(self, *args, **kwargs):  # type: ignore[no-untyped-def]
                key = self if per_operator else name
                begun(key)
                steps = fn(self, *args, **kwargs)
                while True:
                    t0 = clock()
                    try:
                        value = next(steps)
                    except StopIteration:
                        return
                    finally:
                        record((key, t0, clock()))
                    yield value

        else:

            def wrapper(self, *args, **kwargs):  # type: ignore[no-untyped-def]
                key = self if per_operator else name
                begun(key)
                t0 = clock()
                try:
                    result = fn(self, *args, **kwargs)
                    if count_matched:
                        tracer.matched += len(result)
                    return result
                finally:
                    record((key, t0, clock()))

        wrapper._bench_span = True  # type: ignore[attr-defined]
        return wrapper

    @contextlib.contextmanager
    def installed(self, targets: Iterable[tuple[str, str, str]] = TARGETS) -> Iterator[None]:
        """Wrap every live target; put the original attributes back on exit."""
        saved: list[tuple[type, str, object]] = []
        try:
            for path, method, name in targets:
                cls = resolve(path)
                owners = _owners(cls, method) if isinstance(cls, type) else []
                if not owners:
                    self.missing.add(f"{path}.{method}")
                    continue
                self.available.add(name)
                for owner in owners:
                    original = owner.__dict__[method]
                    saved.append((owner, method, original))
                    setattr(owner, method, self._wrap(original, name))
            yield
        finally:
            for owner, method, original in reversed(saved):
                setattr(owner, method, original)

    @contextlib.contextmanager
    def root(self) -> Iterator[None]:
        """The root span: one pass."""
        t0 = self.clock()
        try:
            yield
        finally:
            self._spans.append((ROOT, t0, self.clock()))

    def take(self) -> "Trace":
        """Hand over what one traced pass recorded and start afresh."""

        def name_of(key: object) -> str:
            return key if isinstance(key, str) else OPERATOR + key.name

        spans = [(name_of(key), t0, t1) for key, t0, t1 in self._spans]
        operators = {id(key): key for key, _, _ in self._spans if not isinstance(key, str)}
        calls = Counter(name_of(key) for key in self._begun)
        trace = Trace(
            spans, dict(calls), self.matched, list(operators.values()),
            frozenset(self.available),
        )
        self._spans.clear()
        self._begun.clear()
        self.matched = 0
        return trace


@dataclass
class Trace:
    """One traced pass: its spans and the counts taken at the same boundaries."""

    spans: list[Span]
    calls: dict[str, int]
    matched: int
    operators: list[object]
    available: frozenset[str]

    def seconds(self, self_s: dict[str, float], *names: str) -> float | None:
        """Self time under ``names``; None when none of them has an entry point."""
        live = [n for n in names if n in self.available]
        return sum(self_s.get(n, 0.0) for n in live) if live else None

    def count(self, *names: str) -> float | None:
        live = [n for n in names if n in self.available]
        return float(sum(self.calls.get(n, 0) for n in live)) if live else None


def _attributes(targets: Iterable[tuple[str, str, str]]) -> Iterator[tuple[type, str, object]]:
    """(owner class, method, current attribute) behind every live target."""
    for path, method, _ in targets:
        cls = resolve(path)
        if isinstance(cls, type):
            for owner in _owners(cls, method):
                yield owner, method, owner.__dict__[method]


def assert_untraced(targets: Iterable[tuple[str, str, str]] = TARGETS) -> None:
    """Fail if a span wrapper is installed: end-to-end passes run bare."""
    for owner, method, attribute in _attributes(targets):
        if getattr(attribute, "_bench_span", False):
            raise RuntimeError(
                f"span wrapper still installed on {owner.__name__}.{method}; "
                "end-to-end metrics must come from untraced passes"
            )


def class_attributes(targets: Iterable[tuple[str, str, str]] = TARGETS) -> dict[str, object]:
    """The current attribute object behind every live target (for tests)."""
    return {
        f"{owner.__module__}.{owner.__qualname__}.{method}": attribute
        for owner, method, attribute in _attributes(targets)
    }


def link(spans: Iterable[Span]) -> list[tuple[int, int, str, float, float]]:
    """``(id, parent id, name, start, end)`` per span, ids in closing order.

    One thread, so spans nest: when a span closes, the spans that closed
    before it and started no earlier than it are inside it. The direct
    children are those not already claimed by a closer ancestor.
    """
    out: list[list] = []
    open_ids: list[int] = []  # closed spans still waiting for their parent
    for sid, (name, t0, t1) in enumerate(spans):
        while open_ids and out[open_ids[-1]][3] >= t0:
            out[open_ids.pop()][1] = sid
        out.append([sid, NO_PARENT, name, t0, t1])
        open_ids.append(sid)
    return [tuple(row) for row in out]


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Seconds of self time per span name: duration minus direct children."""
    linked = link(spans)
    covered: dict[int, float] = defaultdict(float)
    for _, parent, _, t0, t1 in linked:
        covered[parent] += t1 - t0
    out: dict[str, float] = defaultdict(float)
    for sid, _, name, t0, t1 in linked:
        out[name] += (t1 - t0) - covered.get(sid, 0.0)
    return dict(out)


def layer_seconds(self_s: dict[str, float]) -> dict[str, float]:
    """Self time summed per layer; the layers sum to the root span."""
    out: dict[str, float] = defaultdict(float)
    for name, seconds in self_s.items():
        out[LAYERS[name.split(".", 1)[0]]] += seconds
    return dict(out)
