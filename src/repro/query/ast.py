"""Query expressions: the closed algebra as an AST (Section 3).

Every node denotes a GeoStream; operators take GeoStream-denoting children
and denote GeoStreams again, so arbitrary nesting is well-formed — the
closure property "allows the formulation of complex queries ... and also
provides a basis for query optimization techniques, such as query
rewriting" (Section 3). The optimizer rewrites these trees, and
:func:`repro.plan.canonicalize` returns the same kind of tree in canonical
form, which *is* the physical plan the plan DAG runs.

Nodes are immutable; rewriting produces new trees via ``with_children``.
Each node exposes a cached structural ``fingerprint`` so that equal
canonical subplans hash equal; that is what lets the DSMS share stages
between different registered queries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from typing import Iterator, Tuple

from ..core.timeset import TimeSet
from ..errors import QueryError
from ..geo.crs import CRS, spec_of
from ..geo.region import BoundingBox, Region

__all__ = [
    "QueryNode",
    "StreamRef",
    "Empty",
    "SpatialRestrict",
    "TemporalRestrict",
    "ValueRestrict",
    "ValueMap",
    "Stretch",
    "Magnify",
    "Coarsen",
    "Rotate",
    "Reproject",
    "Compose",
    "TemporalAgg",
    "RegionAgg",
    "walk",
]

# The payload tags of the two leaves are the names they carried when the
# physical plan was a separate node hierarchy. Keeping them keeps every
# fingerprint, and with it the canonical operand order of commutative
# compositions, stable.
_FINGERPRINT_TAGS = {"StreamRef": "SourceScan", "Empty": "EmptyPlan"}


def _token(value: object) -> str:
    """Stable structural token for one node field value.

    Region objects other than bounding boxes compare by identity, so they
    are fingerprinted by identity too: two plans share a stage for them
    only when they hold the *same* region object. That forgoes some
    sharing but can never merge plans that are not equal.
    """
    if isinstance(value, QueryNode):
        return value.fingerprint
    if value is None or isinstance(value, (str, int, bool)):
        return repr(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return "(" + ",".join(_token(v) for v in value) + ")"
    if isinstance(value, CRS):
        # spec_of gives a content token for the standard projections; a
        # bespoke CRS falls back to identity (sound, just never shared).
        try:
            return f"crs:{spec_of(value)}"
        except Exception:
            return f"crs:{type(value).__name__}@{id(value):x}"
    if isinstance(value, BoundingBox):
        return (
            f"bbox({value.xmin!r},{value.ymin!r},{value.xmax!r},"
            f"{value.ymax!r},{_token(value.crs)})"
        )
    if isinstance(value, Region):
        return f"region:{type(value).__name__}@{id(value):x}"
    if isinstance(value, TimeSet):
        text = repr(value)
        if " at 0x" in text:  # default object repr: not content-stable
            return f"time:{type(value).__name__}@{id(value):x}"
        return f"time:{text}"
    return f"{type(value).__name__}@{id(value):x}"


@dataclass(frozen=True)
class QueryNode:
    """Base class for all query expression nodes."""

    @property
    def fingerprint(self) -> str:
        """Structural hash: equal (canonical) subplans get equal digests."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            tag = type(self).__name__
            payload = ";".join(
                [_FINGERPRINT_TAGS.get(tag, tag)]
                + [f"{f.name}={_token(getattr(self, f.name))}" for f in fields(self)]
            )
            cached = hashlib.blake2b(payload.encode(), digest_size=10).hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    @property
    def children(self) -> Tuple["QueryNode", ...]:
        return tuple(
            getattr(self, f.name)
            for f in fields(self)
            if isinstance(getattr(self, f.name), QueryNode)
        )

    def with_children(self, *children: "QueryNode") -> "QueryNode":
        """Copy of this node with its child slots replaced, in field order."""
        child_fields = [
            f.name for f in fields(self) if isinstance(getattr(self, f.name), QueryNode)
        ]
        if len(children) != len(child_fields):
            raise QueryError(
                f"{type(self).__name__} has {len(child_fields)} children, "
                f"got {len(children)}"
            )
        return replace(self, **dict(zip(child_fields, children)))

    # -- pretty-printing -------------------------------------------------------

    def describe(self) -> str:
        """One-line operator description (overridden by subclasses)."""
        return type(self).__name__

    def pretty(self, indent: int = 0, *, fingerprints: bool = False) -> str:
        """Indented tree rendering, used by EXPLAIN output."""
        line = f"{'  ' * indent}{self.describe()}"
        if fingerprints:
            line += f"  #{self.fingerprint}"
        lines = [line]
        for child in self.children:
            lines.append(child.pretty(indent + 1, fingerprints=fingerprints))
        return "\n".join(lines)


@dataclass(frozen=True)
class StreamRef(QueryNode):
    """A reference to a registered source GeoStream (leaf)."""

    stream_id: str

    def describe(self) -> str:
        return f"Stream({self.stream_id})"


@dataclass(frozen=True)
class Empty(QueryNode):
    """A provably-empty stream (leaf).

    Produced by the optimizer when restrictions cannot be satisfied —
    e.g. two spatial restrictions with disjoint regions, or a temporal
    restriction over an empty time set. Registering such a query costs
    nothing at execution time.
    """

    reason: str = ""

    def describe(self) -> str:
        return f"Empty({self.reason})" if self.reason else "Empty"


@dataclass(frozen=True)
class SpatialRestrict(QueryNode):
    """G|R — keep points inside a spatial region (Def. 6)."""

    child: QueryNode
    region: Region

    def describe(self) -> str:
        b = self.region.bounding_box
        return (
            f"SpatialRestrict({type(self.region).__name__} "
            f"[{b.xmin:g},{b.ymin:g}..{b.xmax:g},{b.ymax:g}] @{self.region.crs.name})"
        )


@dataclass(frozen=True)
class TemporalRestrict(QueryNode):
    """G|T — keep points whose timestamp is in T (Def. 7)."""

    child: QueryNode
    timeset: TimeSet
    on_sector: bool = False

    def describe(self) -> str:
        kind = "sector" if self.on_sector else "time"
        return f"TemporalRestrict({kind}: {self.timeset!r})"


@dataclass(frozen=True)
class ValueRestrict(QueryNode):
    """G|V — keep points whose value lies in [lo, hi] (Section 3.1)."""

    child: QueryNode
    lo: float | None = None
    hi: float | None = None

    def describe(self) -> str:
        return f"ValueRestrict([{self.lo}, {self.hi}])"


@dataclass(frozen=True)
class ValueMap(QueryNode):
    """Pointwise value transform f_val (Def. 8).

    ``kind`` selects a named transform: 'rescale' (gain, offset),
    'reflectance' (bits), 'gamma' (exponent), 'negate', 'absolute'.
    """

    child: QueryNode
    kind: str
    params: tuple[tuple[str, float], ...] = ()

    def param(self, name: str, default: float | None = None) -> float:
        for key, value in self.params:
            if key == name:
                return value
        if default is None:
            raise QueryError(f"value transform {self.kind!r} missing parameter {name!r}")
        return default

    def describe(self) -> str:
        args = ", ".join(f"{k}={v:g}" for k, v in self.params)
        return f"ValueMap({self.kind}{', ' if args else ''}{args})"


@dataclass(frozen=True)
class Stretch(QueryNode):
    """Frame-buffered contrast scaling (Section 3.2)."""

    child: QueryNode
    kind: str = "linear"  # linear | equalize | gaussian

    def describe(self) -> str:
        return f"Stretch({self.kind})"


@dataclass(frozen=True)
class Magnify(QueryNode):
    """Resolution increase by k (Fig. 2a, zero-buffer direction)."""

    child: QueryNode
    k: int = 2

    def describe(self) -> str:
        return f"Magnify(k={self.k})"


@dataclass(frozen=True)
class Coarsen(QueryNode):
    """Resolution decrease by 1/k (Fig. 2a, k-row buffering direction)."""

    child: QueryNode
    k: int = 2

    def describe(self) -> str:
        return f"Coarsen(k={self.k})"


@dataclass(frozen=True)
class Rotate(QueryNode):
    """Rotation about the frame center (frame-buffered warp)."""

    child: QueryNode
    angle_deg: float = 0.0

    def describe(self) -> str:
        return f"Rotate({self.angle_deg:g} deg)"


@dataclass(frozen=True)
class Reproject(QueryNode):
    """Re-projection to a new coordinate system (Fig. 2b)."""

    child: QueryNode
    dst_crs: CRS
    method: str = "bilinear"

    def describe(self) -> str:
        return f"Reproject(to={self.dst_crs.name}, {self.method})"


@dataclass(frozen=True)
class Compose(QueryNode):
    """G1 γ G2 — pointwise stream composition (Def. 10).

    ``gamma`` is one of '+', '-', '*', '/', 'sup', 'inf', or the macro
    kernels 'ndvi' / 'evi2' which expand to their band-math definitions.
    ``timestamp_policy`` (how chunk timestamps are matched across sides)
    is resolved from source metadata by the canonicalizer only; it is part
    of the fingerprint, so two compositions share a stage only when they
    also agree on it.
    """

    left: QueryNode
    right: QueryNode
    gamma: str = "+"
    timestamp_policy: str | None = None

    def describe(self) -> str:
        if self.timestamp_policy is None:
            return f"Compose({self.gamma})"
        return f"Compose({self.gamma}, match={self.timestamp_policy})"


@dataclass(frozen=True)
class TemporalAgg(QueryNode):
    """Per-pixel window aggregate (Section 6 extension, ref [27])."""

    child: QueryNode
    func: str = "mean"
    window: int = 2
    mode: str = "sliding"

    def describe(self) -> str:
        return f"TemporalAgg({self.func}, window={self.window}, {self.mode})"


@dataclass(frozen=True)
class RegionAgg(QueryNode):
    """Per-region scalar aggregates per frame (ref [27])."""

    child: QueryNode
    regions: tuple[tuple[str, Region], ...] = ()
    func: str = "mean"

    def describe(self) -> str:
        names = ", ".join(name for name, _ in self.regions)
        return f"RegionAgg({self.func}: {names})"


def walk(node: QueryNode) -> Iterator[QueryNode]:
    """Depth-first pre-order traversal."""
    yield node
    for child in node.children:
        yield from walk(child)


def post_order(node: QueryNode) -> Iterator[QueryNode]:
    """Depth-first post-order traversal: every node after its children."""
    for child in node.children:
        yield from post_order(child)
    yield node
