"""Static semantic analysis of query trees and canonical plans.

The algebra is closed and every operator's effect on the stream's
*static type* — CRS, spatial extent, value domain, band arity, temporal
window — is known without executing anything. :func:`analyze` reads
that type from the one type table (:mod:`repro.query.types`), checks
each node against its inputs' types (with source spans when the query
came in as text), then cross-checks the canonical plan IR, and reports
everything it can prove wrong as :class:`~repro.analysis.diagnostics.
Diagnostic` values with stable codes.

What is *provable* here is deliberately conservative: the types are
supersets (an unknown bound stays unknown), so an emitted error means
the query genuinely cannot behave as written — never a false alarm from
a loose approximation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Mapping

from ..errors import GeoStreamsError
from ..geo.region import BoundingBox, Region
from ..plan.compile import compile_query
from ..plan.ops import VALUE_MAP_DEFAULTS
from ..query import ast as q
from ..query.calibration import CalibrationProfile
from ..query.cost import estimate_query
from ..query.parser import parse_query_spanned
from ..query.types import (
    STRETCH_KINDS,
    StaticContext,
    StreamType,
    half_open_empty,
    infer_types,
    region_box,
    windowed,
)
from .diagnostics import Diagnostic, DiagnosticReport, Severity, SourceSpan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.slo import SLOPolicy
    from ..server.catalog import StreamCatalog

__all__ = ["analyze", "StaticContext"]

_RESAMPLE_METHODS = frozenset({"nearest", "bilinear", "bicubic"})
_AGG_FUNCS = frozenset({"mean", "min", "max", "sum", "count"})
_AGG_MODES = frozenset({"sliding", "tumbling"})
_GAMMAS = frozenset({"+", "-", "*", "/", "sup", "inf", "mosaic", "ndvi", "evi2"})


class _Checker:
    def __init__(
        self,
        ctx: StaticContext,
        spans: Mapping[int, tuple[int, int]],
    ) -> None:
        self.ctx = ctx
        self.spans = spans
        self.diagnostics: list[Diagnostic] = []

    # -- emission -----------------------------------------------------------------

    def emit(
        self,
        code: str,
        message: str,
        node: q.QueryNode,
        severity: Severity,
    ) -> None:
        span = self.spans.get(id(node))
        self.diagnostics.append(
            Diagnostic(
                code=code,
                severity=severity,
                message=message,
                span=SourceSpan(*span) if span is not None else None,
                node=node.describe(),
            )
        )

    def error(self, code: str, message: str, node: q.QueryNode) -> None:
        self.emit(code, message, node, Severity.ERROR)

    def warn(self, code: str, message: str, node: q.QueryNode) -> None:
        self.emit(code, message, node, Severity.WARNING)

    def unsatisfiable(self, code: str, why: str, node: q.QueryNode) -> None:
        self.error(code, f"{why} — the query can never deliver a frame", node)

    def require_known(
        self, value: str, known: Collection[str], what: str, node: q.QueryNode
    ) -> None:
        """GS-VAL001 unless ``value`` is one of the ``known`` names of a ``what``."""
        if value not in known:
            self.error(
                "GS-VAL001",
                f"unknown {what} {value!r}; known {what.split()[-1]}s: "
                f"{', '.join(sorted(known))}",
                node,
            )

    def require_arity(self, node: q.QueryNode, have: int | None, want: int | None, message: str) -> None:
        """GS-VAL004 unless the two channel counts agree (or one is unknown)."""
        if have is not None and want is not None and have != want:
            self.error("GS-VAL004", f"band-arity mismatch: {message}", node)

    # -- the checks: each node against its output type and its inputs' types -------

    def check(self, tree: q.QueryNode) -> None:
        types = infer_types(tree, self.ctx)
        for node in q.post_order(tree):
            method = getattr(self, f"_visit_{type(node).__name__.lower()}", None)
            if method is not None:
                inputs = [types[id(child)] for child in node.children]
                method(node, types[id(node)], *inputs)

    def _visit_streamref(self, node: q.StreamRef, out: StreamType) -> None:
        known = self.ctx.known_streams
        if known is not None and node.stream_id not in known:
            self.error(
                "GS-REF001",
                f"unknown stream {node.stream_id!r}; catalog has {sorted(known)}",
                node,
            )

    def _visit_empty(self, node: q.Empty, out: StreamType) -> None:
        self.error(
            "GS-SAT003",
            f"query contains a provably empty stream ({node.reason})",
            node,
        )

    def _visit_spatialrestrict(
        self, node: q.SpatialRestrict, out: StreamType, info: StreamType
    ) -> None:
        if getattr(node.region, "is_empty_hint", False):
            self.error(
                "GS-SAT001",
                "restriction region is an empty intersection of regions",
                node,
            )
            return
        reason = _unmappable(node.region, info)
        if reason is not None:
            self.error("GS-CRS002", f"region {reason}", node)
            return
        region_bb = region_box(node.region, info)
        if (
            region_bb is not None
            and info.bbox is not None
            and region_bb.crs == info.bbox.crs
            and not region_bb.intersects(info.bbox)
        ):
            if info.restricted:
                self.unsatisfiable(
                    "GS-SAT001",
                    "spatial restriction is disjoint from the extent left by "
                    "earlier restrictions",
                    node,
                )
            else:
                self.unsatisfiable(
                    "GS-SAT002",
                    f"region is disjoint from the source frame extent {_fmt_bbox(info.bbox)}",
                    node,
                )

    def _visit_temporalrestrict(
        self, node: q.TemporalRestrict, out: StreamType, info: StreamType
    ) -> None:
        timeset = node.timeset
        if timeset.definitely_empty or half_open_empty(timeset):
            self.unsatisfiable("GS-SAT003", "temporal restriction window is empty", node)
            return
        lo, hi = timeset.bounds()
        if node.on_sector:
            if hi < 0:
                self.unsatisfiable(
                    "GS-SAT004",
                    f"scan-sector window [{lo:g}, {hi:g}] lies entirely before sector 0",
                    node,
                )
            elif out.s_lo > out.s_hi:
                self.unsatisfiable("GS-SAT003", "stacked scan-sector windows are disjoint", node)
        elif windowed(timeset) and out.t_lo > out.t_hi:
            self.unsatisfiable("GS-SAT003", "stacked time windows are disjoint", node)

    def _visit_valuerestrict(
        self, node: q.ValueRestrict, out: StreamType, info: StreamType
    ) -> None:
        lo, hi = node.lo, node.hi
        if lo is not None and hi is not None and lo > hi:
            self.error(
                "GS-VAL002",
                f"value restriction [{lo:g}, {hi:g}] is empty (lo > hi)",
                node,
            )
            return
        if info.lo is not None and hi is not None and hi < info.lo:
            self.error(
                "GS-VAL003",
                f"value restriction [.., {hi:g}] lies entirely below the stream's "
                f"value domain [{info.lo:g}, {_fmt(info.hi)}] — no value can match",
                node,
            )
            return
        if info.hi is not None and lo is not None and lo > info.hi:
            self.error(
                "GS-VAL003",
                f"value restriction [{lo:g}, ..] lies entirely above the stream's "
                f"value domain [{_fmt(info.lo)}, {info.hi:g}] — no value can match",
                node,
            )
            return
        if (
            info.lo is not None
            and info.hi is not None
            and (lo is None or lo <= info.lo)
            and (hi is None or hi >= info.hi)
        ):
            self.warn(
                "GS-VAL005",
                f"value restriction subsumes the stream's whole value domain "
                f"[{info.lo:g}, {info.hi:g}] — it never filters anything",
                node,
            )

    def _visit_valuemap(self, node: q.ValueMap, out: StreamType, info: StreamType) -> None:
        self.require_known(node.kind, VALUE_MAP_DEFAULTS, "value-map kind", node)

    def _visit_stretch(self, node: q.Stretch, out: StreamType, info: StreamType) -> None:
        self.require_known(node.kind, STRETCH_KINDS, "stretch kind", node)

    def _visit_magnify(
        self, node: q.Magnify | q.Coarsen, out: StreamType, info: StreamType
    ) -> None:
        if node.k < 1:
            kind = type(node).__name__.lower()
            self.error("GS-OP001", f"{kind} factor must be >= 1, got {node.k}", node)

    _visit_coarsen = _visit_magnify

    def _visit_reproject(self, node: q.Reproject, out: StreamType, info: StreamType) -> None:
        self.require_known(node.method, _RESAMPLE_METHODS, "resampling method", node)
        if info.crs is not None and node.dst_crs == info.crs:
            self.warn(
                "GS-CRS003",
                f"reprojection to {node.dst_crs.name} is a no-op: the stream is "
                "already in that CRS",
                node,
            )

    def _visit_compose(
        self, node: q.Compose, out: StreamType, left: StreamType, right: StreamType
    ) -> None:
        self.require_known(node.gamma, _GAMMAS, "composition kernel", node)
        if left.crs is not None and right.crs is not None and left.crs != right.crs:
            self.error(
                "GS-CRS001",
                f"composition mixes CRS {left.crs.name} (left) and "
                f"{right.crs.name} (right); frames cannot be matched pointwise",
                node,
            )
        self.require_arity(node, left.channels, right.channels, f"left has {left.channels} channel(s), right has {right.channels}")
        if left.bbox is not None and right.bbox is not None and out.bbox is None:
            self.unsatisfiable(
                "GS-SAT001",
                "composition operands have disjoint extents and frames are only "
                "matched on identical windows",
                node,
            )
        if (
            node.gamma == "/"
            and right.lo is not None
            and right.hi is not None
            and right.lo <= 0.0 <= right.hi
        ):
            self.warn(
                "GS-VAL006",
                f"divisor's value domain [{right.lo:g}, {right.hi:g}] includes "
                "zero; the quotient can be non-finite",
                node,
            )

    def _visit_temporalagg(self, node: q.TemporalAgg, out: StreamType, info: StreamType) -> None:
        self.require_known(node.func, _AGG_FUNCS, "aggregate function", node)
        self.require_known(node.mode, _AGG_MODES, "aggregate mode", node)
        if node.window < 1:
            self.error(
                "GS-OP001",
                f"aggregate window must be >= 1 frame, got {node.window}",
                node,
            )

    def _visit_regionagg(self, node: q.RegionAgg, out: StreamType, info: StreamType) -> None:
        self.require_known(node.func, _AGG_FUNCS, "aggregate function", node)
        self.require_arity(node, info.channels, 1, f"a region aggregate reduces one channel, the stream has {info.channels}")
        for name, region in node.regions:
            reason = _unmappable(region, info)
            if reason is not None:
                self.error("GS-CRS002", f"aggregate region {name!r} {reason}", node)


def _unmappable(region: Region, info: StreamType) -> str | None:
    """Why ``region`` cannot be mapped into the stream's CRS (None: it can)."""
    try:
        region_box(region, info)
    except GeoStreamsError as exc:
        assert info.space is not None  # only a CRS change can fail
        return (
            f"(crs {region.crs.name}) cannot be mapped into the stream CRS "
            f"{info.space.name}: {exc}"
        )
    return None


# -- message formatting -----------------------------------------------------------


def _fmt(value: float | None) -> str:
    return "?" if value is None else f"{value:g}"


def _fmt_bbox(bbox: BoundingBox) -> str:
    return (
        f"[{bbox.xmin:g}, {bbox.ymin:g}, {bbox.xmax:g}, {bbox.ymax:g}] "
        f"({bbox.crs.name})"
    )


# -- canonical-plan cross-checks --------------------------------------------------


def _check_canonical(
    tree: q.QueryNode,
    catalog: "StreamCatalog | None",
    already: set[str],
) -> list[Diagnostic]:
    """Re-derive satisfiability over the *folded* canonical plan.

    Canonicalization merges adjacent restrictions, so emptiness that the
    AST walk can only see by accumulation shows up here as a single
    self-evidently-empty node. Also verifies the fingerprint invariants
    the sharing layer depends on (structurally distinct nodes must not
    collide).
    """
    diags: list[Diagnostic] = []

    def emit(code: str, message: str, node: q.QueryNode) -> None:
        if code in already:
            return  # the AST walk already reported this condition with a span
        diags.append(
            Diagnostic(
                code=code,
                severity=Severity.ERROR,
                message=message,
                node=node.describe(),
            )
        )

    try:
        plan = compile_query(tree, catalog or {}, optimize=False).plan
    except GeoStreamsError:
        # CRS resolution failures surface through the AST walk (GS-CRS002).
        return diags

    by_fingerprint: dict[str, q.QueryNode] = {}
    for node in q.walk(plan):
        fp = node.fingerprint
        other = by_fingerprint.get(fp)
        if other is not None and other != node:
            emit(
                "GS-DAG001",
                f"fingerprint collision: {node.describe()} and {other.describe()} "
                f"both hash to {fp}",
                node,
            )
        by_fingerprint[fp] = node
        if isinstance(node, q.SpatialRestrict) and getattr(
            node.region, "is_empty_hint", False
        ):
            emit(
                "GS-SAT001",
                "folded spatial restrictions have an empty intersection — the "
                "query can never deliver a frame",
                node,
            )
        if isinstance(node, q.TemporalRestrict):
            if node.timeset.definitely_empty or half_open_empty(node.timeset):
                emit(
                    "GS-SAT003",
                    "folded temporal restrictions are provably empty — the query "
                    "can never deliver a frame",
                    node,
                )
            elif node.on_sector and node.timeset.bounds()[1] < 0:
                emit(
                    "GS-SAT004",
                    "folded scan-sector window lies entirely before sector 0",
                    node,
                )
        if isinstance(node, q.ValueRestrict):
            if node.lo is not None and node.hi is not None and node.lo > node.hi:
                emit(
                    "GS-VAL002",
                    f"folded value restriction [{node.lo:g}, {node.hi:g}] is empty",
                    node,
                )
    return diags


# -- SLO-budget check -------------------------------------------------------------


def _check_slo(
    tree: q.QueryNode,
    ctx: StaticContext,
    slo: "SLOPolicy | float",
    calibration: CalibrationProfile | None,
    has_ingest_shedder: bool | None,
) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    budget = float(getattr(slo, "max_lag_s", slo))  # type: ignore[arg-type]
    escalates = bool(getattr(slo, "escalate_shedding", False))
    if escalates and has_ingest_shedder is False:
        diags.append(
            Diagnostic(
                code="GS-SLO002",
                severity=Severity.WARNING,
                message=(
                    "SLO policy escalates shedding on breach, but the server has "
                    "no ingest shedder to escalate"
                ),
            )
        )
    if ctx.profiles is None:
        return diags
    profile = calibration if calibration is not None else CalibrationProfile.uncalibrated()
    try:
        estimate, _ = estimate_query(tree, ctx.profiles, calibration=profile)
    except GeoStreamsError:
        return diags  # unknown streams etc. are reported elsewhere
    seconds = estimate.seconds
    if seconds is not None and seconds > budget:
        calib = "calibrated" if calibration is not None else "seed-priced"
        diags.append(
            Diagnostic(
                code="GS-SLO001",
                severity=Severity.WARNING,
                message=(
                    f"{calib} per-frame cost estimate {seconds:.3f}s exceeds the "
                    f"SLO lag budget {budget:g}s — breaches are likely by "
                    "construction"
                ),
            )
        )
    return diags


# -- entry point ------------------------------------------------------------------


def analyze(
    query: "str | q.QueryNode",
    catalog: "StreamCatalog | None" = None,
    *,
    context: StaticContext | None = None,
    slo: "SLOPolicy | float | None" = None,
    calibration: CalibrationProfile | None = None,
    has_ingest_shedder: bool | None = None,
) -> DiagnosticReport:
    """Statically analyze one query; returns every provable finding.

    ``query`` may be text (diagnostics then carry source spans) or an
    algebra tree. ``catalog`` (or an explicit ``context``) supplies the
    stream facts — CRS, frame extents, value domains, cost profiles —
    that unlock the deeper checks; without it only structural checks
    run. ``slo`` (an :class:`~repro.obs.slo.SLOPolicy` or a plain lag
    budget in seconds) enables the cost-versus-budget warning, priced by
    ``calibration`` when given.
    """
    ctx = context
    if ctx is None:
        ctx = StaticContext.from_catalog(catalog) if catalog is not None else StaticContext()

    text: str | None = None
    spans: dict[int, tuple[int, int]] = {}
    if isinstance(query, str):
        text = query
        try:
            tree, spans = parse_query_spanned(query)
        except GeoStreamsError as exc:
            # QuerySyntaxError proper, but also node-construction errors
            # (e.g. an inverted TimeInterval) raised while the parser
            # builds the tree: either way the text has no analyzable AST.
            diag = Diagnostic(
                code="GS-SYN001",
                severity=Severity.ERROR,
                message=str(exc),
                span=_span_from_message(query, str(exc)),
            )
            return DiagnosticReport((diag,), text)
    else:
        tree = query

    checker = _Checker(ctx, spans)
    checker.check(tree)
    diagnostics = list(checker.diagnostics)

    already = {d.code for d in diagnostics}
    diagnostics.extend(_check_canonical(tree, catalog, already))

    if slo is not None:
        diagnostics.extend(
            _check_slo(tree, ctx, slo, calibration, has_ingest_shedder)
        )

    return DiagnosticReport(tuple(diagnostics), text)


def _span_from_message(text: str, message: str) -> SourceSpan | None:
    """Best-effort span for syntax errors that mention a position."""
    import re

    match = re.search(r"position (\d+)", message)
    if match is None:
        return None
    start = int(match.group(1))
    if start >= len(text):
        return None
    return SourceSpan(start, min(len(text), start + 1))
