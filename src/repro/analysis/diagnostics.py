"""Diagnostics framework for static query/plan analysis.

Every finding the analyzer (:mod:`repro.analysis.checker`) or the DAG
selfcheck (:mod:`repro.analysis.selfcheck`) can emit is a
:class:`Diagnostic` with a *stable code* drawn from the :data:`CODES`
registry below. Codes never change meaning once published: tools,
tests, and docs key on them (docs/static-analysis.md is generated-by-hand
from this table and a test asserts the two stay in sync).

Severity semantics:

* ``error`` — the query can never behave as written (unsatisfiable,
  ill-typed, or the shared DAG is corrupt). ``repro check`` exits
  non-zero; ``DSMSServer.register_query(strict=True)`` refuses it.
* ``warning`` — the query runs but something is off (redundant
  reprojection, SLO budget likely blown). Promoted to failure by
  ``repro check --strict``.
* ``info`` — advisory only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "Severity",
    "SourceSpan",
    "CodeInfo",
    "CODES",
    "Diagnostic",
    "DiagnosticReport",
]


class Severity(enum.Enum):
    """How bad a diagnostic is; orderable (ERROR > WARNING > INFO)."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"info": 0, "warning": 1, "error": 2}[self.value]

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank

    def __le__(self, other: "Severity") -> bool:
        return self.rank <= other.rank


@dataclass(frozen=True)
class SourceSpan:
    """Half-open character range ``[start, end)`` into the query text."""

    start: int
    end: int


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry documenting one stable diagnostic code."""

    code: str
    category: str  # syntax | reference | crs | value | satisfiability | operator | slo | dag
    severity: Severity
    title: str
    example: str  # a query (or scenario) that triggers the code
    hint: str  # the documented fix hint


def _code(
    code: str, category: str, severity: Severity, title: str, example: str, hint: str
) -> tuple[str, CodeInfo]:
    return code, CodeInfo(code, category, severity, title, example, hint)


#: Every diagnostic code the analyzer can emit. Stable once published.
CODES: dict[str, CodeInfo] = dict(
    (
        _code(
            "GS-SYN001",
            "syntax",
            Severity.ERROR,
            "query text does not parse",
            "within(reflectance(goes.vis)",
            "fix the syntax error reported by the parser at the given position",
        ),
        _code(
            "GS-REF001",
            "reference",
            Severity.ERROR,
            "query references an unknown source stream",
            "reflectance(goes.nope)",
            "use a stream id from the catalog (see `repro streams`)",
        ),
        _code(
            "GS-CRS001",
            "crs",
            Severity.ERROR,
            "composition mixes coordinate reference systems",
            "ndvi(reflectance(goes.nir), reproject(reflectance(goes.vis), 'utm:10'))",
            "reproject one operand so both sides of the composition share a CRS",
        ),
        _code(
            "GS-CRS002",
            "crs",
            Severity.ERROR,
            "restriction region cannot be mapped into the stream CRS",
            "within(goes.vis, bbox(0, 85, 10, 89, crs='latlon')) on a Mercator stream",
            "give the region in (or near) the stream's CRS, or loosen it past the "
            "projection's valid domain",
        ),
        _code(
            "GS-CRS003",
            "crs",
            Severity.WARNING,
            "reprojection target equals the current CRS (no-op)",
            "reproject(reflectance(goes.vis), 'geos:-135') on the GOES fixed grid",
            "drop the redundant reproject() — it only costs resampling error",
        ),
        _code(
            "GS-VAL001",
            "value",
            Severity.ERROR,
            "unknown operator kind or kernel",
            "stretch(goes.vis, 'sigmoid')",
            "use a documented kind (stretch: linear/equalize/gaussian; reproject "
            "methods: nearest/bilinear/bicubic; tagg funcs: mean/min/max/sum/count)",
        ),
        _code(
            "GS-VAL002",
            "value",
            Severity.ERROR,
            "value restriction range is empty (lo > hi)",
            "vrange(goes.vis, 0.8, 0.2)",
            "swap the bounds: vrange(e, lo, hi) keeps values with lo <= v <= hi",
        ),
        _code(
            "GS-VAL003",
            "value",
            Severity.ERROR,
            "value restriction is disjoint from the stream's value domain",
            "vrange(reflectance(goes.vis), 2.0, 3.0) — reflectance is [0, 1]",
            "restrict within the propagated value domain shown in the message",
        ),
        _code(
            "GS-VAL004",
            "value",
            Severity.ERROR,
            "band-arity mismatch in composition or region aggregation",
            "sup(rgb.composite, goes.vis) — 3 channels vs 1",
            "compose streams with equal channel counts (band arity); aggregate one channel",
        ),
        _code(
            "GS-VAL005",
            "value",
            Severity.WARNING,
            "value restriction subsumes the whole value domain (no-op)",
            "vrange(reflectance(goes.vis), -10.0, 10.0) — reflectance is [0, 1]",
            "drop the restriction or tighten it to a sub-range of the domain",
        ),
        _code(
            "GS-VAL006",
            "value",
            Severity.WARNING,
            "division composition whose divisor domain includes zero",
            "reflectance(goes.nir) / rescale(reflectance(goes.vis), 1.0, -0.5)",
            "offset or restrict the divisor away from zero, or use ndvi()/evi2() "
            "macros which guard the denominator",
        ),
        _code(
            "GS-SAT001",
            "satisfiability",
            Severity.ERROR,
            "stacked spatial restrictions have an empty intersection",
            "within(within(e, bbox(0,0,1,1)), bbox(5,5,6,6))",
            "the query can never deliver a frame; merge or widen the regions",
        ),
        _code(
            "GS-SAT002",
            "satisfiability",
            Severity.ERROR,
            "spatial restriction is disjoint from the source frame extent",
            "within(goes.vis, bbox(170, -10, 175, -5)) — outside the scan footprint",
            "the query can never deliver a frame; move the region inside the "
            "source extent shown in the message",
        ),
        _code(
            "GS-SAT003",
            "satisfiability",
            Severity.ERROR,
            "temporal restriction is provably empty",
            "during(during(e, 0, 100), 200, 300)",
            "the query can never deliver a frame; widen or align the time windows",
        ),
        _code(
            "GS-SAT004",
            "satisfiability",
            Severity.ERROR,
            "scan-sector window lies outside the sector domain",
            "sectors(e, -5, -1) — sector ids start at 0",
            "sector ids count from 0 upward; use a non-negative window",
        ),
        _code(
            "GS-OP001",
            "operator",
            Severity.ERROR,
            "non-positive scale factor or window length",
            "magnify(e, 0) / tagg(e, 'mean', 0)",
            "magnify/coarsen factors and aggregate windows must be >= 1",
        ),
        _code(
            "GS-SLO001",
            "slo",
            Severity.WARNING,
            "estimated per-frame cost exceeds the SLO lag budget",
            "a calibrated Estimate.seconds of 2.5s against SLOPolicy(max_lag_s=1.0)",
            "simplify the query, shed load ahead of it, or relax the SLO budget",
        ),
        _code(
            "GS-SLO002",
            "slo",
            Severity.WARNING,
            "SLO escalates shedding but the server has no ingest shedder",
            "DSMSServer(catalog, slo=SLOPolicy(1.0, escalate_shedding=True))",
            "pass ingest_shedder= to the server or set escalate_shedding=False",
        ),
        _code(
            "GS-DAG001",
            "dag",
            Severity.ERROR,
            "plan fingerprint collision in the shared DAG",
            "two non-equal plan nodes hashing to one fingerprint slot",
            "a corrupted or hand-edited DAG; rebuild it by re-registering queries",
        ),
        _code(
            "GS-DAG002",
            "dag",
            Severity.ERROR,
            "dangling fan-out edge (target stage not in the DAG)",
            "an Edge whose stage was removed without detaching the producer",
            "deregister via DSMSServer.deregister so edges are detached atomically",
        ),
        _code(
            "GS-DAG003",
            "dag",
            Severity.ERROR,
            "refcount-inconsistent stage (subscribers do not match registrations)",
            "a stage subscribed to a query id that is no longer registered",
            "a corrupted DAG; rebuild it by re-registering the live queries",
        ),
        _code(
            "GS-DAG004",
            "dag",
            Severity.ERROR,
            "terminal delivery edge with no delivery roots",
            "a sink edge whose roots set is empty — results go nowhere",
            "a corrupted DAG; rebuild it by re-registering the live queries",
        ),
        _code(
            "GS-DAG005",
            "dag",
            Severity.ERROR,
            "epoch ownership drift (stage epochs disagree with subscribers)",
            "a stage owned by no epoch, or stamped with a retired epoch",
            "mutate stage membership only through plan.epoch.EpochTransition",
        ),
        _code(
            "GS-DAG006",
            "dag",
            Severity.ERROR,
            "committed epoch stage set disagrees with the live subscriptions",
            "refcount drift across a hot swap: grafted stages lost an owner",
            "a corrupted swap; re-register the query to rebuild its subplan",
        ),
    )
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding, tagged with a stable code from :data:`CODES`."""

    code: str
    severity: Severity
    message: str
    span: SourceSpan | None = None
    node: str | None = None  # describe() of the AST/plan node, when known
    hint: str | None = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"undocumented diagnostic code {self.code!r}")

    @property
    def category(self) -> str:
        return CODES[self.code].category

    def resolved_hint(self) -> str:
        return self.hint if self.hint is not None else CODES[self.code].hint

    def render(self, text: str | None = None) -> str:
        lines = [f"{self.severity.value}[{self.code}]: {self.message}"]
        if self.span is not None and text is not None:
            lines.extend(_render_span(text, self.span))
        elif self.node is not None:
            lines.append(f"  --> {self.node}")
        lines.append(f"  hint: {self.resolved_hint()}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "code": self.code,
            "severity": self.severity.value,
            "category": self.category,
            "message": self.message,
            "hint": self.resolved_hint(),
        }
        if self.span is not None:
            out["span"] = {"start": self.span.start, "end": self.span.end}
        if self.node is not None:
            out["node"] = self.node
        return out


def _render_span(text: str, span: SourceSpan) -> list[str]:
    """`  --> line:col` plus the source line with a caret underline."""
    start = max(0, min(span.start, len(text)))
    line_no = text.count("\n", 0, start) + 1
    line_start = text.rfind("\n", 0, start) + 1
    line_end = text.find("\n", line_start)
    if line_end < 0:
        line_end = len(text)
    col = start - line_start
    line = text[line_start:line_end]
    width = max(1, min(span.end, line_end) - start)
    caret = " " * col + "^" + "~" * (width - 1)
    return [f"  --> {line_no}:{col + 1}", f"   | {line}", f"   | {caret}"]


@dataclass(frozen=True)
class DiagnosticReport:
    """All diagnostics from one analysis pass, plus the analyzed text."""

    diagnostics: tuple[Diagnostic, ...] = ()
    text: str | None = None

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when no error-level diagnostics were found."""
        return not self.errors

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def exit_code(self, strict: bool = False) -> int:
        """0 when clean; 1 on errors (or, with ``strict``, warnings too)."""
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0

    def extend(self, more: "DiagnosticReport") -> "DiagnosticReport":
        return DiagnosticReport(self.diagnostics + more.diagnostics, self.text)

    def render(self) -> str:
        if not self.diagnostics:
            return "no diagnostics: query analyzes clean"
        ordered = sorted(
            self.diagnostics, key=lambda d: (-d.severity.rank, d.code)
        )
        blocks = [d.render(self.text) for d in ordered]
        tail = (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.diagnostics) - len(self.errors) - len(self.warnings)} info"
        )
        return "\n".join(blocks) + "\n" + tail

    def to_dict(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

