"""Golden corpus for the stream-type table's public consumers.

For every query in the corpus this records what :func:`repro.analysis.analyze`
reports (code, severity, message, span), what :func:`repro.plan.canonicalize`
lowers it to (every canonical node's fingerprint, the sharing key) and what
:func:`repro.query.estimate_query` prices (totals plus the per-node
breakdown) against the demo catalog. ``tests/test_query_types.py``
recomputes each entry and requires an exact match, except for the entries
named in the fixture's ``expected_changes``.

The corpus is every query string found in ``docs/*.md``,
``examples/*.py`` and ``tests/test_analysis*.py``, plus 200 seeded
``tree_strategy`` trees rendered as query text. Record the entries (on
the commit whose answers are the reference) with::

    PYTHONPATH=src python -m tests.types_corpus

and, after a change that is *meant* to move some answers, list each moved
entry with its before and after values in ``expected_changes``::

    PYTHONPATH=src python -m tests.types_corpus --changes
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path
from typing import Any

from repro.cli import build_demo_catalog
from repro.errors import GeoStreamsError
from repro.geo.region import BoundingBox
from repro.query import ast as q

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "query_types_golden.json"
N_TREES = 200
TREE_SEED = 20261015

_CALL = re.compile(r"[a-z_][a-z0-9_]*\(")
_MD_CODE = re.compile(r"`([^`\n]+)`")


def demo_catalog():
    return build_demo_catalog(seed=7, n_frames=2, width=96, height=48)[1]


# -- corpus extraction -------------------------------------------------------------


def _md_candidates(text: str) -> list[str]:
    """Inline code spans and fenced-block lines, cut at prose separators."""
    out = list(_MD_CODE.findall(text))
    fenced = False
    for line in text.splitlines():
        if line.strip().startswith("```"):
            fenced = not fenced
            continue
        if fenced:
            out.append(line)
    cut: list[str] = []
    for cand in out:
        for sep in (" — ", "  #", " on a ", " on the "):
            cand = cand.split(sep)[0]
        cut.append(cand.strip())
    return cut


def _py_candidates(text: str) -> list[str]:
    return [
        node.value
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]


def _looks_like_query(text: str) -> bool:
    from repro.query import parse_query

    if "goes." not in text and not _CALL.match(text):
        return False
    try:
        parse_query(text)
    except GeoStreamsError:
        # Malformed text still counts when it names a stream: the
        # analyzer's GS-SYN001 answer for it is part of the contract.
        return "goes." in text and _CALL.match(text) is not None
    return True


def document_queries() -> list[str]:
    """Every query string in the docs, the examples and the analyzer tests."""
    found: list[str] = []
    sources = sorted((ROOT / "docs").glob("*.md"))
    sources += sorted((ROOT / "examples").glob("*.py"))
    sources += sorted((ROOT / "tests").glob("test_analysis*.py"))
    for path in sources:
        text = path.read_text()
        cands = _md_candidates(text) if path.suffix == ".md" else _py_candidates(text)
        for cand in cands:
            if _looks_like_query(cand) and cand not in found:
                found.append(cand)
    return found


def to_text(node: q.QueryNode) -> str:
    """Query text for the node kinds ``tree_strategy`` generates."""
    if isinstance(node, q.StreamRef):
        return node.stream_id
    if isinstance(node, q.SpatialRestrict):
        box = node.region
        assert isinstance(box, BoundingBox)
        return (
            f"within({to_text(node.child)}, bbox({box.xmin!r}, {box.ymin!r}, "
            f"{box.xmax!r}, {box.ymax!r}, crs='{box.crs.name}'))"
        )
    if isinstance(node, q.TemporalRestrict):
        lo, hi = node.timeset.bounds()
        return f"during({to_text(node.child)}, {lo!r}, {hi!r})"
    if isinstance(node, q.ValueMap):
        return (
            f"rescale({to_text(node.child)}, {node.param('gain')!r}, "
            f"{node.param('offset')!r})"
        )
    if isinstance(node, q.ValueRestrict):
        return f"vrange({to_text(node.child)}, {node.lo!r}, {node.hi!r})"
    if isinstance(node, q.Magnify):
        return f"magnify({to_text(node.child)}, {node.k})"
    if isinstance(node, q.Coarsen):
        return f"coarsen({to_text(node.child)}, {node.k})"
    if isinstance(node, q.Compose):
        left, right = to_text(node.left), to_text(node.right)
        if node.gamma in ("sup", "inf"):
            return f"{node.gamma}({left}, {right})"
        return f"({left} {node.gamma} {right})"
    raise TypeError(f"no query text for {type(node).__name__}")


def tree_queries(n: int = N_TREES) -> list[str]:
    """``n`` distinct seeded ``tree_strategy`` trees, as query text."""
    from hypothesis import HealthCheck, given, seed, settings

    from tests.strategies import tree_strategy

    texts: list[str] = []

    @seed(TREE_SEED)
    @settings(
        max_examples=4 * n,
        database=None,
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(tree_strategy())
    def draw(tree: q.QueryNode) -> None:
        text = to_text(tree)
        if len(texts) < n and text not in texts:
            texts.append(text)

    draw()
    return texts


# -- one entry ---------------------------------------------------------------------


def plan_rows(node: Any, twin: Any) -> list[list[str]]:
    """Pre-order ``[fingerprint, describe()]`` per canonical node.

    ``twin`` is the same query lowered from a second parse. Where the two
    fingerprints differ the node is keyed by object identity (a region
    other than a box, e.g. a disjoint intersection), which no recorded
    value can pin, so the row says ``"by-identity"``. Leaves record their
    fingerprint only: the fingerprint is the sharing contract, the leaf's
    label is just text.
    """
    fp = node.fingerprint if node.fingerprint == twin.fingerprint else "by-identity"
    row = [fp, node.describe()] if node.children else [fp]
    pairs = zip(node.children, twin.children)
    return [row] + [r for child, other in pairs for r in plan_rows(child, other)]


def record_entry(text: str, catalog: Any) -> dict[str, Any]:
    from repro.analysis import analyze
    from repro.plan import canonicalize
    from repro.query import estimate_query, parse_query

    report = analyze(text, catalog)
    entry: dict[str, Any] = {
        "query": text,
        "diagnostics": [
            [
                d.code,
                d.severity.value,
                d.message,
                None if d.span is None else [d.span.start, d.span.end],
            ]
            for d in report.diagnostics
        ],
    }
    try:
        tree = parse_query(text)
    except GeoStreamsError:
        entry["plan"] = entry["estimate"] = None
        return entry
    try:
        plan = canonicalize(tree, crs_of=catalog.crs_of())
        twin = canonicalize(parse_query(text), crs_of=catalog.crs_of())
        entry["plan"] = plan_rows(plan, twin)
    except Exception as exc:  # noqa: BLE001 - whether lowering fails is recorded
        entry["plan"] = {"raises": type(exc).__name__}
    try:
        est, breakdown = estimate_query(tree, catalog.profiles())
    except Exception as exc:  # noqa: BLE001 - whether pricing fails is recorded
        entry["estimate"] = {"raises": type(exc).__name__}
        return entry
    entry["estimate"] = {
        "points": est.points,
        "work": est.work,
        "buffer": est.buffer,
        "max_op_buffer": est.max_op_buffer,
        "breakdown": [
            [c.node.describe(), c.points_in, c.points_out, c.op_buffer, c.op_work]
            for c in breakdown
        ],
    }
    return entry


def main(argv: list[str]) -> None:
    catalog = demo_catalog()
    previous = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    if "--changes" in argv:
        # Keep the recorded entries; list every entry whose answer now differs.
        entries = previous["entries"]
        changes = []
        for entry in entries:
            now = record_entry(entry["query"], catalog)
            if now != entry:
                changes.append({"query": entry["query"], "before": entry, "after": now})
    else:
        entries = [record_entry(text, catalog) for text in document_queries() + tree_queries()]
        changes = previous.get("expected_changes", [])
        # A moved entry keeps its reference answer; fields added since then
        # (which no change names) are recorded fresh.
        before = {c["query"]: c["before"] for c in changes}
        entries = [{**e, **before.get(e["query"], {})} for e in entries]
    payload = {
        "catalog": "build_demo_catalog(seed=7, n_frames=2, width=96, height=48)",
        "expected_changes": changes,
        "entries": entries,
    }
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(entries)} entries, {len(changes)} expected changes to {FIXTURE}")


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
