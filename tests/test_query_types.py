"""The stream-type table (``repro.query.types``) and its golden corpus.

The analyzer, the cost model, the optimizer and the canonicalizer all
read one bottom-up type pass. The golden corpus (``tests/types_corpus.py``)
pins what ``analyze``, ``canonicalize`` and ``estimate_query`` answer on
every query in the docs, the examples and the analyzer tests plus 200
seeded random trees; only the entries listed in ``expected_changes`` may
differ from the recorded answer.
"""

import json

import pytest

from repro.geo import BoundingBox, utm
from repro.query import ast as q, parse_query
from repro.query.types import StaticContext, infer_types

from tests.types_corpus import FIXTURE, demo_catalog, record_entry


def stream_type(tree, facts):
    return infer_types(tree, facts)[id(tree)]


@pytest.fixture()
def crs_of(catalog):
    return dict(catalog.crs_of())


def test_crs_of_the_type_table(crs_of):
    facts = StaticContext(crs_of=crs_of)
    assert stream_type(q.StreamRef("goes.vis"), facts).crs == crs_of["goes.vis"]
    assert stream_type(q.Reproject(q.StreamRef("goes.vis"), utm(10)), facts).crs == utm(10)
    assert (
        stream_type(q.Stretch(q.StreamRef("goes.vis"), "linear"), facts).crs
        == crs_of["goes.vis"]
    )
    assert stream_type(q.StreamRef("unknown"), facts).crs is None


def _halves(box: BoundingBox, lo: float, hi: float) -> BoundingBox:
    return BoundingBox(
        box.xmin + lo * box.width, box.ymin, box.xmin + hi * box.width, box.ymax, box.crs
    )


def test_compose_extent_is_the_intersection(catalog):
    facts = StaticContext.from_catalog(catalog)
    frame = catalog.extent("goes.vis")
    left = q.SpatialRestrict(q.StreamRef("goes.vis"), _halves(frame, 0.0, 0.6))
    right = q.SpatialRestrict(q.StreamRef("goes.nir"), _halves(frame, 0.4, 1.0))
    out = stream_type(q.Compose(left, right, "+"), facts)
    assert out.bbox == _halves(frame, 0.4, 0.6)
    apart = q.SpatialRestrict(q.StreamRef("goes.nir"), _halves(frame, 0.7, 1.0))
    disjoint = stream_type(q.Compose(left, apart, "+"), facts)
    assert disjoint.bbox is None and disjoint.points == 0.0


def test_rotate_extent_is_unknown(catalog):
    facts = StaticContext.from_catalog(catalog)
    tree = q.Rotate(q.StreamRef("goes.vis"), 45.0)
    types = infer_types(tree, facts)
    assert types[id(tree.child)].bbox == catalog.extent("goes.vis")
    assert types[id(tree)].bbox is None
    assert types[id(tree)].crs == catalog.get("goes.vis").crs


# -- golden corpus -------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_golden_corpus_answers_are_unchanged(golden):
    catalog = demo_catalog()
    changed = {c["query"]: c for c in golden["expected_changes"]}
    mismatches = []
    for entry in golden["entries"]:
        now = record_entry(entry["query"], catalog)
        expected = {**entry, **changed.get(entry["query"], {}).get("after", {})}
        if now != expected:
            mismatches.append(entry["query"])
    assert not mismatches, mismatches


def _has_rotate_or_uneven_compose(text: str) -> bool:
    tree = parse_query(text)
    types = infer_types(tree, StaticContext.from_catalog(demo_catalog()))
    return any(
        isinstance(n, q.Rotate)
        or (
            isinstance(n, q.Compose)
            and types[id(n.left)].bbox != types[id(n.right)].bbox
        )
        for n in q.walk(tree)
    )


def _only_the_exception_changed(change) -> bool:
    """A crash that became a PlanError (coarsen by 0 divided by zero)."""
    before, after = change["before"], change["after"]
    return (
        before["diagnostics"] == after["diagnostics"]
        and before["estimate"] == {"raises": "ZeroDivisionError"}
        and after["estimate"] == {"raises": "PlanError"}
    )


def test_expected_changes_are_rotate_or_compose(golden):
    recorded = {e["query"]: e for e in golden["entries"]}
    for change in golden["expected_changes"]:
        assert recorded[change["query"]].items() >= change["before"].items()
        assert _has_rotate_or_uneven_compose(change["query"]) or _only_the_exception_changed(
            change
        ), change["query"]
