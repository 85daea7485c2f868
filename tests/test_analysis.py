"""Static analyzer: one positive and one negative test per diagnostic code.

The positive test proves the code fires on its documented trigger; the
negative test proves the nearest well-formed variant stays silent, so
every check is anchored from both sides (no dead codes, no false alarms
on the happy path). See docs/static-analysis.md for the catalogue.
"""

import json

import hypothesis as hyp
import numpy as np
import pytest
from hypothesis import strategies as st

from repro.analysis import StaticContext, analyze, check_dag, check_server
from repro.analysis.diagnostics import CODES, Diagnostic, DiagnosticReport, Severity
from repro.cli import build_demo_catalog, main
from repro.core import GeoStream, GridChunk, GridLattice, Organization
from repro.core.stream import StreamMetadata
from repro.core.valueset import RGB8
from repro.errors import QueryAnalysisError
from repro.geo import LATLON
from repro.obs.slo import SLOPolicy
from repro.plan.stages import Edge
from repro.query import ast as q
from repro.server import DSMSServer, StreamCatalog

from tests.strategies import region_strategy, tree_strategy

CLEAN_QUERY = "stretch(reflectance(goes.vis), 'linear')"
# The paper's Section 3.4 worked query (docs/query-language.md).
WORKED_QUERY = (
    "within(reproject(stretch(ndvi(reflectance(goes.nir), reflectance(goes.vis)),"
    " 'linear'), 'utm:10'), bbox(587798, 4206290, 756100, 4432070, crs='utm:10'))"
)


@pytest.fixture(scope="module")
def catalog():
    _, cat = build_demo_catalog(seed=7, n_frames=2, width=96, height=48)
    return cat


def codes_of(report):
    return report.codes()


# -- analyzer codes: positive / negative pairs ------------------------------------


def test_syn001_unbalanced_query(catalog):
    report = analyze("within(reflectance(goes.vis)", catalog)
    assert codes_of(report) == {"GS-SYN001"}
    assert not report.ok


def test_syn001_unparseable_construction(catalog):
    # Raised while *building* the tree (inverted interval), not tokenizing.
    report = analyze("during(reflectance(goes.vis), 100.0, 50.0)", catalog)
    assert codes_of(report) == {"GS-SYN001"}


def test_syn001_negative(catalog):
    assert "GS-SYN001" not in codes_of(analyze(CLEAN_QUERY, catalog))


def test_ref001_unknown_stream(catalog):
    report = analyze("reflectance(goes.missing)", catalog)
    assert codes_of(report) == {"GS-REF001"}
    assert "goes.vis" in report.errors[0].message  # suggests the catalog


def test_ref001_negative(catalog):
    assert "GS-REF001" not in codes_of(analyze("reflectance(goes.vis)", catalog))


def test_crs001_mixed_composition(catalog):
    text = "ndvi(reproject(reflectance(goes.nir), 'utm:10'), reflectance(goes.vis))"
    assert codes_of(analyze(text, catalog)) == {"GS-CRS001"}


def test_crs001_negative(catalog):
    text = "ndvi(reflectance(goes.nir), reflectance(goes.vis))"
    assert "GS-CRS001" not in codes_of(analyze(text, catalog))


def test_crs002_region_not_mappable(catalog):
    # Longitudes 40..50E are on the far side of the earth from GOES-135.
    text = "within(reflectance(goes.vis), bbox(40, 10, 50, 20))"
    assert codes_of(analyze(text, catalog)) == {"GS-CRS002"}


def test_crs002_negative(catalog):
    # A visible western-US rectangle maps fine.
    text = "within(reflectance(goes.vis), bbox(-124, 38, -120, 41))"
    assert "GS-CRS002" not in codes_of(analyze(text, catalog))


def test_crs003_redundant_reproject(catalog):
    report = analyze("reproject(reflectance(goes.vis), 'geos:-135')", catalog)
    assert codes_of(report) == {"GS-CRS003"}
    assert report.ok  # warning only: the query still runs


def test_crs003_negative(catalog):
    text = "reproject(reflectance(goes.vis), 'utm:10')"
    assert "GS-CRS003" not in codes_of(analyze(text, catalog))


def test_val001_unknown_stretch_kind(catalog):
    text = "stretch(reflectance(goes.vis), 'bogus')"
    assert codes_of(analyze(text, catalog)) == {"GS-VAL001"}


def test_val001_unknown_aggregate(catalog):
    text = "tagg(reflectance(goes.vis), 'median', 4)"
    assert codes_of(analyze(text, catalog)) == {"GS-VAL001"}


def test_val001_negative(catalog):
    text = "tagg(stretch(reflectance(goes.vis), 'linear'), 'mean', 4)"
    assert "GS-VAL001" not in codes_of(analyze(text, catalog))


def test_val002_inverted_vrange(catalog):
    text = "vrange(reflectance(goes.vis), 0.5, 0.1)"
    assert codes_of(analyze(text, catalog)) == {"GS-VAL002"}


def test_val002_negative(catalog):
    text = "vrange(reflectance(goes.vis), 0.1, 0.5)"
    assert "GS-VAL002" not in codes_of(analyze(text, catalog))


def test_val003_range_above_domain(catalog):
    # reflectance() maps into [0, 1]; [2, 3] can never match.
    text = "vrange(reflectance(goes.vis), 2.0, 3.0)"
    assert codes_of(analyze(text, catalog)) == {"GS-VAL003"}


def test_val003_negative(catalog):
    text = "vrange(reflectance(goes.vis), 0.2, 0.8)"
    assert "GS-VAL003" not in codes_of(analyze(text, catalog))


def test_val004_band_arity_mismatch():
    ctx = StaticContext(known_streams=frozenset({"a", "b"}), channels={"a": 1, "b": 3})
    tree = q.Compose(q.StreamRef("a"), q.StreamRef("b"), "sup")
    assert codes_of(analyze(tree, context=ctx)) == {"GS-VAL004"}


def test_val004_negative():
    ctx = StaticContext(known_streams=frozenset({"a", "b"}), channels={"a": 3, "b": 3})
    tree = q.Compose(q.StreamRef("a"), q.StreamRef("b"), "sup")
    assert "GS-VAL004" not in codes_of(analyze(tree, context=ctx))


def rgb_catalog():
    """One 3-channel (RGB8) whole-frame stream, ``rgb``."""
    lattice = GridLattice(LATLON, x0=-124.0, y0=42.0, dx=0.1, dy=-0.1, width=6, height=8)
    meta = StreamMetadata("rgb", "rgb", LATLON, Organization.IMAGE_BY_IMAGE, RGB8)
    chunk = GridChunk(np.zeros(lattice.shape + (3,), np.uint8), lattice, "rgb", 0.0)
    cat = StreamCatalog()
    cat.register(GeoStream.from_chunks(meta, [chunk]), lattice.bbox)
    return cat


def test_val004_region_aggregate_of_a_vector_stream_rejected_at_registration():
    server = DSMSServer(rgb_catalog())
    with pytest.raises(QueryAnalysisError) as excinfo:
        server.register_query("ragg(rgb, 'count', 'all', bbox(-124, 41.3, -123.5, 42))")
    assert excinfo.value.report.codes() == {"GS-VAL004"}


def test_val004_region_aggregate_negative(catalog):
    text = "ragg(reflectance(goes.vis), 'count', 'all', bbox(-124, 38, -120, 41))"
    assert "GS-VAL004" not in codes_of(analyze(text, catalog))


def test_val005_vacuous_vrange(catalog):
    report = analyze("vrange(reflectance(goes.vis), -1.0, 2.0)", catalog)
    assert codes_of(report) == {"GS-VAL005"}
    assert report.ok  # warning


def test_val005_negative(catalog):
    text = "vrange(reflectance(goes.vis), 0.2, 0.8)"
    assert "GS-VAL005" not in codes_of(analyze(text, catalog))


def test_val006_divisor_spans_zero(catalog):
    # rescale maps [0,1] onto [-1,1], which straddles zero.
    text = "reflectance(goes.vis) / rescale(reflectance(goes.nir), 2.0, -1.0)"
    report = analyze(text, catalog)
    assert codes_of(report) == {"GS-VAL006"}
    assert report.ok


def test_val006_negative(catalog):
    # Divisor domain [1, 2] excludes zero.
    text = "reflectance(goes.vis) / rescale(reflectance(goes.nir), 1.0, 1.0)"
    assert codes_of(analyze(text, catalog)) == set()


def test_sat001_stacked_disjoint_regions(catalog):
    text = (
        "within(within(reflectance(goes.vis), bbox(-124, 38, -122, 40)), "
        "bbox(-118, 34, -116, 36))"
    )
    assert codes_of(analyze(text, catalog)) == {"GS-SAT001"}


def test_sat001_negative(catalog):
    text = (
        "within(within(reflectance(goes.vis), bbox(-124, 36, -118, 41)), "
        "bbox(-122, 37, -120, 40))"
    )
    assert "GS-SAT001" not in codes_of(analyze(text, catalog))


def test_sat002_region_off_extent(catalog):
    # Same CRS as the stream, but south-west of the scanned sector.
    text = (
        "within(reflectance(goes.vis), "
        "bbox(-2000000, -2000000, -1000000, -1000000, crs='geos:-135'))"
    )
    assert codes_of(analyze(text, catalog)) == {"GS-SAT002"}


def test_sat002_negative(catalog):
    text = "within(reflectance(goes.vis), bbox(-124, 38, -120, 41))"
    assert "GS-SAT002" not in codes_of(analyze(text, catalog))


def test_sat003_empty_window(catalog):
    # during() is end-exclusive, so [t, t) is empty.
    text = "during(reflectance(goes.vis), 50.0, 50.0)"
    assert codes_of(analyze(text, catalog)) == {"GS-SAT003"}


def test_sat003_stacked_disjoint_windows(catalog):
    text = "during(during(reflectance(goes.vis), 0, 10), 20, 30)"
    assert codes_of(analyze(text, catalog)) == {"GS-SAT003"}


def test_sat003_negative(catalog):
    text = "during(reflectance(goes.vis), 72000, 73000)"
    assert "GS-SAT003" not in codes_of(analyze(text, catalog))


def test_sat004_negative_sector_window(catalog):
    text = "sectors(reflectance(goes.vis), -5, -2)"
    assert codes_of(analyze(text, catalog)) == {"GS-SAT004"}


def test_sat004_negative(catalog):
    text = "sectors(reflectance(goes.vis), 0, 3)"
    assert "GS-SAT004" not in codes_of(analyze(text, catalog))


def test_op001_bad_coarsen_factor(catalog):
    text = "coarsen(reflectance(goes.vis), 0)"
    assert codes_of(analyze(text, catalog)) == {"GS-OP001"}


def test_op001_bad_window(catalog):
    text = "tagg(reflectance(goes.vis), 'mean', 0)"
    assert codes_of(analyze(text, catalog)) == {"GS-OP001"}


def test_op001_negative(catalog):
    text = "coarsen(tagg(reflectance(goes.vis), 'mean', 4), 2)"
    assert "GS-OP001" not in codes_of(analyze(text, catalog))


def test_slo001_budget_exceeded(catalog):
    report = analyze("reflectance(goes.vis)", catalog, slo=1e-9)
    assert codes_of(report) == {"GS-SLO001"}
    assert report.ok  # warning


def test_slo001_negative(catalog):
    report = analyze("reflectance(goes.vis)", catalog, slo=1e9)
    assert "GS-SLO001" not in codes_of(report)


def test_slo002_escalation_without_shedder(catalog):
    policy = SLOPolicy(max_lag_s=1e9, escalate_shedding=True)
    report = analyze(
        "reflectance(goes.vis)", catalog, slo=policy, has_ingest_shedder=False
    )
    assert codes_of(report) == {"GS-SLO002"}


def test_slo002_negative(catalog):
    policy = SLOPolicy(max_lag_s=1e9, escalate_shedding=True)
    report = analyze(
        "reflectance(goes.vis)", catalog, slo=policy, has_ingest_shedder=True
    )
    assert "GS-SLO002" not in codes_of(report)


# -- DAG invariants (GS-DAG001..004) against a live server ------------------------


def make_server():
    _, cat = build_demo_catalog(seed=7, n_frames=2, width=96, height=48)
    server = DSMSServer(cat)
    server.register("stretch(reflectance(goes.vis), 'linear')", encode_png=False)
    server.register("vrange(reflectance(goes.vis), 0.0, 0.4)", encode_png=False)
    return server


def terminal_edges(dag):
    for stage in dag.order:
        for edge in stage.outputs:
            if edge.stage is None and edge.sink is not None:
                yield edge
    for edges in dag.taps.values():
        for edge in edges:
            if edge.stage is None and edge.sink is not None:
                yield edge


def test_dag_healthy_server_selfchecks_clean():
    server = make_server()
    report = server.selfcheck()
    assert report.ok and len(report) == 0


def test_dag001_stale_fingerprint_index():
    server = make_server()
    server.plan_dag._by_fingerprint["deadbeef"] = server.plan_dag.order[0]
    assert codes_of(server.selfcheck()) == {"GS-DAG001"}


def test_dag002_dangling_edge_target():
    server = make_server()
    dag = server.plan_dag
    target = None
    for stage in dag.order:
        for edge in stage.outputs:
            if edge.stage is not None:
                target = edge.stage
    assert target is not None
    dag.order.remove(target)
    assert "GS-DAG002" in codes_of(check_dag(dag))


def test_dag002_edge_without_target_or_sink():
    server = make_server()
    server.plan_dag.order[0].outputs.append(Edge())
    assert codes_of(check_dag(server.plan_dag)) == {"GS-DAG002"}


def test_dag003_orphaned_subscriber():
    server = make_server()
    server.plan_dag.order[0].subscribers.add(9999)
    # A bogus subscriber is both a refcount and an epoch-ownership drift.
    assert codes_of(server.selfcheck()) == {"GS-DAG003", "GS-DAG005"}


def test_dag003_unsubscribed_stage():
    server = make_server()
    server.plan_dag.order[0].subscribers.clear()
    # No subscribers, no epoch owners, and the committed epoch's stage
    # set no longer matches what the query actually subscribes to.
    assert codes_of(server.selfcheck()) == {"GS-DAG003", "GS-DAG005", "GS-DAG006"}


def test_dag004_terminal_edge_without_roots():
    server = make_server()
    edges = list(terminal_edges(server.plan_dag))
    assert edges
    for edge in edges:
        edge.roots.clear()
    assert codes_of(server.selfcheck()) == {"GS-DAG004"}


def test_dag_negative_check_dag_with_registrations():
    server = make_server()
    registrations = {
        reg_id: list(reg.stages) for reg_id, reg in server._registrations.items()
    }
    report = check_dag(server.plan_dag, registrations)
    assert report.ok and len(report) == 0


def test_check_server_reports_slo002():
    server = make_server()
    server.set_slo(SLOPolicy(max_lag_s=1e9, escalate_shedding=True))
    assert "GS-SLO002" in codes_of(check_server(server))


# -- server surfacing: strict registration ----------------------------------------


def test_register_query_strict_rejects_bad_query():
    server = make_server()
    with pytest.raises(QueryAnalysisError) as excinfo:
        server.register_query("vrange(reflectance(goes.vis), 2.0, 3.0)")
    assert "GS-VAL003" in excinfo.value.report.codes()


def test_register_query_strict_allows_warnings():
    server = make_server()
    session = server.register_query("vrange(reflectance(goes.vis), -1.0, 2.0)")
    assert session is not None  # GS-VAL005 is a warning, not an error


def test_register_default_is_lenient():
    server = make_server()
    # Unsatisfiable but syntactically valid: default registration accepts it.
    session = server.register("vrange(reflectance(goes.vis), 2.0, 3.0)")
    assert session is not None


def test_analyze_query_uses_server_context():
    server = make_server()
    server.set_slo(SLOPolicy(max_lag_s=1e9, escalate_shedding=True))
    report = server.analyze_query("reflectance(goes.vis)")
    assert "GS-SLO002" in report.codes()


# -- CLI: repro check / explain --check -------------------------------------------


def test_cli_check_clean_query_exits_zero(capsys):
    assert main(["check", CLEAN_QUERY]) == 0
    assert "analyzes clean" in capsys.readouterr().out


def test_cli_check_error_exits_one(capsys):
    assert main(["check", "vrange(reflectance(goes.vis), 2.0, 3.0)"]) == 1
    out = capsys.readouterr().out
    assert "GS-VAL003" in out


def test_cli_check_strict_promotes_warnings(capsys):
    warn_query = "vrange(reflectance(goes.vis), -1.0, 2.0)"
    assert main(["check", warn_query]) == 0
    assert main(["check", "--strict", warn_query]) == 1


def test_cli_check_json_output(capsys):
    assert main(["check", "--json", "reflectance(goes.missing)"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["errors"] == 1
    assert payload["diagnostics"][0]["code"] == "GS-REF001"


def test_cli_check_slo_budget(capsys):
    assert main(["check", "--strict", "--slo", "1e-9", CLEAN_QUERY]) == 1
    assert "GS-SLO001" in capsys.readouterr().out


def test_cli_explain_check_gate(capsys):
    assert main(["explain", "--check", CLEAN_QUERY]) == 0
    assert main(["explain", "--check", "during(reflectance(goes.vis), 5.0, 5.0)"]) == 1


# -- diagnostics framework --------------------------------------------------------


def test_diagnostic_rejects_undocumented_code():
    with pytest.raises(ValueError):
        Diagnostic(code="GS-XXX999", severity=Severity.ERROR, message="nope")


def test_every_code_has_category_example_and_hint():
    categories = set()
    for code, info in CODES.items():
        assert info.code == code
        assert info.title and info.example and info.hint
        categories.add(info.category)
    # The five families the ISSUE requires the checker to span.
    assert {"crs", "value", "satisfiability", "slo", "dag"} <= categories


def test_severity_ordering():
    assert Severity.INFO < Severity.WARNING < Severity.ERROR
    assert Severity.WARNING <= Severity.WARNING


def test_report_render_includes_span_caret(catalog):
    report = analyze("vrange(reflectance(goes.vis), 2.0, 3.0)", catalog)
    rendered = report.render()
    assert "GS-VAL003" in rendered
    assert "^" in rendered  # source-span caret under the offending term
    assert "error" in rendered


def test_report_exit_codes():
    warn = Diagnostic(code="GS-VAL005", severity=Severity.WARNING, message="w")
    err = Diagnostic(code="GS-VAL002", severity=Severity.ERROR, message="e")
    assert DiagnosticReport(()).exit_code() == 0
    assert DiagnosticReport((warn,)).exit_code() == 0
    assert DiagnosticReport((warn,)).exit_code(strict=True) == 1
    assert DiagnosticReport((err,)).exit_code() == 1


def test_worked_example_analyzes_clean(catalog):
    report = analyze(WORKED_QUERY, catalog, slo=1e9)
    assert report.ok and len(report) == 0


# -- soundness against execution: proven-empty => nothing delivered ---------------

# goes.vis rotated 45° about the frame centre; the box sits just above the
# unrotated frame but inside the rotated corners, so it does see points.
ROTATED_ABOVE_QUERY = (
    "within(rotate(goes.vis, 45), "
    "bbox(1300000, 4450000, 1700000, 4550000, crs='geos:-135'))"
)
# The left 40 % of vis composed with the right 40 % of nir: composition
# only pairs chunks with identical lattice windows, so nothing matches.
DISJOINT_COMPOSE_QUERY = (
    "within(goes.vis, bbox(349120, 3028213, 1262000, 4430450, crs='geos:-135')) + "
    "within(goes.nir, bbox(1720000, 3028213, 2632276, 4430450, crs='geos:-135'))"
)


def delivered_points(tree, catalog):
    from repro.query import plan_query

    return sum(c.n_points for c in plan_query(tree, catalog.get).collect_chunks())


def test_rotate_extent_is_not_the_child_extent(catalog):
    from repro.query import parse_query

    assert analyze(ROTATED_ABOVE_QUERY, catalog).ok
    server = DSMSServer(catalog)
    assert server.register_query(ROTATED_ABOVE_QUERY, encode_png=False) is not None
    assert delivered_points(parse_query(ROTATED_ABOVE_QUERY), catalog) > 0


def test_sat001_compose_of_disjoint_extents(catalog):
    from repro.query import estimate_query, parse_query

    report = analyze(DISJOINT_COMPOSE_QUERY, catalog)
    assert codes_of(report) == {"GS-SAT001"}
    (diag,) = report.diagnostics
    assert diag.node == "Compose(+)"
    tree = parse_query(DISJOINT_COMPOSE_QUERY)
    assert delivered_points(tree, catalog) == 0
    assert estimate_query(tree, catalog.profiles())[0].points == 0.0


def _strategy_catalog():
    from repro.server import StreamCatalog

    from tests.strategies import BOX, SOURCES

    cat = StreamCatalog()
    for stream in SOURCES.values():
        cat.register(stream, BOX)
    return cat


def _box_above_sector():
    from repro.geo import BoundingBox

    from tests.strategies import BOX

    return BoundingBox(
        BOX.xmin + 0.4 * BOX.width,
        BOX.ymax + 0.02 * BOX.height,
        BOX.xmin + 0.6 * BOX.width,
        BOX.ymax + 0.1 * BOX.height,
        BOX.crs,
    )


_UNSATISFIABLE = ("GS-SAT", "GS-VAL003")


@hyp.seed(20261015)
@hyp.settings(
    max_examples=40,
    deadline=None,
    database=None,
    suppress_health_check=[hyp.HealthCheck.too_slow],
)
@hyp.given(
    tree=tree_strategy(),
    angle=st.one_of(st.none(), st.sampled_from([30.0, 45.0, 90.0])),
    region=st.one_of(st.none(), region_strategy()),
)
@hyp.example(tree=q.StreamRef("goes.vis"), angle=45.0, region=_box_above_sector())
def test_proven_empty_delivers_nothing(tree, angle, region):
    """Analyzer soundness: an unsatisfiability error means no point arrives."""
    if angle is not None:
        tree = q.Rotate(tree, angle)
    if region is not None:
        tree = q.SpatialRestrict(tree, region)
    catalog = _strategy_catalog()
    report = analyze(tree, catalog)
    if any(d.code.startswith(_UNSATISFIABLE) for d in report.errors):
        assert delivered_points(tree, catalog) == 0, report.render()
