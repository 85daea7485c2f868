"""Query AST structure and the textual query language."""

import pytest

from repro.core import RecurringInterval, TimeInterval
from repro.errors import QueryError, QuerySyntaxError
from repro.geo import BoundingBox, ConstraintRegion, PolygonRegion, utm
from repro.query import ast as q, parse_query, resolve_crs


class TestASTBasics:
    def test_children_and_with_children(self):
        tree = q.SpatialRestrict(q.StreamRef("s"), BoundingBox(0, 0, 1, 1))
        assert tree.children == (q.StreamRef("s"),)
        new = tree.with_children(q.StreamRef("t"))
        assert new.children == (q.StreamRef("t"),)
        assert new.region == tree.region

    def test_with_children_arity_checked(self):
        tree = q.Compose(q.StreamRef("a"), q.StreamRef("b"), "+")
        with pytest.raises(QueryError):
            tree.with_children(q.StreamRef("x"))

    def test_walk_preorder(self):
        tree = q.Compose(
            q.ValueMap(q.StreamRef("a"), "negate"),
            q.StreamRef("b"),
            "-",
        )
        kinds = [type(n).__name__ for n in q.walk(tree)]
        assert kinds == ["Compose", "ValueMap", "StreamRef", "StreamRef"]

    def test_equality_structural(self):
        a = q.Stretch(q.StreamRef("s"), "linear")
        b = q.Stretch(q.StreamRef("s"), "linear")
        assert a == b
        assert a != q.Stretch(q.StreamRef("s"), "equalize")

    def test_pretty_renders_tree(self):
        tree = q.Reproject(q.StreamRef("goes.vis"), utm(10))
        text = tree.pretty()
        assert "Reproject" in text and "goes.vis" in text

    def test_value_map_param_lookup(self):
        vm = q.ValueMap(q.StreamRef("s"), "rescale", (("gain", 2.0),))
        assert vm.param("gain") == 2.0
        assert vm.param("offset", 0.0) == 0.0
        with pytest.raises(QueryError):
            vm.param("missing")


class TestResolveCrs:
    def test_named_crs(self):
        assert resolve_crs("latlon").is_geographic
        assert resolve_crs("utm:10") == utm(10)
        assert resolve_crs("utm:33S") == utm(33, north=False)
        assert resolve_crs("geos:-75").name.startswith("geos")
        assert resolve_crs("plate_carree").units == "meter"

    def test_case_insensitive(self):
        assert resolve_crs("UTM:10N") == utm(10)

    def test_unknown_rejected(self):
        with pytest.raises(QuerySyntaxError):
            resolve_crs("epsg:4326")
        with pytest.raises(QuerySyntaxError):
            resolve_crs("utm:xx")


class TestParserExpressions:
    def test_stream_ref(self):
        assert parse_query("goes.vis") == q.StreamRef("goes.vis")

    def test_infix_composition(self):
        tree = parse_query("goes.nir - goes.vis")
        assert tree == q.Compose(q.StreamRef("goes.nir"), q.StreamRef("goes.vis"), "-")

    def test_precedence(self):
        tree = parse_query("a + b * c")
        assert isinstance(tree, q.Compose) and tree.gamma == "+"
        assert isinstance(tree.right, q.Compose) and tree.right.gamma == "*"

    def test_parentheses(self):
        tree = parse_query("(a + b) * c")
        assert tree.gamma == "*"
        assert tree.left.gamma == "+"

    def test_ndvi_expression_shape(self):
        """The paper's (G1 - G2) / (G2 + G1)."""
        tree = parse_query("(g1 - g2) / (g2 + g1)")
        assert tree.gamma == "/"
        assert tree.left.gamma == "-" and tree.right.gamma == "+"

    def test_stream_by_constant_becomes_rescale(self):
        tree = parse_query("goes.vis / 1023.0")
        assert isinstance(tree, q.ValueMap)
        assert tree.kind == "rescale"
        assert tree.param("gain") == pytest.approx(1 / 1023.0)

    def test_constant_folding(self):
        tree = parse_query("rescale(goes.vis, 2 * 3, 1 + 1)")
        assert tree.param("gain") == 6.0
        assert tree.param("offset") == 2.0

    def test_unary_minus_stream(self):
        tree = parse_query("-goes.vis")
        assert isinstance(tree, q.ValueMap)
        assert tree.param("gain") == -1.0

    def test_negative_number_literal(self):
        tree = parse_query("goes.vis + -5")
        assert tree.param("offset") == -5.0

    def test_binary_minus_after_ref(self):
        tree = parse_query("a-5")
        assert isinstance(tree, q.ValueMap)
        assert tree.param("offset") == -5.0

    def test_constant_over_stream_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("5 / goes.vis")

    def test_bare_number_not_a_query(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("42")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("goes.vis goes.nir")

    def test_unclosed_paren(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("(goes.vis")


class TestParserFunctions:
    def test_within_bbox(self):
        tree = parse_query("within(goes.vis, bbox(0, 0, 10, 5, crs='latlon'))")
        assert isinstance(tree, q.SpatialRestrict)
        assert isinstance(tree.region, BoundingBox)
        assert tree.region.xmax == 10.0

    def test_within_polygon(self):
        tree = parse_query("within(s, polygon(0,0, 4,0, 0,4))")
        assert isinstance(tree.region, PolygonRegion)

    def test_within_disk(self):
        tree = parse_query("within(s, disk(1, 2, 3))")
        assert isinstance(tree.region, ConstraintRegion)

    def test_during(self):
        tree = parse_query("during(s, 100, 200)")
        assert isinstance(tree, q.TemporalRestrict)
        assert isinstance(tree.timeset, TimeInterval)
        assert not tree.on_sector
        assert tree.timeset.contains_scalar(150.0)
        assert not tree.timeset.contains_scalar(200.0)  # end-exclusive

    def test_sectors(self):
        tree = parse_query("sectors(s, 2, 5)")
        assert tree.on_sector
        assert tree.timeset.contains_scalar(5.0)  # inclusive

    def test_daily(self):
        tree = parse_query("daily(s, 36000, 50400)")
        assert isinstance(tree.timeset, RecurringInterval)

    def test_vrange(self):
        tree = parse_query("vrange(s, 0.2, 0.8)")
        assert isinstance(tree, q.ValueRestrict)
        assert tree.lo == 0.2 and tree.hi == 0.8

    def test_stretch_variants(self):
        assert parse_query("stretch(s)").kind == "linear"
        assert parse_query("stretch(s, 'gaussian')").kind == "gaussian"
        assert parse_query("equalize(s)").kind == "equalize"
        assert parse_query("gaussian(s)").kind == "gaussian"

    def test_reflectance(self):
        tree = parse_query("reflectance(s, 8)")
        assert isinstance(tree, q.ValueMap)
        assert tree.param("bits") == 8.0

    def test_zoom_and_rotate(self):
        assert parse_query("magnify(s, 3)").k == 3
        assert parse_query("coarsen(s, 4)").k == 4
        assert parse_query("rotate(s, 45)").angle_deg == 45.0

    def test_reproject(self):
        tree = parse_query("reproject(s, 'utm:10')")
        assert isinstance(tree, q.Reproject)
        assert tree.dst_crs == utm(10)
        assert tree.method == "bilinear"

    def test_reproject_method_kwarg(self):
        tree = parse_query("reproject(s, 'utm:10', method='bicubic')")
        assert tree.method == "bicubic"

    def test_macros(self):
        tree = parse_query("ndvi(goes.nir, goes.vis)")
        assert isinstance(tree, q.Compose) and tree.gamma == "ndvi"
        assert parse_query("evi2(a, b)").gamma == "evi2"
        assert parse_query("sup(a, b)").gamma == "sup"

    def test_aggregates(self):
        tree = parse_query("tagg(s, 'max', 4, mode='tumbling')")
        assert isinstance(tree, q.TemporalAgg)
        assert (tree.func, tree.window, tree.mode) == ("max", 4, "tumbling")
        tree = parse_query("ragg(s, 'mean', 'roi', bbox(0,0,1,1))")
        assert isinstance(tree, q.RegionAgg)
        assert tree.regions[0][0] == "roi"

    def test_nested_paper_example(self):
        text = (
            "within(reproject(stretch(ndvi(g1, g2), 'linear'), 'utm:10'),"
            " bbox(500000, 4200000, 700000, 4400000, crs='utm:10'))"
        )
        tree = parse_query(text)
        kinds = [type(n).__name__ for n in q.walk(tree)]
        assert kinds == ["SpatialRestrict", "Reproject", "Stretch", "Compose", "StreamRef", "StreamRef"]

    def test_unknown_function_lists_available(self):
        with pytest.raises(QuerySyntaxError, match="available"):
            parse_query("frobnicate(s)")

    def test_kwarg_after_positional_only(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("bbox(crs='latlon', 0, 0, 1, 1)")

    def test_wrong_arity_messages(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("within(s)")
        with pytest.raises(QuerySyntaxError):
            parse_query("ndvi(a)")
        with pytest.raises(QuerySyntaxError):
            parse_query("bbox(1, 2, 3)")
