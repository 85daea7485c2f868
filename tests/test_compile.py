"""One compile step: every way of running a query runs the same plan.

``compile_query`` is the only path from a query tree to a plan. These
tests pin that the DSMS, the pull path ``repro query``/``replay`` runs,
and ``repro explain`` agree on that plan — over the whole golden corpus
by fingerprint, and on a few witnesses frame for frame.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.ingest import GOESImager, western_us_sector
from repro.plan import compile_query, plan_to_stream
from repro.query import parse_query
from repro.server import DSMSServer, StreamCatalog

from tests.conftest import DAY_T0, sector_subbox
from tests.types_corpus import FIXTURE, demo_catalog

SMALL = ["--sector", "96", "48", "--frames", "2", "--seed", "7"]
NDVI = "ndvi(reflectance(goes.nir), reflectance(goes.vis))"


def pull_frames(text, catalog):
    """What ``repro query`` runs without observers: compile, then lower."""
    compiled = compile_query(parse_query(text), catalog)
    return plan_to_stream(compiled.plan, catalog.get).collect_frames()


def push_run(text, catalog):
    """Register ``text`` with a fresh DSMS, run the scan; (plan, frames)."""
    server = DSMSServer(catalog)
    session = server.register(text)
    server.run()
    registration = server._registrations[server._session_to_reg[session.session_id]]
    return registration.compiled.plan, session.frames


def assert_same_frames(pulled, pushed):
    assert len(pulled) == len(pushed) > 0
    for image, delivered in zip(pulled, pushed):
        assert image.values.shape == delivered.image.values.shape
        np.testing.assert_array_equal(image.values, delivered.image.values)


def explained_plan(text, capsys):
    """The physical-plan block ``repro explain`` prints, and the whole output."""
    assert main(["explain", text, *SMALL]) == 0
    out = capsys.readouterr().out
    block = out.split("physical plan (canonical, subplan fingerprints):\n", 1)[1]
    return block.split("\n\n", 1)[0], out


def box_text(imager, fx0, fy0, fx1, fy1):
    box = sector_subbox(imager, fx0, fy0, fx1, fy1)
    return f"bbox({box.xmin!r}, {box.ymin!r}, {box.xmax!r}, {box.ymax!r}, crs='geos:-135')"


@pytest.fixture()
def mixed_policy_catalog(scene, geos_crs):
    """``goes.vis`` matched by scan sector, ``goes.nir`` by measured time."""
    sector = western_us_sector(geos_crs, width=96, height=48)
    catalog = StreamCatalog()
    for band, policy in (("vis", "sector"), ("nir", "measured")):
        imager = GOESImager(
            scene=scene,
            sector_lattice=sector,
            n_frames=2,
            t0=DAY_T0,
            timestamp_policy=policy,
        )
        catalog.register(imager.streams()[band], imager.sector_lattice.bbox)
    return catalog


def test_mixed_policies_deliver_the_same_frames_pull_and_push(mixed_policy_catalog):
    # The sources disagree, so every path matches compositions by sector.
    plan, pushed = push_run(NDVI, mixed_policy_catalog)
    assert plan.timestamp_policy == "sector"
    assert compile_query(parse_query(NDVI), mixed_policy_catalog).plan.fingerprint == (
        plan.fingerprint
    )
    assert_same_frames(pull_frames(NDVI, mixed_policy_catalog), pushed)


@pytest.mark.parametrize("inner", [
    "stretch(reflectance(goes.vis), 'linear')",
    "magnify(reflectance(goes.vis), 3)",
    "reflectance(goes.vis)",
])
def test_inexact_rewrites_apply_to_pull_and_push_alike(small_imager, catalog, inner):
    text = f"within({inner}, {box_text(small_imager, 0.2, 0.2, 0.6, 0.6)})"
    _, pushed = push_run(text, catalog)
    assert_same_frames(pull_frames(text, catalog), pushed)


def test_every_clean_corpus_query_compiles_to_one_plan(capsys):
    entries = json.loads(FIXTURE.read_text())["entries"]
    clean = [
        e["query"] for e in entries if not any(d[1] == "error" for d in e["diagnostics"])
    ]
    assert len(clean) >= 200
    catalog = demo_catalog()
    server = DSMSServer(catalog)
    for text in clean:
        session = server.register(text, encode_png=False)
        registered = server._registrations[server._session_to_reg[session.session_id]]
        compiled = compile_query(parse_query(text), catalog)
        assert registered.compiled.plan.fingerprint == compiled.plan.fingerprint, text
        explained, _ = explained_plan(text, capsys)
        assert explained == compiled.plan.pretty(indent=1, fingerprints=True), text


@pytest.mark.parametrize(("inner", "inexact"), [
    ("stretch(reflectance(goes.vis), 'linear')", "push-spatial-stretch"),
    ("reflectance(goes.vis)", "none"),
])
def test_explain_prints_the_compiled_plan_and_its_inexact_rewrites(
    small_imager, capsys, inner, inexact
):
    text = f"within({inner}, {box_text(small_imager, 0.2, 0.2, 0.6, 0.6)})"
    explained, out = explained_plan(text, capsys)
    rules_line, inexact_line = out.split("optimized (rules: ", 1)[1].splitlines()[:2]
    assert inexact_line == f"inexact: {inexact}"
    compiled = compile_query(parse_query(text), demo_catalog())
    assert rules_line == ", ".join(compiled.applied) + "):"
    assert explained == compiled.plan.pretty(indent=1, fingerprints=True)
