"""Every way of running a corpus query delivers the recorded chunks.

The fixture ``fixtures/executor_gate.json`` holds, for every clean query
of the golden corpus (``tests/types_corpus.py``: no error diagnostic, a
plan with at least one operator), one SHA-256 over the chunk sequence
:func:`~repro.query.planner.plan_query` produces on the demo catalog and
one over the frames those chunks assemble into. Three paths must
reproduce them:

* ``plan_query`` itself, chunk by chunk: values bytes, dtype and shape,
  ``row0``/``col0``, ``t``, ``sector``, ``last_in_frame``, the chunk's
  lattice and its frame's id and lattice;
* one DSMS with every query registered at once (the shared plan DAG),
  frame by frame;
* ``plan_query`` over archive replays of both scans
  (``write_archive`` -> ``register_archive``), on a seeded subset.

The digests were recorded by the executor that lowered a plan into
chained generators, before plans ran on the shared DAG; record them again
(only on a commit whose answers are the reference) with::

    PYTHONPATH=src python -m tests.test_executor_gate
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.core.chunk import GridChunk
from repro.core.image import assemble_frames
from repro.query import parse_query
from repro.query.planner import plan_query
from repro.server import DSMSServer, StreamCatalog

from tests.types_corpus import FIXTURE as CORPUS
from tests.types_corpus import demo_catalog

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "executor_gate.json"
ARCHIVE_SUBSET = 40
ARCHIVE_SEED = 37


def clean_queries() -> list[str]:
    """Corpus queries with no error diagnostic and at least one operator."""
    entries = json.loads(CORPUS.read_text())["entries"]
    return [
        e["query"]
        for e in entries
        if isinstance(e["plan"], list)
        and len(e["plan"]) > 1
        and not any(d[1] == "error" for d in e["diagnostics"])
    ]


def _lattice(lattice) -> str:
    return repr(
        (lattice.crs.name, lattice.x0, lattice.y0, lattice.dx, lattice.dy,
         lattice.width, lattice.height)
    )


def _array(h, values) -> None:
    h.update(f"{values.dtype.str}{values.shape}".encode())
    h.update(values.tobytes())


def chunk_digest(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        _array(h, c.values)
        if isinstance(c, GridChunk):
            frame = (
                None if c.frame is None else (c.frame.frame_id, _lattice(c.frame.lattice))
            )
            h.update(
                repr((c.row0, c.col0, c.t, c.sector, c.last_in_frame,
                      _lattice(c.lattice), frame)).encode()
            )
        else:
            _array(h, c.x)
            _array(h, c.y)
            _array(h, c.t)
            h.update(repr((c.sector, c.crs.name)).encode())
    return h.hexdigest()


def frame_digest(images) -> str:
    h = hashlib.sha256()
    for image in images:
        _array(h, image.values)
        h.update(repr((image.t, image.sector, _lattice(image.lattice))).encode())
    return h.hexdigest()


def run_query(text: str, catalog) -> tuple[str, str]:
    stream = plan_query(parse_query(text), catalog.get)
    chunks = stream.collect_chunks()
    return chunk_digest(chunks), frame_digest(assemble_frames(iter(chunks)))


def archive_subset(queries: list[str]) -> list[str]:
    return sorted(random.Random(ARCHIVE_SEED).sample(queries, ARCHIVE_SUBSET))


def record() -> None:
    catalog = demo_catalog()
    queries = clean_queries()
    digests = {}
    for text in queries:
        chunks, frames = run_query(text, catalog)
        digests[text] = {"chunks": chunks, "frames": frames}
    payload = {
        "catalog": "build_demo_catalog(seed=7, n_frames=2, width=96, height=48)",
        "digests": digests,
    }
    FIXTURE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(digests)} query digests to {FIXTURE}")


# -- the gate -------------------------------------------------------------------------

RECORDED = json.loads(FIXTURE.read_text())["digests"] if FIXTURE.exists() else {}


def test_fixture_covers_the_clean_corpus():
    assert sorted(RECORDED) == sorted(clean_queries())
    assert len(RECORDED) > 200


def test_plan_query_chunks_match_the_recorded_digests():
    catalog = demo_catalog()
    wrong = [
        text for text in RECORDED
        if run_query(text, catalog) != (RECORDED[text]["chunks"], RECORDED[text]["frames"])
    ]
    assert wrong == []


def test_one_shared_dsms_delivers_the_recorded_frames():
    server = DSMSServer(demo_catalog(), optimize_queries=False)
    sessions = {text: server.register(text, encode_png=False) for text in RECORDED}
    server.run()
    wrong = [
        text for text, session in sessions.items()
        if frame_digest(f.image for f in session.frames) != RECORDED[text]["frames"]
    ]
    assert wrong == []


def test_archive_replay_matches_the_live_scan(tmp_path):
    from repro.io import write_archive

    live = demo_catalog()
    replay = StreamCatalog()
    for sid in live.ids():
        path = tmp_path / f"{sid.replace('.', '_')}.gsar"
        write_archive(live.get(sid), path)
        replay.register_archive(path)
    wrong = [
        text for text in archive_subset(sorted(RECORDED))
        if run_query(text, replay)[0] != RECORDED[text]["chunks"]
    ]
    assert wrong == []


if __name__ == "__main__":
    record()
