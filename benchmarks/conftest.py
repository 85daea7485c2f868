"""Benchmark harness support: the per-experiment claims table.

Each benchmark measures timing through pytest-benchmark *and* records the
paper-claim metrics (buffer high-water marks, point counts, speedups) in
a session-wide table printed in the terminal summary — that table is what
EXPERIMENTS.md's measured columns are transcribed from.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time
from dataclasses import dataclass, field

import pytest

from repro.core import GeoStream
from repro.geo import goes_geostationary
from repro.ingest import GOESImager, SyntheticEarth, western_us_sector

DAY_T0 = 72_000.0

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# The speed-up harness times production against tests/reference/.
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))
from tests.reference import reference_kernels  # noqa: E402

# Reduced-size mode for CI's bench-smoke job: set REPRO_BENCH_SMOKE=1 and
# benchmarks shrink their workloads (fewer queries, smaller sectors) while
# still exercising the full measurement + snapshot path.
BENCH_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def write_bench_snapshot(name: str, payload: dict) -> pathlib.Path:
    """Write a ``BENCH_<name>.json`` perf snapshot (repo root by default).

    The committed snapshots record the perf trajectory across PRs; CI's
    bench-smoke job regenerates them in reduced-size mode and uploads the
    result as a workflow artifact (override the directory with
    ``REPRO_BENCH_OUT``).
    """
    out_dir = pathlib.Path(os.environ.get("REPRO_BENCH_OUT", REPO_ROOT))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    record = {"experiment": name, "smoke": BENCH_SMOKE, "time_unix": time.time()}
    record.update(payload)
    path.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path

# Opt-in observability: set REPRO_OBS_SNAPSHOT=/path/to/file.jsonl and every
# benchmark runs with metrics + tracing enabled, appending one snapshot
# (meta/span/metric records labelled with the test id) per benchmark. E.g.
#   REPRO_OBS_SNAPSHOT=bench.jsonl pytest benchmarks/ --benchmark-only
_OBS_SNAPSHOT_ENV = "REPRO_OBS_SNAPSHOT"


@pytest.fixture(autouse=True)
def _obs_snapshot(request):
    path = os.environ.get(_OBS_SNAPSHOT_ENV)
    if not path:
        yield
        return
    from repro import obs

    with obs.observe(trace=True) as ob:
        yield
        lines = obs.snapshot_lines(
            tracer=ob.tracer, registry=ob.registry, label=request.node.nodeid
        )
    obs.write_jsonl(path, lines, append=True)


@dataclass
class ClaimRow:
    experiment: str
    metric: str
    value: str
    expectation: str
    ok: bool


@dataclass
class ClaimTable:
    rows: list[ClaimRow] = field(default_factory=list)

    def record(
        self, experiment: str, metric: str, value: object, expectation: str, ok: bool
    ) -> None:
        self.rows.append(ClaimRow(experiment, metric, str(value), expectation, ok))
        assert ok, f"{experiment} / {metric}: got {value}, expected {expectation}"


_TABLE = ClaimTable()


@pytest.fixture(scope="session")
def claims() -> ClaimTable:
    return _TABLE


@pytest.fixture(scope="session")
def scene() -> SyntheticEarth:
    return SyntheticEarth(seed=7)


@pytest.fixture(scope="session")
def geos_crs():
    return goes_geostationary(-135.0)


def make_imager(scene, geos_crs, width=96, height=48, n_frames=2, **kw) -> GOESImager:
    sector = western_us_sector(geos_crs, width=width, height=height)
    kw.setdefault("t0", DAY_T0)
    return GOESImager(scene=scene, sector_lattice=sector, n_frames=n_frames, **kw)


@pytest.fixture(scope="session")
def bench_imager(scene, geos_crs) -> GOESImager:
    return make_imager(scene, geos_crs)


# Production-vs-reference speedup harness (experiments E2-E4): the batch
# kernels in src/ against the per-point reference in tests/reference/
# (snapshot keys keep their historical names: oracle_s is the reference,
# columnar_s production). The stream is materialized once so both sides
# time *operator* cost, not the synthetic imager; best-of-N wall time is
# the noise floor, as in F6. Differential tests
# (tests/test_columnar_differential.py) already pin the two to
# bit-identical outputs and stats, so the benchmark only has to
# sanity-check the chunk count.
def columnar_speedup(imager, band: str, make_ops, repeats: int) -> dict:
    base = imager.stream(band)
    chunks = base.collect_chunks()
    meta = base.metadata

    def best_of() -> tuple[float, int]:
        best = float("inf")
        count = 0
        for _ in range(repeats):
            stream = GeoStream.from_chunks(meta, chunks).pipe(*make_ops())
            t0 = time.perf_counter()
            count = len(stream.collect_chunks())
            best = min(best, time.perf_counter() - t0)
        return best, count

    seconds = {}
    chunks_out = {}
    with reference_kernels():
        seconds[False], chunks_out[False] = best_of()
    seconds[True], chunks_out[True] = best_of()
    assert chunks_out[False] == chunks_out[True]
    return {
        "chunks_in": len(chunks),
        "chunks_out": chunks_out[True],
        "oracle_s": seconds[False],
        "columnar_s": seconds[True],
        "speedup": seconds[False] / seconds[True],
    }


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not _TABLE.rows:
        return
    tr = terminalreporter
    tr.section("paper-claim measurements (transcribed into EXPERIMENTS.md)")
    header = f"{'exp':<5} {'metric':<46} {'measured':>16} {'expected':<28} ok"
    tr.write_line(header)
    tr.write_line("-" * len(header))
    for row in _TABLE.rows:
        tr.write_line(
            f"{row.experiment:<5} {row.metric:<46.46} {row.value:>16.16} "
            f"{row.expectation:<28.28} {'Y' if row.ok else 'N'}"
        )
