"""Tests of the benchmark harness itself (``PYTHONPATH=src pytest benchmarks/dsms -q``).

Not collected by the tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import benchenv
import harness as H
import metrics as M
import pytest
import spans as S
from compare import verdict
from workloads import WORKLOADS, prepare

from repro.server import ClientSession


@pytest.fixture(scope="module")
def prep():
    return prepare("mixed_rows", 7)


# -- percentiles ------------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert H.percentile(values, 0.50) == 50
    assert H.percentile(values, 0.95) == 95
    assert H.percentile([3.0], 0.95) == 3.0


def test_a_percentile_needs_ten_samples_beyond_it():
    assert H.samples_beyond(100, 0.95) == 5
    assert not H.supports_percentile(199, 0.95)
    assert H.supports_percentile(M.P95_MIN_SAMPLES, 0.95)
    # the smallest workload of a default run: 32 results x 2 passes x 5 rounds
    smallest = min(len(w.population(None, 7)) * w.frames * w.passes_per_round * 5
                   for w in WORKLOADS.values() if w.name in ("warp_frames", "deliver_rows"))
    assert smallest == 320 and H.supports_percentile(smallest, 0.95)


# -- spans and self time ------------------------------------------------------------------


def test_self_time_is_duration_minus_direct_children():
    closing_order = [
        ("leaf", 2.0, 3.0),
        ("child", 1.0, 4.0),  # holds leaf
        ("child", 5.0, 7.0),
        ("parent", 0.0, 8.0),  # holds both children
        (S.ROOT, 0.0, 10.0),
    ]
    linked = S.link(closing_order)
    assert [(name, parent) for _, parent, name, _, _ in linked] == [
        ("leaf", 1), ("child", 3), ("child", 3), ("parent", 4), (S.ROOT, S.NO_PARENT),
    ]
    assert S.self_times(closing_order) == {
        "leaf": 1.0, "child": 2.0 + 2.0, "parent": 8.0 - 3.0 - 2.0, S.ROOT: 2.0,
    }


class _Toy:
    name = "toy"

    def outer(self, n):
        return sum(self.steps(n))

    def steps(self, n):
        for i in range(n):
            yield self.inner(i)

    def inner(self, i):
        return i


def test_wrappers_time_generators_across_next_and_nest():
    ticks = itertools.count()
    tracer = S.SpanTracer(clock=lambda: float(next(ticks)))  # every read advances time by 1
    targets = [(f"{__name__}:_Toy", "outer", "plan.outer"),
               (f"{__name__}:_Toy", "steps", S.OPERATOR),
               (f"{__name__}:_Toy", "inner", "index.inner")]
    before = dict(_Toy.__dict__)
    with tracer.installed(targets), tracer.root():
        assert _Toy().outer(3) == 3
    assert dict(_Toy.__dict__) == before  # originals restored
    trace = tracer.take()
    names = [name for name, _, _ in trace.spans]
    # one span per __next__ of the generator (3 values + exhaustion), one call
    assert names.count("operators.toy") == 4 and trace.calls["operators.toy"] == 1
    assert names.count("index.inner") == 3 and trace.calls["index.inner"] == 3
    assert [op.name for op in trace.operators] == ["toy"]
    linked = S.link(trace.spans)
    parent_name = {sid: name for sid, _, name, _, _ in linked}
    for _, parent, name, _, _ in linked:
        expected = {"index.inner": "operators.toy", "operators.toy": "plan.outer",
                    "plan.outer": S.ROOT}.get(name)
        assert parent_name.get(parent) == expected
    self_s = S.self_times(trace.spans)
    root = next(t1 - t0 for name, t0, t1 in trace.spans if name == S.ROOT)
    assert sum(self_s.values()) == pytest.approx(root)
    assert sum(S.layer_seconds(self_s).values()) == pytest.approx(root)


def test_missing_entry_points_give_null_not_a_crash():
    tracer = S.SpanTracer()
    with tracer.installed([("repro.no_such_module:Gone", "run", "dsms.run"),
                           ("repro.server.dsms:DSMSServer", "no_such_method", "dsms.register")]):
        pass
    assert tracer.available == set() and len(tracer.missing) == 2
    trace = tracer.take()
    assert trace.seconds({}, "dsms.run") is None and trace.count("dsms.register") is None


def test_class_attributes_are_restored_after_a_traced_pass(prep):
    def snapshot():
        return {**S.class_attributes(),
                **{name: ClientSession.__dict__[name] for name in ("receive", "close")}}

    before = snapshot()
    tracer = S.SpanTracer()
    result = H.run_pass(prep, tracer=tracer)
    after = snapshot()
    assert result.error is None and tracer.take().spans
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)
    S.assert_untraced()


def test_untraced_passes_refuse_to_run_under_span_wrappers(prep):
    with S.SpanTracer().installed():
        with pytest.raises(RuntimeError, match="span wrapper"):
            H.run_pass(prep)


# -- failed_share -------------------------------------------------------------------------


def test_a_clean_pass_fails_nothing_and_matches_the_reference(prep):
    ledger = H.Ledger(prep)
    ledger.add(H.run_pass(prep))
    ledger.add_verification(H.run_pass(prep))
    assert (ledger.failed, ledger.attempted) == (0, 2 * prep.expected_results)
    assert len(ledger.latencies_ms) == prep.expected_results == 96


def test_a_corrupted_frame_raises_failed_share(prep):
    result = H.run_pass(prep)
    result.sessions[0].frames[1].image.values[0, 0] += 1
    assert any("frame 1 differs" in p for p in H.verify(prep, result))
    ledger = H.Ledger(prep)
    ledger.add(H.run_pass(prep))
    ledger.add(result)  # digest no longer the first pass's: all its results fail
    assert ledger.failed_share == 0.5


def test_a_dropped_frame_raises_failed_share(prep):
    result = H.run_pass(prep)
    del result.sessions[0].frames[3]
    assert H.count_failures(prep, result) >= 1
    ledger = H.Ledger(prep)
    ledger.add(result)
    assert ledger.failed_share > 0 and not ledger.walls


def test_a_raising_pass_fails_all_its_results(prep):
    broken = dataclasses.replace(prep, texts=[*prep.texts, "reflectance(goes.no_such_band)"])
    result = H.run_pass(broken)
    assert "unknown stream" in result.error
    ledger = H.Ledger(broken)
    ledger.add(result)
    assert ledger.failed_share == 1.0


# -- seeds ----------------------------------------------------------------------------------


def test_the_seed_decides_regions_and_digest(prep):
    def digest(p):
        return H.pass_digest(H.run_pass(p).sessions)

    again, other = prepare("mixed_rows", 7), prepare("mixed_rows", 8)
    assert again.texts == prep.texts and other.texts != prep.texts
    assert digest(again) == digest(prep) != digest(other)
    for name in ("mixed_rows", "fanout_rows"):
        sector = prep.scan.sector
        assert WORKLOADS[name].population(sector, 7) != WORKLOADS[name].population(sector, 8)


# -- the contract and the comparison ------------------------------------------------------


def test_benchmark_json_names_exactly_what_the_harness_emits():
    contract = json.loads((benchenv.REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(contract) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert contract["end_to_end"] == [dataclasses.asdict(m) for m in M.END_TO_END]
    assert contract["per_layer"] == [
        {"name": name, "unit": M.unit_of(name), "better": M.better_of(name)} for name in M.PER_LAYER
    ]
    assert len(M.PER_LAYER) == len(set(M.PER_LAYER)) <= 128


def test_compare_verdicts():
    rate = next(m for m in M.END_TO_END if m.name == "points_per_s")
    worse_by = 100.0 * (1 - rate.bound)
    assert verdict(rate, 100.0, worse_by - 1, None) == "worse"
    assert verdict(rate, 100.0, worse_by + 1, 0.02) == "within bound"
    assert verdict(rate, 100.0, 120.0, 0.02) == "better"
    assert verdict(rate, 100.0, worse_by + 1, rate.bound + 0.05) == "unresolved"  # spread > bound
    assert verdict(M.FAILED_SHARE, 0.0, 0.01, None) == "worse"
    assert verdict(M.FAILED_SHARE, 0.0, 0.0, None) == "within bound"
