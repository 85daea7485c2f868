"""The delivered-frame benchmark of the DSMS: one command, five workloads.

Two ways in:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process (what ``BENCHMARK.json`` names): set-up,
    warm-up, untraced passes for ``S`` seconds (with ``--trace 1``: half of
    ``S`` untraced, half traced, then the stand-alone layer calls), the
    reference check, and as the last line one JSON object with the
    end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.

``run.py [--seed 7] [--rounds 5] [--smoke] [--aa] [--trace-out spans.json]``
    Every workload. *Phase A*: one fresh process per workload (the form
    above, traced) gives ``setup_s``, ``peak_rss_mb``, the reference check
    and the layer table. *Phase B*: one process runs the workloads
    round-robin, so machine drift lands on every workload alike; the timing
    metrics are medians and percentiles over all Phase-B passes. Prints
    every metric by name with its unit and writes them to ``results.json``.
"""

import time

SCRIPT_START = time.perf_counter()  # set-up time counts from here: imports are part of it

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import harness as H  # noqa: E402  (fails here when there is no src/repro to measure)
import metrics as M  # noqa: E402
from spans import SpanTracer, link  # noqa: E402
from workloads import WORKLOADS, ScanCache, prepare  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170


# -- one workload in this process ---------------------------------------------------------


def measure_workload(
    name: str, seed: int, seconds: float, trace: bool, setup_samples: int,
    trace_out: str | None = None,
) -> dict:

    prep = prepare(name, seed)
    setup = [time.perf_counter() - SCRIPT_START]
    H.run_pass(prep)  # warm-up, discarded
    calibration_ms = H.calibration_probe_ms()

    ledger = H.Ledger(prep)
    unobserved_walls: list[float] = []
    plain_s = seconds / 2 if trace else seconds
    floor = max(2, math.ceil(M.P95_MIN_SAMPLES / prep.expected_results)) if not trace else 2
    started = time.perf_counter()
    while not ledger.failed and (
        len(ledger.walls) < floor or time.perf_counter() - started < plain_s
    ):
        ledger.add(H.run_pass(prep))
        if trace and prep.workload.observed:
            unobserved_walls.append(H.run_pass(prep, observed=False).wall_s)
    peak_rss_mb = H.peak_rss_mb()

    check = H.run_pass(prep)
    unobserved = H.run_pass(prep, observed=False) if prep.workload.observed else None
    ledger.add_verification(
        check, H.pass_digest(unobserved.sessions) if unobserved is not None else None
    )
    observation = check.observation

    per_layer = layers = None
    missing: list[str] = []
    spans_out = []
    if trace and ledger.walls:
        tracer = SpanTracer()
        per_pass, shares = [], []
        plain_wall_s = statistics.median(ledger.walls)
        started = time.perf_counter()
        while len(per_pass) < 2 or time.perf_counter() - started < seconds - plain_s:
            result = H.run_pass(prep, tracer=tracer)
            taken = tracer.take()
            metrics, share = H.pass_layer_metrics(result, taken, plain_wall_s)
            per_pass.append(metrics)
            shares.append(share)
            if trace_out:
                spans_out.extend(
                    {"pass": f"{name}/{len(per_pass)}", "id": sid, "parent": parent,
                     "name": span_name, "start": t0, "end": t1}
                    for sid, parent, span_name, t0, t1 in link(taken.spans)
                )
        missing = sorted(tracer.missing)
        per_layer = H.median_of_passes(per_pass)
        layers = H.median_of_passes(shares)
        per_layer.update(H.standalone_layers(prep))
        per_layer.update({
            "ingest.generate_s": prep.scan.generate_s,
            "ingest.points_per_s": prep.scan.points / prep.scan.generate_s,
            "ingest.chunks": float(prep.scan.chunks),
            "harness.cpu_wall_ratio": sum(ledger.cpus) / sum(ledger.walls),
            "harness.calibration_ms": calibration_ms,
            "obs.slowdown_ratio": (
                plain_wall_s / statistics.median(unobserved_walls) if unobserved_walls else None
            ),
        })
        per_layer.update(observation or dict.fromkeys(M.OBSERVATION_COUNTS))
    if trace_out:
        pathlib.Path(trace_out).write_text(json.dumps(spans_out))

    for _ in range(setup_samples - 1):
        setup.append(_setup_sample(name, seed))
    report = build_report(
        ledger, {"value": statistics.median(setup), "unit": "s", "samples": setup},
        {"value": peak_rss_mb, "unit": "MiB"},
    )
    report.update(seconds=seconds, trace=trace, per_layer=per_layer, layers=layers,
                  missing_entry_points=missing, calibration_ms=calibration_ms)
    return report


def build_report(ledger, setup_s: dict, peak_rss_mb: dict) -> dict:
    """Everything known about one workload: the three timing metrics come from
    the ledger's untraced passes, set-up time and memory from the process."""
    end_to_end = {
        "setup_s": setup_s, **ledger.end_to_end(), "peak_rss_mb": peak_rss_mb,
        "failed_share": {"value": ledger.failed_share, "unit": "ratio",
                         "failed": ledger.failed, "attempted": ledger.attempted},
    }
    return {
        "workload": ledger.prep.workload.name, "seed": ledger.prep.seed,
        "end_to_end": end_to_end, "per_layer": None, "layers": None,
        "digest": ledger.digest, "attempted": ledger.attempted, "failed": ledger.failed,
        "problems": ledger.problems[:10], "missing_entry_points": [],
    }


def _setup_sample(name: str, seed: int) -> float:
    """Set-up time of one more fresh process (script start -> workload ready)."""
    out = _child(["--workload", name, "--seed", str(seed), "--setup-only"])
    return float(out.strip().splitlines()[-1])


def _child(args: list[str]) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(args)} failed:\n{done.stdout}\n{done.stderr}")
    return done.stdout


def driver_line(report: dict) -> str:
    """The contract's last line: end-to-end metrics untraced, per-layer traced."""

    if report["trace"]:
        source, names = report["per_layer"] or {}, M.PER_LAYER
    else:
        source, names = report["end_to_end"], [m.name for m in M.END_TO_END]
    values = {}
    for name in names:
        entry = source.get(name)
        value = entry["value"] if isinstance(entry, dict) else entry
        # The contract wants a number: a layer whose entry points are gone
        # reads 0 here (and null, with the missing names, in the report).
        values[name] = {"value": 0.0 if value is None else value, "unit": M.unit_of(name)}
    complete = all(name in source for name in names)
    return json.dumps({
        "correct": report["failed"] == 0 and complete,
        "attempted": max(1, report["attempted"]),
        "failed": report["failed"],
        "metrics": values,
    })


# -- every workload --------------------------------------------------------------------------


def phase_a(name: str, seed: int, setup_samples: int, trace_out: str | None) -> dict:
    args = ["--workload", name, "--seed", str(seed), "--seconds", "2", "--trace", "1",
            "--setup-samples", str(setup_samples)]
    if trace_out:
        args += ["--trace-out", trace_out]
    for line in _child(args).splitlines():
        if line.startswith("report "):
            return json.loads(line[len("report "):])
    raise RuntimeError(f"phase A of {name} printed no report")


def phase_b(preps: dict, sets: int, rounds: int) -> tuple[list, list]:
    """Round-robin over the workloads; ``sets`` > 1 interleaves A/A sets per workload."""
    ledgers = [{name: H.Ledger(prep) for name, prep in preps.items()} for _ in range(sets)]
    calibration: list[list[float]] = [[] for _ in range(sets)]
    for prep in preps.values():
        H.run_pass(prep)  # warm-up, discarded
    for _ in range(rounds):
        for which in range(sets):
            calibration[which].append(H.calibration_probe_ms())
        for name, prep in preps.items():
            for which in range(sets):
                for _ in range(prep.workload.passes_per_round):
                    ledgers[which][name].add(H.run_pass(prep))
    return ledgers, calibration


def merge(report: dict, ledger, observed_ratio: float | None, calibration_ms: float) -> dict:
    """Phase A's process metrics and layer table + Phase B's timing metrics."""
    out = dict(report)
    attempted = report["attempted"] + ledger.attempted
    failed = report["failed"] + ledger.failed
    problems = [*report["problems"], *ledger.problems]
    if ledger.digest != report["digest"]:
        failed = attempted
        problems.append("phase A and phase B delivered different digests")
    out["end_to_end"] = {
        **report["end_to_end"], **ledger.end_to_end(),
        "failed_share": {"value": failed / attempted, "unit": "ratio",
                         "failed": failed, "attempted": attempted},
    }
    out.update(attempted=attempted, failed=failed, problems=problems[:10])
    out["per_layer"] = {
        **report["per_layer"], "obs.slowdown_ratio": observed_ratio,
        "harness.calibration_ms": calibration_ms,
        "harness.cpu_wall_ratio": sum(ledger.cpus) / sum(ledger.walls) if ledger.walls else None,
    }
    return out


def run_sets(args: argparse.Namespace, sets: int) -> tuple[list[dict], list[float]]:
    """``sets`` complete sets of numbers (1 normally, 2 for ``--aa``) and their calibration."""
    reports = [
        # An A/A verdict on setup_s needs the median of three; a plain run reports one.
        {name: phase_a(name, args.seed, 3 if sets > 1 else 1,
                       _trace_path(args.trace_out, name, which, sets))
         for name in WORKLOADS}
        for which in range(sets)
    ]
    cache = ScanCache()
    preps = {name: prepare(name, args.seed, cache) for name in WORKLOADS}
    ledgers, calibration = phase_b(preps, sets, args.rounds)
    results = []
    for which in range(sets):
        mine = ledgers[which]
        walls = {name: statistics.median(l.walls) for name, l in mine.items() if l.walls}
        ratio = (
            walls["mixed_rows_observed"] / walls["mixed_rows"]
            if {"mixed_rows", "mixed_rows_observed"} <= walls.keys() else None
        )
        results.append({
            name: merge(reports[which][name], mine[name],
                        ratio if WORKLOADS[name].observed else None,
                        statistics.median(calibration[which]))
            for name in WORKLOADS
        })
    return results, [statistics.median(c) for c in calibration]


def run_smoke(args: argparse.Namespace) -> dict[str, dict]:
    """One process, one untraced pass per workload, each checked against the reference."""
    cache = ScanCache()
    preps = {name: prepare(name, args.seed, cache) for name in WORKLOADS}
    setup = {"value": time.perf_counter() - SCRIPT_START, "unit": "s",
             "note": "both scans, one process"}
    ledgers = {name: H.Ledger(prep) for name, prep in preps.items()}
    for name, ledger in ledgers.items():
        result = H.run_pass(preps[name])
        ledger.add(result)
        ledger.add_verification(
            result, ledgers["mixed_rows"].digest if WORKLOADS[name].observed else None
        )
    rss = {"value": H.peak_rss_mb(), "unit": "MiB",
           "note": "all workloads, one process"}
    return {name: build_report(ledger, setup, rss) for name, ledger in ledgers.items()}


def _trace_path(trace_out: str | None, name: str, which: int, sets: int) -> str | None:
    if not trace_out:
        return None
    path = pathlib.Path(trace_out)
    suffix = f".{name}" + (f".set{which}" if sets > 1 else "")
    return str(path.with_name(path.stem + suffix + path.suffix))


def environment(args: argparse.Namespace) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True,
            timeout=10, check=False,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "mode": {"REPRO_COLUMNAR": os.environ.get("REPRO_COLUMNAR"),
                 "REPRO_NUMPY": os.environ.get("REPRO_NUMPY")},
        "python": platform.python_version(), "numpy": H.np.__version__,
        "nproc": os.cpu_count(), "commit": commit, "seed": args.seed,
        "rounds": 1 if args.smoke else args.rounds, "smoke": args.smoke,
    }


def print_results(workloads: dict[str, dict]) -> None:
    for name, w in workloads.items():
        print(f"\n== {name}   digest {str(w['digest'])[:16]}   "
              f"failed {w['failed']}/{w['attempted']}")
        for metric, entry in w["end_to_end"].items():
            extra = ", ".join(
                f"{k}={_short(v)}" for k, v in entry.items() if k not in ("value", "unit")
            )
            print(f"  {metric:<26} {_short(entry['value']):>14} {entry['unit']:<9} {extra}")
        for problem in w["problems"]:
            print(f"  !! {problem.splitlines()[-1] if problem else problem}")
        if w["per_layer"]:
            print("  layer shares of the traced pass: " + "  ".join(
                f"{layer} {share:.1%}" for layer, share in sorted(
                    w["layers"].items(), key=lambda kv: -kv[1])))
            for metric in M.PER_LAYER:
                value = w["per_layer"].get(metric)
                print(f"  {metric:<48} {_short(value):>14} {M.unit_of(metric)}")
        if w["missing_entry_points"]:
            print(f"  entry points gone (their metrics are null): {w['missing_entry_points']}")


def _short(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_short(v) for v in value) + "]"
    return str(value)


def agreement(a: dict[str, dict], b: dict[str, dict]) -> tuple[list[dict], bool]:
    """One row per workload x end-to-end metric: both values, the spread, the verdict."""
    rows, ok = [], True
    for name in a:
        for metric in M.END_TO_END + [M.FAILED_SHARE]:
            va = a[name]["end_to_end"][metric.name]["value"]
            vb = b[name]["end_to_end"][metric.name]["value"]
            spread = abs(va - vb) / min(va, vb) if min(va, vb) > 0 else float(va != vb)
            within = spread <= metric.bound
            ok &= within
            rows.append({"workload": name, "metric": metric.name, "a": va, "b": vb,
                         "spread": spread, "bound": metric.bound, "within": within})
    return rows, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-samples", type=int, default=3,
                        help="fresh processes (this one included) behind setup_s")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help="1 round, 1 pass per workload, reference check on, no bounds")
    parser.add_argument("--aa", action="store_true",
                        help="two interleaved sets of the same code must agree within the bounds")
    parser.add_argument("--trace-out", help="write the spans of the traced passes here (JSON)")
    parser.add_argument("--out", help="results file (default: results.json beside run.py; "
                                      "--smoke writes only when asked)")
    args = parser.parse_args(argv)

    if args.workload:
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
        if args.setup_only:
            prepare(args.workload, args.seed)
            print(repr(time.perf_counter() - SCRIPT_START))
            return 0
        report = measure_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.setup_samples,
            args.trace_out,
        )
        print_results({args.workload: report})
        print("report " + json.dumps(report))
        print(driver_line(report))
        return 0

    out_path = pathlib.Path(args.out) if args.out else (None if args.smoke else HERE / "results.json")
    if args.aa:
        return run_aa(args, out_path)
    if args.smoke:
        workloads = run_smoke(args)
    else:
        (workloads,), _ = run_sets(args, sets=1)
    print_results(workloads)
    save(out_path, environment=environment(args), workloads=workloads)
    return 0 if all(w["failed"] == 0 for w in workloads.values()) else 1


def run_aa(args: argparse.Namespace, out_path: pathlib.Path | None) -> int:
    """Two interleaved sets of the same code; a miss of any bound exits non-zero."""
    for attempt in range(3):
        (a, b), (cal_a, cal_b) = run_sets(args, sets=2)
        drift = abs(cal_a - cal_b) / min(cal_a, cal_b)
        if drift <= M.DRIFT_LIMIT:
            break
        print(f"machine drift: calibration {cal_a:.3f} ms vs {cal_b:.3f} ms "
              f"({drift:.1%}); run {attempt + 1} of 3 discarded")
    else:
        print("machine drift on every attempt: no verdict")
        return 3
    rows, ok = agreement(a, b)
    print_results(a)
    print(f"\nA/A agreement (calibration {cal_a:.3f} ms vs {cal_b:.3f} ms)")
    for row in rows:
        print(f"  {row['workload']:<20} {row['metric']:<24} {_short(row['a']):>12} "
              f"{_short(row['b']):>12}  spread {row['spread']:.2%}  bound {row['bound']:.0%}  "
              f"{'ok' if row['within'] else 'MISS'}")
    save(out_path, aa={"environment": environment(args), "rows": rows, "agree": ok})
    return 0 if ok else 1


def save(out_path: pathlib.Path | None, **sections: object) -> None:
    """Replace these sections of the results file and keep the others."""
    if out_path is None:
        return
    record = json.loads(out_path.read_text()) if out_path.is_file() else {}
    out_path.write_text(json.dumps({**record, **sections}, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
