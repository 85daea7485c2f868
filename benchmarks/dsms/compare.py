"""Compare two results files of ``run.py``: ``compare.py old.json new.json``.

One row per workload x end-to-end metric: old, new, the ratio new/old (its
base is the old value), the bound, and a verdict. Never a combined score.

``worse``        the new value is worse than the old by more than the bound
``better``       it is better by more than the run-to-run spread
``within bound`` neither
``unresolved``   the spread recorded for the metric (between passes, or
                 between the two sets of an ``--aa`` run) is wider than the
                 bound and the change is inside it: not a regression, and
                 not shown to be none
"""

from __future__ import annotations

import json
import sys

from metrics import END_TO_END, FAILED_SHARE, EndToEnd


def worsening(metric: EndToEnd, old: float, new: float) -> float:
    """Relative change in the worse direction (positive: got worse), base ``old``."""
    if old == 0:  # failed_share of a correct program: any increase is worse
        return float("inf") if new > 0 else 0.0
    change = (new - old) / old
    return change if metric.better == "lower" else -change


def spread_of(results: dict, workload: str, metric: str) -> float | None:
    known = [results["workloads"][workload]["end_to_end"][metric].get("spread")]
    known += [
        row["spread"] for row in results.get("aa", {}).get("rows", ())
        if row["workload"] == workload and row["metric"] == metric
    ]
    known = [s for s in known if s is not None]
    return max(known) if known else None


def verdict(metric: EndToEnd, old: float, new: float, spread: float | None) -> str:
    delta = worsening(metric, old, new)
    noise = metric.bound if spread is None else spread
    if noise > metric.bound and abs(delta) <= noise:
        return "unresolved"
    if delta > metric.bound:
        return "worse"
    if delta < -noise:
        return "better"
    return "within bound"


def compare(old: dict, new: dict) -> list[dict]:
    rows = []
    for workload in old["workloads"]:
        if workload not in new["workloads"]:
            continue
        for metric in [*END_TO_END, FAILED_SHARE]:
            a = old["workloads"][workload]["end_to_end"][metric.name]["value"]
            b = new["workloads"][workload]["end_to_end"][metric.name]["value"]
            spreads = [s for s in (spread_of(old, workload, metric.name),
                                   spread_of(new, workload, metric.name)) if s is not None]
            spread = max(spreads) if spreads else None
            rows.append({
                "workload": workload, "metric": metric.name, "unit": metric.unit,
                "old": a, "new": b, "ratio": b / a if a else None, "bound": metric.bound,
                "spread": spread, "verdict": verdict(metric, a, b, spread),
            })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    old, new = (json.load(open(path, encoding="utf-8")) for path in argv)
    rows = compare(old, new)
    print(f"{'workload':<20} {'metric':<24} {'old':>12} {'new':>12} {'new/old':>8} "
          f"{'bound':>6} {'spread':>7}  verdict")
    for r in rows:
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}"
        spread = "-" if r["spread"] is None else f"{r['spread']:.1%}"
        print(f"{r['workload']:<20} {r['metric']:<24} {r['old']:>12.6g} {r['new']:>12.6g} "
              f"{ratio:>8} {r['bound']:>6.0%} {spread:>7}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
