"""EXPLAIN ANALYZE over the shared plan DAG, end to end.

Two continuous queries sharing a reflectance prefix run under the stage
statistics collector; the analyzed DAG then shows, per physical stage,
the observed chunks/rows/bytes/wall-time next to the seed cost model's
estimate. A `CalibrationProfile` fitted from the same run re-prices the
estimates in measured seconds-per-work-unit — the second rendering shows
the calibration deltas — and the delivered frames answer "which stages
and which raw scans produced you" through their provenance tags.

Run:  python examples/explain_analyze.py
"""

from __future__ import annotations

import textwrap

from repro import DSMSServer, GOESImager, StreamCatalog, obs
from repro.query import CalibrationProfile

QUERIES = [
    "vrange(reflectance(goes.vis), 0.0, 0.4)",
    "stretch(reflectance(goes.vis), 'linear')",
]


def main() -> None:
    imager = GOESImager(n_frames=2, t0=72_000.0)
    catalog = StreamCatalog()
    catalog.register_imager(imager)

    with obs.observe(stats=True) as ob:
        server = DSMSServer(catalog)
        sessions = [server.register(text) for text in QUERIES]
        server.run()

        print("=== EXPLAIN ANALYZE, seed cost model ===")
        print(server.explain_analyze(collector=ob.stats))

        samples = server.calibration_samples(ob.stats)
        fitted = CalibrationProfile.fit(samples)
        print("\nfitted coefficients (seconds per work unit):")
        for kind, coef in sorted(fitted.coefficients.items()):
            print(f"  {kind:<18} {coef:.3e}")

        print("\n=== EXPLAIN ANALYZE, calibrated ===")
        print(server.explain_analyze(collector=ob.stats, calibration=fitted))

    print("\nprovenance of each query's last delivered frame:")
    for text, session in zip(QUERIES, sessions):
        frame = session.frames[-1]
        print(f"  {text}")
        print(textwrap.indent(obs.format_lineage(frame, dag=server.plan_dag), "    "))


if __name__ == "__main__":
    main()
