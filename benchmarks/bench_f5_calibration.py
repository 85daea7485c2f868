"""F5 — Cost-model calibration from observed stage statistics.

Measures: mean relative cost-estimation error (|estimated − observed
wall| / observed wall, per DAG stage) of the seed cost model versus a
``CalibrationProfile`` fitted from the same run's ``StageStats``, on a
mixed workload (value restriction, stretch, spatial restriction,
coarsen, NDVI composition) with shared subplans. A second independent
run reports the cross-run generalization error. Emits
``BENCH_f5_calibration.json`` at the repo root; reduced-size mode via
``REPRO_BENCH_SMOKE=1``.
"""

from repro import obs
from repro.plan import canonicalize
from repro.query import CalibrationProfile, estimate_query, optimize, parse_query
from repro.server import DSMSServer, StreamCatalog

from conftest import BENCH_SMOKE, make_imager, write_bench_snapshot

SECTOR = (48, 24) if BENCH_SMOKE else (96, 48)
N_FRAMES = 1 if BENCH_SMOKE else 2


def workload(imager) -> list[str]:
    """Five queries over diverse operator kinds, sharing the vis prefix."""
    box = imager.sector_lattice.bbox
    region = (
        f"bbox({box.xmin + box.width * 0.25!r}, {box.ymin + box.height * 0.25!r}, "
        f"{box.xmin + box.width * 0.75!r}, {box.ymin + box.height * 0.75!r}, "
        f"crs='geos:-135')"
    )
    return [
        "vrange(reflectance(goes.vis), 0.0, 0.4)",
        "stretch(reflectance(goes.vis), 'linear')",
        f"within(reflectance(goes.vis), {region})",
        "coarsen(reflectance(goes.nir), 2)",
        "stretch(ndvi(reflectance(goes.nir), reflectance(goes.vis)), 'linear')",
    ]


def run_workload(imager):
    """One observed scan of the full workload; returns (server, samples)."""
    catalog = StreamCatalog()
    catalog.register_imager(imager)
    server = DSMSServer(catalog)
    for text in workload(imager):
        server.register(text)
    with obs.observe(stats=True) as ob:
        server.run()
        samples = list(server.calibration_samples(ob.stats))
    return server, samples


def mean_rel_error(samples, profile: CalibrationProfile) -> float:
    errs = [
        abs(profile.seconds(s.kind, s.work_units) - s.wall_s) / s.wall_s
        for s in samples
        if s.wall_s > 0
    ]
    return sum(errs) / len(errs) if errs else float("nan")


def test_calibration_reduces_estimation_error(
    benchmark, claims, scene, geos_crs, tmp_path
):
    imager = make_imager(scene, geos_crs, *SECTOR, n_frames=N_FRAMES)
    server, samples = benchmark.pedantic(
        run_workload, args=(imager,), rounds=1, iterations=1
    )
    assert samples, "workload produced no calibration samples"

    uncalibrated = CalibrationProfile.uncalibrated()
    fitted = CalibrationProfile.fit(samples)
    err_uncal = mean_rel_error(samples, uncalibrated)
    err_cal = mean_rel_error(samples, fitted)
    claims.record(
        "F5",
        "mean relative cost error, calibrated vs seed",
        f"{err_cal:.3f} vs {err_uncal:.3f}",
        "calibrated strictly below seed",
        err_cal < err_uncal,
    )

    # The profile round-trips through JSON persistence unchanged.
    path = tmp_path / "calibration.json"
    fitted.save(path)
    reloaded = CalibrationProfile.load(path)
    claims.record(
        "F5",
        "calibration profile JSON round-trip",
        dict(reloaded.coefficients) == dict(fitted.coefficients),
        "coefficients identical after save/load",
        dict(reloaded.coefficients) == dict(fitted.coefficients),
    )

    # estimate_query accepts the fitted profile and prices canonical plans in
    # seconds (the optimizer-facing integration).
    catalog = StreamCatalog()
    catalog.register_imager(imager)
    profiles = catalog.profiles()
    crs_of = dict(catalog.crs_of())
    plan_seconds = {}
    for text in workload(imager):
        node = optimize(parse_query(text), crs_of).node
        plan = canonicalize(node, crs_of=crs_of)
        est, _ = estimate_query(plan, profiles, calibration=fitted)
        plan_seconds[text] = est.seconds
    claims.record(
        "F5",
        "estimate_query prices calibrated plans in seconds",
        all(s is not None and s > 0 for s in plan_seconds.values()),
        "seconds set and positive for every query",
        all(s is not None and s > 0 for s in plan_seconds.values()),
    )

    # Cross-run generalization: fit on run A, evaluate on an independent
    # run B (reported in the snapshot; timing noise makes it advisory).
    _, samples_b = run_workload(imager)
    cross_uncal = mean_rel_error(samples_b, uncalibrated)
    cross_cal = mean_rel_error(samples_b, fitted)

    write_bench_snapshot(
        "f5_calibration",
        {
            "sector": list(SECTOR),
            "n_frames": N_FRAMES,
            "workload": workload(imager),
            "n_stages": len(server.plan_dag.order),
            "stages_shared": server.plan_dag.stages_shared,
            "coefficients": dict(fitted.coefficients),
            "default_coefficient": fitted.default_coefficient,
            "n_samples": fitted.n_samples,
            "mean_rel_error_uncalibrated": err_uncal,
            "mean_rel_error_calibrated": err_cal,
            "cross_run_mean_rel_error_uncalibrated": cross_uncal,
            "cross_run_mean_rel_error_calibrated": cross_cal,
            "plan_seconds": plan_seconds,
            "samples": [
                {"kind": s.kind, "work_units": s.work_units, "wall_s": s.wall_s}
                for s in samples
            ],
        },
    )


def test_stage_stats_overhead_wall_time(benchmark, scene, geos_crs):
    """Wall time of the analyzed run (stats collector on) — the cost of
    EXPLAIN ANALYZE relative to test_registration_scaling_wall_time in F4."""
    imager = make_imager(scene, geos_crs, *SECTOR, n_frames=N_FRAMES)
    benchmark.pedantic(run_workload, args=(imager,), rounds=3, iterations=1)
