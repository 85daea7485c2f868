"""Property-based tests over the query algebra itself.

Hypothesis generates random query trees; we check the global invariants:

* the algebra is closed — every generated tree plans to a GeoStream that
  executes without error and yields well-formed chunks;
* the optimizer and the canonicalizer are idempotent — a second pass
  changes nothing, and recompiling a compiled query gives the same plan;
* exact rewrite rules preserve results bit-for-bit (inexact stretch
  pushdown disabled);
* metadata propagation matches execution (declared CRS == chunk CRS).
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core import GridChunk, TimeInterval
from repro.plan import canonicalize, compile_query
from repro.query import ast as q, optimize, plan_query

from tests.strategies import CRS_OF as _CRS_OF, SOURCES as _SOURCES, region_strategy, tree_strategy


def collect(tree):
    plan = plan_query(tree, _SOURCES)
    return plan.collect_chunks()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=tree_strategy())
def test_closure_random_trees_execute(tree):
    """Every generated tree denotes an executable GeoStream."""
    chunks = collect(tree)
    for chunk in chunks:
        assert isinstance(chunk, GridChunk)
        assert chunk.values.shape[:2] == chunk.lattice.shape
        assert np.isfinite(chunk.t)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=tree_strategy())
def test_optimizer_idempotent(tree):
    once = optimize(tree, _CRS_OF, allow_inexact=True).node
    twice = optimize(once, _CRS_OF, allow_inexact=True).node
    assert once == twice
    canonical = canonicalize(tree, crs_of=_CRS_OF)
    assert canonicalize(canonical, crs_of=_CRS_OF) == canonical
    compiled = compile_query(tree, _SOURCES)
    assert compile_query(compiled.optimized, _SOURCES).plan == compiled.plan


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=tree_strategy())
# A measured-time window whose edge splits a composed scan-sector pair.
@example(
    tree=q.TemporalRestrict(
        q.Compose(q.StreamRef("goes.vis"), q.StreamRef("goes.nir"), "+"),
        TimeInterval(72001.0, 75000.0),
    )
)
def test_exact_rewrites_preserve_results(tree):
    """With inexact rules disabled, rewritten plans match bit-for-bit."""
    optimized = optimize(tree, _CRS_OF, allow_inexact=False).node
    a = collect(tree)
    b = collect(optimized)
    points_a = sum(c.n_points for c in a)
    points_b = sum(c.n_points for c in b)
    assert points_a == points_b
    if a and b:
        va = np.concatenate([c.values.astype(float).ravel() for c in a])
        vb = np.concatenate([c.values.astype(float).ravel() for c in b])
        # Chunk boundaries may differ; compare sorted multisets of values.
        np.testing.assert_allclose(
            np.sort(va[~np.isnan(va)]), np.sort(vb[~np.isnan(vb)]), atol=1e-5
        )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=tree_strategy())
def test_metadata_matches_execution(tree):
    plan = plan_query(tree, _SOURCES)
    declared_crs = plan.metadata.crs
    for chunk in plan.chunks():
        assert chunk.lattice.crs == declared_crs


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=tree_strategy(), region=region_strategy())
def test_restriction_commutes_with_itself(tree, region):
    """|R applied twice equals once (idempotence of restriction)."""
    once = collect(q.SpatialRestrict(tree, region))
    twice = collect(q.SpatialRestrict(q.SpatialRestrict(tree, region), region))
    assert sum(c.n_points for c in once) == sum(c.n_points for c in twice)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    region=region_strategy(),
    restriction=st.sampled_from(["spatial", "value"]),
)
def test_reorder_faults_commute_with_nonblocking_restriction(seed, region, restriction):
    """Chunk reordering commutes with non-blocking restrictions.

    A restriction that processes chunks statelessly maps any permutation
    of its input to a permutation of its output, so injecting reorder
    faults before or after it yields the same materialized image — the
    multiset of restricted chunks is invariant. (This is exactly why the
    FrameGuard may re-sort a frame's rows without changing query results.)
    """
    from repro.faults import FaultInjector, FaultSpec
    from repro.operators import SpatialRestriction, ValueRestriction

    def make_op():
        if restriction == "spatial":
            return SpatialRestriction(region)
        return ValueRestriction(200.0, 900.0)

    spec = FaultSpec(seed=seed, reorder=0.3)
    base = _SOURCES["goes.vis"]
    faults_before = FaultInjector(spec).wrap_stream(base).pipe(make_op())
    faults_after = FaultInjector(spec).wrap_stream(base.pipe(make_op()))

    def multiset(stream):
        return sorted(
            (c.t, c.row0, c.col0, c.band, c.values.tobytes()) for c in stream.chunks()
        )

    assert multiset(faults_before) == multiset(faults_after)
