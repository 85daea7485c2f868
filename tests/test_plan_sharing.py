"""Subplan-level sharing across *different* registered queries.

The acceptance bar for the shared plan DAG: two different queries with a
common canonical prefix execute the shared stages exactly once per chunk,
produce bit-identical frames versus unshared execution, and tear down by
refcount when one of them deregisters.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.query import ast as q
from repro.server import DSMSServer

# Two different continuous queries sharing the reflectance(goes.vis)
# prefix; the value ranges differ, so the plans differ above the prefix.
Q1 = "vrange(reflectance(goes.vis), 0.0, 0.6)"
Q2 = "vrange(reflectance(goes.vis), 0.2, 0.9)"


def _frames(session):
    return [f.image.values for f in session.frames]


class TestSubplanSharing:
    def test_shared_prefix_executes_once_per_chunk(self, catalog):
        server = DSMSServer(catalog)
        s1 = server.register(Q1)
        s2 = server.register(Q2)
        # Different queries: two fan-outs, but the DAG shares the prefix.
        assert server.shared_network_count == 2
        assert server.plan_dag.stages_shared > 0
        stats = server.run()
        shared = [s for s in server.plan_dag.order if len(s.subscribers) > 1]
        assert shared, "expected a shared reflectance prefix stage"
        n_vis_chunks = sum(
            1 for _ in catalog.get("goes.vis").chunks()
        )
        for stage in shared:
            assert stage.op.stats.chunks_in == n_vis_chunks  # once per chunk
        assert isinstance(shared[0].node, q.ValueMap)
        assert isinstance(shared[0].node.child, q.StreamRef)
        # Both queries were still routed every chunk (value queries are
        # unprunable spatially), so sharing saved real work.
        assert stats.pairs_routed == 2 * n_vis_chunks
        assert server.plan_stats.chunks_saved == n_vis_chunks
        assert len(s1.frames) == len(s2.frames) == 2

    def test_frames_bit_identical_to_unshared_execution(self, catalog):
        shared_server = DSMSServer(catalog)
        a1 = shared_server.register(Q1)
        a2 = shared_server.register(Q2)
        shared_server.run()

        unshared_server = DSMSServer(catalog, share_subplans=False)
        b1 = unshared_server.register(Q1)
        b2 = unshared_server.register(Q2)
        assert unshared_server.plan_dag.stages_shared == 0
        unshared_server.run()

        for a, b in ((a1, b1), (a2, b2)):
            fa, fb = _frames(a), _frames(b)
            assert len(fa) == len(fb) > 0
            for va, vb in zip(fa, fb):
                np.testing.assert_array_equal(va, vb)

    def test_unshared_execution_runs_prefix_per_query(self, catalog):
        server = DSMSServer(catalog, share_subplans=False)
        server.register(Q1)
        server.register(Q2)
        server.run()
        n_vis_chunks = sum(1 for _ in catalog.get("goes.vis").chunks())
        prefix_chunks = sum(
            s.op.stats.chunks_in
            for s in server.plan_dag.order
            if isinstance(s.node, q.ValueMap)
        )
        assert prefix_chunks == 2 * n_vis_chunks
        assert server.plan_stats.chunks_saved == 0

    def test_stages_shared_metric_published(self, catalog):
        with obs.observe() as ob:
            server = DSMSServer(catalog)
            server.register(Q1)
            server.register(Q2)
            server.run()
            assert ob.registry.gauge("repro_plan_stages_shared").value > 0
            assert ob.registry.gauge("repro_plan_chunks_saved").value > 0
            assert (
                ob.registry.gauge("repro_plan_stages_total").value
                == server.plan_dag.stages_total
            )

    def test_refcounted_teardown_on_deregister(self, catalog):
        server = DSMSServer(catalog)
        s1 = server.register(Q1)
        s2 = server.register(Q2)
        total_before = server.plan_dag.stages_total
        assert server.plan_dag.stages_shared > 0

        server.deregister(s1.session_id)
        # Query 1's private ValueRestrict stage is pruned; the previously
        # shared prefix survives for query 2, now single-subscriber.
        assert server.plan_dag.stages_total == total_before - 1
        assert server.plan_dag.stages_shared == 0
        for stage in server.plan_dag.order:
            assert stage.subscribers  # no orphaned stages

        # The survivor still runs correctly after the teardown.
        server.run()
        assert len(s2.frames) == 2

        server.deregister(s2.session_id)
        assert server.plan_dag.stages_total == 0
        assert server.plan_dag.taps == {}

    def test_teardown_keeps_results_identical(self, catalog):
        """Deregistering a sharer must not perturb the survivor's output."""
        solo_server = DSMSServer(catalog)
        solo = solo_server.register(Q2)
        solo_server.run()

        server = DSMSServer(catalog)
        s1 = server.register(Q1)
        s2 = server.register(Q2)
        server.deregister(s1.session_id)
        server.run()

        fa, fb = _frames(s2), _frames(solo)
        assert len(fa) == len(fb) > 0
        for va, vb in zip(fa, fb):
            np.testing.assert_array_equal(va, vb)

    def test_identical_queries_still_collapse_to_one_fanout(self, catalog):
        server = DSMSServer(catalog)
        server.register(Q1)
        server.register(Q1)
        assert server.shared_network_count == 1
        # Whole-plan sharing means zero extra stages, not even shared ones.
        assert server.plan_dag.stages_shared == 0
