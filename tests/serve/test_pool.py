"""Detection runners: the inline thread runner and the subprocess pool.

The subprocess tests boot real spawned workers, so they share one pool
per test function and keep graphs tiny; the expensive properties
(timeout kill + respawn, graph payload crossing once) are exercised in
one pass each.
"""

import asyncio

import numpy as np
import pytest

from repro.core.gala import GalaConfig, gala
from repro.graph.generators import ring_of_cliques
from repro.serve.pool import (
    DetectionFailed,
    DetectionTimeout,
    InlineRunner,
    PoolClosed,
    WorkerPool,
    result_payload,
)


@pytest.fixture
def graph():
    return ring_of_cliques(4, 5)


class TestResultPayload:
    def test_matches_engine_result(self, graph):
        res = gala(graph, GalaConfig())
        payload = result_payload(res)
        np.testing.assert_array_equal(payload["communities"], res.communities)
        assert payload["modularity"] == res.modularity
        assert payload["num_levels"] == len(res.levels)
        assert payload["iterations"] == sum(
            len(lvl.phase1.history) for lvl in res.levels
        )


def _failing_config() -> GalaConfig:
    """A config whose run fails: ``GalaConfig`` rejects an unknown
    pruning name when built, so it is set afterwards."""
    cfg = GalaConfig()
    cfg.pruning = "bogus"
    return cfg


class TestInlineRunner:
    def test_run_matches_direct_gala(self, graph):
        async def go():
            runner = InlineRunner()
            await runner.start()
            out = await runner.run(graph, GalaConfig(seed=0))
            await runner.stop()
            return out, runner.runs

        out, runs = asyncio.run(go())
        direct = gala(graph, GalaConfig(seed=0))
        np.testing.assert_array_equal(out["communities"], direct.communities)
        assert runs == 1

    def test_engine_error_becomes_detection_failed(self, graph):
        async def go():
            runner = InlineRunner()
            with pytest.raises(DetectionFailed):
                await runner.run(graph, _failing_config())

        asyncio.run(go())


class TestWorkerPool:
    def test_end_to_end(self, graph):
        """One pool boot: run, cached-graph rerun, engine error, timeout
        kill + respawn, post-respawn health, stop."""

        async def go():
            pool = WorkerPool(workers=1)
            await pool.start()
            try:
                # miss: payload crosses the pipe, result matches direct
                out = await pool.run(graph, GalaConfig(seed=0), timeout=60)
                direct = gala(graph, GalaConfig(seed=0))
                np.testing.assert_array_equal(
                    out["communities"], direct.communities
                )
                assert out["modularity"] == direct.modularity

                # the worker now knows the graph; a rerun must not reship it
                (handle,) = pool._handles
                assert graph.fingerprint in handle.known
                out2 = await pool.run(graph, GalaConfig(seed=1), timeout=60)
                np.testing.assert_array_equal(
                    out2["communities"],
                    gala(graph, GalaConfig(seed=1)).communities,
                )

                # an error in the worker is a reply, not a crash: same worker
                with pytest.raises(DetectionFailed):
                    await pool.run(graph, _failing_config())
                assert pool.respawns == 0

                # an impossible deadline kills the worker and respawns
                # (a graph big enough that the engine cannot win the race)
                slow = ring_of_cliques(60, 40)
                with pytest.raises(DetectionTimeout):
                    await pool.run(slow, GalaConfig(seed=2), timeout=1e-3)
                assert pool.respawns == 1

                # the fresh worker serves the next request
                out3 = await pool.run(graph, GalaConfig(seed=0), timeout=60)
                np.testing.assert_array_equal(
                    out3["communities"], direct.communities
                )
            finally:
                await pool.stop()
            with pytest.raises(PoolClosed):
                await pool.run(graph, GalaConfig())

        asyncio.run(go())

    def test_worker_graph_cache_evicts_and_recovers(self, graph):
        """A worker whose graph LRU evicted a fingerprint asks for the
        payload again (need_graph) — transparently to the caller."""
        other = ring_of_cliques(3, 4)

        async def go():
            pool = WorkerPool(workers=1, worker_graph_cache=1)
            await pool.start()
            try:
                await pool.run(graph, GalaConfig(), timeout=60)
                await pool.run(other, GalaConfig(), timeout=60)  # evicts graph
                out = await pool.run(graph, GalaConfig(), timeout=60)
                np.testing.assert_array_equal(
                    out["communities"], gala(graph, GalaConfig()).communities
                )
            finally:
                await pool.stop()

        asyncio.run(go())

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)


class TestMmapPayload:
    def test_store_crosses_as_path_and_matches(self, graph, tmp_path):
        """A memmapped graph ships its store path (not the arrays) to the
        workers, and the detection result is identical to in-RAM."""
        from repro.graph.mmap_store import save_mmap

        store = save_mmap(graph, tmp_path / "g.store")
        pool = WorkerPool(workers=1)
        payload = pool._graph_payload(store)
        assert payload == {"mmap_path": store.path, "name": store.name}

        async def go():
            await pool.start()
            try:
                return await pool.run(
                    store, GalaConfig(phase1_only=True), timeout=60
                )
            finally:
                await pool.stop()

        out = asyncio.run(go())
        direct = gala(graph, GalaConfig(phase1_only=True))
        np.testing.assert_array_equal(out["communities"], direct.communities)
        assert out["modularity"] == direct.modularity
