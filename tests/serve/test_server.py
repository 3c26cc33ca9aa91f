"""End-to-end server semantics over real loopback sockets.

Everything here runs the InlineRunner (or a stub) — the subprocess pool
has its own tests — so each test is one short asyncio.run() with no
worker boot cost.
"""

import asyncio

import numpy as np
import pytest

from repro.core.gala import GalaConfig, gala
from repro.graph.generators import ring_of_cliques, two_triangles
from repro.serve import (
    DetectionRunner,
    DetectionServer,
    ServeClient,
    ServeConfig,
    ServeError,
    assignment_array,
)


def _config(**kw) -> ServeConfig:
    kw.setdefault("port", 0)
    kw.setdefault("runner", "inline")
    return ServeConfig(**kw)


async def _started(server: DetectionServer) -> ServeClient:
    host, port = await server.start()
    return await ServeClient.connect(host, port)


def run(coro):
    return asyncio.run(coro)


def _assert_rejected_on_miss_and_hit(bad):
    """``bad`` gets ``bad_request`` before and after a valid run of the
    same graph and seed was cached, and the engine never runs for it."""
    graph = two_triangles()

    async def go():
        server = DetectionServer(_config())
        client = await _started(server)
        try:
            fp = await client.upload(graph)
            miss = await client.detect(fp, config=bad, seed=0, raise_on_error=False)
            runs_after_miss = server.runner.runs
            await client.detect(fp, seed=0)  # caches the semantic key
            hits_before = server.cache.stats()["hits"]
            hit = await client.detect(fp, config=bad, seed=0, raise_on_error=False)
            alive = await client.ping()
        finally:
            await client.close()
            await server.drain()
        return miss, hit, runs_after_miss, hits_before, alive, server

    miss, hit, runs_after_miss, hits_before, alive, server = run(go())
    for response in (miss, hit):
        assert response["status"] == 400
        assert response["error"] == "bad_request"
    assert runs_after_miss == 0
    assert server.runner.runs == 1  # only the valid warm-up ran
    assert server.cache.stats()["hits"] == hits_before
    assert alive["ok"]


class TestDetectPath:
    def test_upload_detect_hit_bit_identical(self):
        graph = ring_of_cliques(4, 5)

        async def go():
            server = DetectionServer(_config())
            client = await _started(server)
            try:
                fp = await client.upload(graph)
                assert fp == graph.fingerprint
                miss = await client.detect(
                    fp, config={"resolution": 1.0}, seed=0,
                    include_assignment=True,
                )
                hit = await client.detect(
                    fp, config={"resolution": 1.0}, seed=0,
                    include_assignment=True,
                )
            finally:
                await client.close()
                await server.drain()
            return miss, hit, server

        miss, hit, server = run(go())
        assert not miss["cached"] and hit["cached"]
        direct = gala(graph, GalaConfig(resolution=1.0, seed=0))
        np.testing.assert_array_equal(assignment_array(miss), direct.communities)
        np.testing.assert_array_equal(assignment_array(hit), direct.communities)
        assert miss["assignment_sha256"] == hit["assignment_sha256"]
        assert server.runner.runs == 1  # the hit never touched the engine

    def test_seed_and_field_changes_miss(self):
        graph = two_triangles()

        async def go():
            server = DetectionServer(_config())
            client = await _started(server)
            try:
                fp = await client.upload(graph)
                await client.detect(fp, seed=0)
                r_seed = await client.detect(fp, seed=1)
                r_field = await client.detect(
                    fp, config={"resolution": 2.0}, seed=0
                )
                r_backend = await client.detect(
                    fp, config={"backend": "vectorized"}, seed=0
                )
            finally:
                await client.close()
                await server.drain()
            return r_seed, r_field, r_backend

        r_seed, r_field, r_backend = run(go())
        assert not r_seed["cached"]
        assert not r_field["cached"]
        # execution-only fields share the cache key (bit-exact backends)
        assert r_backend["cached"]

    @pytest.mark.parametrize("field", ["indices", "weights", "self_weight"])
    def test_malformed_csr_upload_400(self, field):
        """An uploaded CSR array that is not 1-D is a ``bad_request``
        from the CSR validator, never an internal error or a
        registered graph."""
        from repro.serve.protocol import graph_to_payload

        message = {"op": "upload", **graph_to_payload(two_triangles())}
        message["csr"][field] = [[x] for x in message["csr"][field]]

        async def go():
            server = DetectionServer(_config())
            client = await _started(server)
            try:
                reply = await client.request(message)
                alive = await client.ping()
            finally:
                await client.close()
                await server.drain()
            return reply, alive

        reply, alive = run(go())
        assert reply["error"] == "bad_request" and reply["status"] == 400
        assert "1-D" in reply["message"]
        assert alive["ok"]

    def test_unknown_fingerprint_404(self):
        async def go():
            server = DetectionServer(_config())
            client = await _started(server)
            try:
                return await client.detect("0" * 64, raise_on_error=False)
            finally:
                await client.close()
                await server.drain()

        response = run(go())
        assert response["status"] == 404 and response["error"] == "not_found"

    def test_unknown_config_field_400(self):
        graph = two_triangles()

        async def go():
            server = DetectionServer(_config())
            client = await _started(server)
            try:
                fp = await client.upload(graph)
                with pytest.raises(ServeError) as exc:
                    await client.detect(fp, config={"resolutionn": 2.0})
                return exc.value
            finally:
                await client.close()
                await server.drain()

        err = run(go())
        assert err.status == 400 and "resolutionn" in str(err)

    @pytest.mark.parametrize(
        "bad",
        [
            {"kernel": "bogus"},
            {"kernel": "bincount"},  # a backend older clients may send
            {"runtime": "bogus"},
            {"runtime": "multiprocess", "ranks": -3},
            # the backend is named by ``backend`` alone; ``kernel`` is
            # not a GalaConfig field, whatever its value
            {"kernel": "vectorized"},
            {"backend": "bogus"},
            {"gpusim_engine": "warp"},
            {"runtime": "multiprocess", "backend": "gpusim"},
            # valid for gala(), but a pool worker never spawns ranks
            {"runtime": "multiprocess"},
            # the simulator engine and the sanitizer are test oracles,
            # not run settings: GalaConfig has no field for either
            {"gpusim_engine": "batched"},
            {"sanitize": "strict"},
        ],
    )
    def test_invalid_execution_field_400_on_miss_and_hit(self, bad):
        """Execution fields are outside the cache key, so a bad value must
        be rejected before the lookup: 400 whether or not a result for the
        semantic config is cached, and the engine never runs for it. A
        served detection runs only the local runtime."""
        _assert_rejected_on_miss_and_hit(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"pruning": "bogus"},
            {"pruning": 5},
            {"weight_update": "nope"},
            {"resolution": "x"},
            {"resolution": float("nan")},
            {"patience": 0},
            {"theta": -1},
            {"max_rounds": 0},
            {"max_iterations": 0},
            {"max_iterations": -1},
            {"remove_self": "yes"},
        ],
    )
    def test_invalid_semantic_field_400_on_miss_and_hit(self, bad):
        """A bad semantic value is rejected when the config is built: it
        neither fails midway through a run (an ``internal`` error) nor
        runs to a nonsense result the cache would then serve."""
        _assert_rejected_on_miss_and_hit(bad)

    def test_evict_cascades_to_results(self):
        graph = two_triangles()

        async def go():
            server = DetectionServer(_config())
            client = await _started(server)
            try:
                fp = await client.upload(graph)
                await client.detect(fp, seed=0)
                evicted = await client.evict(fp)
                gone = await client.detect(fp, seed=0, raise_on_error=False)
            finally:
                await client.close()
                await server.drain()
            return evicted, gone

        evicted, gone = run(go())
        assert evicted["evicted"] and evicted["results_dropped"] == 1
        assert gone["status"] == 404

    def test_malformed_line_answered_not_fatal(self):
        async def go():
            server = DetectionServer(_config())
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                import json

                bad = json.loads(await reader.readline())
                writer.write(b'{"op":"ping"}\n')
                await writer.drain()
                ok = json.loads(await reader.readline())
            finally:
                writer.close()
                await server.drain()
            return bad, ok

        bad, ok = run(go())
        assert bad["status"] == 400
        assert ok["ok"]


class _GatedRunner(DetectionRunner):
    """Blocks every run on an event — makes in-flight load controllable."""

    def __init__(self):
        self.gate = asyncio.Event()
        self.started = 0

    async def run(self, graph, config, timeout=None):
        self.started += 1
        await self.gate.wait()
        return {
            "communities": np.zeros(graph.n, dtype=np.int64),
            "modularity": 0.0,
            "num_levels": 1,
            "iterations": 1,
        }


class TestAdmissionControl:
    def test_sheds_past_max_pending_and_recovers(self):
        graph = two_triangles()

        async def go():
            runner = _GatedRunner()
            server = DetectionServer(_config(max_pending=2), runner=runner)
            host, port = await server.start()
            fp = server.registry.put(graph)

            async def one_detect():
                async with await ServeClient.connect(host, port) as c:
                    return await c.detect(fp, no_cache=True,
                                          raise_on_error=False)

            blocked = [asyncio.create_task(one_detect()) for _ in range(2)]
            while runner.started < 2:
                await asyncio.sleep(0.005)

            shed = await one_detect()  # third request: backlog is full
            assert shed["status"] == 503 and shed["error"] == "overloaded"
            assert shed["retry"] is True

            # intake still answers while the backlog is pinned
            async with await ServeClient.connect(host, port) as c:
                assert (await c.ping())["ok"]

            runner.gate.set()
            done = await asyncio.gather(*blocked)
            assert all(r["ok"] for r in done)

            after = await one_detect()  # capacity is back
            assert after["ok"]
            await server.drain()
            return server

        server = run(go())
        assert server.metrics.counter("serve/shed_total").value == 1

    def test_draining_server_sheds(self):
        graph = two_triangles()

        async def go():
            server = DetectionServer(_config())
            client = await _started(server)
            try:
                fp = await client.upload(graph)
                hot = await client.detect(fp, seed=0)
                server._draining = True
                # a cache hit is still served while draining
                hit = await client.detect(fp, seed=0)
                refused = await client.detect(fp, seed=1, raise_on_error=False)
            finally:
                server._draining = False
                await client.close()
                await server.drain()
            return hot, hit, refused

        hot, hit, refused = run(go())
        assert hot["ok"] and hit["cached"]
        assert refused["status"] == 503 and refused["error"] == "draining"


class TestLifecycleAndManifest:
    def test_drain_is_clean_and_counted(self):
        graph = two_triangles()

        async def go():
            server = DetectionServer(_config())
            client = await _started(server)
            try:
                fp = await client.upload(graph)
                await client.detect(fp, seed=0)
                await client.detect(fp, seed=0)
            finally:
                await client.close()
            clean = await server.drain()
            return server, clean

        server, clean = run(go())
        assert clean is True
        manifest = server.manifest()
        r = manifest.result
        assert r["drained_clean"] is True
        assert r["requests"] == 3  # one upload + two detects
        assert (r["cache_hits"], r["cache_misses"]) == (1, 1)
        assert r["cache_hit_rate"] == 0.5
        assert manifest.metrics["gauges"]["serve/cache/hits"] == 1
        assert manifest.metrics["histograms"]["serve/latency_ms"]["count"] > 0

    def test_stats_op_shape(self):
        async def go():
            server = DetectionServer(_config())
            client = await _started(server)
            try:
                return await client.stats()
            finally:
                await client.close()
                await server.drain()

        stats = run(go())
        assert stats["ok"]
        assert set(stats) >= {"serve", "cache", "registry", "pool", "inflight"}
        assert stats["pool"]["kind"] == "inline"
