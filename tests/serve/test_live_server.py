"""Live telemetry at the server: metrics op, HTTP endpoints, SLO, traces.

Everything here runs the InlineRunner over real loopback sockets — the
cross-process trace e2e (subprocess pool) lives in
``test_trace_e2e.py``.
"""

import asyncio
import json
import urllib.error
import urllib.request

from repro.obs import parse_prometheus_text, sample_value, validate_chrome_trace
from repro.serve import DetectionServer, ServeClient, ServeConfig


def _config(**kw) -> ServeConfig:
    kw.setdefault("port", 0)
    kw.setdefault("runner", "inline")
    return ServeConfig(**kw)


def _fetch(url: str):
    """Blocking GET — call via asyncio.to_thread (the HTTP listener
    shares the server's loop; a loop-blocking fetch would deadlock)."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


async def _serve(cfg, body):
    server = DetectionServer(cfg)
    host, port = await server.start()
    try:
        client = await ServeClient.connect(host, port)
        try:
            return await body(server, client, host, port)
        finally:
            await client.close()
    finally:
        await server.drain()


class TestPingEnrichment:
    def test_ping_carries_uptime_version_counters(self, ring):
        async def body(server, client, host, port):
            fingerprint = await client.upload(ring)
            await client.detect(fingerprint, seed=1)
            await client.detect(fingerprint, seed=1)
            return await client.ping()

        reply = asyncio.run(_serve(_config(), body))
        import repro

        assert reply["version"] == repro.__version__
        assert reply["uptime_s"] > 0
        assert reply["requests_total"] >= 3
        assert reply["cache_hits"] == 1
        assert reply["cache_misses"] == 1
        assert reply["shed_total"] == 0
        assert reply["errors"] == 0


class TestMetricsOp:
    def test_summary_and_exposition(self, ring):
        async def body(server, client, host, port):
            fingerprint = await client.upload(ring)
            await client.detect(fingerprint, seed=1)
            return await client.metrics()

        reply = asyncio.run(_serve(_config(), body))
        summary = reply["summary"]
        assert summary["requests_total"] >= 2
        assert summary["window_requests"] >= 2
        assert summary["window_p99_ms"] > 0
        assert summary["cache_hit_rate"] == 0.0
        families = parse_prometheus_text(reply["exposition"])
        assert sample_value(families, "repro_serve_requests_total") >= 2
        assert (
            sample_value(
                families, "repro_serve_request_latency_ms", suffix="_count"
            )
            >= 2
        )

    def test_exposition_can_be_skipped(self, ring):
        async def body(server, client, host, port):
            return await client.metrics(exposition=False)

        reply = asyncio.run(_serve(_config(), body))
        assert "exposition" not in reply
        assert "summary" in reply


class TestHttpEndpoints:
    def test_metrics_and_healthz(self, ring):
        async def body(server, client, host, port):
            fingerprint = await client.upload(ring)
            await client.detect(fingerprint, seed=1)
            base = f"http://{host}:{server.metrics_port}"
            metrics = await asyncio.to_thread(_fetch, base + "/metrics")
            healthz = await asyncio.to_thread(_fetch, base + "/healthz")
            missing = await asyncio.to_thread(_fetch, base + "/nope")
            return metrics, healthz, missing

        (ms, mt), (hs, ht), (ns, _) = asyncio.run(
            _serve(_config(metrics_port=0), body)
        )
        assert ms == 200
        families = parse_prometheus_text(mt)  # strict parser: raises on junk
        assert sample_value(families, "repro_serve_requests_total") >= 2
        assert sample_value(families, "repro_serve_healthy") == 1
        assert hs == 200
        assert json.loads(ht)["healthy"] is True
        assert ns == 404

    def test_healthz_flips_on_slo_violation(self, ring):
        async def body(server, client, host, port):
            fingerprint = await client.upload(ring)
            # an engine run on any graph takes > 0.0001 ms: guaranteed breach
            await client.detect(fingerprint, seed=1)
            base = f"http://{host}:{server.metrics_port}"
            status, text = await asyncio.to_thread(_fetch, base + "/healthz")
            return status, text, server._slo.violations

        status, text, violations = asyncio.run(
            _serve(_config(metrics_port=0, slo="p99_ms=0.0001"), body)
        )
        assert status == 503
        payload = json.loads(text)
        assert payload["healthy"] is False
        assert payload["slo"]["breaches"][0]["slo"] == "p99_ms"
        assert violations >= 1

    def test_slo_violation_event_and_counter(self, ring, caplog):
        import logging

        async def body(server, client, host, port):
            fingerprint = await client.upload(ring)
            with caplog.at_level(logging.WARNING, logger="repro.serve"):
                await client.detect(fingerprint, seed=1)
                await client.ping()  # any request re-evaluates the SLO
            return int(server._c_slo_violations.value)

        violations = asyncio.run(_serve(_config(slo="p99_ms=0.0001"), body))
        assert violations == 1
        events = [
            record for record in caplog.records
            if "slo_violation" in record.getMessage()
        ]
        assert events
        payload = json.loads(events[0].getMessage().split(" ", 1)[1])
        assert payload["event"] == "slo_violation"
        assert payload["breaches"]


class TestRequestTraces:
    def test_engine_run_writes_merged_trace(self, ring, tmp_path):
        async def body(server, client, host, port):
            fingerprint = await client.upload(ring)
            miss = await client.detect(fingerprint, seed=1)
            hit = await client.detect(fingerprint, seed=1)
            return miss, hit

        miss, hit = asyncio.run(
            _serve(_config(trace_dir=str(tmp_path)), body)
        )
        assert "trace_path" in miss and miss["trace_id"]
        # cache hits run no engine: no trace, but still a request id
        assert "trace_path" not in hit
        assert hit["request_id"] != miss["request_id"]
        with open(miss["trace_path"]) as fh:
            chrome = json.load(fh)
        validate_chrome_trace(chrome)
        names = {
            event["name"]
            for event in chrome["traceEvents"]
            if event.get("ph") == "X"
        }
        assert {"serve/request", "serve/pool.dispatch", "worker/detect"} <= names
        assert chrome["metadata"]["trace_id"] == miss["trace_id"]
        assert chrome["metadata"]["request_id"] == miss["request_id"]
        # server events sit on pid 0; every ts is non-negative
        assert all(e["ts"] >= 0 for e in chrome["traceEvents"] if "ts" in e)

    def test_tracing_off_by_default(self, ring):
        async def body(server, client, host, port):
            fingerprint = await client.upload(ring)
            return await client.detect(fingerprint, seed=1)

        reply = asyncio.run(_serve(_config(), body))
        assert "trace_id" not in reply
        assert "trace_path" not in reply


class TestManifestLiveSection:
    def test_manifest_matches_exposition(self, ring):
        async def body(server, client, host, port):
            fingerprint = await client.upload(ring)
            await client.detect(fingerprint, seed=1)
            await client.detect(fingerprint, seed=1)
            reply = await client.metrics()
            return server, reply

        server, reply = asyncio.run(_serve(_config(), body))
        manifest = server.manifest()
        live = manifest.result["live"]
        families = parse_prometheus_text(reply["exposition"])
        exposed = sample_value(
            families, "repro_serve_request_latency_ms", suffix="_count"
        )
        # the drain manifest and a mid-session scrape read the same
        # cumulative bucket histogram (the scrape predates drain by the
        # metrics round-trip itself, hence >=)
        assert live["requests"] >= exposed
        assert live["p99_ms"] > 0
        # every request line lands in the live histogram, so the drain
        # manifest's request count and histogram count agree exactly
        assert manifest.result["requests"] == live["requests"]
        # one cumulative ladder: the headline percentiles are the live ones
        assert manifest.result["latency_p50_ms"] == live["p50_ms"]
        assert manifest.result["latency_p99_ms"] == live["p99_ms"]

    def test_slo_report_in_manifest(self, ring):
        async def body(server, client, host, port):
            fingerprint = await client.upload(ring)
            await client.detect(fingerprint, seed=1)
            return server

        server = asyncio.run(
            _serve(_config(slo="p99_ms=100000,error_rate=0.9"), body)
        )
        report = server.manifest().result["slo"]
        assert report["healthy"] is True
        assert report["policy"]["p99_ms"] == 100000
