"""The asyncio detection server: registry + cache + runner, one loop.

Request lifecycle (``detect``)::

    parse → registry lookup → result-cache lookup ──hit──→ reply (no engine)
                                   │miss
                                   ▼
                       admission control (bounded by max_pending)
                          │admitted              │over budget / draining
                          ▼                      ▼
                    runner (subprocess pool)   shed: 503, immediately
                          │
                          ▼
                    cache store → reply

The event loop only ever parses JSON, walks dictionaries, and ships
bytes; every engine run happens behind the
:class:`~repro.serve.pool.DetectionRunner` seam in a subprocess. That is
what keeps intake responsive at overload: a full pool means new work is
*shed* with a ``503`` in microseconds, not queued into an unbounded
backlog — clients with a retry policy get honest backpressure, and the
server's memory stays flat at any offered load.

Determinism makes the cache exact: a hit is the bit-identical assignment
the engine would recompute, so repeated-graph traffic (the common case
for interactive workloads) costs one engine run ever. Hit/miss/eviction
counters and request latency histograms live in a
:class:`~repro.obs.metrics.MetricsRegistry`; :meth:`DetectionServer.manifest`
snapshots them into a :class:`~repro.obs.manifest.RunManifest` on drain
so ``repro report`` renders a serving session like any other run.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.collector import TraceCollector, build_request_trace, make_span
from repro.obs.exposition import render_prometheus
from repro.obs.live import (
    SlidingWindowHistogram,
    SloMonitor,
    WindowedCounter,
    parse_slo_spec,
)
from repro.obs.manifest import RunManifest, _config_dict
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serve.cache import CachedResult, ResultCache
from repro.serve.pool import (
    DetectionFailed,
    DetectionRunner,
    DetectionTimeout,
    InlineRunner,
    WorkerPool,
)
from repro.serve.protocol import (
    DEFAULT_LINE_LIMIT,
    KNOWN_OPS,
    ProtocolError,
    decode,
    detect_response,
    encode,
    error_response,
    graph_from_payload,
    parse_detect_config,
    parse_optional_number,
    require_fingerprint,
)
from repro.serve.registry import GraphRegistry


@dataclass
class ServeConfig:
    """Knobs of one serving session (all byte/second budgets explicit)."""

    host: str = "127.0.0.1"
    #: 0 = pick an ephemeral port (reported by :meth:`DetectionServer.start`)
    port: int = 0
    #: subprocess workers — the engine-run concurrency
    workers: int = 2
    #: ``"subprocess"`` (production) or ``"inline"`` (tests/smoke; see
    #: :class:`~repro.serve.pool.InlineRunner` for why it can't serve traffic)
    runner: str = "subprocess"
    #: result-cache byte budget (stored assignments)
    cache_bytes: int = 64 << 20
    #: graph-registry byte budget (None = unbounded)
    registry_bytes: Optional[int] = None
    #: admission bound: engine runs in flight (busy workers + waiting);
    #: beyond it, detect requests are shed with a 503
    max_pending: int = 32
    #: per-request engine timeout (None = no limit); requests may lower
    #: it per-call with ``timeout_s``
    request_timeout_s: Optional[float] = 120.0
    #: graceful-drain budget: in-flight runs get this long to finish
    #: before they are cancelled (and their workers killed)
    drain_timeout_s: float = 10.0
    #: per-worker graph LRU size (see pool docstring)
    worker_graph_cache: int = 8
    #: stream-reader per-line cap (uploads are one JSON line)
    line_limit: int = DEFAULT_LINE_LIMIT
    #: multiprocessing start method for the pool
    mp_context: str = "spawn"
    #: bind an HTTP listener on this port for ``GET /metrics`` +
    #: ``GET /healthz`` (None = no listener; 0 = ephemeral). The JSONL
    #: ``metrics`` op works either way.
    metrics_port: Optional[int] = None
    #: write one merged cross-process Chrome trace per engine-running
    #: detect request into this directory (None = tracing off)
    trace_dir: Optional[str] = None
    #: retention cap on written request traces (oldest unlinked first)
    trace_keep: int = 256
    #: SLO spec, e.g. ``"p99_ms=250,error_rate=0.01"`` (None = no SLO
    #: monitor; ``/healthz`` then only reflects draining)
    slo: Optional[str] = None
    #: rolling window for the SLO evaluator and the live p50/p95/p99
    slo_window_s: float = 60.0


class DetectionServer:
    """Long-running detection-as-a-service endpoint."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        runner: Optional[DetectionRunner] = None,
    ):
        self.config = config or ServeConfig()
        cfg = self.config
        if cfg.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.registry = GraphRegistry(max_bytes=cfg.registry_bytes)
        self.cache = ResultCache(max_bytes=cfg.cache_bytes)
        if runner is not None:
            self.runner = runner
        elif cfg.runner == "inline":
            self.runner = InlineRunner()
        elif cfg.runner == "subprocess":
            self.runner = WorkerPool(
                workers=cfg.workers,
                mp_context=cfg.mp_context,
                worker_graph_cache=cfg.worker_graph_cache,
            )
        else:
            raise ValueError(
                f"unknown runner {cfg.runner!r}; expected 'subprocess' or 'inline'"
            )
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._c_requests = m.counter("serve/requests_total")
        self._c_hits = m.counter("serve/cache_hits")
        self._c_misses = m.counter("serve/cache_misses")
        self._c_shed = m.counter("serve/shed_total")
        self._c_timeouts = m.counter("serve/timeouts")
        self._c_errors = m.counter("serve/errors")
        self._c_uploads = m.counter("serve/uploads")
        self._g_inflight = m.gauge("serve/inflight")
        self._h_latency = m.histogram("serve/latency_ms")
        self._h_hit = m.histogram("serve/hit_latency_ms")
        self._h_miss = m.histogram("serve/miss_latency_ms")

        # ---- live telemetry: always-on windows, opt-in SLO/traces ---- #
        # sliding-window latency + request/error counters feed the
        # metrics op, the /metrics exposition, and the SLO evaluator;
        # their fixed log-spaced buckets merge exactly across processes.
        # The window's cumulative ladder *is* the registry's
        # serve/latency_ms histogram: every request latency lands in one
        # ladder that the manifest, its live block and /metrics all read.
        self._live_latency = SlidingWindowHistogram(window_s=cfg.slo_window_s)
        self._live_latency.cumulative = self._h_latency
        self._w_requests = WindowedCounter(window_s=cfg.slo_window_s)
        self._w_errors = WindowedCounter(window_s=cfg.slo_window_s)
        self._c_slo_violations = m.counter("serve/slo_violations")
        self._slo: Optional[SloMonitor] = None
        if cfg.slo:
            self._slo = SloMonitor(
                parse_slo_spec(cfg.slo, window_s=cfg.slo_window_s),
                self._live_latency,
                self._w_requests,
                self._w_errors,
                on_violation=self._on_slo_violation,
            )
        self._trace_collector: Optional[TraceCollector] = (
            TraceCollector(cfg.trace_dir, keep=cfg.trace_keep)
            if cfg.trace_dir
            else None
        )
        self._request_seq = 0
        self._http = None  # TelemetryHTTPServer when metrics_port is set
        self.metrics_port: Optional[int] = None

        self._inflight = 0
        self._draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._started_monotonic: Optional[float] = None
        self._drained_clean: Optional[bool] = None
        self.port: Optional[int] = None

    def _on_slo_violation(self, event: Dict[str, Any]) -> None:
        """Transition into violation: structured log line + counter."""
        self._c_slo_violations.add(1)
        logging.getLogger("repro.serve").warning(
            "slo_violation %s", json.dumps(event, sort_keys=True)
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> Tuple[str, int]:
        """Boot the runner and bind the socket; returns (host, port)."""
        await self.runner.start()
        cfg = self.config
        self._server = await asyncio.start_server(
            self._on_connection, cfg.host, cfg.port, limit=cfg.line_limit
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]
        self._started_monotonic = time.monotonic()
        if cfg.metrics_port is not None:
            from repro.serve.http import TelemetryHTTPServer

            self._http = TelemetryHTTPServer(
                self, host=cfg.host, port=cfg.metrics_port
            )
            self.metrics_port = await self._http.start()
        return cfg.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def drain(self) -> bool:
        """Graceful shutdown: stop accepting, let in-flight runs finish
        (up to ``drain_timeout_s``), cancel stragglers, stop the pool.
        Returns True when every in-flight request completed in budget."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_timeout_s
        while self._inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        clean = self._inflight == 0
        if not clean:
            for task in list(self._conn_tasks):
                task.cancel()
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self.runner.stop()
        # stopped last: a drain in progress is exactly when you want the
        # metrics endpoint to still answer
        if self._http is not None:
            await self._http.stop()
            self._http = None
        self._drained_clean = clean
        return clean

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # line exceeded the reader limit: refuse and hang up
                    writer.write(encode(error_response(
                        "bad_request", "request line exceeds server limit"
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._handle_line(line)
                writer.write(encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            # close without awaiting: the transport flushes and closes on
            # the loop, and a handler that lingers in wait_closed() shows
            # up as teardown noise when the loop shuts down
            writer.close()

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        t0 = time.perf_counter()
        self._c_requests.add(1)
        self._w_requests.add(1)
        response = await self._dispatch_line(line, t0)
        latency_ms = (time.perf_counter() - t0) * 1000.0
        self._live_latency.observe(latency_ms)
        # the SLO's error rate counts 5xx replies — internal failures,
        # timeouts, and shed load (backpressure is a health signal too)
        error = (not response.get("ok", False)
                 and int(response.get("status", 500)) >= 500)
        if error:
            self._w_errors.add(1)
        if self._slo is not None:
            self._slo.after_request(latency_ms, error)
        return response

    async def _dispatch_line(self, line: bytes, t0: float) -> Dict[str, Any]:
        try:
            message = decode(line)
            op = message.get("op")
            if op == "detect":
                return await self._detect(message, t0)
            if op == "ping":
                return self._ping()
            if op == "upload":
                return self._upload(message)
            if op == "stats":
                return self._stats()
            if op == "metrics":
                return self._metrics_op(message)
            if op == "graphs":
                return {"ok": True, "graphs": self.registry.entries()}
            if op == "evict":
                return self._evict(message)
            raise ProtocolError(
                "bad_request", f"unknown op {op!r}; expected one of {KNOWN_OPS}"
            )
        except ProtocolError as exc:
            self._c_errors.add(1)
            return error_response(exc.code, str(exc))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - a reply, not a crash
            self._c_errors.add(1)
            return error_response("internal", f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #
    def _ping(self) -> Dict[str, Any]:
        """Liveness probe, now carrying enough for a monitoring poll:
        uptime, version, and the cumulative request counters."""
        import repro

        uptime = (
            time.monotonic() - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        return {
            "ok": True,
            "op": "ping",
            "draining": self._draining,
            "uptime_s": uptime,
            "version": repro.__version__,
            "requests_total": int(self._c_requests.value),
            "cache_hits": int(self._c_hits.value),
            "cache_misses": int(self._c_misses.value),
            "shed_total": int(self._c_shed.value),
            "errors": int(self._c_errors.value),
        }

    def _metrics_op(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Live telemetry over the JSONL protocol: the same numbers the
        HTTP ``/metrics`` endpoint exports, plus a dashboard summary."""
        reply: Dict[str, Any] = {"ok": True, "summary": self.metrics_summary()}
        if bool(message.get("exposition", True)):
            reply["exposition"] = self.render_metrics_text()
        return reply

    def _upload(self, message: Dict[str, Any]) -> Dict[str, Any]:
        graph = graph_from_payload(message)
        fingerprint = self.registry.put(graph)
        self._c_uploads.add(1)
        return {
            "ok": True,
            "fingerprint": fingerprint,
            "name": graph.name,
            "n": int(graph.n),
            "num_edges": int(graph.num_edges),
        }

    def _evict(self, message: Dict[str, Any]) -> Dict[str, Any]:
        fingerprint = require_fingerprint(message)
        evicted = self.registry.evict(fingerprint)
        dropped = self.cache.evict_graph(fingerprint)
        return {"ok": True, "evicted": evicted, "results_dropped": dropped}

    def _stats(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "serve": self.metrics.snapshot(),
            "cache": self.cache.stats(),
            "registry": self.registry.stats(),
            "pool": self.runner.stats(),
            "inflight": self._inflight,
            "draining": self._draining,
        }

    async def _detect(self, message: Dict[str, Any], t0: float) -> Dict[str, Any]:
        fingerprint = require_fingerprint(message)
        config = parse_detect_config(message)
        include_assignment = bool(message.get("include_assignment", False))
        self._request_seq += 1
        request_id = f"req-{self._request_seq:06d}"
        graph = self.registry.get(fingerprint)
        if graph is None:
            return error_response(
                "not_found", f"no graph with fingerprint {fingerprint[:16]}…"
            )
        use_cache = not bool(message.get("no_cache", False))
        key = ResultCache.key(fingerprint, config)
        if use_cache:
            hit = self.cache.get(key)
            if hit is not None:
                self._c_hits.add(1)
                self._h_hit.observe((time.perf_counter() - t0) * 1000.0)
                response = detect_response(
                    True, hit, include_assignment, fingerprint
                )
                response["request_id"] = request_id
                return response
            self._c_misses.add(1)

        # ---- admission control: bounded engine backlog ---------------- #
        if self._draining:
            return error_response("draining", "server is draining")
        if self._inflight >= self.config.max_pending:
            self._c_shed.add(1)
            return error_response(
                "overloaded",
                f"engine backlog full ({self._inflight} in flight)",
                retry=True,
            )
        timeout = parse_optional_number(
            message, "timeout_s", self.config.request_timeout_s
        )
        tracing = self._trace_collector is not None
        trace_id = uuid.uuid4().hex[:16] if tracing else None
        self._inflight += 1
        self._g_inflight.set(self._inflight)
        # collect_spans is only passed when tracing is armed, so runner
        # stubs written against the pre-telemetry signature keep working
        # untraced — the disabled path stays invisible end to end
        run_kwargs = {"collect_spans": True} if tracing else {}
        try:
            t_dispatch = time.perf_counter()
            raw = await self.runner.run(
                graph, config, timeout=timeout, **run_kwargs
            )
            t_done = time.perf_counter()
        except DetectionTimeout as exc:
            self._c_timeouts.add(1)
            return error_response("timeout", str(exc))
        except DetectionFailed as exc:
            self._c_errors.add(1)
            return error_response("internal", str(exc))
        finally:
            self._inflight -= 1
            self._g_inflight.set(self._inflight)

        telemetry = raw.pop("telemetry", None) if isinstance(raw, dict) else None
        result = CachedResult.from_result(raw)
        if use_cache:
            self.cache.put(key, result)
        self._h_miss.observe((time.perf_counter() - t0) * 1000.0)
        response = detect_response(False, result, include_assignment, fingerprint)
        response["request_id"] = request_id
        if tracing and trace_id is not None:
            trace_path = self._write_request_trace(
                request_id, trace_id, t0, t_dispatch, t_done, telemetry, fingerprint
            )
            response["trace_id"] = trace_id
            if trace_path is not None:
                response["trace_path"] = trace_path
        return response

    def _write_request_trace(
        self,
        request_id: str,
        trace_id: str,
        t0: float,
        t_dispatch: float,
        t_done: float,
        telemetry: Optional[Dict[str, Any]],
        fingerprint: str,
    ) -> Optional[str]:
        """Merge server + worker spans into one Chrome trace.

        Everything here is already in the *server's* perf_counter domain:
        the pool shifted the worker's spans by the handshake-bounded clock
        offset before handing them up (see ``WorkerPool._server_domain_telemetry``).
        The per-request tracer's epoch is pinned to ``t0`` so the
        ``serve/request`` span starts at ts=0 and every child nests inside.
        """
        assert self._trace_collector is not None
        tracer = Tracer(process_name="serve")
        tracer._t0 = t0
        spans: List[Dict[str, Any]] = [
            make_span(
                "serve/request",
                t0,
                time.perf_counter(),
                pid=0,
                args={"request_id": request_id, "fingerprint": fingerprint[:16]},
            ),
            make_span("serve/pool.dispatch", t_dispatch, t_done, pid=0),
        ]
        tracer.ingest(spans, labels={0: "serve"})
        if telemetry:
            tracer.ingest(
                telemetry.get("spans") or [],
                labels=telemetry.get("labels") or {},
            )
        chrome = build_request_trace(tracer, trace_id, request_id)
        try:
            return self._trace_collector.write(self._request_seq, trace_id, chrome)
        except OSError as exc:  # tracing must never fail the request
            logging.getLogger("repro.serve").warning(
                "trace write failed for %s: %s", request_id, exc
            )
            return None

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def bridge_metrics(self) -> None:
        """Fold the cache/registry/pool counters into the registry as
        gauges (cumulative values, sim-profiler bridge semantics)."""
        self.metrics.bridge_result_cache(self.cache)
        for name, value in self.registry.stats().items():
            self.metrics.gauge(f"serve/registry/{name}").set(value)
        pool = self.runner.stats()
        for name in ("workers", "respawns", "idle", "runs"):
            if name in pool:
                self.metrics.gauge(f"serve/pool/{name}").set(pool[name])
        # worker-side telemetry folded from every reply (satellite: the
        # pool accumulates these even for requests that aren't traced)
        for name, value in (pool.get("worker_totals") or {}).items():
            self.metrics.gauge(f"serve/worker/{name}").set(value)
        for backend, count in (pool.get("kernel_backends") or {}).items():
            self.metrics.gauge(f"serve/worker/kernel/{backend}").set(count)

    def health(self) -> Tuple[bool, Dict[str, Any]]:
        """The ``/healthz`` answer: healthy iff not draining and (when an
        SLO is configured) the rolling window meets its targets."""
        status: Dict[str, Any] = {"draining": self._draining}
        healthy = not self._draining
        if self._slo is not None:
            slo_status = self._slo.evaluate()
            status["slo"] = slo_status
            healthy = healthy and bool(slo_status["healthy"])
        status["healthy"] = healthy
        return healthy, status

    def metrics_summary(self) -> Dict[str, Any]:
        """The dashboard-facing summary (``repro top`` renders this)."""
        window = self._live_latency.window().snapshot()
        cache = self.cache.stats()
        pool = self.runner.stats()
        uptime = (
            time.monotonic() - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        summary: Dict[str, Any] = {
            "uptime_s": uptime,
            "draining": self._draining,
            "requests_total": int(self._c_requests.value),
            "req_per_s": self._w_requests.rate_per_s(),
            "window_requests": int(self._w_requests.window_total()),
            "window_errors": int(self._w_errors.window_total()),
            "window_p50_ms": window["p50"],
            "window_p95_ms": window["p95"],
            "window_p99_ms": window["p99"],
            "cache_hit_rate": cache["hit_rate"],
            "shed_total": int(self._c_shed.value),
            "inflight": self._inflight,
            "backlog_limit": self.config.max_pending,
            "workers": pool.get("workers", 0),
            "worker_restarts": pool.get("respawns", 0),
            "traces_written": (
                self._trace_collector.written if self._trace_collector else 0
            ),
        }
        if self._slo is not None:
            summary["slo"] = self._slo.evaluate()
        return summary

    def render_metrics_text(self) -> str:
        """The Prometheus text exposition of the whole session."""
        self.bridge_metrics()
        snapshot = self.metrics.snapshot()
        counters = {
            name: float(value) for name, value in snapshot["counters"].items()
        }
        gauges = {
            name: float(value) for name, value in snapshot["gauges"].items()
        }
        uptime = (
            time.monotonic() - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        window = self._live_latency.window()
        n_window = self._w_requests.window_total()
        n_errors = self._w_errors.window_total()
        gauges.update(
            {
                "serve/uptime_s": uptime,
                "serve/req_per_s": self._w_requests.rate_per_s(),
                "serve/window_requests": n_window,
                "serve/window_errors": n_errors,
                "serve/window_error_rate": (
                    n_errors / n_window if n_window else 0.0
                ),
                "serve/window_p50_ms": window.quantile(0.50),
                "serve/window_p95_ms": window.quantile(0.95),
                "serve/window_p99_ms": window.quantile(0.99),
                "serve/backlog_depth": float(self._inflight),
                "serve/healthy": float(self.health()[0]),
            }
        )
        return render_prometheus(
            counters=counters,
            gauges=gauges,
            histograms={"serve/request_latency_ms": self._h_latency},
            help_text={
                "serve/request_latency_ms": (
                    "request latency (ms), fixed log-spaced buckets"
                ),
                "serve/requests_total": "requests received since boot",
                "serve/healthy": "1 when /healthz would answer 200",
            },
        )

    def manifest(self, command: str = "serve") -> RunManifest:
        """Snapshot the session as a :class:`RunManifest` (written on
        drain by the CLI; renders via ``repro report``)."""
        self.bridge_metrics()
        cache = self.cache.stats()
        snapshot = self.metrics.snapshot()
        latency = snapshot["histograms"].get("serve/latency_ms", {})
        hit_lat = snapshot["histograms"].get("serve/hit_latency_ms", {})
        miss_lat = snapshot["histograms"].get("serve/miss_latency_ms", {})
        uptime = (
            time.monotonic() - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        manifest = RunManifest(
            command=command,
            runtime="serve",
            config=_config_dict(self.config),
            metrics=snapshot,
        )
        manifest.result = {
            "requests": int(self._c_requests.value),
            "cache_hits": int(cache["hits"]),
            "cache_misses": int(cache["misses"]),
            "cache_hit_rate": cache["hit_rate"],
            "shed": int(self._c_shed.value),
            "timeouts": int(self._c_timeouts.value),
            "errors": int(self._c_errors.value),
            "latency_p50_ms": latency.get("p50", 0.0),
            "latency_p99_ms": latency.get("p99", 0.0),
            "hit_latency_p50_ms": hit_lat.get("p50", 0.0),
            "miss_latency_p50_ms": miss_lat.get("p50", 0.0),
            "uptime_s": uptime,
            "drained_clean": self._drained_clean,
        }
        # the cumulative latency ladder's percentiles: the same numbers
        # /metrics exports and latency_p50_ms/latency_p99_ms above, so a
        # scrape taken during the session and the drain manifest agree
        # exactly
        live = self._h_latency
        manifest.result["live"] = {
            "requests": live.count,
            "p50_ms": live.quantile(0.50),
            "p95_ms": live.quantile(0.95),
            "p99_ms": live.quantile(0.99),
        }
        if self._slo is not None:
            manifest.result["slo"] = self._slo.report()
        if self._trace_collector is not None:
            manifest.result["traces_written"] = self._trace_collector.written
        return manifest
