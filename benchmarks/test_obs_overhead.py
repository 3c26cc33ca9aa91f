"""Tracer overhead: observability must stay cheap enough to leave on.

Two guarantees, both load-bearing for the rest of the suite:

* **disabled** — instrumented call sites cost one global read + branch;
  the shared NULL_SPAN means a run outside any session allocates nothing
  for tracing and is indistinguishable from the pre-obs code;
* **enabled** — full tracing + metrics on the smoke workload stays under
  5% wall-clock overhead. Both variants are warmed (the first traced run
  pays one-time lazy imports) and sampled interleaved, so CPU-frequency
  drift hits both sides equally and a scheduler hiccup can't fail the pin.
"""

from __future__ import annotations

import time

import numpy as np

from repro import obs
from repro.core.phase1 import Phase1Config, run_phase1
from repro.graph.generators import load_dataset
from repro.obs import NULL_SPAN

#: overhead pin from the acceptance criteria
MAX_OVERHEAD = 0.05
#: runs per sample — averages per-run noise inside one timed batch
BATCH = 5
#: interleaved (plain, traced) sample pairs; each pair is adjacent in
#: time so frequency drift cancels in the per-pair ratio
ROUNDS = 12


def test_disabled_span_is_shared_singleton():
    # zero allocations on the hot path: every disabled span is the same
    # object, so a million engine iterations create no garbage
    spans = {id(obs.span("engine/decide", n=i)) for i in range(100)}
    assert spans == {id(NULL_SPAN)}


def test_traced_run_overhead_under_5pct(benchmark, bench_scale):
    graph = load_dataset("LJ", scale=min(bench_scale, 0.05))
    cfg = Phase1Config(pruning="mg")

    def plain():
        run_phase1(graph, cfg)

    def traced():
        with obs.session():  # in-memory artifacts: isolates tracer cost
            run_phase1(graph, cfg)

    def sample(fn):
        start = time.perf_counter()
        for _ in range(BATCH):
            fn()
        return (time.perf_counter() - start) / BATCH

    def measure():
        plain()
        traced()  # warm both variants (lazy imports, allocator, caches)
        ratios, plain_s = [], []
        for _ in range(ROUNDS):
            p = sample(plain)
            t = sample(traced)
            plain_s.append(p)
            ratios.append(t / p)
        # min-of-ratios: the pair measured in the quietest scheduler
        # window — the standard noise-robust overhead estimator
        return float(np.min(plain_s)), float(np.min(ratios))

    plain_s, ratio = benchmark.pedantic(measure, rounds=1, iterations=1)

    overhead = ratio - 1.0
    print(f"\nplain={plain_s * 1e3:.1f}ms "
          f"overhead={overhead * 100:+.1f}%")
    assert overhead < MAX_OVERHEAD, (
        f"tracing overhead {overhead * 100:.1f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% pin"
    )


def test_serve_telemetry_overhead_under_5pct(benchmark):
    """The 5% pin extends to the serve path: a server with the full live
    telemetry stack on (HTTP listener, request tracing, SLO monitor)
    answers cache-hit requests within 5% of a bare server.

    Hits are the right probe: they are pure serve-layer work (parse,
    cache lookup, reply), so any per-request telemetry cost shows up
    undiluted by engine time. Same interleaved min-of-ratios estimator
    as the engine-path test: both servers live in one event loop, and
    each round times one batch on each, adjacent in time (the order
    alternates between rounds).
    """
    import asyncio
    import contextlib
    import tempfile

    from repro.graph.generators import ring_of_cliques
    from repro.serve import DetectionServer, ServeClient, ServeConfig

    graph = ring_of_cliques(8, 6)
    hits_per_sample = 50

    async def measure_async(trace_dir):
        configs = [
            ServeConfig(port=0, runner="inline"),
            ServeConfig(
                port=0,
                runner="inline",
                metrics_port=0,
                trace_dir=trace_dir,
                slo="p99_ms=10000,error_rate=0.5",
            ),
        ]
        async with contextlib.AsyncExitStack() as stack:
            sessions = []
            for cfg in configs:
                server = DetectionServer(cfg)
                host, port = await server.start()
                stack.push_async_callback(server.drain)
                client = await stack.enter_async_context(
                    await ServeClient.connect(host, port)
                )
                fingerprint = await client.upload(graph)
                await client.detect(fingerprint, seed=0)  # warm the cache
                sessions.append((client, fingerprint))

            async def sample(client, fingerprint):
                start = time.perf_counter()
                for _ in range(hits_per_sample):
                    await client.detect(fingerprint, seed=0)
                return (time.perf_counter() - start) / hits_per_sample

            plain, telemetry = [], []
            for r in range(2 + ROUNDS):  # the first two rounds warm up
                order = (0, 1) if r % 2 == 0 else (1, 0)
                got = {i: await sample(*sessions[i]) for i in order}
                plain.append(got[0])
                telemetry.append(got[1])
            return plain[2:], telemetry[2:]

    def measure():
        with tempfile.TemporaryDirectory() as trace_dir:
            plain, telemetry = asyncio.run(measure_async(trace_dir))
        ratios = [t / p for p, t in zip(plain, telemetry)]
        return float(np.min(plain)), float(np.min(ratios))

    plain_s, ratio = benchmark.pedantic(measure, rounds=1, iterations=1)

    overhead = ratio - 1.0
    print(f"\nhit={plain_s * 1e6:.0f}us overhead={overhead * 100:+.1f}%")
    assert overhead < MAX_OVERHEAD, (
        f"serve telemetry overhead {overhead * 100:.1f}% exceeds "
        f"{MAX_OVERHEAD * 100:.0f}% pin"
    )


def test_traced_run_results_identical(bench_scale):
    graph = load_dataset("LJ", scale=min(bench_scale, 0.05))
    cfg = Phase1Config(pruning="mg")
    plain = run_phase1(graph, cfg)
    with obs.session():
        traced = run_phase1(graph, cfg)
    assert np.array_equal(plain.communities, traced.communities)
    assert traced.modularity == plain.modularity
