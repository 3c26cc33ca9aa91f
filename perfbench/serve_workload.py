"""serve-mixed: closed-loop traffic against an in-process detection server.

Two client connections share one op stream; each sends its next
request only after the previous reply (a closed loop). The server runs
the subprocess pool with one worker. One *pass* of the stream is 400
cache hits, 120 engine-running misses and 30 uploads of fresh graphs,
shuffled by the seed; passes repeat until the measuring window closes.

* hits ask for the key warmed at set-up on one of six base graphs
  (``rmat_graph(12, 8)``, resolution 1.0, request seed 0);
* miss ``j`` of a pass asks for base graph ``j % 6`` at resolution
  ``1 + (j + 1) / 256`` with request seed ``pass + 1``: every miss key is
  unique and none equals a warmed key, while every pass does the same
  engine work;
* uploads send ``rmat_graph(11, 8)`` graphs no earlier pass sent.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import time
from collections import defaultdict

import numpy as np

from repro.core.modularity import modularity
from repro.graph.generators import rmat_graph
from repro.serve import DetectionServer, ServeClient, ServeConfig
from repro.serve.cache import assignment_sha256

from common import (
    Deadline,
    beyond_p90,
    load_pins,
    median,
    p90,
    peak_rss_mb,
    pin_mismatches,
    warm_jit,
)
from seams import LayerClock, TimedRunner, timed_methods

NAME = "serve-mixed"
BASE_GRAPHS = 6
HITS, MISSES, UPLOADS = 400, 120, 30
CONNECTIONS = 2
WARM = {"resolution": 1.0}


def _graph(seed: int, stream: int, index: int, scale: int):
    ss = np.random.SeedSequence([seed, stream, index])
    return rmat_graph(scale, edge_factor=8, seed=ss, name=f"g{stream}-{index}")


def miss_resolution(j: int) -> float:
    return 1.0 + (j + 1) / 256.0


def pass_ops(seed: int, pass_idx: int) -> list:
    """The shuffled op stream of one pass."""
    ops = [("hit", j % BASE_GRAPHS) for j in range(HITS)]
    ops += [("miss", j % BASE_GRAPHS, miss_resolution(j)) for j in range(MISSES)]
    ops += [("upload", k) for k in range(UPLOADS)]
    order = np.random.default_rng([seed, 2, pass_idx]).permutation(len(ops))
    return [ops[i] for i in order]


class Session:
    """One booted server with its clients, base graphs and warm keys."""

    def __init__(self, seed: int):
        self.seed = seed
        self.graphs = [_graph(seed, 0, i, 12) for i in range(BASE_GRAPHS)]
        self.server = None
        self.clients = []
        self.fingerprints = []
        self.warm_sha = []
        self.errors = []

    async def boot(self) -> None:
        self.server = DetectionServer(ServeConfig(workers=1, mp_context="spawn"))
        host, port = await self.server.start()
        self.clients = [await ServeClient.connect(host, port) for _ in range(CONNECTIONS)]
        client = self.clients[0]
        for graph in self.graphs:
            fp = await client.upload(graph)
            if fp != graph.fingerprint:
                self.errors.append("upload fingerprint differs from the local one")
            self.fingerprints.append(fp)
        for graph, fp in zip(self.graphs, self.fingerprints):
            reply = await client.detect(fp, config=WARM, seed=0, include_assignment=True)
            assignment = np.asarray(reply["assignment"], dtype=np.int64)
            if reply.get("cached"):
                self.errors.append("warm-up detect was served from the cache")
            if assignment_sha256(assignment) != reply["assignment_sha256"]:
                self.errors.append("warm-up digest does not match its assignment")
            if abs(modularity(graph, assignment) - reply["modularity"]) > 1e-9:
                self.errors.append("warm-up Q differs from modularity() of its assignment")
            self.warm_sha.append(reply["assignment_sha256"])

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        if self.server is not None:
            await self.server.drain()


async def _send(client, session: Session, op, pass_idx: int, uploads: list):
    kind = op[0]
    if kind == "hit":
        return await client.detect(
            session.fingerprints[op[1]], config=WARM, seed=0, raise_on_error=False
        )
    if kind == "miss":
        return await client.detect(
            session.fingerprints[op[1]],
            config={"resolution": op[2]},
            seed=pass_idx + 1,
            include_assignment=True,
            raise_on_error=False,
        )
    return await client.upload(uploads[op[1]], raise_on_error=False)


async def run_pass(session: Session, pass_idx: int) -> dict:
    """Send one pass of the op stream over every connection."""
    uploads = [_graph(session.seed, 1 + pass_idx, k, 11) for k in range(UPLOADS)]
    ops = pass_ops(session.seed, pass_idx)
    stream = iter(ops)
    records = []

    async def connection(client):
        for op in stream:
            t0 = time.perf_counter()
            reply = await _send(client, session, op, pass_idx, uploads)
            records.append((op, (time.perf_counter() - t0) * 1000.0, reply))

    before = session.server.cache.stats()
    t0 = time.perf_counter()
    await asyncio.gather(*(connection(c) for c in session.clients))
    wall = time.perf_counter() - t0
    after = session.server.cache.stats()
    return {
        "pass_idx": pass_idx,
        "records": records,
        "uploads": uploads,
        "wall_s": wall,
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
        "evictions": after["evictions"] - before["evictions"],
        "registry_bytes": session.server.registry.stats()["bytes"],
    }


def check_pass(session: Session, result: dict, miss_sha: dict) -> tuple:
    """(attempted, failed, errors) of one pass; fills ``miss_sha`` with
    the assignment digest of every ``(graph, resolution)`` miss key."""
    failed, errors = 0, []
    for op, _ms, reply in result["records"]:
        err = None
        kind = op[0]
        if kind == "upload":
            if reply != result["uploads"][op[1]].fingerprint:
                err = "upload returned a wrong fingerprint"
        elif not reply.get("ok"):
            err = f"error reply: {reply.get('error')}"
        elif kind == "hit":
            if not reply.get("cached"):
                err = "expected a cache hit, got a miss"
            elif reply["assignment_sha256"] != session.warm_sha[op[1]]:
                err = "hit returned another key's assignment"
        else:
            assignment = np.asarray(reply["assignment"], dtype=np.int64)
            graph = session.graphs[op[1]]
            sha = assignment_sha256(assignment)
            q = modularity(graph, assignment, resolution=op[2])
            if reply.get("cached"):
                err = "expected a miss, got a cache hit"
            elif sha != reply["assignment_sha256"]:
                err = "miss digest does not match its assignment"
            elif abs(q - reply["modularity"]) > 1e-9:
                err = "miss Q differs from modularity() of its assignment"
            elif miss_sha.setdefault((op[1], op[2]), sha) != sha:
                err = "miss assignment differs between passes"
        if err is not None:
            failed += 1
            errors.append(err)
    if (result["hits"], result["misses"]) != (HITS, MISSES):
        failed += 1
        errors.append(
            f"server counted {result['hits']} hits / {result['misses']} misses"
        )
    return len(result["records"]) + 1, failed, errors


def _latencies(results: list) -> dict:
    by_kind = defaultdict(list)
    for res in results:
        for op, ms, _reply in res["records"]:
            by_kind[op[0]].append(ms)
    return by_kind


async def _run(seed: int, seconds: float, trace: bool, jit_root: str) -> dict:
    t0 = time.perf_counter()
    session = Session(seed)
    plain, traced = [], []
    miss_sha: dict = {}
    clock = LayerClock()
    try:
        jit = warm_jit(os.path.join(jit_root, "setup"))
        await session.boot()
        setup_s = time.perf_counter() - t0
        errors = list(session.errors)
        attempted, failed = 1, int(bool(errors))

        window = Deadline(seconds)
        pass_idx = 0
        while window.open() or not plain or (trace and not traced):
            tracing = trace and pass_idx % 2 == 1
            if tracing:
                result = await _traced_pass(session, pass_idx, clock)
                traced.append(result)
            else:
                result = await run_pass(session, pass_idx)
                plain.append(result)
            a, f, errs = check_pass(session, result, miss_sha)
            attempted, failed, errors = attempted + a, failed + f, errors + errs
            # drop the pass's uploads so memory does not grow with the
            # number of passes that fit the window
            for graph in result["uploads"]:
                session.server.registry.evict(graph.fingerprint)
            pass_idx += 1
    finally:
        await session.close()

    lat = _latencies(plain)
    digest = hashlib.sha256(
        repr(sorted(miss_sha.items()) + list(session.warm_sha)).encode()
    ).hexdigest()
    observed = {"traffic_sha256": digest, "hits_per_pass": HITS, "misses_per_pass": MISSES}
    bad_pins = pin_mismatches(load_pins(NAME, seed), observed)
    if bad_pins:
        failed += 1
        errors.append(f"pinned values differ: {bad_pins}")
    all_ms = [ms for values in lat.values() for ms in values]
    detail = {
        "digest": {"traffic_sha256": digest},
        "jit": jit,
        "passes": {"plain": len(plain), "traced": len(traced)},
        "samples": {kind: len(v) for kind, v in lat.items()},
        "beyond_p90": {kind: beyond_p90(v) for kind, v in lat.items()},
        "latency_ms": {
            kind: {"p50": median(v), "p90": p90(v)} for kind, v in lat.items()
        },
    }
    if trace:
        metrics = _layer_metrics(clock, traced, plain, lat)
    else:
        metrics = {
            "detect_s": median(lat["miss"]) / 1000.0,
            "request_p50_ms": median(all_ms),
            "request_rps": len(all_ms) / sum(r["wall_s"] for r in plain),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(children=True),
        }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "detail": detail,
    }


async def _traced_pass(session: Session, pass_idx: int, clock: LayerClock) -> dict:
    """One pass with the runner, cache and registry seams timed."""
    server = session.server
    runner = TimedRunner(server.runner)
    server.runner = runner
    try:
        with timed_methods(clock, server.cache, {"get": "cache.get", "put": "cache.put"}), \
                timed_methods(clock, server.registry, {"put": "registry.put"}):
            result = await run_pass(session, pass_idx)
    finally:
        server.runner = runner.inner
    result["run_s"] = runner.run_s
    return result


def _layer_metrics(clock, traced, plain, lat) -> dict:
    run_ms, intake_ms = [], []
    for res in traced:
        for op, ms, reply in res["records"]:
            if op[0] != "miss":
                continue
            key = (reply["fingerprint"], op[2], res["pass_idx"] + 1)
            pool_ms = res["run_s"][key] * 1000.0
            run_ms.append(pool_ms)
            intake_ms.append(ms - pool_ms)
    traced_rps = sum(len(r["records"]) for r in traced) / sum(r["wall_s"] for r in traced)
    plain_rps = sum(len(r["records"]) for r in plain) / sum(r["wall_s"] for r in plain)
    ms = {k: [s * 1000.0 for s in v] for k, v in clock.samples.items()}
    return {
        "pool.run_ms_p50": median(run_ms),
        "pool.run_ms_p90": p90(run_ms),
        "pool.runs": len(run_ms),
        "serve.intake_ms_p50": median(intake_ms),
        "serve.hit_p50_ms": median(lat["hit"]),
        "serve.hit_p90_ms": p90(lat["hit"]),
        "serve.miss_p50_ms": median(lat["miss"]),
        "serve.miss_p90_ms": p90(lat["miss"]),
        "serve.upload_p50_ms": median(lat["upload"]),
        "cache.get_ms_p50": median(ms["cache.get"]),
        "cache.put_ms_p50": median(ms["cache.put"]),
        "cache.hits": sum(r["hits"] for r in traced),
        "cache.misses": sum(r["misses"] for r in traced),
        "cache.evictions": sum(r["evictions"] for r in traced),
        "registry.put_ms_p50": median(ms["registry.put"]),
        "registry.bytes": max(r["registry_bytes"] for r in traced),
        "obs.trace_overhead_pct": (plain_rps / traced_rps - 1.0) * 100.0,
    }


def run(seed: int, seconds: float, trace: bool, jit_root: str) -> dict:
    return asyncio.run(_run(seed, seconds, trace, jit_root))
