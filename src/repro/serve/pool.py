"""Detection runners: where the server actually runs engines.

The server never calls :func:`~repro.core.gala.gala` directly — it talks
to a :class:`DetectionRunner`, the serving layer's analogue of the
engine's ``Executor`` protocol: one seam, several runtimes behind it.

* :class:`InlineRunner` runs the engine in a thread of the server
  process. It exists for tests and smoke runs (zero startup cost, easy
  to instrument) — but NumPy kernels hold the GIL for long stretches, so
  an inline engine run stalls the event loop's intake. Not for traffic.
* :class:`WorkerPool` runs engines in subprocesses. The asyncio loop
  stays free to accept, shed, and answer cache hits while every core
  crunches; a hung or runaway run is killed and its worker respawned
  (per-request timeout and cancellation), so one poisoned request never
  wedges the pool.

Workers keep a small fingerprint-keyed graph cache, so a hot graph's
payload crosses the process boundary once per worker, not once per
request — the subprocess mirror of the server's
:class:`~repro.serve.registry.GraphRegistry`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import os
import time
from abc import ABC, abstractmethod
from typing import Any, Dict, Optional

import numpy as np

from repro.core.gala import GalaConfig
from repro.graph.csr import CSRGraph
from repro.obs.collector import ClockSync, make_span, shift_spans


class DetectionFailed(Exception):
    """The engine raised (bad config, worker crash): the request fails,
    the pool survives."""


class DetectionTimeout(DetectionFailed):
    """The per-request timeout elapsed; the worker was killed."""


class PoolClosed(RuntimeError):
    """Submit after ``stop()``."""


def result_payload(result) -> Dict[str, Any]:
    """The plain-dict result shape every runner returns (and workers ship
    over the pipe): exactly what :class:`~repro.serve.cache.CachedResult`
    needs, nothing an asyncio server has to introspect."""
    levels = getattr(result, "levels", None)
    if levels is not None:
        iterations = sum(len(lvl.phase1.history) for lvl in levels)
        num_levels = len(levels)
    else:
        iterations = int(getattr(result, "num_iterations", 0))
        num_levels = 1
    return {
        "communities": np.ascontiguousarray(result.communities, dtype=np.int64),
        "modularity": float(result.modularity),
        "num_levels": num_levels,
        "iterations": iterations,
    }


def run_counters(result) -> Dict[str, Any]:
    """Compact per-run accounting a runner ships on *every* reply.

    Everything here comes off the result's iteration history — no obs
    session required, so an untraced worker still reports the kernel
    backends it used and the iterations it ran. This is what keeps the
    server-side aggregates exact: before this record existed, worker
    subprocesses dropped their accounting on the floor unless a manifest
    was requested, and server totals undercounted every normal request.
    """
    levels = getattr(result, "levels", None)
    if levels is not None:
        phase1s = [lvl.phase1 for lvl in levels]
    else:
        phase1s = [result]
    counters: Dict[str, Any] = {
        "detections": 1,
        "levels": len(phase1s),
        "iterations": 0,
        "kernel_backends": {},
    }
    for phase1 in phase1s:
        for trace in getattr(phase1, "history", []):
            counters["iterations"] += 1
            backend = getattr(trace, "kernel_backend", None)
            if backend is not None:
                kb = counters["kernel_backends"]
                kb[backend] = kb.get(backend, 0) + 1
    return counters


def run_detection(
    graph: CSRGraph, config: GalaConfig, spans: bool, process_name: str
) -> Dict[str, Any]:
    """Run :func:`~repro.core.gala.gala` once and build the reply both
    runners ship: :func:`result_payload` plus a ``telemetry`` record with
    the pid, the :func:`run_counters` and — when ``spans`` — the spans of
    an obs session named ``process_name`` around the run, in this
    process's clock."""
    from repro import obs
    from repro.core.gala import gala

    if spans:
        with obs.session(process_name=process_name) as sess:
            result = gala(graph, config)
        exported = sess.tracer.export_spans()
    else:
        result = gala(graph, config)
        exported = None
    payload = result_payload(result)
    telemetry: Dict[str, Any] = {
        "pid": os.getpid(),
        "counters": run_counters(result),
    }
    if exported is not None:
        telemetry["spans"] = exported["spans"]
        telemetry["labels"] = exported["labels"]
        telemetry["dropped"] = exported["dropped"]
    payload["telemetry"] = telemetry
    return payload


# --------------------------------------------------------------------- #
# the runner seam
# --------------------------------------------------------------------- #
class DetectionRunner(ABC):
    """One detection request in, one plain result dict out."""

    def __init__(self) -> None:
        #: cross-request aggregates folded from every reply's run
        #: counters — the server bridges these into its metrics
        self.worker_totals: Dict[str, int] = {}
        self.kernel_backends: Dict[str, int] = {}

    async def start(self) -> None:
        """Bring up whatever the runner needs (worker processes)."""

    @abstractmethod
    async def run(
        self,
        graph: CSRGraph,
        config: GalaConfig,
        timeout: Optional[float] = None,
        collect_spans: bool = False,
    ) -> Dict[str, Any]:
        """Run one detection; raises :class:`DetectionFailed` /
        :class:`DetectionTimeout`. Cancellation must leave the runner
        usable for the next request. With ``collect_spans`` the result
        dict carries a ``telemetry`` entry whose ``spans`` are wire
        spans already mapped into *this* process's clock domain."""

    async def stop(self) -> None:
        """Tear down (idempotent)."""

    def stats(self) -> Dict[str, Any]:
        return {}

    def _fold_counters(self, counters: Optional[Dict[str, Any]]) -> None:
        """Accumulate one reply's run counters into the runner totals."""
        if not counters:
            return
        totals = self.worker_totals
        for key in ("detections", "levels", "iterations"):
            totals[key] = totals.get(key, 0) + int(counters.get(key, 0) or 0)
        for backend, count in (counters.get("kernel_backends") or {}).items():
            kb = self.kernel_backends
            kb[backend] = kb.get(backend, 0) + int(count)


class InlineRunner(DetectionRunner):
    """Run engines in-process (a worker thread). Tests and smoke only —
    see the module docstring for why this cannot serve traffic."""

    def __init__(self):
        super().__init__()
        self.runs = 0

    async def run(
        self,
        graph: CSRGraph,
        config: GalaConfig,
        timeout: Optional[float] = None,
        collect_spans: bool = False,
    ) -> Dict[str, Any]:
        self.runs += 1
        loop = asyncio.get_running_loop()

        def _work() -> Dict[str, Any]:
            t_start = time.perf_counter()
            payload = run_detection(graph, config, collect_spans, "serve-inline")
            # same clock, same process: spans need no offset, and the
            # detect span brackets the engine run
            t_end = time.perf_counter()
            telemetry = payload["telemetry"]
            if collect_spans:
                telemetry["spans"] = [
                    make_span(
                        "worker/detect", t_start, t_end,
                        args={"runner": "inline"},
                    ),
                    *telemetry["spans"],
                ]
            return payload

        try:
            payload = await asyncio.wait_for(
                loop.run_in_executor(None, _work), timeout
            )
            self._fold_counters(payload["telemetry"].get("counters"))
            return payload
        except asyncio.TimeoutError:
            # the thread keeps running (no way to kill it) — precisely
            # the deficiency the subprocess pool exists to fix
            raise DetectionTimeout(
                f"inline detection exceeded {timeout}s (thread not reclaimed)"
            ) from None
        except (DetectionFailed, asyncio.CancelledError):
            raise
        except Exception as exc:
            raise DetectionFailed(f"{type(exc).__name__}: {exc}") from exc

    def stats(self) -> Dict[str, Any]:
        return {
            "kind": "inline",
            "runs": self.runs,
            "worker_totals": dict(self.worker_totals),
            "kernel_backends": dict(self.kernel_backends),
        }


# --------------------------------------------------------------------- #
# subprocess workers
# --------------------------------------------------------------------- #
def _worker_main(conn, graph_cache_size: int) -> None:
    """Worker loop: receive jobs on ``conn``, run GALA, reply.

    Runs in a fresh (spawned) interpreter. SIGINT is ignored — a Ctrl+C
    in the server's terminal reaches the whole process group, and
    shutdown must stay the parent's decision (it drains, then sends
    ``stop``). PDEATHSIG reaps the worker if the server dies without
    draining.

    Every reply carries a ``telemetry`` record: the worker-clock receive
    and send stamps that drive the parent's clock sync, plus the run
    counters (:func:`run_counters`) on success. When the job asks for
    spans, the run executes under an obs session and the session's spans
    ship back in the worker's clock domain.
    """
    import signal
    from collections import OrderedDict

    from repro.utils import set_pdeathsig

    set_pdeathsig()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # one compiled-loop thread per worker: the workers are the parallelism
    from repro.core.kernels.jit import cap_threads

    cap_threads(1)

    clock = time.perf_counter
    graphs: "OrderedDict[str, CSRGraph]" = OrderedDict()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        t_job_recv = clock()
        op = msg.get("op")
        if op == "stop":
            break
        if op == "ping":
            conn.send({"ok": True, "pid": os.getpid()})
            continue
        try:
            fp = msg["fingerprint"]
            payload = msg.get("graph")
            if payload is not None:
                if "mmap_path" in payload:
                    # on-disk store: map it read-only instead of copying
                    # the adjacency into this worker's heap — every
                    # worker shares the same page-cache pages
                    from repro.graph.mmap_store import open_mmap

                    mapped = open_mmap(payload["mmap_path"], validate=False)
                    object.__setattr__(mapped, "_fingerprint", fp)
                    graphs[fp] = mapped
                else:
                    graphs[fp] = CSRGraph(
                        indptr=payload["indptr"],
                        indices=payload["indices"],
                        weights=payload["weights"],
                        self_weight=payload["self_weight"],
                        name=payload["name"],
                        _fingerprint=fp,
                    )
                while len(graphs) > graph_cache_size:
                    graphs.popitem(last=False)
            graph = graphs.get(fp)
            if graph is None:
                conn.send({"ok": False, "need_graph": True})
                continue
            graphs.move_to_end(fp)
            want_spans = bool((msg.get("telemetry") or {}).get("spans"))
            reply = run_detection(
                graph, GalaConfig(**msg["config"]), want_spans, "serve-worker"
            )
            reply["ok"] = True
            telemetry = reply["telemetry"]
            telemetry["t_job_recv"] = t_job_recv
            telemetry["t_reply_send"] = clock()
            conn.send(reply)
        except Exception as exc:  # noqa: BLE001 - the reply IS the report
            conn.send({
                "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "telemetry": {
                    "pid": os.getpid(),
                    "t_job_recv": t_job_recv,
                    "t_reply_send": clock(),
                },
            })


class _WorkerHandle:
    """One subprocess + its pipe + the fingerprints it already holds."""

    def __init__(self, ctx, graph_cache_size: int):
        self.conn, child = ctx.Pipe(duplex=True)
        # daemonic: a worker runs its detections in-process and may not
        # spawn children. A SIGKILLed server skips the daemon cleanup, so
        # PDEATHSIG in the worker and the pipe (a closed parent end reads
        # as EOF → exit) reap it then.
        self.process = ctx.Process(
            target=_worker_main,
            args=(child, graph_cache_size),
            daemon=True,
        )
        self.process.start()
        child.close()
        self.known: set[str] = set()
        self.pid: Optional[int] = self.process.pid

    def send(self, msg: Dict[str, Any]) -> None:
        self.conn.send(msg)

    def recv(self) -> Dict[str, Any]:
        """Blocking receive (called from an executor thread). A killed
        worker reads as a crash report, not an exception — the future may
        already be cancelled and must not warn."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return {"ok": False, "crashed": True}

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=1.0)

    def stop(self) -> None:
        """Polite shutdown for an idle worker."""
        try:
            self.conn.send({"op": "stop"})
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.process.join(timeout=2.0)
        self.kill()


class WorkerPool(DetectionRunner):
    """Fixed-size pool of subprocess workers behind the runner seam.

    Concurrency equals ``workers``; callers beyond that wait on the idle
    queue (the server's admission control bounds how many may wait).
    ``spawn`` is the default start method: the server runs an event loop
    with helper threads, and forking a threaded process is a lock-state
    lottery the serving layer refuses to play.
    """

    def __init__(
        self,
        workers: int = 2,
        mp_context: str = "spawn",
        worker_graph_cache: int = 8,
    ):
        super().__init__()
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.worker_graph_cache = worker_graph_cache
        self._ctx = multiprocessing.get_context(mp_context)
        self._idle: "asyncio.Queue[_WorkerHandle]" = asyncio.Queue()
        self._handles: list[_WorkerHandle] = []
        self._closed = False
        self.respawns = 0

    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Spawn the workers and wait until each answers a ping — after
        this, the first request pays no interpreter-boot latency."""
        loop = asyncio.get_running_loop()
        for _ in range(self.workers):
            handle = _WorkerHandle(self._ctx, self.worker_graph_cache)
            self._handles.append(handle)
            self._idle.put_nowait(handle)
        for handle in self._handles:
            handle.send({"op": "ping"})
            reply = await loop.run_in_executor(None, handle.recv)
            if not reply.get("ok"):
                raise RuntimeError("worker failed to boot")

    def _graph_payload(self, graph: CSRGraph) -> Dict[str, Any]:
        from repro.graph.mmap_store import MmapCSRGraph

        if isinstance(graph, MmapCSRGraph) and graph.path:
            # ship the store path, not the arrays: pickling a memmap
            # copies its data by value, defeating out-of-core serving
            return {"mmap_path": graph.path, "name": graph.name}
        return {
            "indptr": graph.indptr,
            "indices": graph.indices,
            "weights": graph.weights,
            "self_weight": graph.self_weight,
            "name": graph.name,
        }

    def _replace(self, handle: _WorkerHandle) -> None:
        """Kill a wedged worker and seat a fresh one in its slot."""
        handle.kill()
        self._handles.remove(handle)
        if self._closed:
            return
        fresh = _WorkerHandle(self._ctx, self.worker_graph_cache)
        self._handles.append(fresh)
        self._idle.put_nowait(fresh)
        self.respawns += 1

    async def run(
        self,
        graph: CSRGraph,
        config: GalaConfig,
        timeout: Optional[float] = None,
        collect_spans: bool = False,
    ) -> Dict[str, Any]:
        if self._closed:
            raise PoolClosed("worker pool is stopped")
        handle = await self._idle.get()
        loop = asyncio.get_running_loop()
        fp = graph.fingerprint
        job = {
            "op": "detect",
            "fingerprint": fp,
            "config": dataclasses.asdict(config),
            "telemetry": {"spans": collect_spans},
        }
        if fp not in handle.known:
            job["graph"] = self._graph_payload(graph)
        try:
            t_send = time.perf_counter()
            handle.send(job)
            reply = await asyncio.wait_for(
                loop.run_in_executor(None, handle.recv), timeout
            )
            t_recv = time.perf_counter()
        except asyncio.TimeoutError:
            self._replace(handle)
            raise DetectionTimeout(
                f"detection exceeded {timeout}s; worker killed"
            ) from None
        except asyncio.CancelledError:
            # cancellation (client gone, server draining) reclaims the
            # core immediately: kill the run, keep the pool whole
            self._replace(handle)
            raise
        except (OSError, ValueError) as exc:
            self._replace(handle)
            raise DetectionFailed(f"worker pipe failed: {exc}") from exc

        if reply.get("crashed"):
            self._replace(handle)
            raise DetectionFailed("worker crashed mid-run")
        if reply.get("need_graph"):
            # the worker's LRU graph cache evicted this fingerprint while
            # our known-set still listed it; re-submit with the payload
            handle.known.discard(fp)
            self._idle.put_nowait(handle)
            return await self.run(
                graph, config, timeout=timeout, collect_spans=collect_spans
            )
        handle.known.add(fp)
        self._idle.put_nowait(handle)
        worker_telemetry = reply.get("telemetry") or {}
        self._fold_counters(worker_telemetry.get("counters"))
        if not reply.get("ok"):
            raise DetectionFailed(reply.get("error", "unknown worker error"))
        result = {
            "communities": reply["communities"],
            "modularity": reply["modularity"],
            "num_levels": reply["num_levels"],
            "iterations": reply["iterations"],
        }
        if collect_spans and "t_job_recv" in worker_telemetry:
            result["telemetry"] = self._server_domain_telemetry(
                worker_telemetry, t_send, t_recv
            )
        return result

    def _server_domain_telemetry(
        self,
        telemetry: Dict[str, Any],
        t_send: float,
        t_recv: float,
    ) -> Dict[str, Any]:
        """Map one reply's spans into this process's clock domain.

        The NTP bounds guarantee the synthesized ``worker/detect`` span
        — exactly the worker's service interval — lands strictly inside
        ``[t_send, t_recv]``, so worker spans nest
        under the caller's dispatch span with no tolerance games.
        """
        t_job_recv = telemetry["t_job_recv"]
        t_reply_send = telemetry["t_reply_send"]
        sync = ClockSync.from_handshake(t_send, t_job_recv, t_reply_send, t_recv)
        pid = int(telemetry.get("pid", 0))
        spans = [
            make_span(
                "worker/detect",
                t_job_recv + sync.offset,
                t_reply_send + sync.offset,
                pid=pid,
                args={"clock_uncertainty_us": round(sync.uncertainty * 1e6, 1)},
            )
        ]
        spans.extend(shift_spans(telemetry.get("spans") or [], sync.offset))
        labels = {int(k): v for k, v in (telemetry.get("labels") or {}).items()}
        labels.setdefault(pid, "serve-worker")
        return {
            "pid": pid,
            "spans": spans,
            "labels": labels,
            "dropped": int(telemetry.get("dropped", 0)),
            "clock_offset_s": sync.offset,
            "clock_uncertainty_s": sync.uncertainty,
            "counters": telemetry.get("counters"),
        }

    async def stop(self) -> None:
        """Stop all workers: polite for idle ones, kill for busy ones."""
        if self._closed:
            return
        self._closed = True
        idle: list[_WorkerHandle] = []
        while not self._idle.empty():
            idle.append(self._idle.get_nowait())
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(loop.run_in_executor(None, h.stop) for h in idle)
        )
        for handle in list(self._handles):
            if handle not in idle:
                handle.kill()
        self._handles.clear()

    def stats(self) -> Dict[str, Any]:
        return {
            "kind": "subprocess",
            "workers": self.workers,
            "idle": self._idle.qsize(),
            "respawns": self.respawns,
            "worker_totals": dict(self.worker_totals),
            "kernel_backends": dict(self.kernel_backends),
        }
