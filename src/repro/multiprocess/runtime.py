"""True process-parallel phase 1: one worker process per rank.

The multi-GPU runtime's ``SyncMode.HALO`` *simulates* ranks inside a
single interpreter to measure halo traffic; this module executes the
same BSP decomposition with real OS processes, which is what the paper's
scaling claim actually requires. The shape of an iteration:

1. the parent (which owns the engine loop and the canonical
   :class:`CommunityState`) publishes the BSP snapshot — ``comm``,
   ``comm_strength``, ``comm_size``, the active mask — into one
   :mod:`multiprocessing.shared_memory` segment and posts every rank's
   start semaphore;
2. every rank worker runs DecideAndMove over its *owned ∩ active*
   vertices against that snapshot, in degree-bounded chunks
   (bit-exactness per chunk is the tested ``DecideResult.restrict``
   invariant), and writes movers into the shared ``next_comm`` —
   disjoint owned slots, so no synchronisation is needed beyond the
   shared done semaphore. The kernel is the host backend the parent
   resolved from ``MultiprocessConfig.kernel`` once (``auto`` is the
   compiled ``jit`` loop when a compile provider passed its probe);
   each worker builds it once (a jit kernel keeps its own buffers across
   rounds) and runs it on one thread — the ranks are the parallelism, and
   a forked worker must never enter an OpenMP parallel region (libgomp is
   not fork-safe);
3. the parent commits the move step through the executor core
   (:class:`~repro.core.phase1.PartitionedExecutor`) — the same halo-exchange
   accounting over the same :class:`~repro.multigpu.halo.RankView`
   send lists as the simulated runtime (so ``HaloStats`` match it bit
   for bit), then the community weight update — the same backend's
   delta pass, called per degree-bounded mover chunk — and the
   aggregate refresh.

The graph payload crosses process boundaries **zero** times: every
worker maps the same on-disk store read-only via
:func:`~repro.graph.mmap_store.open_mmap` (an in-RAM input graph is
spilled to a temporary store once). Vertex strengths — O(n) — are
computed once by the parent and shared, so workers never stream the
weights file for setup.

Every rank computes from the identical shared snapshot, so the final
assignment is bit-identical to ``LocalExecutor`` and
``MultiGpuExecutor`` for any rank count and any partition (tested on
the cross-runtime matrix).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import signal
import tempfile
import time
import traceback
import weakref
from dataclasses import dataclass, replace

import numpy as np

from repro.core.engine import AlgorithmConfig, IterationTrace
from repro.core.kernels.jit import cap_threads
from repro.core.kernels.vectorized import (
    KERNEL_NAMES,
    compiled_runtime,
    make_kernel,
)
from repro.core.state import CommunityState
from repro.core.weights import make_weight_updater
from repro.graph.csr import CSRGraph
from repro.graph.mmap_store import (
    DEFAULT_CHUNK_EDGES,
    MmapCSRGraph,
    open_mmap,
    save_mmap,
    split_by_edges,
)
from repro.graph.partition import VertexPartition
from repro.multigpu.halo import HaloExecutor, RankResult
from repro.multiprocess.shm import ShmLayout, attach_shared, create_shared
from repro.obs import _session as obs
from repro.utils import set_pdeathsig

CMD_DECIDE = 1
CMD_STOP = 2

#: seconds between the parent's liveness checks while it waits for ranks
#: to report a round done (a dead rank is noticed within one interval)
POLL_INTERVAL_S = 0.05

#: seconds the parent waits for a round before declaring the worker pool
#: wedged (a worker death fails the round within ``POLL_INTERVAL_S``)
SYNC_TIMEOUT_S = 300.0

#: per-rank cap on collected decide spans (one per engine round); a run
#: that exceeds it reports the overflow as a dropped count instead of
#: growing the STOP-time payload without bound
MAX_RANK_SPANS = 512


@dataclass
class MultiprocessConfig(AlgorithmConfig):
    """:class:`~repro.core.engine.AlgorithmConfig` with the defaults of
    :class:`~repro.multigpu.runtime.MultiGpuConfig` (MG pruning), plus
    the rank count, process mechanics and memory bounds."""

    pruning: str = "mg"
    #: DecideAndMove backend of the rank workers, by name (see
    #: :class:`~repro.core.phase1.Phase1Config`): the parent resolves it
    #: once — ``"auto"`` is ``jit`` when a compile provider passed its
    #: probe — and every worker builds the resolved kernel. A callable is
    #: rejected: workers are separate processes and need a name.
    kernel: str = "auto"
    num_ranks: int = 2
    #: adjacency entries per worker decide chunk and per parent
    #: weight-update chunk — the O(chunk) bound on transient allocations
    chunk_edges: int = DEFAULT_CHUNK_EDGES
    #: multiprocessing start method (``None`` = ``fork`` where available,
    #: else the platform default). Both are supported; ``fork`` starts
    #: ~100x faster, which matters at 8 ranks.
    mp_context: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kernel not in KERNEL_NAMES:
            raise ValueError(
                f"unknown rank kernel {self.kernel!r}; expected one of "
                f"{list(KERNEL_NAMES)} (rank workers build their kernel "
                f"from its name, so a callable cannot be used)"
            )


@dataclass
class MultiprocessResult(RankResult):
    """Engine result plus the rank views and real-exchange accounting."""


def _worker_main(
    rank: int,
    shm_name: str,
    layout: ShmLayout,
    store_path: str,
    owned: np.ndarray,
    params: dict,
    go,
    done,
    err_queue,
    span_queue=None,
) -> None:
    """Rank worker: attach shared state, loop decide rounds until STOP.

    With ``params["collect_spans"]`` the worker times each decide round
    and ships the spans on ``span_queue`` when STOP arrives. Span times
    are recorded directly in the *parent's* clock domain via the
    round-release stamp: the parent writes its ``perf_counter`` into
    the shared ``clock`` slot before posting the ranks' ``go``
    semaphores, so ``stamp + (now − t_wake)`` maps a rank-local instant
    onto the parent clock with an error of one wake latency — biased
    early, which keeps rank spans inside the parent's enclosing span.

    Rounds are driven by semaphores, not barriers: the worker takes
    ``go`` to start a round and posts ``done`` when it has written its
    movers. A post or a take holds no lock, so a rank killed at any
    instant can never leave the parent (or another rank) blocked.
    """
    set_pdeathsig()
    # the parent owns interrupt handling; a Ctrl-C must not kill workers
    # mid-round before the parent's orderly shutdown reaches them
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # one compiled-loop thread per rank, also in a spawned worker
    cap_threads(1)
    shared = None
    try:
        shared = attach_shared(shm_name, layout)
        graph = open_mmap(store_path, validate=False)
        # strength and total weight are already known to the parent;
        # sharing them saves every worker an O(E) setup scan
        object.__setattr__(graph, "_strength", shared["strength"])
        object.__setattr__(graph, "_total_weight", float(params["total_weight"]))
        state = CommunityState(
            graph=graph,
            comm=shared["comm"],
            # DecideAndMove never reads d_comm (it derives everything from
            # the pair aggregation); a dummy keeps the dataclass honest
            d_comm=np.zeros(graph.n, dtype=np.float64),
            comm_strength=shared["comm_strength"],
            comm_size=shared["comm_size"],
            resolution=float(params["resolution"]),
        )
        # built once per worker; a jit kernel keeps its scratch and
        # result buffers across rounds
        kernel = make_kernel(params["kernel"])
        degrees = graph.degrees
        remove_self = bool(params["remove_self"])
        chunk_edges = int(params["chunk_edges"])
        release = graph.release_pages if params["release_pages"] else None
        control = shared["control"]
        status = shared["status"]
        next_comm = shared["next_comm"]
        threads = shared["threads"]
        active = shared["active"]
        clock_slot = shared["clock"]
        collect = bool(params.get("collect_spans")) and span_queue is not None
        spans: list = []
        dropped = 0
        round_no = 0

        while True:
            go.acquire()
            if control[0] == CMD_STOP:
                if collect:
                    try:
                        span_queue.put((rank, os.getpid(), spans, dropped))
                    except Exception:
                        pass
                break
            t_wake = time.perf_counter() if collect else 0.0
            try:
                idx = owned[active[owned]]
                used = 0
                for sub in split_by_edges(
                    idx, degrees[idx], chunk_edges, release=release
                ):
                    result = kernel(state, sub, remove_self)
                    movers = sub[result.move]
                    next_comm[movers] = result.best_comm[result.move]
                    used = max(used, getattr(kernel, "last_threads", 0) or 0)
                threads[rank] = used
                status[rank] = 0
            except BaseException:
                status[rank] = 1
                try:
                    err_queue.put((rank, traceback.format_exc()))
                except Exception:
                    pass
            finally:
                if collect:
                    # the parent writes the next stamp only after every
                    # rank posted done, so *this* round's stamp is still there
                    stamp = float(clock_slot[0])
                    if len(spans) < MAX_RANK_SPANS:
                        spans.append(
                            {
                                "name": "rank/decide",
                                "ph": "X",
                                "start": stamp,
                                "end": stamp + (time.perf_counter() - t_wake),
                                "pid": os.getpid(),
                                "tid": 0,
                                "args": {"rank": rank, "round": round_no},
                            }
                        )
                    else:
                        dropped += 1
                round_no += 1
                done.release()
    except KeyboardInterrupt:
        pass
    except BaseException:
        # a set-up failure (the store, the kernel's provider probe in a
        # spawned worker) reaches the parent's round as this traceback
        try:
            err_queue.put((rank, traceback.format_exc()))
        except Exception:
            pass
        raise
    finally:
        if shared is not None:
            shared.close()


class MultiprocessExecutor(HaloExecutor):
    """Real process-per-rank executor behind the engine's BSP protocol."""

    result_type = MultiprocessResult
    config: MultiprocessConfig

    def __init__(
        self,
        graph: CSRGraph,
        config: MultiprocessConfig | None = None,
        partition: VertexPartition | None = None,
    ):
        cfg = config or MultiprocessConfig()
        # resolved once here, so every worker runs the same backend
        kernel = make_kernel(cfg.kernel)
        #: the backend name every rank worker runs (``vectorized``/``jit``)
        self.kernel_name: str = kernel.name
        # The parent's compiled loops run on one thread while the ranks
        # live: MG's test between rounds would otherwise open an OpenMP
        # region whose spinning worker (libgomp's active wait) holds a
        # rank's core into the next round. A copy, so the process's
        # runtime keeps its threads for later ``local`` runs.
        runtime = compiled_runtime(kernel)
        if runtime is not None:
            runtime = replace(runtime, threads=1)
        # chunked delta is bit-identical to the plain path and keeps the
        # parent's transient allocations at O(chunk) on memmapped graphs
        # (where it also drops its resident pages per chunk)
        updater = make_weight_updater(
            cfg.weight_update,
            runtime=runtime,
            chunk_edges=cfg.chunk_edges,
            release=graph.release_pages if isinstance(graph, MmapCSRGraph) else None,
        )
        super().__init__(
            graph, cfg, cfg.num_ranks, partition, kernel=kernel, updater=updater
        )
        self.runtime = runtime
        #: collect per-round rank spans only when an obs session is live
        #: at construction — the disabled path costs one flag check per
        #: round in the workers and nothing in the parent
        self._collect_spans = obs.active()
        self._closed = False
        self._spill_dir: str | None = None
        self._shared = None
        self._workers: list = []

        # workers map the graph from a store directory; an in-RAM input is
        # spilled once (byte-identical arrays, so bit-exactness holds)
        if isinstance(graph, MmapCSRGraph):
            store_path = graph.path
        else:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-mp-graph-")
            save_mmap(graph, self._spill_dir)
            store_path = self._spill_dir

        n = graph.n
        layout = (
            ShmLayout()
            .add("comm", (n,), np.int64)
            .add("next_comm", (n,), np.int64)
            .add("active", (n,), np.bool_)
            .add("comm_strength", (n,), np.float64)
            .add("comm_size", (n,), np.int64)
            .add("strength", (n,), np.float64)
            .add("status", (cfg.num_ranks,), np.int64)
            # threads each rank's kernel ran on last round (0: NumPy or idle)
            .add("threads", (cfg.num_ranks,), np.int64)
            .add("control", (4,), np.int64)
            # clock[0]: parent perf_counter stamp written before each
            # round release — the rank-side clock-alignment reference
            .add("clock", (2,), np.float64)
        )
        self._shared = create_shared(layout)
        self._shared["strength"][:] = graph.strength

        method = cfg.mp_context
        if method is None:
            method = "fork" if "fork" in mp.get_all_start_methods() else None
        ctx = mp.get_context(method)
        self._go = [ctx.Semaphore(0) for _ in range(cfg.num_ranks)]
        self._done = ctx.Semaphore(0)
        self._err_queue = ctx.SimpleQueue()
        self._span_queue = ctx.SimpleQueue() if self._collect_spans else None
        # registered before the first Process.start(): a failure while
        # spawning rank k still tears down ranks < k and the shm segment
        # (self._workers is mutated in place, so the finalizer sees them).
        # The finalizer path passes expected_spans=0: a GC teardown has
        # no obs session to hand spans to, so it only drains the queue
        # opportunistically to unblock workers parked on a full pipe.
        self._finalizer = weakref.finalize(
            self,
            _cleanup,
            self._workers,
            self._shared,
            self._go,
            self._spill_dir,
            self._span_queue,
            0,
        )
        params = {
            "kernel": self.kernel_name,
            "total_weight": graph.total_weight,
            "resolution": cfg.resolution,
            "remove_self": cfg.remove_self,
            "chunk_edges": cfg.chunk_edges,
            # workers drop their resident store pages after each decide
            # chunk (worker RSS stays O(n + chunk)) when the input graph
            # is a memmapped store; a spilled in-RAM graph keeps them
            "release_pages": isinstance(graph, MmapCSRGraph),
            "collect_spans": self._collect_spans,
        }
        for view in self.views:
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    view.rank,
                    self._shared.name,
                    layout,
                    store_path,
                    view.owned,
                    params,
                    self._go[view.rank],
                    self._done,
                    self._err_queue,
                    self._span_queue,
                ),
                daemon=True,
                name=f"repro-rank{view.rank}",
            )
            proc.start()
            self._workers.append(proc)

    # ------------------------------------------------------------------ #
    def decide(self, active_idx: np.ndarray, active: np.ndarray) -> np.ndarray:
        state = self.state
        shared = self._shared
        shared["comm"][:] = state.comm
        shared["next_comm"][:] = state.comm
        shared["active"][:] = active
        shared["comm_strength"][:] = state.comm_strength
        shared["comm_size"][:] = state.comm_size
        shared["status"][:] = -1
        shared["threads"][:] = 0
        shared["control"][0] = CMD_DECIDE
        if self._collect_spans:
            # the round-release stamp the ranks align their clocks to;
            # written last so it is as close to the release as possible
            shared["clock"][0] = time.perf_counter()
        self._round()
        return np.array(shared["next_comm"])

    def collect(self, trace: IterationTrace) -> None:
        super().collect(trace)
        trace.kernel_backend = self.kernel_name
        trace.kernel_threads = int(self._shared["threads"].max()) or None

    def _round(self) -> None:
        """Release one round, wait for every rank's done post; surface
        worker failures (a dead rank within ``POLL_INTERVAL_S``, a wedged
        pool after ``SYNC_TIMEOUT_S``)."""
        for go in self._go:
            go.release()
        deadline = time.monotonic() + SYNC_TIMEOUT_S
        pending = self.config.num_ranks
        while pending:
            if self._done.acquire(timeout=POLL_INTERVAL_S):
                pending -= 1
                continue
            dead = not all(p.is_alive() for p in self._workers)
            if dead or time.monotonic() > deadline:
                raise RuntimeError(
                    "multiprocess round failed: "
                    + (self._drain_errors() or self._describe_dead_workers())
                )
        status = np.array(self._shared["status"])
        if np.any(status != 0):
            bad = np.flatnonzero(status != 0)
            raise RuntimeError(
                f"rank(s) {bad.tolist()} failed during decide:\n"
                + (self._drain_errors() or "(no traceback captured)")
            )

    def _drain_errors(self) -> str:
        msgs = []
        try:
            while not self._err_queue.empty():
                rank, tb = self._err_queue.get()
                msgs.append(f"[rank {rank}]\n{tb}")
        except Exception:
            pass
        return "\n".join(msgs)

    def _describe_dead_workers(self) -> str:
        dead = [
            f"rank {i} exitcode={p.exitcode}"
            for i, p in enumerate(self._workers)
            if not p.is_alive()
        ]
        if dead:
            return "worker(s) died: " + ", ".join(dead)
        return f"round timeout after {SYNC_TIMEOUT_S}s"

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop workers, release the shared segment (idempotent).

        When span collection was on, the ranks' decide spans arrive on
        the span queue at STOP and are ingested into the active obs
        tracer here — already in the parent's clock domain, labeled per
        rank — so a traced multiprocess run (or a traced serve request)
        shows every rank as its own process track.
        """
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        payloads = _cleanup(
            self._workers,
            self._shared,
            self._go,
            self._spill_dir,
            self._span_queue,
            self.config.num_ranks if self._collect_spans else 0,
        )
        if payloads:
            tracer = obs.tracer()
            for rank, pid, spans, dropped in payloads:
                tracer.ingest(spans, labels={pid: f"rank[{rank}]"})
                if dropped:
                    obs.inc("obs/rank_spans_dropped", dropped)


def _cleanup(
    workers,
    shared,
    go,
    spill_dir,
    span_queue=None,
    expected_spans: int = 0,
) -> list:
    """Shutdown path shared by close() and the GC finalizer.

    Module-level (not a bound method) so the weakref finalizer holds no
    reference back to the executor. Returns the rank span payloads
    drained off ``span_queue`` (empty when collection was off).

    The drain happens **before** the joins: a rank whose span payload
    exceeds the pipe buffer blocks in ``put`` until someone reads, so
    joining first would deadlock into the 5-second terminate path.
    """
    try:
        if shared is not None and shared.arrays:
            shared["control"][0] = CMD_STOP
    except Exception:
        pass
    # wake every rank; each reads STOP when it next takes ``go`` and
    # exits (a rank still busy with an abandoned round finishes it first)
    for sem in go:
        try:
            sem.release()
        except Exception:
            pass
    payloads: list = []
    if span_queue is not None:
        deadline = time.monotonic() + 5.0
        try:
            while len(payloads) < expected_spans and time.monotonic() < deadline:
                if span_queue.empty():
                    if not any(p.is_alive() for p in workers):
                        break
                    time.sleep(0.005)
                    continue
                payloads.append(span_queue.get())
            # opportunistic sweep: unblock any writer still in put()
            while not span_queue.empty():
                payloads.append(span_queue.get())
        except Exception:
            pass
    for proc in workers:
        proc.join(timeout=5.0)
    for proc in workers:
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
    if shared is not None:
        shared.close()
        shared.unlink()
    if spill_dir is not None:
        shutil.rmtree(spill_dir, ignore_errors=True)
    return payloads


def run_multiprocess_phase1(
    graph: CSRGraph,
    config: MultiprocessConfig | None = None,
    partition: VertexPartition | None = None,
) -> MultiprocessResult:
    """Run phase 1 with one OS process per rank.

    Bit-identical communities to :func:`repro.core.phase1.run_phase1` and
    :func:`repro.multigpu.runtime.run_multigpu_phase1` on the same
    graph/seed; the difference is real parallel execution and real
    shared-memory traffic. Workers are always torn down before this
    returns, error or not.
    """
    cfg = config or MultiprocessConfig()
    return MultiprocessExecutor(graph, cfg, partition).run()
