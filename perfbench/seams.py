"""Timing wrappers around each layer's public seam.

The benchmark measures layers from outside the program: it never edits
``src/``. Each wrapper here forwards to the real object and adds the
wall time of the call to a :class:`LayerClock`:

* :class:`TimedExecutor` wraps any engine ``Executor`` and times
  ``decide`` and ``apply_and_sync`` as ``run_engine`` drives it;
* :class:`TimedPruning` wraps the ``PruningStrategy`` passed as
  ``pruning`` and times ``next_active``;
* :func:`traced_gala` runs the public ``gala()`` with its ``louvain``
  call routed through the ``phase1_runner`` seam and with
  ``coarsen_graph`` timed, then restores both;
* :class:`TimedRunner` wraps a serve ``DetectionRunner``.

Self times are disjoint by construction, so the layer times plus the
two remainders (``engine.other_s``, ``gala.other_s``) add up to the
traced wall time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.core.engine import Executor, run_engine
from repro.core.phase1 import LocalExecutor
from repro.core.pruning.base import PruningStrategy, make_strategy
from repro.multiprocess import MultiprocessConfig
from repro.multiprocess.runtime import MultiprocessExecutor, MultiprocessResult
from repro.serve.pool import DetectionRunner

# ``repro.core`` re-exports the functions under the modules' names, so
# the modules are looked up by their dotted paths
gala_module = importlib.import_module("repro.core.gala")
louvain_module = importlib.import_module("repro.core.louvain")


class LayerClock:
    """Accumulated seconds and call counts per layer key."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        #: per-call durations for keys whose distribution is reported
        self.samples = defaultdict(list)

    @contextmanager
    def span(self, key: str, keep: bool = False):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.seconds[key] += dt
            self.calls[key] += 1
            if keep:
                self.samples[key].append(dt)


class TimedExecutor(Executor):
    """Forwarding executor that times the two BSP stages."""

    def __init__(self, inner: Executor, clock: LayerClock, decide_key: str, apply_key: str):
        self.inner = inner
        self.clock = clock
        self.decide_key = decide_key
        self.apply_key = apply_key

    @property
    def state(self):
        return self.inner.state

    def setup(self, timers) -> None:
        self.inner.setup(timers)

    def decide(self, active_idx, active):
        with self.clock.span(self.decide_key):
            return self.inner.decide(active_idx, active)

    def apply_and_sync(self, next_comm, moved):
        with self.clock.span(self.apply_key):
            return self.inner.apply_and_sync(next_comm, moved)

    def collect(self, trace) -> None:
        self.inner.collect(trace)

    def profilers(self) -> dict:
        return self.inner.profilers()


class TimedPruning(PruningStrategy):
    """Forwarding pruning strategy that times ``next_active``."""

    def __init__(self, inner: PruningStrategy, clock: LayerClock):
        self.inner = inner
        self.clock = clock
        self.name = inner.name
        self.zero_false_negatives = inner.zero_false_negatives

    def reset(self, state) -> None:
        self.inner.reset(state)

    def initial_active(self, state):
        return self.inner.initial_active(state)

    def next_active(self, ctx):
        with self.clock.span("pruning.next_active"):
            return self.inner.next_active(ctx)


def _timed_engine_config(engine_config, clock: LayerClock):
    engine_config.pruning = TimedPruning(make_strategy(engine_config.pruning), clock)
    return engine_config


def _multiprocess_config(cfg) -> MultiprocessConfig:
    """The rank-runtime config ``gala()`` derives from a ``GalaConfig``."""
    return MultiprocessConfig(
        num_ranks=cfg.ranks,
        pruning=cfg.pruning,
        weight_update=cfg.weight_update,
        remove_self=cfg.remove_self,
        resolution=cfg.resolution,
        theta=cfg.theta,
        patience=cfg.patience,
        max_iterations=cfg.max_iterations,
        seed=cfg.seed,
    )


class TracedRun:
    """What one traced ``gala()`` call observed at the seams."""

    def __init__(self):
        self.clock = LayerClock()
        #: the executors of every phase-1 round, in round order
        self.executors: list = []
        #: edges of each coarsened graph, in round order
        self.coarse_edges: list = []
        self.wall_s = 0.0
        self.result = None


def _local_round(graph, p1cfg, run: TracedRun):
    executor = LocalExecutor(graph, p1cfg)
    run.executors.append(executor)
    timed = TimedExecutor(executor, run.clock, "kernels.decide", "weights.apply_sync")
    return run_engine(timed, _timed_engine_config(p1cfg.engine_config(), run.clock))


def _multiprocess_round(graph, mp_cfg: MultiprocessConfig, run: TracedRun):
    """``run_multiprocess_phase1`` with start-up, stages and close timed."""
    clock = run.clock
    with clock.span("multiprocess.startup"):
        executor = MultiprocessExecutor(graph, mp_cfg)
    run.executors.append(executor)
    try:
        timed = TimedExecutor(
            executor, clock, "multiprocess.decide", "multiprocess.apply_sync"
        )
        result = run_engine(timed, _timed_engine_config(mp_cfg.engine_config(), clock))
    finally:
        with clock.span("multiprocess.close"):
            executor.close()
    return MultiprocessResult(
        communities=result.communities,
        modularity=result.modularity,
        num_iterations=result.num_iterations,
        history=result.history,
        timers=result.timers,
        state=result.state,
        processed_vertices=result.processed_vertices,
        processed_edges=result.processed_edges,
        views=executor.views,
        stats=executor.stats,
        num_ranks=mp_cfg.num_ranks,
        rank_halo_bytes=list(executor.rank_bytes),
    )


def traced_gala(graph, cfg) -> TracedRun:
    """Run ``gala(graph, cfg)`` with every phase-1 round and every
    coarsening timed; returns the observations and the result.

    ``gala()`` calls ``louvain()``, which looks up ``coarsen_graph`` at
    call time; both module globals are swapped for timing wrappers for
    the duration of the call and restored afterwards. Phase-1 rounds go
    through the public ``phase1_runner`` seam: local rounds run a
    ``LocalExecutor`` through ``run_engine`` exactly as ``run_phase1``
    does, and round 0 of a multiprocess run drives a
    ``MultiprocessExecutor`` exactly as ``run_multiprocess_phase1`` does.
    """
    run = TracedRun()
    clock = run.clock
    mp_cfg = _multiprocess_config(cfg) if cfg.runtime == "multiprocess" else None
    real_louvain = gala_module.louvain
    real_coarsen = louvain_module.coarsen_graph

    def runner(graph, p1cfg, round_idx):
        with clock.span("engine.round"):
            if mp_cfg is not None and round_idx == 0:
                return _multiprocess_round(graph, mp_cfg, run)
            return _local_round(graph, p1cfg, run)

    def louvain_seam(graph, phase1_config=None, round_theta=1e-6, max_rounds=20,
                     phase1_runner=None):
        return real_louvain(
            graph,
            phase1_config=phase1_config,
            round_theta=round_theta,
            max_rounds=max_rounds,
            phase1_runner=runner,
        )

    def coarsen_seam(graph, communities):
        with clock.span("coarsen.coarsen"):
            coarse, mapping = real_coarsen(graph, communities)
        run.coarse_edges.append(int(coarse.num_edges))
        return coarse, mapping

    gala_module.louvain = louvain_seam
    louvain_module.coarsen_graph = coarsen_seam
    try:
        t0 = time.perf_counter()
        run.result = gala_module.gala(graph, cfg)
        run.wall_s = time.perf_counter() - t0
    finally:
        gala_module.louvain = real_louvain
        louvain_module.coarsen_graph = real_coarsen
    return run


class TimedRunner(DetectionRunner):
    """Forwarding serve runner that times every ``run`` call.

    The time includes the wait for an idle worker. Durations are keyed
    by the request's cache key so the caller can pair each one with the
    client latency of the same request.
    """

    def __init__(self, inner: DetectionRunner):
        super().__init__()
        self.inner = inner
        #: (fingerprint, resolution, seed) of the request -> run seconds
        self.run_s: dict = {}

    async def start(self) -> None:
        await self.inner.start()

    async def run(self, graph, config, timeout=None, collect_spans=False):
        t0 = time.perf_counter()
        try:
            return await self.inner.run(
                graph, config, timeout=timeout, collect_spans=collect_spans
            )
        finally:
            self.run_s[(graph.fingerprint, config.resolution, config.seed)] = (
                time.perf_counter() - t0
            )

    async def stop(self) -> None:
        await self.inner.stop()

    def stats(self) -> dict:
        return self.inner.stats()


@contextmanager
def timed_methods(clock: LayerClock, obj, methods: dict):
    """Time ``obj.<method>`` calls under ``clock`` keys while active.

    ``methods`` maps a method name to its clock key. The wrappers are
    instance attributes, so removing them restores the class methods.
    """
    for name, key in methods.items():
        real = getattr(obj, name)

        def timed(*args, _real=real, _key=key, **kwargs):
            with clock.span(_key, keep=True):
                return _real(*args, **kwargs)

        setattr(obj, name, timed)
    try:
        yield
    finally:
        for name in methods:
            delattr(obj, name)
