"""Phase 1 of the BSP parallel Louvain algorithm (paper Algorithm 1).

The loop itself lives in :mod:`repro.core.engine`; this module provides
the **local executor** — DecideAndMove through one host/gpusim kernel
backend plus the configured community-weight updater — and the public
:func:`run_phase1` entry point that drives it:

1. ``DecideAndMove`` for every *active* vertex (the configured kernel
   backend);
2. BSP-synchronous application of the movements;
3. community-weight updating (naive recompute or GALA's delta scheme);
4. refresh of community aggregates and modularity (lines 5-11);
5. the pruning strategy predicts the next active set;
6. terminate via the engine's :class:`~repro.core.engine.ConvergenceTracker`.

Every iteration is recorded in an :class:`IterationTrace`, which carries
enough to regenerate the paper's Figures 1, 7, 8 and Table 1 without any
extra instrumentation passes. With ``oracle=True`` the engine additionally
derives the ground-truth moved set that FNR/FPR measurement requires from
one full-set DecideAndMove per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from repro.core.engine import (
    AlgorithmConfig,
    EngineResult,
    Executor,
    IterationTrace,
    run_engine,
)
from repro.core.arena import BufferArena
from repro.core.kernels.vectorized import (
    DecideResult,
    compiled_runtime,
    make_kernel,
)
from repro.core.state import CommunityState
from repro.core.weights import make_weight_updater, refresh_aggregates
from repro.graph.csr import CSRGraph

KernelFn = Callable[[CommunityState, np.ndarray, bool], DecideResult]

#: phase-1 results are plain engine results
Phase1Result = EngineResult


@dataclass
class Phase1Config(AlgorithmConfig):
    """Configuration of one phase-1 run: the shared algorithmic fields
    (see :class:`~repro.core.engine.AlgorithmConfig`) plus the kernel.

    Attributes
    ----------
    kernel:
        DecideAndMove backend: ``"vectorized"`` (NumPy, the reference),
        ``"jit"`` (the compiled per-vertex loop; raises
        :class:`~repro.errors.KernelUnavailableError` when no compile
        provider works here), ``"auto"`` (``jit`` when a compile provider
        passed its probe, else ``vectorized``; see
        :func:`repro.core.kernels.vectorized.make_kernel`), or a callable.
        All named backends return bit-identical decisions.
    """

    kernel: Union[str, KernelFn] = "vectorized"


class LocalExecutor(Executor):
    """Single-runtime executor: one kernel backend, one weight updater.

    Implements the optional kernel backend protocol (duck-typed so plain
    callables keep working): arena binding, per-graph ``reset``, and the
    ``runtime``/``last_backend``/``compile_s``/``device`` attributes the
    executor reads.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: Phase1Config,
        initial_communities: np.ndarray | None = None,
    ):
        self.config = config
        kernel = config.kernel
        self.kernel = kernel if callable(kernel) else make_kernel(kernel)
        self.remove_self = config.remove_self
        #: per-level scratch allocator; every iteration-shaped buffer the
        #: hot loop needs (kernel scratch, DecideResult storage, aggregate
        #: rebuilds) is served from here, so the steady-state loop
        #: performs zero heap allocations
        self.arena = BufferArena("engine")
        kernel_bind_arena = getattr(self.kernel, "bind_arena", None)
        if kernel_bind_arena is not None:
            kernel_bind_arena(self.arena)
        if initial_communities is None:
            self.state = CommunityState.singletons(
                graph, resolution=config.resolution
            )
        else:
            self.state = CommunityState.from_assignment(
                graph, initial_communities, resolution=config.resolution
            )
        kernel_reset = getattr(self.kernel, "reset", None)
        if kernel_reset is not None:
            kernel_reset(self.state)
        # A jit kernel carries its compiled runtime; the executor then also
        # routes the delta weight update, the aggregates refresh and MG's
        # test through the same runtime — all bit-identical to the NumPy
        # paths.
        runtime = compiled_runtime(self.kernel)
        self.runtime = runtime
        #: one-off compile seconds to charge to the first iteration trace
        self._compile_s_pending = float(getattr(self.kernel, "compile_s", 0.0))
        # the stock delta update runs compiled, all movers in one call
        self.updater = make_weight_updater(config.weight_update, runtime=runtime)
        #: simulated device behind a gpusim kernel, if any (per-iteration
        #: cycle deltas feed IterationTrace.sim_cycles)
        self._device = getattr(self.kernel, "device", None)
        self._cycles_seen = 0.0

    def decide(self, active_idx: np.ndarray, active: np.ndarray) -> np.ndarray:
        result = self.kernel(self.state, active_idx, self.remove_self)
        return result.next_comm(self.state.comm)

    def apply_and_sync(self, next_comm: np.ndarray, moved: np.ndarray) -> float:
        state = self.state
        prev_comm = state.comm
        state.comm = next_comm
        with self.clock.measure("weight_update", "engine/weight_update"):
            self.updater(state, prev_comm, moved)
        with self.clock.measure("aggregate", "engine/aggregate"):
            refresh_aggregates(state, arena=self.arena, runtime=self.runtime)
            next_q = state.modularity()
        return next_q

    def collect(self, trace: IterationTrace) -> None:
        trace.kernel_backend = getattr(self.kernel, "last_backend", None)
        trace.kernel_threads = getattr(self.kernel, "last_threads", None)
        trace.arena_allocs = self.arena.allocs
        if self._compile_s_pending:
            trace.kernel_compile_s = self._compile_s_pending
            self._compile_s_pending = 0.0
        if self._device is not None:
            total = self._device.profiler.total_cycles
            trace.sim_cycles = total - self._cycles_seen
            self._cycles_seen = total

    def profilers(self) -> dict:
        if self._device is None:
            return {}
        return {f"dev{self._device.device_id}": self._device.profiler}


def run_phase1(
    graph: CSRGraph,
    config: Phase1Config | None = None,
    initial_communities: np.ndarray | None = None,
) -> Phase1Result:
    """Run phase 1 on ``graph``; see the module docstring."""
    cfg = config or Phase1Config()
    executor = LocalExecutor(graph, cfg, initial_communities)
    return run_engine(executor, cfg.engine_config())
