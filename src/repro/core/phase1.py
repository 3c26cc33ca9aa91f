"""Phase 1 of the BSP parallel Louvain algorithm (paper Algorithm 1).

The loop itself lives in :mod:`repro.core.engine`; this module provides
the one executor core every runtime runs, :class:`PartitionedExecutor`
(GALA's multi-GPU design, paper §4.3, as Chiêm et al. write synchronised
Louvain once for shared and distributed memory: decide each part's
*owned ∩ active* vertices against the shared snapshot, then sync), its
one-rank case :class:`LocalExecutor`, and the public :func:`run_phase1`
entry point that drives it:

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
from repro.core.kernels.vectorized import (
    DecideResult,
    VectorizedKernel,
    compiled_runtime,
    make_kernel,
)
from repro.core.state import CommunityState
from repro.core.weights import make_weight_updater, refresh_aggregates
from repro.graph.csr import CSRGraph
from repro.graph.partition import VertexPartition, partition_contiguous

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


def split_by_owner(ids: np.ndarray, partition: VertexPartition) -> list[np.ndarray]:
    """Each part's share of the sorted vertex ids ``ids``, in part order.

    Costs O(len(ids)) per part, never O(n): the executor splits the active
    set and the movers once per iteration. Each share keeps the ascending
    order of ``ids``, so it equals the mask form ``owned[mask[owned]]``.
    One part gets ``ids`` itself.
    """
    if partition.num_parts == 1:
        return [ids]
    owner = partition.owner[ids]
    return [ids[owner == part] for part in range(partition.num_parts)]


class PartitionedExecutor(Executor):
    """The BSP executor every runtime runs (paper §4.3): a vertex partition
    of ``num_ranks`` parts, each deciding its *owned ∩ active* vertices
    against the shared snapshot, then one commit step.

    It owns the kernel (the NumPy ``VectorizedKernel`` unless one is
    given), the state and the compiled runtime behind a jit kernel, which
    also runs the delta weight update, the aggregate refresh and MG's
    test — all bit-identical to the NumPy paths. The kernel backend
    protocol is duck-typed so plain callables keep working:
    ``take_compile_s`` and the ``runtime``/``last_backend``/
    ``last_threads``/``device`` attributes.

    Subclasses supply the synchronisation (:meth:`_sync`) and may hook the
    per-rank decide (:meth:`_rank_state`, :meth:`_charge_decide`) or
    replace :meth:`decide` outright (the multiprocess transport). With one
    rank there is nothing to synchronise: that is :class:`LocalExecutor`.
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: AlgorithmConfig,
        num_ranks: int = 1,
        partition: VertexPartition | None = None,
        kernel: KernelFn | None = None,
        updater=None,
        initial_communities: np.ndarray | None = None,
    ):
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        part = partition or partition_contiguous(graph, num_ranks)
        if part.num_parts != num_ranks:
            raise ValueError("partition parts must match the rank count")
        self.config = config
        self.num_ranks = num_ranks
        self.partition = part
        self.remove_self = config.remove_self
        self.kernel = kernel if kernel is not None else VectorizedKernel()
        if initial_communities is None:
            self.state = CommunityState.singletons(
                graph, resolution=config.resolution
            )
        else:
            self.state = CommunityState.from_assignment(
                graph, initial_communities, resolution=config.resolution
            )
        self.runtime = compiled_runtime(self.kernel)
        # the stock delta update runs compiled, all movers in one call
        self.updater = updater or make_weight_updater(
            config.weight_update, runtime=self.runtime
        )
        self._cycles_seen = 0.0

    # ------------------------------------------------------------------ #
    def decide(self, active_idx: np.ndarray, active: np.ndarray) -> np.ndarray:
        next_comm = self.state.comm.copy()
        for rank, idx in enumerate(split_by_owner(active_idx, self.partition)):
            result = self.kernel(self._rank_state(rank), idx, self.remove_self)
            next_comm[idx[result.move]] = result.best_comm[result.move]
            self._charge_decide(rank, idx)
        return next_comm

    def _rank_state(self, rank: int) -> CommunityState:
        """The snapshot ``rank`` decides against (the shared state)."""
        return self.state

    def _charge_decide(self, rank: int, idx: np.ndarray) -> None:
        """Cost hook: ``rank`` just decided the vertices ``idx``."""

    # ------------------------------------------------------------------ #
    def apply_and_sync(self, next_comm: np.ndarray, moved: np.ndarray) -> float:
        next_comm = self._sync(next_comm, moved)
        state = self.state
        prev_comm = state.comm
        state.comm = next_comm
        with self.clock.measure("weight_update", "engine/weight_update"):
            self.updater(state, prev_comm, moved)
        with self.clock.measure("aggregate", "engine/aggregate"):
            refresh_aggregates(state, runtime=self.runtime)
            next_q = state.modularity()
        return next_q

    def _sync(self, next_comm: np.ndarray, moved: np.ndarray) -> np.ndarray:
        """Exchange the move step between ranks; returns the assignment
        every rank holds afterwards. One rank has nothing to exchange."""
        return next_comm

    def rank_movers(self, moved: np.ndarray) -> list[np.ndarray]:
        """Each rank's committed movers (sorted ids) from the ``moved``
        mask, so communication covers committed moves only — also under
        oracle mode, whose full-set decide proposes moves the engine never
        commits."""
        return split_by_owner(np.flatnonzero(moved), self.partition)

    # ------------------------------------------------------------------ #
    def collect(self, trace: IterationTrace) -> None:
        trace.kernel_backend = getattr(self.kernel, "last_backend", None)
        trace.kernel_threads = getattr(self.kernel, "last_threads", None)
        take_compile_s = getattr(self.kernel, "take_compile_s", None)
        if take_compile_s is not None:
            trace.kernel_compile_s = take_compile_s()
        profilers = self.profilers()
        if profilers:
            total = sum(p.total_cycles for p in profilers.values())
            trace.sim_cycles = total - self._cycles_seen
            self._cycles_seen = total

    def profilers(self) -> dict:
        """The profiler of the simulated device behind a gpusim kernel."""
        device = getattr(self.kernel, "device", None)
        if device is None:
            return {}
        return {f"dev{device.device_id}": device.profiler}

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release runtime resources (nothing to release in-process)."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def result(self, result: EngineResult) -> EngineResult:
        """The runtime's result type, built from the engine's result."""
        return result

    def run(self, config: AlgorithmConfig | None = None) -> EngineResult:
        """Drive this executor to convergence under ``config`` (default:
        its own), always closing it."""
        with self:
            result = run_engine(self, config or self.config)
        return self.result(result)


class LocalExecutor(PartitionedExecutor):
    """The one-rank executor: ``config.kernel`` resolved through
    :func:`~repro.core.kernels.vectorized.make_kernel` (a callable is used
    as given), one weight updater, no synchronisation."""

    def __init__(
        self,
        graph: CSRGraph,
        config: Phase1Config,
        initial_communities: np.ndarray | None = None,
    ):
        kernel = config.kernel
        super().__init__(
            graph,
            config,
            kernel=kernel if callable(kernel) else make_kernel(kernel),
            initial_communities=initial_communities,
        )


def run_phase1(
    graph: CSRGraph,
    config: Phase1Config | None = None,
    initial_communities: np.ndarray | None = None,
) -> Phase1Result:
    """Run phase 1 on ``graph``; see the module docstring."""
    cfg = config or Phase1Config()
    return LocalExecutor(graph, cfg, initial_communities).run()
