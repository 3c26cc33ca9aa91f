"""The partitioned-executor core shared by every rank runtime (paper §4.3).

The multi-GPU, distributed and multiprocess runtimes run one BSP design
(as Chiêm et al.'s synchronised Louvain does for shared and distributed
memory): partition the vertices, let each part decide its *owned ∩
active* vertices against the shared snapshot, synchronise, then update
the community weights. :class:`PartitionedExecutor` writes that loop
once; :class:`HaloExecutor` adds Vite-style halo accounting for the
distributed and multiprocess runtimes, so their :class:`HaloStats` match
bit for bit.

Each rank's movers are read off the committed ``moved`` mask
(``owned[moved[owned]]``), so communication covers committed moves only —
also under oracle mode, whose full-set decide proposes moves the engine
never commits.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import (
    AlgorithmConfig,
    EngineConfig,
    EngineResult,
    Executor,
    IterationTrace,
    run_engine,
)
from repro.core.kernels.vectorized import decide_moves
from repro.core.state import CommunityState
from repro.core.weights import make_weight_updater, refresh_aggregates
from repro.distributed.halo import RankView, build_rank_views
from repro.graph.csr import CSRGraph
from repro.graph.partition import VertexPartition, partition_contiguous
from repro.obs import _session as obs

#: bytes per halo update record: vertex id (8) + community id (8)
HALO_BYTES_PER_UPDATE = 16
#: simple MPI-ish cost model for the simulated interconnect
LINK_BANDWIDTH = 25e9  # bytes/s
MESSAGE_LATENCY = 2e-6  # seconds per point-to-point message


@dataclass
class HaloStats:
    """Communication accounting for one run."""

    messages: int = 0
    bytes_sent: int = 0
    #: per-iteration payload bytes (all ranks summed)
    bytes_per_iteration: list = field(default_factory=list)
    #: per-iteration point-to-point messages (all ranks summed)
    messages_per_iteration: list = field(default_factory=list)

    def record(self, iteration_bytes: int, iteration_messages: int) -> None:
        self.messages += iteration_messages
        self.bytes_sent += iteration_bytes
        self.bytes_per_iteration.append(iteration_bytes)
        self.messages_per_iteration.append(iteration_messages)

    def comm_seconds(self) -> float:
        return (
            self.bytes_sent / LINK_BANDWIDTH
            + self.messages * MESSAGE_LATENCY
        )


@dataclass
class RankResult(EngineResult):
    """Engine result plus the rank views and halo-exchange accounting."""

    views: list[RankView] = field(default_factory=list)
    stats: HaloStats = field(default_factory=HaloStats)
    num_ranks: int = 0
    #: cumulative halo bytes *sent by each rank* across the run — the
    #: per-rank split of ``stats.bytes_sent`` (index = rank)
    rank_halo_bytes: list[int] = field(default_factory=list)
    #: what dense broadcast of the full array every iteration would cost
    broadcast_bytes_equivalent: int = 0


class PartitionedExecutor(Executor):
    """One BSP executor over a vertex partition of ``num_ranks`` parts.

    Subclasses supply the synchronisation (:meth:`_sync`) and may hook the
    per-rank decide (:meth:`_rank_state`, :meth:`_charge_decide`) or
    replace :meth:`decide` outright (the multiprocess transport).
    """

    #: buffer arena for the commit step's aggregate refresh; a subclass
    #: that runs compiled kernels sets it with ``Executor.runtime``
    arena = None

    def __init__(
        self,
        graph: CSRGraph,
        config: AlgorithmConfig,
        num_ranks: int,
        partition: VertexPartition | None = None,
        updater=None,
    ):
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        part = partition or partition_contiguous(graph, num_ranks)
        if part.num_parts != num_ranks:
            raise ValueError("partition parts must match the rank count")
        self.config = config
        self.num_ranks = num_ranks
        self.partition = part
        #: sorted vertex ids each rank owns
        self.owned = [part.vertices_of(r) for r in range(num_ranks)]
        self.state = CommunityState.singletons(graph, resolution=config.resolution)
        self.updater = updater or make_weight_updater(config.weight_update)

    # ------------------------------------------------------------------ #
    def decide(self, active_idx: np.ndarray, active: np.ndarray) -> np.ndarray:
        next_comm = self.state.comm.copy()
        for rank, owned in enumerate(self.owned):
            idx = owned[active[owned]]
            if len(idx):
                result = decide_moves(
                    self._rank_state(rank), idx, remove_self=self.config.remove_self
                )
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
        movers = [owned[moved[owned]] for owned in self.owned]
        next_comm = self._sync(next_comm, movers)
        state = self.state
        prev_comm = state.comm
        state.comm = next_comm
        self.updater(state, prev_comm, moved)
        refresh_aggregates(state, self.arena, self.runtime)
        return state.modularity()

    @abstractmethod
    def _sync(self, next_comm: np.ndarray, movers: list[np.ndarray]) -> np.ndarray:
        """Exchange the move step between ranks; returns the assignment
        every rank holds afterwards. ``movers[r]`` are the committed moves
        of rank ``r``'s owned vertices."""

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release runtime resources (nothing to release in-process)."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @abstractmethod
    def result(self, result: EngineResult) -> EngineResult:
        """The runtime's result type, built from the engine's result."""

    def run(self, config: EngineConfig) -> EngineResult:
        """Drive this executor to convergence, always closing it."""
        with self:
            result = run_engine(self, config)
        return self.result(result)


class HaloExecutor(PartitionedExecutor):
    """Partitioned executor that exchanges moves as Vite-style halo
    messages: each rank sends each neighbouring rank exactly the movers
    that rank ghosts."""

    result_type: type[RankResult] = RankResult

    def __init__(
        self,
        graph: CSRGraph,
        config: AlgorithmConfig,
        num_ranks: int,
        partition: VertexPartition | None = None,
        updater=None,
    ):
        super().__init__(graph, config, num_ranks, partition, updater)
        self.views = build_rank_views(graph, self.partition)
        self.stats = HaloStats()
        #: cumulative halo bytes sent by each rank
        self.rank_bytes = [0] * num_ranks

    def _sync(self, next_comm: np.ndarray, movers: list[np.ndarray]) -> np.ndarray:
        self.exchange_halo(next_comm, movers)
        return next_comm

    def exchange_halo(self, next_comm: np.ndarray, movers: list[np.ndarray]) -> None:
        """Price one iteration's halo exchange (and deliver it through
        :meth:`_deliver`): per-destination payloads, span, counters,
        :class:`HaloStats` and per-rank bytes."""
        iteration_bytes = 0
        iteration_messages = 0
        halo_span = obs.span("halo/exchange", ranks=len(self.views))
        with halo_span:
            for view, rank_movers in zip(self.views, movers):
                view_bytes = 0
                for dest, send_list in view.send_lists.items():
                    payload = np.intersect1d(rank_movers, send_list)
                    if len(payload) == 0:
                        continue
                    self._deliver(dest, payload, next_comm)
                    view_bytes += len(payload) * HALO_BYTES_PER_UPDATE
                    iteration_messages += 1
                self.rank_bytes[view.rank] += view_bytes
                iteration_bytes += view_bytes
            halo_span.tag(bytes=iteration_bytes, messages=iteration_messages)
        obs.inc("comm/halo_bytes_total", iteration_bytes)
        obs.inc("comm/halo_messages_total", iteration_messages)
        self.stats.record(iteration_bytes, iteration_messages)

    def _deliver(self, dest: int, payload: np.ndarray, next_comm: np.ndarray) -> None:
        """Transport hook: rank ``dest`` receives ``payload``'s new ids.
        (The multiprocess payload already moved through shared memory.)"""

    def collect(self, trace: IterationTrace) -> None:
        trace.comm_bytes = self.stats.bytes_per_iteration[-1]
        trace.comm_messages = self.stats.messages_per_iteration[-1]

    def result(self, result: EngineResult) -> RankResult:
        return self.result_type.from_engine(
            result,
            views=self.views,
            stats=self.stats,
            num_ranks=self.num_ranks,
            rank_halo_bytes=list(self.rank_bytes),
            broadcast_bytes_equivalent=(
                result.num_iterations * self.state.graph.n * 8 * self.num_ranks
            ),
        )
