"""Per-rank graph views and ghost-vertex bookkeeping.

A :class:`RankView` is what one MPI rank would hold in a Vite-style
distributed Louvain:

* the ids it **owns** (it decides moves for these and is the single
  writer of their state);
* its **ghosts** — non-owned vertices adjacent to an owned vertex, whose
  community ids the rank must mirror to evaluate gains;
* for each *other* rank, which of this rank's owned vertices that rank
  ghosts (the send list of the halo exchange).

Send lists are the transpose of ghost sets, so a rank only ever sends an
update to ranks that actually mirror the vertex — the communication-
volume property that distinguishes halo exchange from broadcast. Each
view also keeps its ghost set as an ``n``-byte mask, so an exchange
reads a payload straight off the movers: O(ranks × movers) per
iteration, never O(send list).

:class:`HaloExecutor` adds that exchange, with its byte and message
accounting, to the executor core
(:class:`~repro.core.phase1.PartitionedExecutor`) for the distributed and
multiprocess runtimes, so their :class:`HaloStats` match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import AlgorithmConfig, EngineResult, IterationTrace
from repro.core.phase1 import PartitionedExecutor
from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.graph.partition import VertexPartition
from repro.obs import _session as obs

#: bytes per halo update record: vertex id (8) + community id (8)
HALO_BYTES_PER_UPDATE = 16
#: simple MPI-ish cost model for the simulated interconnect
LINK_BANDWIDTH = 25e9  # bytes/s
MESSAGE_LATENCY = 2e-6  # seconds per point-to-point message


@dataclass
class RankView:
    """One rank's ownership + halo structure."""

    rank: int
    owned: np.ndarray  # sorted vertex ids this rank owns
    ghosts: np.ndarray  # sorted non-owned vertices adjacent to owned ones
    #: (n,) bool: ``ghost_mask[v]`` iff ``v`` is one of ``ghosts``
    ghost_mask: np.ndarray
    #: send_lists[r] = owned vertices that rank r keeps as ghosts
    send_lists: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def num_owned(self) -> int:
        return len(self.owned)

    @property
    def num_ghosts(self) -> int:
        return len(self.ghosts)

    def visible(self) -> np.ndarray:
        """All vertices whose community id this rank can read locally."""
        return np.union1d(self.owned, self.ghosts)


def build_rank_views(
    graph: CSRGraph, partition: VertexPartition, chunk_edges: int = 1 << 20
) -> list[RankView]:
    """Construct every rank's view from a vertex partition.

    Scans the adjacency in row blocks of at most ``chunk_edges`` entries
    (a single row may exceed that only by its own degree) and marks ghosts
    in a ``(ranks, n)`` bitmap, so peak heap is O(ranks * n + chunk) and
    never O(E) — out-of-core graphs page through their mapped arrays
    block by block. Each view keeps its row of the bitmap as its
    ``ghost_mask``.
    """
    if partition.n != graph.n:
        raise PartitionError("partition does not cover this graph")
    k = partition.num_parts
    owner = partition.owner
    indptr = graph.indptr

    ghost_flags = np.zeros((k, graph.n), dtype=bool)
    start = 0
    while start < graph.n:
        stop = int(
            np.searchsorted(indptr, indptr[start] + chunk_edges, side="right") - 1
        )
        stop = min(max(stop, start + 1), graph.n)
        nbrs = np.asarray(graph.indices[indptr[start] : indptr[stop]])
        row_owner = np.repeat(
            owner[start:stop], np.diff(indptr[start : stop + 1])
        )
        cross = owner[nbrs] != row_owner
        ghost_flags[row_owner[cross], nbrs[cross]] = True
        start = stop

    views = [
        RankView(
            rank=r,
            owned=np.flatnonzero(owner == r),
            ghosts=np.flatnonzero(ghost_flags[r]),
            ghost_mask=ghost_flags[r],
        )
        for r in range(k)
    ]

    # transpose ghost sets into send lists
    for r, view in enumerate(views):
        for other in views:
            if other.rank == r:
                continue
            mine_ghosted_there = other.ghosts[owner[other.ghosts] == r]
            if len(mine_ghosted_there):
                view.send_lists[other.rank] = mine_ghosted_there
    return views


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
        kernel=None,
        updater=None,
    ):
        super().__init__(
            graph, config, num_ranks, partition, kernel=kernel, updater=updater
        )
        self.views = build_rank_views(graph, self.partition)
        self.stats = HaloStats()
        #: cumulative halo bytes sent by each rank
        self.rank_bytes = [0] * num_ranks

    def _sync(self, next_comm: np.ndarray, moved: np.ndarray) -> np.ndarray:
        self.exchange_halo(next_comm, self.rank_movers(moved))
        return next_comm

    def exchange_halo(self, next_comm: np.ndarray, movers: list[np.ndarray]) -> None:
        """Price one iteration's halo exchange (and deliver it through
        :meth:`_deliver`): per-destination payloads, span, counters,
        :class:`HaloStats` and per-rank bytes.

        A payload is the sender's movers that the destination ghosts,
        read off the destination's ghost mask: the sorted intersection
        of the movers with the send list (which is exactly the sender-
        owned part of those ghosts), in O(movers) rather than a sort
        of the send list."""
        iteration_bytes = 0
        iteration_messages = 0
        halo_span = obs.span("halo/exchange", ranks=len(self.views))
        with halo_span:
            for view, rank_movers in zip(self.views, movers):
                view_bytes = 0
                for dest in view.send_lists:
                    payload = rank_movers[self.views[dest].ghost_mask[rank_movers]]
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
        super().collect(trace)
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
