"""Distributed BSP phase 1 with halo exchange (Vite-style, paper ref [24]).

Each simulated rank holds its own community array, valid only on its
owned + ghost entries. Per iteration (driven by the unified engine in
:mod:`repro.core.engine`):

1. every rank runs DecideAndMove for its owned active vertices against
   its local view (ghost community ids + globally allreduced community
   aggregates — the same consistent BSP snapshot every rank shares);
2. each rank applies its own moves, then sends each neighbouring rank
   exactly the (vertex, new community) pairs that rank ghosts — the halo
   exchange, with per-message byte/latency accounting;
3. community strengths are rebuilt from per-rank owned contributions with
   one AllReduce (they are O(#communities), not O(n)).

Because every rank computes from the identical BSP snapshot, the final
assignment is bit-identical to the single-engine result for any rank
count and any partition (tested). What differs — and what this module
measures — is the communication: halo volume is proportional to the
*boundary* moved vertices, not to n.

Everything but the rank mirrors lives in the executor core
(:class:`~repro.core.phase1.PartitionedExecutor`) and the halo exchange
(:class:`~repro.distributed.halo.HaloExecutor`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import AlgorithmConfig
from repro.core.state import CommunityState
from repro.distributed.halo import HaloExecutor, RankResult
from repro.graph.csr import CSRGraph
from repro.graph.partition import VertexPartition


@dataclass
class DistributedConfig(AlgorithmConfig):
    """:class:`~repro.core.engine.AlgorithmConfig` plus the rank count."""

    pruning: str = "mg"
    num_ranks: int = 2


@dataclass
class DistributedResult(RankResult):
    """Result of a simulated distributed run."""


class DistributedExecutor(HaloExecutor):
    """Rank-partitioned executor: local-mirror decide, halo-exchange apply."""

    result_type = DistributedResult

    def __init__(
        self,
        graph: CSRGraph,
        config: DistributedConfig,
        partition: VertexPartition | None = None,
    ):
        super().__init__(graph, config, config.num_ranks, partition)
        #: each rank's owned + ghost ids; the views never change, so the
        #: sorted union is built once
        self.visible: list[np.ndarray] = [view.visible() for view in self.views]
        # Per-rank local community arrays. Entries outside owned+ghost are
        # poisoned with -1 so any read of a non-mirrored vertex is caught
        # by the soundness assertion in _sync.
        self.local_comm: list[np.ndarray] = []
        for vis in self.visible:
            arr = np.full(graph.n, -1, dtype=np.int64)
            arr[vis] = vis  # singleton initialisation
            self.local_comm.append(arr)

    def _rank_state(self, rank: int) -> CommunityState:
        # the rank decides against ITS OWN mirrored ids; the community
        # aggregates are the shared (allreduced) ones
        state = self.state
        return CommunityState(
            graph=state.graph,
            comm=self.local_comm[rank],
            d_comm=state.d_comm,
            comm_strength=state.comm_strength,
            comm_size=state.comm_size,
            resolution=state.resolution,
        )

    def _sync(self, next_comm: np.ndarray, moved: np.ndarray) -> np.ndarray:
        # each rank updates its own mirror with its own moves, then the
        # halo exchange delivers the updates every rank ghosts
        movers = self.rank_movers(moved)
        for view, rank_movers in zip(self.views, movers):
            self.local_comm[view.rank][rank_movers] = next_comm[rank_movers]
        self.exchange_halo(next_comm, movers)
        # Soundness of the mirrors: every rank's visible entries must
        # match the global assignment after the exchange.
        for local, vis in zip(self.local_comm, self.visible):
            np.testing.assert_array_equal(local[vis], next_comm[vis])
        return next_comm

    def _deliver(self, dest: int, payload: np.ndarray, next_comm: np.ndarray) -> None:
        self.local_comm[dest][payload] = next_comm[payload]


def run_distributed_phase1(
    graph: CSRGraph,
    config: DistributedConfig | None = None,
    partition: VertexPartition | None = None,
) -> DistributedResult:
    """Run phase 1 across simulated ranks with halo-exchange consistency."""
    cfg = config or DistributedConfig()
    return DistributedExecutor(graph, cfg, partition).run()
