"""Multi-GPU BSP phase-1 runtime (paper Section 4.3, Figure 10).

Each simulated device owns a vertex partition. Per iteration (driven by
the unified engine in :mod:`repro.core.engine`):

1. every device runs DecideAndMove for its *owned, active* vertices and is
   charged a computation cost proportional to the adjacency it streamed
   (the same cost model as the single-GPU kernels);
2. devices exchange the updated per-vertex state with the configured
   dense/sparse/adaptive synchronisation, moving real buffers through the
   simulated NCCL communicator (charged with the ring cost model), or
   with the halo exchange (charged point to point);
3. every device applies the merged state and proceeds.

Under ``SyncMode.HALO`` a device holds no full replica: it decides
against a mirror that is valid only on its owned and ghost vertices
(every other entry is ``-1``), updates its owned entries from its own
moves and its ghosts from the halo messages it receives, and the
mirrors are checked against the global assignment after every
iteration.

Because the BSP snapshot every device computes from is identical, the
multi-GPU run produces **bit-identical communities** to the single-GPU
engine (a test invariant); what changes is the simulated time: computation
shrinks with more devices, communication does not — reproducing Figure
10(b)'s breakdown.

The loop and the commit step live in the executor core
(:class:`~repro.core.phase1.PartitionedExecutor`), the rank views and
halo accounting in :class:`~repro.multigpu.halo.HaloExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.engine import AlgorithmConfig, EngineResult, IterationTrace
from repro.graph.csr import CSRGraph
from repro.graph.partition import VertexPartition
from repro.gpusim.costmodel import MemoryKind
from repro.gpusim.device import Device, DeviceConfig
from repro.gpusim.nccl import Communicator
from repro.multigpu.halo import HaloExecutor, RankResult, halo_volume
from repro.multigpu.sync import (
    SyncMode,
    SyncPlan,
    choose_sync_mode,
    dense_sync_comm,
    sparse_sync_comm,
)
from repro.obs import _session as obs


@dataclass
class MultiGpuConfig(AlgorithmConfig):
    """:class:`~repro.core.engine.AlgorithmConfig` plus the device setup.
    ``oracle`` charges the full-set decide to the devices, so leave it off
    for the Figure 10 timing experiments."""

    pruning: str = "mg"
    num_gpus: int = 1
    sync_mode: SyncMode = SyncMode.ADAPTIVE
    device_config: DeviceConfig = field(default_factory=DeviceConfig)


@dataclass
class MultiGpuResult(RankResult):
    """Engine result plus per-device simulated time breakdown, and the
    rank views and halo accounting (empty unless the run synced by
    ``SyncMode.HALO``)."""

    devices: list[Device] = field(default_factory=list)
    partition: VertexPartition | None = None

    def compute_seconds(self) -> float:
        """Parallel computation time: the slowest device's compute cycles."""
        return max(
            d.cycles_to_seconds(d.profiler.cycles.get("compute", 0.0))
            for d in self.devices
        )

    def comm_seconds(self) -> float:
        """Communication time (identical on every device; take device 0)."""
        d = self.devices[0]
        comm = sum(
            v for k, v in d.profiler.cycles.items() if k.startswith("comm")
        )
        return d.cycles_to_seconds(comm)

    def total_seconds(self) -> float:
        return self.compute_seconds() + self.comm_seconds()


def _estimate_decide_cycles(
    graph: CSRGraph, active_idx: np.ndarray, device: Device
) -> float:
    """Computation cost of DecideAndMove over ``active_idx``.

    Same per-edge accounting as the simulated kernels: coalesced row loads
    (indices + weights), a scattered community load, gain ALU work, plus
    per-vertex fixed overhead — without the per-vertex Python loop, so the
    multi-GPU experiments can run at realistic sizes.
    """
    cost = device.config.cost
    degrees = np.diff(graph.indptr)[active_idx]
    edges = int(degrees.sum())
    n_vert = len(active_idx)
    cycles = (
        cost.access(MemoryKind.GLOBAL, edges, coalesced=True) * 2
        + cost.access(MemoryKind.GLOBAL, edges)
        + cost.alu(edges * 4)
        + cost.warp_primitive(n_vert * 3)
    )
    return cycles


class MultiGpuExecutor(HaloExecutor):
    """Partitioned executor: per-device decide, NCCL-synchronised apply
    (or, under ``SyncMode.HALO``, decide against per-device mirrors kept
    by the halo exchange)."""

    result_type = MultiGpuResult
    config: MultiGpuConfig

    def __init__(
        self,
        graph: CSRGraph,
        config: MultiGpuConfig,
        partition: VertexPartition | None = None,
    ):
        super().__init__(graph, config, config.num_gpus, partition)
        self.devices = [
            Device(config=config.device_config, device_id=i)
            for i in range(config.num_gpus)
        ]
        self.communicator = Communicator(self.devices)
        self.owned_masks = [
            self.partition.owner == i for i in range(config.num_gpus)
        ]
        self._last_plan: SyncPlan | None = None
        #: under HALO, each device's owned + ghost ids (the views never
        #: change) and its mirror of the assignment, -1 elsewhere: a read
        #: of a vertex the device does not mirror fails the soundness
        #: assert in :meth:`_halo_sync`
        halo = config.sync_mode is SyncMode.HALO
        self.visible = [view.visible() for view in self.views] if halo else []
        self.local_comm = [np.full(graph.n, -1, dtype=np.int64) for _ in self.visible]
        for mirror, vis in zip(self.local_comm, self.visible):
            mirror[vis] = self.state.comm[vis]

    def _rank_state(self, rank: int):
        # under HALO the device decides against its own mirror; the
        # community aggregates are the shared (allreduced) ones
        if not self.local_comm:
            return self.state
        return replace(self.state, comm=self.local_comm[rank])

    def _charge_decide(self, rank: int, idx: np.ndarray) -> None:
        dev = self.devices[rank]
        dev.profiler.charge(
            "compute", _estimate_decide_cycles(self.state.graph, idx, dev)
        )

    def _sync(self, next_comm: np.ndarray, moved: np.ndarray) -> np.ndarray:
        cfg = self.config
        movers = self.rank_movers(moved)
        num_moved = sum(len(m) for m in movers)
        messages = self.halo_messages(movers)
        rank_bytes, rank_messages = halo_volume(messages)

        # synchronise the new assignment across devices
        plan = choose_sync_mode(
            self.state.graph.n, num_moved, cfg.sync_mode, sum(rank_bytes)
        )
        self._last_plan = plan
        self.iteration_comm = (plan.chosen_bytes, 0)
        with obs.span(
            "sync/" + plan.mode.value,
            bytes=plan.chosen_bytes,
            moved=num_moved,
            dense_bytes=plan.dense_bytes,
            sparse_bytes=plan.sparse_bytes,
            halo_bytes=plan.halo_bytes,
        ):
            if plan.mode is SyncMode.DENSE:
                merged = dense_sync_comm(
                    [next_comm] * cfg.num_gpus, self.owned_masks, self.communicator
                )
            elif plan.mode is SyncMode.HALO:
                merged = self._halo_sync(next_comm, movers, messages)
                self.communicator.point_to_point(rank_bytes, rank_messages)
            else:
                merged = sparse_sync_comm(next_comm, movers, self.communicator)
                if cfg.num_gpus > 1:
                    # local scatter overhead of the sparse representation — a
                    # bulk rearrangement kernel, so charged at streaming rates
                    for dev in self.devices:
                        dev.profiler.charge(
                            "comm_sparse_scatter",
                            dev.config.cost.access(
                                MemoryKind.GLOBAL, max(num_moved, 1), coalesced=True
                            ),
                        )
        obs.inc("sync/plan_bytes_total", plan.chosen_bytes)
        np.testing.assert_array_equal(merged, next_comm)  # sync soundness

        # every device holds the merged state; charge the weight-update
        # stream of each device's movers to its owner
        for dev, rank_movers in zip(self.devices, movers):
            dev.profiler.charge(
                "compute",
                dev.config.cost.access(MemoryKind.GLOBAL, max(len(rank_movers), 1)),
            )
        return merged

    def _halo_sync(self, next_comm, movers, messages) -> np.ndarray:
        """Each device writes its own moves into its mirror, then the halo
        exchange delivers the moves every device ghosts."""
        for mirror, rank_movers in zip(self.local_comm, movers):
            mirror[rank_movers] = next_comm[rank_movers]
        self.exchange_halo(next_comm, messages)
        # soundness of the mirrors: every device's visible entries match
        # the global assignment after the exchange
        for mirror, vis in zip(self.local_comm, self.visible):
            np.testing.assert_array_equal(mirror[vis], next_comm[vis])
        return next_comm

    def _deliver(self, dest: int, payload: np.ndarray, next_comm: np.ndarray) -> None:
        self.local_comm[dest][payload] = next_comm[payload]

    def collect(self, trace: IterationTrace) -> None:
        super().collect(trace)
        trace.sync_plan = self._last_plan

    def profilers(self) -> dict:
        return {f"dev{d.device_id}": d.profiler for d in self.devices}

    def result(self, result: EngineResult) -> MultiGpuResult:
        return super().result(result, devices=self.devices, partition=self.partition)


def run_multigpu_phase1(
    graph: CSRGraph,
    config: MultiGpuConfig | None = None,
    partition: VertexPartition | None = None,
) -> MultiGpuResult:
    """Run phase 1 distributed over ``config.num_gpus`` simulated devices."""
    cfg = config or MultiGpuConfig()
    return MultiGpuExecutor(graph, cfg, partition).run()
