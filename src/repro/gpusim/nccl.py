"""Simulated NCCL-style collectives with a bandwidth-latency cost model.

The multi-GPU runtime (paper Section 4.3) synchronises per-vertex state
after each iteration, choosing between:

* **dense** synchronisation — ``ncclAllReduce`` over full-length arrays;
* **sparse** synchronisation — ``ncclAllGather`` of only the changed
  (vertex, value) pairs;
* **halo** exchange — point-to-point sends of the movers each
  neighbouring device ghosts (the runtime delivers them; the
  communicator prices them).

The collectives here move real NumPy data between the simulated devices'
buffers *and* charge a standard ring-algorithm or point-to-point cost.
Each cost formula is one pricing method (:meth:`Communicator.allreduce_seconds`,
:meth:`~Communicator.allgather_seconds`,
:meth:`~Communicator.point_to_point_seconds`), which the collectives
charge through and the multi-GPU sync plan prices with.

Each participating device is charged the same wall-clock (collectives are
bulk-synchronous), converted to cycles via the device clock so computation
and communication live on one axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import DeviceError
from repro.gpusim.device import Device
from repro.obs import _session as obs


@dataclass
class Communicator:
    """A clique of simulated devices participating in collectives."""

    devices: Sequence[Device]

    def __post_init__(self) -> None:
        if len(self.devices) < 1:
            raise DeviceError("communicator needs at least one device")

    @property
    def size(self) -> int:
        return len(self.devices)

    # ------------------------------------------------------------------ #
    def charge(self, seconds: float, bucket: str) -> None:
        """Charge ``seconds`` to ``bucket`` on every device, in its cycles."""
        for dev in self.devices:
            cycles = seconds * dev.config.clock_hz
            dev.profiler.charge(bucket, cycles)

    def allreduce_seconds(self, nbytes: float) -> float:
        """Ring AllReduce of ``nbytes`` on ``k`` ranks:
        ``2 (k-1)/k * nbytes / bw`` plus ``2 (k-1)`` hop latencies."""
        k = self.size
        if k == 1:
            return 0.0
        cfg = self.devices[0].config
        bw_time = 2.0 * (k - 1) / k * nbytes / cfg.interconnect_bandwidth
        lat_time = 2.0 * (k - 1) * cfg.interconnect_latency
        return bw_time + lat_time

    def allgather_seconds(self, max_chunk_bytes: float) -> float:
        """Ring AllGather, lockstep, so priced by the largest rank chunk:
        ``(k-1) * max_chunk_bytes / bw`` plus ``(k-1)`` hop latencies."""
        k = self.size
        if k == 1:
            return 0.0
        cfg = self.devices[0].config
        bw_time = (k - 1) * max_chunk_bytes / cfg.interconnect_bandwidth
        lat_time = (k - 1) * cfg.interconnect_latency
        return bw_time + lat_time

    def point_to_point_seconds(
        self, rank_bytes: Sequence[int], rank_messages: Sequence[int]
    ) -> float:
        """A round in which rank ``r`` sends ``m_r`` messages of ``B_r``
        bytes in all: ``max_r (m_r * latency + B_r / bw)`` — a rank's
        sends share its link, and the round ends with its slowest rank."""
        if len(rank_bytes) != self.size or len(rank_messages) != self.size:
            raise DeviceError("need exactly one byte and message count per rank")
        cfg = self.devices[0].config
        return max(
            messages * cfg.interconnect_latency
            + nbytes / cfg.interconnect_bandwidth
            for nbytes, messages in zip(rank_bytes, rank_messages)
        )

    # ------------------------------------------------------------------ #
    def all_reduce_max(
        self, buffers: list[np.ndarray], bucket: str = "comm_dense"
    ) -> np.ndarray:
        """Element-wise max-AllReduce (dense sync of community arrays).

        Every rank contributes a full-length buffer; every rank receives
        the element-wise maximum. Charged as one ring AllReduce of the
        buffer size.
        """
        self._validate_buffers(buffers)
        seconds = self.allreduce_seconds(buffers[0].nbytes)
        with obs.span(
            "nccl/allreduce_max",
            bytes=int(buffers[0].nbytes),
            ranks=self.size,
            simulated_seconds=seconds,
            bucket=bucket,
        ):
            out = buffers[0].copy()
            for buf in buffers[1:]:
                np.maximum(out, buf, out=out)
        self.charge(seconds, bucket)
        self._count_bytes(out.nbytes, dense=True)
        obs.inc("nccl/collectives")
        return out

    def all_gather(
        self, chunks: list[np.ndarray], bucket: str = "comm_sparse"
    ) -> np.ndarray:
        """Concatenate every rank's chunk on every rank (sparse sync),
        charged by the *largest* per-rank chunk."""
        if len(chunks) != self.size:
            raise DeviceError("need exactly one chunk per rank")
        chunks = [np.atleast_1d(c) for c in chunks]
        total_bytes = sum(c.nbytes for c in chunks)
        seconds = self.allgather_seconds(max(c.nbytes for c in chunks))
        with obs.span(
            "nccl/allgather",
            bytes=int(total_bytes),
            ranks=self.size,
            simulated_seconds=seconds,
            bucket=bucket,
        ):
            out = np.concatenate(chunks)
        self.charge(seconds, bucket)
        self._count_bytes(total_bytes, dense=False)
        obs.inc("nccl/collectives")
        return out

    def point_to_point(
        self,
        rank_bytes: Sequence[int],
        rank_messages: Sequence[int],
        bucket: str = "comm_halo",
    ) -> None:
        """Charge one bulk-synchronous round of point-to-point sends (the
        halo exchange) to every device."""
        seconds = self.point_to_point_seconds(rank_bytes, rank_messages)
        self.charge(seconds, bucket)

    # ------------------------------------------------------------------ #
    def _validate_buffers(self, buffers: list[np.ndarray]) -> None:
        if len(buffers) != self.size:
            raise DeviceError("need exactly one buffer per rank")
        shapes = {b.shape for b in buffers}
        if len(shapes) != 1:
            raise DeviceError(f"buffer shapes differ across ranks: {shapes}")

    def _count_bytes(self, nbytes: float, dense: bool) -> None:
        key = "dense_bytes" if dense else "sparse_bytes"
        for dev in self.devices:
            dev.profiler.count(key, int(nbytes))
