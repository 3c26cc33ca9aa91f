"""Simulated NCCL-style collectives with a bandwidth-latency cost model.

The multi-GPU runtime (paper Section 4.3) synchronises per-vertex state
after each iteration, choosing between:

* **dense** synchronisation — ``ncclAllReduce`` over full-length arrays;
* **sparse** synchronisation — ``ncclAllGather`` of only the changed
  (vertex, value) pairs.

The collectives here move real NumPy data between the simulated devices'
buffers *and* charge a standard ring-algorithm cost:

* ring AllReduce of ``B`` bytes on ``k`` ranks: ``2 (k-1)/k * B / bw``
  plus ``2 (k-1)`` hop latencies;
* ring AllGather of ``B`` bytes per rank: ``(k-1) * B / bw`` plus
  ``(k-1)`` hop latencies.

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
    def _charge_all(self, seconds: float, bucket: str) -> None:
        for dev in self.devices:
            cycles = seconds * dev.config.clock_hz
            dev.profiler.charge(bucket, cycles)

    def _ring_allreduce_seconds(self, nbytes: float) -> float:
        k = self.size
        if k == 1:
            return 0.0
        cfg = self.devices[0].config
        bw_time = 2.0 * (k - 1) / k * nbytes / cfg.interconnect_bandwidth
        lat_time = 2.0 * (k - 1) * cfg.interconnect_latency
        return bw_time + lat_time

    def _ring_allgather_seconds(self, nbytes_per_rank: float) -> float:
        k = self.size
        if k == 1:
            return 0.0
        cfg = self.devices[0].config
        bw_time = (k - 1) * nbytes_per_rank / cfg.interconnect_bandwidth
        lat_time = (k - 1) * cfg.interconnect_latency
        return bw_time + lat_time

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
        seconds = self._ring_allreduce_seconds(buffers[0].nbytes)
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
        self._charge_all(seconds, bucket)
        self._count_bytes(out.nbytes, dense=True)
        obs.inc("nccl/collectives")
        return out

    def all_gather(
        self, chunks: list[np.ndarray], bucket: str = "comm_sparse"
    ) -> np.ndarray:
        """Concatenate every rank's chunk on every rank (sparse sync).

        Cost follows the *largest* per-rank chunk (ring steps are lockstep).
        """
        if len(chunks) != self.size:
            raise DeviceError("need exactly one chunk per rank")
        max_bytes = max((np.atleast_1d(c).nbytes for c in chunks), default=0)
        total_bytes = sum(np.atleast_1d(c).nbytes for c in chunks)
        seconds = self._ring_allgather_seconds(max_bytes)
        with obs.span(
            "nccl/allgather",
            bytes=int(total_bytes),
            ranks=self.size,
            simulated_seconds=seconds,
            bucket=bucket,
        ):
            out = np.concatenate([np.atleast_1d(c) for c in chunks])
        self._charge_all(seconds, bucket)
        self._count_bytes(total_bytes, dense=False)
        obs.inc("nccl/collectives")
        return out

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
