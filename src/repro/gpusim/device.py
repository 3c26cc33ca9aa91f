"""Simulated GPU device configuration.

Defaults approximate the paper's NVIDIA A100-40GB: warps of 32,
up to 164 KB of shared memory per SM (we model the common 48 KB per-block
carve-out), and NVLink inter-GPU bandwidth for the multi-GPU runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DeviceError
from repro.gpusim.costmodel import CostModel
from repro.gpusim.profiler import SimProfiler


@dataclass(frozen=True)
class DeviceConfig:
    """Static device parameters."""

    name: str = "sim-a100"
    warp_size: int = 32
    max_threads_per_block: int = 1024
    #: shared memory available to one block, in bytes
    shared_mem_per_block: int = 48 * 1024
    #: bytes per hashtable bucket (key int32 + two float32 values + pad)
    bucket_bytes: int = 16
    #: SM clock in Hz — converts simulated cycles to simulated seconds
    clock_hz: float = 1.41e9
    #: NVLink-ish per-link bandwidth for the NCCL cost model (bytes/s)
    interconnect_bandwidth: float = 200e9
    #: per-message latency of a collective hop (seconds)
    interconnect_latency: float = 5e-6
    cost: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        for name in (
            "warp_size",
            "max_threads_per_block",
            "shared_mem_per_block",
            "bucket_bytes",
            "clock_hz",
            "interconnect_bandwidth",
        ):
            value = getattr(self, name)
            if not value > 0:
                raise DeviceError(f"{name} must be positive, got {value!r}")
        if not self.interconnect_latency >= 0:
            raise DeviceError(
                f"interconnect_latency must be non-negative, "
                f"got {self.interconnect_latency!r}"
            )
        if self.max_threads_per_block < self.warp_size:
            raise DeviceError(
                f"max_threads_per_block ({self.max_threads_per_block}) must "
                f"hold at least one warp ({self.warp_size})"
            )

    def max_shared_buckets(self) -> int:
        """How many hashtable buckets fit in one block's shared memory."""
        return self.shared_mem_per_block // self.bucket_bytes

    def validate_block(self, threads: int) -> None:
        if not (1 <= threads <= self.max_threads_per_block):
            raise DeviceError(
                f"block of {threads} threads outside "
                f"[1, {self.max_threads_per_block}]"
            )
        if threads % self.warp_size != 0 and threads >= self.warp_size:
            raise DeviceError(
                f"block size {threads} must be a multiple of the warp size "
                f"{self.warp_size}"
            )


@dataclass
class Device:
    """One simulated GPU: configuration plus its accounting profiler."""

    config: DeviceConfig = field(default_factory=DeviceConfig)
    profiler: SimProfiler = field(default_factory=SimProfiler)
    device_id: int = 0

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.config.clock_hz

    @property
    def simulated_seconds(self) -> float:
        """Total simulated runtime accumulated so far."""
        return self.cycles_to_seconds(self.profiler.total_cycles)

    def reset(self) -> None:
        self.profiler.reset()
