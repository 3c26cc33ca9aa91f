"""Cycle-cost model of the simulated GPU's memory hierarchy.

Latency constants approximate an NVIDIA A100 (the paper's hardware) in SM
clock cycles. Absolute values matter less than the *ratios* — the
experiments report relative speedups, and the ratios (register ≪ shared ≪
global, atomics costlier than plain accesses, warp primitives ≈ a few
cycles) are what drive the paper's Figures 4/6/9.

Coalescing: a warp accessing consecutive global addresses is served by a
single memory transaction. The kernels pass ``coalesced=True`` for their
streaming loads of adjacency rows (consecutive by construction), in which
case the per-access cost is divided by the warp width, modelling perfect
coalescing; scattered accesses (hash probes, community lookups) pay the
full per-transaction latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class MemoryKind(str, Enum):
    """Levels of the simulated memory hierarchy."""

    REGISTER = "register"
    SHARED = "shared"
    GLOBAL = "global"


@dataclass(frozen=True)
class CostModel:
    """Latency table, in SM cycles."""

    register_cycles: float = 1.0
    shared_cycles: float = 25.0
    global_cycles: float = 400.0
    #: additional cost of an atomic beyond the plain access (reservation +
    #: L2 round trip for global atomics)
    shared_atomic_cycles: float = 30.0
    global_atomic_cycles: float = 200.0
    #: one warp-level primitive (__match_any_sync / __reduce_*_sync / shfl)
    warp_primitive_cycles: float = 6.0
    #: plain ALU op
    alu_cycles: float = 1.0
    warp_size: int = 32

    def access(self, kind: MemoryKind, n: int = 1, coalesced: bool = False) -> float:
        """Cycles for ``n`` accesses at level ``kind``."""
        base = {
            MemoryKind.REGISTER: self.register_cycles,
            MemoryKind.SHARED: self.shared_cycles,
            MemoryKind.GLOBAL: self.global_cycles,
        }[kind]
        if coalesced and kind is MemoryKind.GLOBAL:
            # n consecutive addresses -> ceil(n / warp_size) transactions
            transactions = -(-n // self.warp_size)
            return base * transactions
        return base * n

    def atomic(self, kind: MemoryKind, n: int = 1) -> float:
        """Cycles for ``n`` atomics."""
        if kind is MemoryKind.SHARED:
            per = self.shared_cycles + self.shared_atomic_cycles
        elif kind is MemoryKind.GLOBAL:
            per = self.global_cycles + self.global_atomic_cycles
        else:
            raise ValueError("atomics operate on shared or global memory")
        return per * n

    def warp_primitive(self, n: int = 1) -> float:
        return self.warp_primitive_cycles * n

    def alu(self, n: int = 1) -> float:
        return self.alu_cycles * n


def shared_bank_conflict_factor(addresses, banks: int = 32) -> int:
    """Serialisation factor of one simultaneous shared-memory warp access.

    Shared memory is striped over ``banks`` banks; lanes hitting *distinct*
    addresses in the same bank serialise, while lanes reading the *same*
    address broadcast for free. Returns the worst per-bank count of
    distinct addresses (>= 1 when any access happens).
    """
    import numpy as np

    addresses = np.asarray(addresses, dtype=np.int64)
    if len(addresses) == 0:
        return 0
    unique = np.unique(addresses)  # same-address lanes broadcast
    per_bank = np.bincount(unique % banks, minlength=banks)
    return int(per_bank.max())
