"""Simulated GPU substrate.

The paper's memory-management contributions (Section 4) are about *where*
the DecideAndMove intermediate states live in the GPU memory hierarchy —
registers exchanged with warp primitives, a hashtable split across shared
and global memory — and how many accesses land on each level. This package
provides a functional simulator of exactly those mechanisms:

* :mod:`costmodel` / :mod:`profiler` — a cycle-cost model (A100-flavoured
  latencies) and named accounting buckets;
* :mod:`device`   — device configuration (warp size, shared-memory budget);
* :mod:`warp`     — warp-level primitives (``__match_any_sync``,
  ``__reduce_add_sync``, ``__reduce_max_sync``, ``__shfl_sync``) of one
  warp (:class:`~repro.gpusim.warp.WarpContext`);
* :mod:`hashtable` — the three hashtable designs the paper compares
  (global-only, unified, hierarchical), plus the batched
  structure-of-arrays execution of many tables at once;
* :mod:`nccl`     — ring AllReduce / AllGather collectives with a
  bandwidth-latency communication cost model (for multi-GPU scaling).

Simulated kernels execute real computation (they return bit-identical
community decisions to the vectorised backend — tested) while charging the
cost model for every simulated memory access, so relative kernel costs
reproduce the paper's orderings without CUDA hardware.

Two execution engines drive the simulated kernels:

* ``"batched"`` (default) — NumPy execution of whole launches per
  step: the shuffle kernel over each chunk's ``(vertex, community)``
  runs, the hash kernel through
  :class:`~repro.gpusim.hashtable.batched.BatchedTables`; bit-exact with
  the scalar engine in both decisions and every profiler counter
  (tested), and fast enough to run fig4/fig9 at paper-comparable scale;
* ``"scalar"``  — the one-vertex-at-a-time reference interpreter, kept
  only as the oracle the batched engine is tested against.

Select per kernel (``engine=...``) or process-wide via the
``REPRO_GPUSIM_ENGINE`` environment variable; no run config names one.
"""

import os

from repro.gpusim.costmodel import CostModel, MemoryKind
from repro.gpusim.device import Device, DeviceConfig
from repro.gpusim.profiler import SimProfiler
from repro.gpusim.warp import WarpContext

#: Engines the simulated kernels accept, in preference order.
ENGINES = ("batched", "scalar")


def resolve_engine(engine: str | None = None) -> str:
    """Resolve the gpusim execution engine.

    Explicit argument wins; otherwise the ``REPRO_GPUSIM_ENGINE``
    environment variable; otherwise ``"batched"``.
    """
    if engine is None:
        engine = os.environ.get("REPRO_GPUSIM_ENGINE") or "batched"
    engine = str(engine).lower()
    if engine not in ENGINES:
        raise ValueError(
            f"unknown gpusim engine {engine!r}; expected one of {list(ENGINES)}"
        )
    return engine


__all__ = [
    "CostModel",
    "MemoryKind",
    "Device",
    "DeviceConfig",
    "SimProfiler",
    "WarpContext",
    "ENGINES",
    "resolve_engine",
]
