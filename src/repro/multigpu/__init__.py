"""Multi-GPU scaling of GALA (paper Section 4.3).

Vertices (and their adjacency rows) are partitioned across simulated
devices; each device runs DecideAndMove for its own vertices, then the
per-iteration state (community ids, movement flags, community weights) is
synchronised with either a **dense** AllReduce or a **sparse** AllGather of
the changed vertices only, switched adaptively on communication volume —
or with a Vite-style **halo** exchange (paper ref [24]) of the boundary
movers only, over per-device owned + ghost mirrors.
"""

from repro.multigpu.sync import SyncMode, SyncPlan, choose_sync_mode
from repro.multigpu.runtime import (
    MultiGpuConfig,
    MultiGpuExecutor,
    MultiGpuResult,
    run_multigpu_phase1,
)

__all__ = [
    "SyncMode",
    "SyncPlan",
    "choose_sync_mode",
    "MultiGpuConfig",
    "MultiGpuExecutor",
    "MultiGpuResult",
    "run_multigpu_phase1",
]
