"""Comparator implementations for the paper's Figure 5.

* :mod:`sequential` — the original sequential Louvain (Blondel et al.
  2008), with immediate state updates; the quality reference.
* :mod:`designs` — simulated-GPU re-implementations of the comparators'
  DecideAndMove *designs* on our cost model: Grappolo's global-memory
  hashtable BSP, cuGraph's sort/segmented-reduce formulation, Gunrock's
  frontier advance/filter, and nido's batched subgraph processing. All
  produce real community assignments; their simulated runtimes differ
  because their data paths do.
"""

from repro.baselines.sequential import SequentialResult, sequential_louvain
from repro.baselines.designs import (
    BaselineResult,
    run_baseline,
    run_gala_simulated,
    BASELINE_DESIGNS,
)

__all__ = [
    "SequentialResult",
    "sequential_louvain",
    "BaselineResult",
    "run_baseline",
    "run_gala_simulated",
    "BASELINE_DESIGNS",
]
