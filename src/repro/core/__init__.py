"""GALA core: the parallel Louvain algorithm with modularity-gain pruning.

Public entry points:

* :func:`repro.core.gala.gala` — the full GALA pipeline (phase 1 + phase 2,
  multi-round, with MG pruning and delta weight updates on by default).
* :func:`repro.core.phase1.run_phase1` — one phase-1 optimisation of the
  BSP parallel Louvain algorithm (paper Algorithm 1), configurable pruning
  strategy / weight-update mode / kernel backend.
* :mod:`repro.core.engine` — the unified BSP loop every runtime (local,
  multi-GPU, multiprocess) is driven by: the :class:`Executor` protocol,
  :class:`ConvergenceTracker`, and the shared :class:`IterationTrace`
  record schema.
* :func:`repro.core.modularity.modularity` — Newman modularity (Eq. 1).
"""

from repro.core.modularity import modularity, modularity_gain_matrix
from repro.core.state import CommunityState
from repro.core.engine import (
    ConvergenceTracker,
    EngineResult,
    Executor,
    IterationTrace,
    run_engine,
)
from repro.core.phase1 import (
    LocalExecutor,
    Phase1Config,
    Phase1Result,
    run_phase1,
)
from repro.core.louvain import LouvainResult, louvain
from repro.core.gala import gala, GalaConfig
from repro.core.leiden import leiden, LeidenResult, refine_partition, split_disconnected_communities
from repro.core.dendrogram import Dendrogram, dendrogram_from_graph

__all__ = [
    "modularity",
    "modularity_gain_matrix",
    "CommunityState",
    "ConvergenceTracker",
    "EngineResult",
    "Executor",
    "IterationTrace",
    "run_engine",
    "LocalExecutor",
    "Phase1Config",
    "Phase1Result",
    "run_phase1",
    "LouvainResult",
    "louvain",
    "gala",
    "GalaConfig",
    "leiden",
    "LeidenResult",
    "refine_partition",
    "split_disconnected_communities",
    "Dendrogram",
    "dendrogram_from_graph",
]
