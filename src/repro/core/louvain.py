"""The full multi-round Louvain algorithm (phases 1 + 2, repeated).

Each round runs phase 1 (:func:`repro.core.phase1.run_phase1`) to local
convergence, then phase 2 contracts each community into a super-vertex
(:func:`repro.graph.coarsen.coarsen_graph`). Rounds repeat until a round no
longer improves modularity by ``round_theta``. The result keeps the whole
dendrogram so callers can inspect the hierarchical community structure the
paper describes in Section 2.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.kernels.vectorized import compiled_runtime
from repro.core.phase1 import Phase1Config, Phase1Result, run_phase1
from repro.graph.coarsen import coarsen_graph, coarsen_runtime
from repro.graph.csr import CSRGraph
from repro.obs import _session as obs


@dataclass
class LouvainLevel:
    """One round of the hierarchy."""

    graph: CSRGraph
    phase1: Phase1Result
    #: fine-vertex id -> community id *on this level's graph*
    mapping: np.ndarray


@dataclass
class LouvainResult:
    """Full hierarchical result.

    ``communities`` maps each original vertex to its final community;
    ``levels`` holds one entry per round (coarser and coarser graphs);
    ``modularity`` is the final (best) modularity on the original graph.
    """

    communities: np.ndarray
    modularity: float
    levels: list[LouvainLevel] = field(default_factory=list)
    #: attached :class:`~repro.obs.manifest.RunManifest` (set by ``gala()``)
    manifest: object = None

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def num_communities(self) -> int:
        return len(np.unique(self.communities))

    def communities_at_level(self, level: int) -> np.ndarray:
        """Original-vertex community assignment after round ``level``.

        ``level=0`` is the assignment after the first phase-1/phase-2 round.
        """
        if not (0 <= level < len(self.levels)):
            raise IndexError(f"level {level} out of range [0, {len(self.levels)})")
        comm = self.levels[level].phase1.communities
        # levels[i].mapping maps level-i vertices -> level-(i+1) vertices,
        # so compose the mappings downwards to reach the original graph.
        for i in range(level - 1, -1, -1):
            comm = comm[self.levels[i].mapping]
        return comm


#: pluggable per-round phase-1 entry point: ``(graph, config, round_idx)``
#: -> :class:`Phase1Result`. Lets a caller route specific rounds through a
#: different runtime (e.g. the multiprocess executor for round 0, where
#: the graph is large, and the local path for the tiny coarsened levels).
Phase1Runner = Callable[[CSRGraph, Phase1Config, int], Phase1Result]


def louvain(
    graph: CSRGraph,
    phase1_config: Phase1Config | None = None,
    round_theta: float = 1e-6,
    max_rounds: int = 20,
    phase1_runner: Optional[Phase1Runner] = None,
) -> LouvainResult:
    """Run the complete Louvain algorithm on ``graph``.

    Parameters
    ----------
    phase1_config:
        Configuration applied to every round's phase 1 (defaults to GALA's
        settings when called through :func:`repro.core.gala.gala`).
    round_theta:
        Stop when a full round improves modularity by less than this.
    max_rounds:
        Hard cap on the number of coarsening rounds.
    phase1_runner:
        Optional replacement for :func:`run_phase1`, called as
        ``phase1_runner(current, cfg, round_idx)``. Every runtime is
        bit-identical, so swapping runners per round changes execution,
        never the result.

    Phase 2 runs the compiled ``coarsen`` loop when the configured host
    kernel resolves to a compiled runtime (the rule of
    :func:`~repro.core.kernels.vectorized.compiled_runtime`), and the NumPy
    contraction otherwise; the coarse graphs are byte-identical. The final
    modularity of the flattened assignment likewise runs the runtime's
    ``internal_weights`` loop, with the same value.
    """
    cfg = phase1_config or Phase1Config()
    levels: list[LouvainLevel] = []
    current = graph
    best_q = -np.inf
    runtime = compiled_runtime(cfg.kernel)
    backend = "vectorized" if runtime is None else "jit"

    sess = obs.current()
    for round_idx in range(max_rounds):
        if sess is not None:
            sess.context["level"] = round_idx
        edges = current.num_edges
        with obs.span("louvain/level", level=round_idx, n=current.n, edges=edges):
            p1 = (
                phase1_runner(current, cfg, round_idx)
                if phase1_runner is not None
                else run_phase1(current, cfg)
            )
            with obs.span(
                "louvain/coarsen", n=current.n, edges=edges, backend=backend
            ), coarsen_runtime(runtime):
                coarse, mapping = coarsen_graph(current, p1.communities)
        levels.append(LouvainLevel(graph=current, phase1=p1, mapping=mapping))
        improved = p1.modularity - best_q
        best_q = max(best_q, p1.modularity)
        if improved < round_theta or coarse.n == current.n:
            break
        current = coarse
    if sess is not None:
        sess.context.pop("level", None)

    # Flatten the dendrogram onto the original vertices. The reported
    # modularity is recomputed on the flattened assignment so it is exact
    # for the returned communities by construction (phase 1 never returns
    # below its initial state, so this equals the best per-round value).
    communities = levels[-1].phase1.communities
    for lvl in reversed(levels[:-1]):
        communities = communities[lvl.mapping]
    from repro.core.modularity import modularity as q_of

    resolution = cfg.resolution if cfg is not None else 1.0
    return LouvainResult(
        communities=communities,
        modularity=float(
            q_of(graph, communities, resolution=resolution, runtime=runtime)
        ),
        levels=levels,
    )
