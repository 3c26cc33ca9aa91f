"""Sequential Louvain (Blondel et al. 2008) with immediate updates.

Unlike the BSP engine, state updates take effect the moment each vertex is
processed ("sequential algorithms update the state instantly as each vertex
is processed" — paper Section 2.3), which is the classic formulation and a
useful independent quality reference: the BSP engine's final modularity
should land in the same neighbourhood.

This implementation is deliberately plain Python + dicts per vertex — it is
a correctness baseline, not a performance one (the paper's Grappolo (CPU)
comparator plays the same role, 222x slower than GALA).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernels.vectorized import compiled_runtime
from repro.core.modularity import modularity
from repro.graph.coarsen import coarsen_graph, coarsen_runtime
from repro.graph.csr import CSRGraph


@dataclass
class SequentialResult:
    communities: np.ndarray
    modularity: float
    num_rounds: int
    num_passes: int


def _one_level(graph: CSRGraph, theta: float, max_passes: int) -> tuple[np.ndarray, int]:
    """One phase-1 optimisation with immediate updates; returns
    (communities, passes)."""
    n = graph.n
    comm = np.arange(n, dtype=np.int64)
    strength = graph.strength
    comm_strength = strength.copy()
    m = graph.total_weight
    two_m = graph.two_m
    if m == 0.0:
        return comm, 0

    passes = 0
    improved = True
    while improved and passes < max_passes:
        improved = False
        passes += 1
        for v in range(n):
            cv = int(comm[v])
            sv = strength[v]
            # weights to neighbouring communities
            d_by_comm: dict[int, float] = {}
            lo, hi = graph.indptr[v], graph.indptr[v + 1]
            for u, w in zip(graph.indices[lo:hi], graph.weights[lo:hi]):
                cu = int(comm[u])
                d_by_comm[cu] = d_by_comm.get(cu, 0.0) + float(w)
            # remove v from its community (immediate-update semantics)
            comm_strength[cv] -= sv
            d_own = d_by_comm.get(cv, 0.0)
            best_c, best_gain = cv, (d_own - comm_strength[cv] * sv / two_m) / m
            for c, d in d_by_comm.items():
                if c == cv:
                    continue
                gain = (d - comm_strength[c] * sv / two_m) / m
                if gain > best_gain or (gain == best_gain and c < best_c):
                    best_c, best_gain = c, gain
            comm[v] = best_c
            comm_strength[best_c] += sv
            if best_c != cv:
                improved = True
    return comm, passes


def sequential_louvain(
    graph: CSRGraph,
    theta: float = 1e-6,
    max_rounds: int = 20,
    max_passes: int = 100,
) -> SequentialResult:
    """Full sequential Louvain: repeated local passes + contraction."""
    current = graph
    levels: list[np.ndarray] = []
    mappings: list[np.ndarray] = []
    total_passes = 0
    best_q = -np.inf
    # contraction through the compiled loop where louvain() would use it
    runtime = compiled_runtime("auto")

    for _ in range(max_rounds):
        comm, passes = _one_level(current, theta, max_passes)
        total_passes += passes
        with coarsen_runtime(runtime):
            coarse, mapping = coarsen_graph(current, comm)
        levels.append(comm)
        mappings.append(mapping)
        # project down to the original graph to score
        flat = levels[-1]
        for mp in reversed(mappings[:-1]):
            flat = flat[mp]
        q = modularity(graph, flat)
        if q - best_q < theta or coarse.n == current.n:
            best_q = max(best_q, q)
            break
        best_q = q
        current = coarse

    flat = levels[-1]
    for mp in reversed(mappings[:-1]):
        flat = flat[mp]
    return SequentialResult(
        communities=flat,
        modularity=float(modularity(graph, flat)),
        num_rounds=len(levels),
        num_passes=total_passes,
    )
