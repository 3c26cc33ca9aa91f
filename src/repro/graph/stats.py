"""Structural statistics used to characterise workloads.

The benchmark harness prints these alongside each stand-in graph so the
EXPERIMENTS.md record shows what each synthetic workload actually looks like
(degree skew, clustering, community-structure strength).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics for one graph."""

    name: str
    n: int
    num_edges: int
    total_weight: float
    min_degree: int
    max_degree: int
    mean_degree: float
    degree_skew: float
    frac_small_degree: float  # fraction with degree < 32 (shuffle-kernel share)
    frac_large_degree: float  # fraction with degree > 2000 (hash-kernel stress)

    def as_row(self) -> dict:
        return {
            "graph": self.name,
            "n": self.n,
            "m": self.num_edges,
            "|E|": round(self.total_weight, 1),
            "deg(min/mean/max)": f"{self.min_degree}/{self.mean_degree:.1f}/{self.max_degree}",
            "skew": round(self.degree_skew, 2),
            "deg<32": f"{100 * self.frac_small_degree:.0f}%",
            "deg>2000": f"{100 * self.frac_large_degree:.1f}%",
        }


def compute_stats(graph: CSRGraph) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph``."""
    deg = np.diff(graph.indptr)
    if graph.n == 0:
        return GraphStats(graph.name, 0, 0, 0.0, 0, 0, 0.0, 0.0, 0.0, 0.0)
    mean = float(deg.mean())
    std = float(deg.std())
    skew = float(((deg - mean) ** 3).mean() / std**3) if std > 0 else 0.0
    return GraphStats(
        name=graph.name,
        n=graph.n,
        num_edges=graph.num_edges,
        total_weight=graph.total_weight,
        min_degree=int(deg.min()),
        max_degree=int(deg.max()),
        mean_degree=mean,
        degree_skew=skew,
        frac_small_degree=float(np.mean(deg < 32)),
        frac_large_degree=float(np.mean(deg > 2000)),
    )


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Component label per vertex, via scipy's CSR connected components."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components as cc

    mat = sp.csr_matrix(
        (np.ones(len(graph.indices)), graph.indices, graph.indptr),
        shape=(graph.n, graph.n),
    )
    _, labels = cc(mat, directed=False)
    return labels
