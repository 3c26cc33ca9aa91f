"""Edge-list to CSR construction.

The builder is the single chokepoint through which every generator and loader
produces a :class:`~repro.graph.csr.CSRGraph`, so the conventions (symmetric
adjacency, coalesced parallel edges, loops held out in ``self_weight``) are
enforced in exactly one place.
"""

from __future__ import annotations

import numpy as np

from repro import analysis
from repro.errors import GraphValidationError
from repro.graph.csr import CSRGraph


def validate_graph(graph: CSRGraph, source: str | None = None) -> CSRGraph:
    """Fail-fast CSR audit: raise on any structural finding.

    Runs the :mod:`repro.analysis` CSR validator (indptr shape, index
    range, sorted/duplicate-free rows, symmetry, weight parity with
    ``2m``) and raises :class:`GraphValidationError` carrying the
    structured finding records when anything is wrong. Loaders call this
    on every graph read from disk; returns the graph so it can wrap a
    construction expression.
    """
    findings = analysis.validate_csr(graph, source=source)
    if findings:
        detail = "\n".join(f"  - {f}" for f in findings[:10])
        raise GraphValidationError(
            f"{source or graph.name}: CSR validation failed with "
            f"{len(findings)} finding(s):\n{detail}",
            findings=findings,
        )
    return graph


def symmetrize_edges(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mirror every non-loop edge so both directions are present.

    Input edges may be directed or carry each undirected edge once; loops are
    passed through unchanged (they are split out later by ``coalesce_edges``).
    """
    loop = src == dst
    s2 = np.concatenate([src, dst[~loop]])
    d2 = np.concatenate([dst, src[~loop]])
    w2 = np.concatenate([w, w[~loop]])
    return s2, d2, w2


def coalesce_edges(
    n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sum parallel edges and split out self-loops.

    Returns ``(src, dst, w, self_weight)`` where the first three arrays carry
    the coalesced non-loop edges (both directions) sorted by ``(src, dst)``,
    and ``self_weight[v]`` is the summed loop weight at ``v``.
    """
    self_weight = np.zeros(n, dtype=np.float64)
    loop = src == dst
    if np.any(loop):
        np.add.at(self_weight, src[loop], w[loop])
        src, dst, w = src[~loop], dst[~loop], w[~loop]
    if len(src) == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), np.empty(0, dtype=np.float64), self_weight
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    # Collapse runs of identical (src, dst) pairs.
    new_run = np.empty(len(src), dtype=bool)
    new_run[0] = True
    new_run[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    run_starts = np.flatnonzero(new_run)
    w_sum = np.add.reduceat(w, run_starts)
    return src[run_starts], dst[run_starts], w_sum, self_weight


def build_csr(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
    self_weight: np.ndarray,
    name: str = "graph",
) -> CSRGraph:
    """Assemble a CSR graph from *already symmetric, coalesced* edges.

    ``src``/``dst``/``w`` must contain both directions of every non-loop edge
    exactly once and be sorted by ``(src, dst)``; ``coalesce_edges`` produces
    exactly this form.
    """
    counts = np.bincount(src, minlength=n) if len(src) else np.zeros(n, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return CSRGraph(
        indptr=indptr,
        indices=dst.astype(np.int64, copy=False),
        weights=w.astype(np.float64, copy=False),
        self_weight=self_weight.astype(np.float64, copy=False),
        name=name,
    )


def from_edge_array(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray | float | None = None,
    name: str = "graph",
) -> CSRGraph:
    """Build a graph from a raw edge list (the main public entry point).

    Parameters
    ----------
    n:
        Number of vertices; edges must reference ids in ``[0, n)``.
    src, dst:
        Edge endpoint arrays, one undirected edge per entry (in either
        direction). Parallel edges are summed — an edge listed in both
        directions counts twice; self-loops are routed into ``self_weight``.
    w:
        Edge weights; a scalar (or None, meaning 1.0) is broadcast.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise GraphValidationError("src and dst must have equal shape")
    if len(src) and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
        raise GraphValidationError(f"edge endpoint out of range [0, {n})")
    if w is None:
        w = 1.0
    if np.isscalar(w):
        w = np.full(len(src), float(w), dtype=np.float64)
    else:
        w = np.asarray(w, dtype=np.float64)
        if w.shape != src.shape:
            raise GraphValidationError("w must match src/dst shape")
    if np.any(w < 0):
        raise GraphValidationError("negative edge weight")
    src, dst, w = symmetrize_edges(src, dst, w)
    s, d, ww, self_w = coalesce_edges(n, src, dst, w)
    graph = build_csr(n, s, d, ww, self_w, name=name)
    # Under an active sanitizer session every constructed graph gets the
    # full CSR audit — the generators and phase-2 contraction all funnel
    # through here, so a builder bug surfaces as a recorded finding even
    # before the engine's own per-level audit runs.
    san = analysis.current()
    if san is not None:
        san.audit_graph(graph, source=f"builder:{name}")
    return graph
