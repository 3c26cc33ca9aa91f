"""Modularity (paper Eq. 1) and modularity-gain (Eq. 2) computations.

Conventions match :class:`repro.graph.csr.CSRGraph`: ``2|E|`` equals the sum
of weighted degrees, self-loops count twice towards both the degree and the
internal community weight ``D_C(C)``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.arrays import ordered_sum

#: modularity values feed the cross-backend exactness matrix — float
#: reductions here must keep a pinned order (lint rule float-accumulation)
__bitexact__ = True


def community_internal_weights(
    graph: CSRGraph,
    communities: np.ndarray,
    minlength: int | None = None,
    runtime=None,
) -> np.ndarray:
    """``D_C(C)`` per community id: internal edge weight, each edge twice.

    ``D_C(C) = sum_{v in C} d_C(v)`` — every intra-community non-loop edge
    contributes its weight from both endpoints, and each self-loop
    contributes ``2 w``. A compiled ``runtime`` (a
    :class:`~repro.core.kernels.jit.JitRuntime`) adds the same terms in
    the same order in one sequential ``internal_weights`` loop, for ids
    that are non-negative integers.
    """
    communities = np.asarray(communities)
    k = minlength if minlength is not None else int(communities.max()) + 1 if len(communities) else 0
    if (
        runtime is not None
        and len(communities)
        and np.can_cast(communities.dtype, np.int64)
        and 0 <= communities.min()
        and communities.max() < k
    ):
        internal = np.zeros(k, dtype=np.float64)
        runtime.internal_weights(
            graph.indptr, graph.indices, graph.weights, graph.self_weight,
            np.ascontiguousarray(communities, dtype=np.int64), internal,
        )
        return internal
    row = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    intra = communities[row] == communities[graph.indices]
    internal = np.zeros(k, dtype=np.float64)
    if np.any(intra):
        np.add.at(internal, communities[row[intra]], graph.weights[intra])
    np.add.at(internal, communities, 2.0 * graph.self_weight)
    return internal


def community_total_strengths(
    graph: CSRGraph, communities: np.ndarray, minlength: int | None = None
) -> np.ndarray:
    """``D_V(C)`` per community id: summed weighted degree of members."""
    communities = np.asarray(communities)
    k = minlength if minlength is not None else int(communities.max()) + 1 if len(communities) else 0
    return np.bincount(communities, weights=graph.strength, minlength=k)


def modularity(
    graph: CSRGraph,
    communities: np.ndarray,
    resolution: float = 1.0,
    runtime=None,
) -> float:
    """Newman modularity ``Q`` of a community assignment (paper Eq. 1).

    ``Q = sum_C [ D_C(C) / 2|E| - gamma (D_V(C) / 2|E|)^2 ]``.

    ``resolution`` is the Reichardt-Bornholdt / CPM-style ``gamma`` the
    paper's introduction points to for escaping the resolution limit
    ([4, 30]): ``gamma > 1`` favours more, smaller communities;
    ``gamma < 1`` fewer, larger ones; ``gamma = 1`` is Eq. 1 verbatim.

    ``runtime`` is passed to :func:`community_internal_weights`; the
    value is the same with or without it.
    """
    two_m = graph.two_m
    if two_m == 0.0:
        return 0.0
    internal = community_internal_weights(graph, communities, runtime=runtime)
    totals = community_total_strengths(graph, communities, minlength=len(internal))
    return ordered_sum(internal / two_m - resolution * (totals / two_m) ** 2)


def modularity_gain(
    graph: CSRGraph,
    d_c_v: float,
    strength_v: float,
    community_strength: float,
) -> float:
    """Gain ``ΔQ_{v→C}`` of placing ``v`` into community ``C`` (Eq. 2).

    Parameters
    ----------
    d_c_v:
        ``d_C(v)`` — weight between ``v`` and the members of ``C``.
    strength_v:
        ``d(v)`` — weighted degree of ``v``.
    community_strength:
        ``D_V(C)`` — total strength of ``C`` **not counting v** (callers
        must subtract ``d(v)`` first when ``v`` is currently a member).
    """
    m = graph.total_weight
    return (d_c_v - community_strength * strength_v / (2.0 * m)) / m


def modularity_gain_matrix(
    graph: CSRGraph,
    communities: np.ndarray,
    remove_self: bool = True,
    resolution: float = 1.0,
):
    """Dense reference: gain of moving each vertex to each *neighbouring*
    community, as a dict ``{v: {community_id: gain}}``.

    Quadratic bookkeeping; intended for unit tests and tiny examples only.
    The vectorised engine must agree with this on every graph (tested).
    """
    comm = np.asarray(communities)
    strength = graph.strength
    totals = community_total_strengths(graph, comm)
    m = graph.total_weight
    out: dict[int, dict[int, float]] = {}
    for v in range(graph.n):
        nbrs = graph.neighbors(v)
        ws = graph.neighbor_weights(v)
        d_by_comm: dict[int, float] = {}
        for u, w in zip(nbrs, ws):
            d_by_comm[int(comm[u])] = d_by_comm.get(int(comm[u]), 0.0) + float(w)
        cv = int(comm[v])
        d_by_comm.setdefault(cv, 0.0)
        gains: dict[int, float] = {}
        for c, d in d_by_comm.items():
            total = totals[c]
            if c == cv and remove_self:
                total = total - strength[v]
            gains[c] = (d - resolution * total * strength[v] / (2.0 * m)) / m
        out[v] = gains
    return out
