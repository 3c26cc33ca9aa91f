"""Phase-2 graph contraction ("aggregation") of the Louvain algorithm.

Given a community assignment, build the compressed graph in which every
community becomes a super-vertex, inter-community edge weights are summed
into super-edges, and intra-community weight (including original self-loops)
becomes the super-vertex's self-loop — such that modularity of any partition
of the coarse graph equals the modularity of the induced partition of the
fine graph (tested in ``tests/graph/test_coarsen.py``).

Two implementations produce byte-identical coarse graphs: the NumPy
contraction below (project, ``np.lexsort``, ``np.add.reduceat``) and the
counting-sort ``coarsen`` loop of the compiled jit providers
(:mod:`repro.core.kernels.jit`), which :func:`coarsen_graph` runs when
:func:`coarsen_runtime` has bound a compiled runtime.
Summation convention, shared by both:

* a super-vertex's self-loop weight accumulates sequentially from 0.0 —
  first ``0.5 * w`` of every intra-community entry in CSR order, then
  every fine self-loop in vertex order (``np.bincount``'s order);
* a super-edge's weight sums its parallel fine entries in
  ``np.lexsort((dst, src))`` order (CSR order within a run) the way
  ``np.add.reduceat`` does: ``run[0] + pairwise_sum(run[1:])``, where
  ``pairwise_sum`` is numpy's blocked summation (sequential from -0.0
  below 8 elements, 8 accumulators up to 128, halving above). The probe
  of a compiled provider checks it against this module's NumPy path, so
  a numpy with a different ``reduceat`` order disables the compiled path
  rather than changing results.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.builder import coalesce_edges, build_csr
from repro.utils.arrays import compact_relabel

if TYPE_CHECKING:
    from repro.core.kernels.jit import JitRuntime

#: the compiled runtime :func:`coarsen_runtime` bound for this context
_bound_runtime: ContextVar[Optional[JitRuntime]] = ContextVar(
    "coarsen_runtime", default=None
)


@contextmanager
def coarsen_runtime(runtime: Optional[JitRuntime]) -> Iterator[None]:
    """Bind ``runtime`` (a compiled
    :class:`~repro.core.kernels.jit.JitRuntime`, or None for NumPy) for
    every :func:`coarsen_graph` call in the block.

    Every caller binds its contraction this way, so the choice also
    reaches a wrapper that forwards only ``(graph, communities)`` — such
    as the timing seam of ``perfbench``.
    """
    token = _bound_runtime.set(runtime)
    try:
        yield
    finally:
        _bound_runtime.reset(token)


def coarsen_graph(
    graph: CSRGraph, communities: np.ndarray
) -> tuple[CSRGraph, np.ndarray]:
    """Contract ``graph`` by ``communities``.

    The compiled ``coarsen`` loop of the runtime bound by
    :func:`coarsen_runtime` builds the coarse graph, else the NumPy
    contraction; both give byte-identical results.

    Parameters
    ----------
    graph:
        The fine graph.
    communities:
        ``int[n]`` community id per vertex (ids need not be compact).

    Returns
    -------
    (coarse_graph, mapping):
        ``mapping[v]`` is the compact super-vertex id of fine vertex ``v``.
        Super-vertex ids preserve the order of the original community ids.
    """
    communities = np.asarray(communities)
    if len(communities) != graph.n:
        raise ValueError("communities must assign every vertex")
    runtime = _bound_runtime.get()
    if runtime is not None:
        indptr, indices, weights, self_weight, mapping = runtime.coarsen(
            graph.indptr, graph.indices, graph.weights, graph.self_weight,
            communities,
        )
        coarse = CSRGraph(indptr=indptr, indices=indices, weights=weights,
                          self_weight=self_weight, name=f"{graph.name}/coarse")
        return coarse, mapping
    mapping, k = compact_relabel(communities)

    # Project every stored (directed) adjacency entry onto super-vertices
    # (row_ids is cached on the graph, so no repeat is materialised here).
    super_src = mapping[graph.row_ids]
    super_dst = mapping[graph.indices]

    intra = super_src == super_dst
    # Intra-community non-loop edges: each undirected edge appears twice in
    # the directed representation, so w.sum() over intra entries equals
    # 2 * (undirected intra weight). A coarse self-loop of weight W
    # contributes 2W to the super-vertex degree, so the loop weight is
    # w_intra_directed_sum / 2, matching D_C(C) = 2 * loop + ... convention.
    # Original fine self-loops then carry over at face value. One sort-free
    # bincount accumulates both contributions; halving each intra weight
    # up front is bit-identical to halving the sum (exact scaling by 2).
    self_weight = np.bincount(
        np.concatenate([super_src[intra], mapping]),
        weights=np.concatenate(
            [graph.weights[intra] * 0.5, graph.self_weight]
        ),
        minlength=k,
    )

    s, d, w = super_src[~intra], super_dst[~intra], graph.weights[~intra]
    # The directed representation already carries both directions, so the
    # coalesced result is symmetric by construction.
    s2, d2, w2, extra_loops = coalesce_edges(k, s, d, w)
    assert not np.any(extra_loops), "loops were filtered above"
    coarse = build_csr(k, s2, d2, w2, self_weight, name=f"{graph.name}/coarse")
    return coarse, mapping


def project_communities(
    mapping: np.ndarray, coarse_communities: np.ndarray
) -> np.ndarray:
    """Pull a coarse-graph community assignment back to the fine graph.

    ``mapping`` is the fine→coarse vertex map returned by
    :func:`coarsen_graph`; the result assigns each fine vertex the community
    of its super-vertex.
    """
    return np.asarray(coarse_communities)[np.asarray(mapping)]
